"""The reproduction's benchmark: one command, four workloads, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs the traced pass over every layer and prints
the per-layer metrics (see ``tracing.py``).  Human-readable figures go
first; the last line of standard output is the JSON result.  Every path
the run writes is inside the checkout, under ``.perfbench_tmp/`` (removed
at exit) and ``.perfbench_out/`` (trace NDJSON).
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("analytic", "ensemble", "service", "cli")


def provenance(args) -> dict:
    from importlib import metadata

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        revision = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": revision,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # Build: byte-compile the program once per checkout, so the first run
    # does not pay compilation inside a timed region.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]

    from common import Context

    # A terminated run still stops the processes it started and removes its
    # files: SIGTERM unwinds through the same finally blocks as an error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_base))
    print("provenance: " + json.dumps(provenance(args), sort_keys=True), flush=True)
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed, seconds=args.seconds)
    try:
        if args.trace:
            import tracing

            result = tracing.run(ctx, first=args.workload, out_dir=ROOT / ".perfbench_out")
        else:
            result = importlib.import_module(f"wl_{args.workload}").run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # BENCHMARK.json names the metrics a run reports, with their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for figure in result.figures:
        note = f"  ({figure.note})" if figure.note else ""
        print(f"{figure.name:<40} {figure.value:>14.6g} {figure.unit:<6} n={figure.samples}{note}")
    for note in result.notes:
        print(note)
    tally = result.tally
    print(f"{'error_rate':<40} {tally.error_rate:>14.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
