"""``cli``: ``python -m repro scenario run smoke`` processes, one after another.

Closed loop, one client.  Each step runs the command with a fresh seed
(computed), then the same command again (cached).  Import and start-up
are most of both runs, so this is the only workload where the start-up
layer dominates every operation; the other workloads pay their imports
once, inside ``setup_s``.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List

from benchstats import median
from common import Context, Result, peak_rss_mb, process_probe

MEAN_LINE = re.compile(r"mean completion time: ([0-9.]+) s")
#: Set-up is a ~0.15 s process, so take more of them than the other workloads.
SETUP_REPEATS = 7


def command(seed: int) -> List[str]:
    return ["-m", "repro", "scenario", "run", "smoke", "--seed", str(seed)]


def check_output(done, cached: bool) -> List[str]:
    problems = []
    if done.returncode != 0:
        problems.append(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
    elif not MEAN_LINE.search(done.stdout):
        problems.append("no mean completion time in the output")
    elif cached != (", cached" in done.stdout.splitlines()[0]):
        problems.append(f"expected a {'cached' if cached else 'computed'} run: {done.stdout.splitlines()[0]}")
    return problems


def body(done) -> str:
    """Output after the header line, which carries the wall time."""
    return "\n".join(done.stdout.splitlines()[1:])


def run(ctx: Context) -> Result:
    result = Result()
    rng = ctx.rng("cli")
    # Set-up: a fresh cache root and the CLI's fixed cost before any run
    # (interpreter, argument parsing, the scenario registry).
    setups = ctx.time_setups(["-m", "repro", "scenario", "list"], SETUP_REPEATS, result)
    roots = ctx.fresh_roots()
    # Computed and cached runs in turn, each timed through a process probe.
    probe = process_probe(ctx)
    calls: Dict[str, List[int]] = {"cold": [], "cached": []}
    deadline = time.perf_counter() + ctx.seconds
    while not calls["cold"] or time.perf_counter() < deadline:
        seed = rng.randrange(2**31)
        outputs = {}
        for kind in calls:
            _wall, outputs[kind] = probe.call(ctx.python, *command(seed), roots=roots)
            calls[kind].append(len(probe.seconds) - 1)
        first, second = outputs["cold"], outputs["cached"]
        result.tally.record(check_output(first, cached=False))
        problems = check_output(second, cached=True)
        if not problems and body(first) != body(second):
            problems.append("cached output differs from the computed output")
        result.tally.record(problems)
    probe.finish()

    at_reference = probe.reference_seconds()
    result.metrics = {
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb(),
        "slow_path_ms": 1e3 * median([at_reference[i] for i in calls["cold"]]),
        "fast_path_ms": 1e3 * median([at_reference[i] for i in calls["cached"]]),
    }
    result.figure("probe_ms", [s * 1e3 for s in probe.samples], "ms", note="process probe: python -I -c 'import numpy'")
    result.figure("cold_run_s", [probe.seconds[i] for i in calls["cold"]], "s", note="process wall, computed")
    result.figure("cached_run_s", [probe.seconds[i] for i in calls["cached"]], "s", note="process wall, cached")
    return result

# -- traced section -----------------------------------------------------------


def import_profile(stderr: str) -> Dict[str, float]:
    """Total import self time and scipy module count from ``-X importtime``."""
    total_us, scipy = 0, 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|(\s*)(\S+)", line)
        if match:
            total_us += int(match.group(1))
            scipy += match.group(3).split(".")[0] == "scipy"
    return {"import_s": total_us / 1e6, "scipy_modules": scipy}


def traced(ctx: Context, rec, seconds: float, tally) -> Dict[str, float]:
    """Interpreter floor, and the import layer of computed and cached runs."""
    rng = ctx.rng("cli")
    roots = ctx.fresh_roots()
    profiles: Dict[str, List[Dict[str, float]]] = {"computed": [], "cached": []}
    deadline = time.perf_counter() + seconds
    with rec.request("cli-interpreter"):
        for _ in range(5):
            with rec.span("main.interpreter"):
                ctx.python("-c", "pass", roots=roots)
    while not profiles["computed"] or time.perf_counter() < deadline:
        seed = rng.randrange(2**31)
        for kind in ("computed", "cached"):
            with rec.request(f"cli-{kind}"):
                with rec.span(f"main.{kind}_run") as span:
                    _wall, done = ctx.python("-X", "importtime", *command(seed), roots=roots)
                tally.record(check_output(done, cached=kind == "cached"))
                profile = import_profile(done.stderr)
                span.attrs.update(profile)
                profiles[kind].append(profile)
    return {
        "main.import_engine_s": median([p["import_s"] for p in profiles["computed"]]),
        "main.scipy_modules_cold": median([p["scipy_modules"] for p in profiles["computed"]]),
        "main.import_cli_s": median([p["import_s"] for p in profiles["cached"]]),
    }
