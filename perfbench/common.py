"""Run context, isolation and result types shared by the workloads."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from benchstats import Tally, median, paired_ratios

BENCH_DIR = Path(__file__).resolve().parent
#: Seconds a program subprocess may take before the run fails.
CHILD_TIMEOUT = 120.0
#: Iterations of the in-process probe's loop.
ARRAY_PROBE_LOOP = 5_000
#: The streaming probe's array length (8 MB of float64) and passes over it.
STREAM_PROBE_VALUES = 1_000_000
STREAM_PROBE_PASSES = 8
#: The process probe's arguments: isolated from the checkout's source.
PROCESS_PROBE = ("-I", "-c", "import numpy")
#: The probes' reference times: about their medians over the benchmark's
#: runs on the 2-vCPU host it was written on.  Reported times are at this
#: speed; the constants only fix the unit.
ARRAY_PROBE_REFERENCE_S = 0.021
STREAM_PROBE_REFERENCE_S = 0.011
PROCESS_PROBE_REFERENCE_S = 0.2


@dataclass
class Context:
    """Where one benchmark run lives and what it may touch.

    Every path the run writes sits under ``workdir``, inside the checkout,
    and every cache or ledger root it hands the program is fresh.
    """

    root: Path
    workdir: Path
    seed: int
    seconds: float
    _roots: int = 0

    @property
    def src(self) -> Path:
        return self.root / "src"

    def rng(self, stream: str) -> random.Random:
        """A generator for one named input stream, fixed by the seed."""
        return random.Random(f"{self.seed}:{stream}")

    def fresh_roots(self) -> Dict[str, str]:
        """New, empty cache and run-history roots for the program."""
        self._roots += 1
        base = self.workdir / f"roots-{self._roots}"
        cache, history = base / "cache", base / "history"
        cache.mkdir(parents=True)
        history.mkdir(parents=True)
        return {"REPRO_CACHE_DIR": str(cache), "REPRO_HISTORY_DIR": str(history)}

    def child_env(self, roots: Dict[str, str]) -> Dict[str, str]:
        """Environment for a program subprocess: this checkout's source only."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(roots)
        env["PYTHONPATH"] = str(self.src)
        return env

    def python(self, *args: str, roots: Dict[str, str]):
        """Run ``python args`` against the checkout; returns (wall seconds, completed)."""
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.child_env(roots),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
        return time.perf_counter() - started, done

    def time_setups(self, args: Sequence[str], repeats: int, result: "Result") -> float:
        """``setup_s``: ``python args`` in fresh processes, each on fresh roots.

        The median wall time, at the reference host speed (see
        :class:`SpeedProbe`).  Each set-up counts as an operation.
        """
        probe = process_probe(self)
        for _ in range(repeats):
            _wall, done = probe.call(self.python, *args, roots=self.fresh_roots())
            result.tally.record(
                [] if done.returncode == 0 else [f"set-up failed: {done.stderr.strip()[-300:]}"]
            )
        probe.finish()
        return median(probe.reference_seconds())


def setup_args(module: str) -> List[str]:
    """Arguments that run ``module.setup()`` of a workload in a fresh interpreter."""
    return ["-c", f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import {module}; {module}.setup()"]


@dataclass
class Figure:
    """One named figure for the human-readable report."""

    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Result:
    """What a workload run produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    figures: List[Figure] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    def figure(self, name: str, values: Sequence[float], unit: str, note: str = "") -> Optional[float]:
        """Add the median of ``values`` as a figure."""
        if not values:
            self.tally.record([f"{name}: no samples"])
            return None
        value = median(values)
        self.figures.append(Figure(name, value, unit, len(values), note))
        return value


class SpeedProbe:
    """Times calls with fixed work of the benchmark's own just before and after each.

    The probe runs none of the program's code, so the host moves it and
    the program does not.  On a shared 2-vCPU host the same call takes up
    to half again as long for minutes at a time, far more than the
    regressions the benchmark must catch, and the probe slows with it.
    Each call is divided by the mean of the probes either side of it
    (:func:`benchstats.paired_ratios`) and multiplied by the probe's
    reference time: its time at the reference host speed.

    ``work`` is the probe: work of the same kind as the calls it sits
    between (see :func:`array_probe`, :func:`stream_probe` and
    :func:`process_probe`).
    """

    def __init__(self, work: Callable[[], None], reference: float) -> None:
        self.work = work
        self.reference = reference
        #: Seconds of each probe run.
        self.samples: List[float] = []
        #: Seconds of each timed call, and the index of the probe just before it.
        self.seconds: List[float] = []
        self.slots: List[int] = []

    def sample(self) -> None:
        started = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - started)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, timed, after a probe run; a call that raises is not timed."""
        self.sample()
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        self.seconds.append(time.perf_counter() - started)
        self.slots.append(len(self.samples) - 1)
        return value

    def finish(self) -> None:
        """The probe run after the last call."""
        self.sample()

    def reference_seconds(self) -> List[float]:
        """Every timed call's seconds at the reference speed, in call order."""
        return [r * self.reference for r in paired_ratios(self.seconds, self.slots, self.samples)]


def array_probe() -> SpeedProbe:
    """In-process: a Python loop of numpy calls on small arrays, as the solvers' and the engine's loops are."""
    import numpy as np

    def work() -> None:
        values = np.linspace(0.0, 1.0, 64)
        for _ in range(ARRAY_PROBE_LOOP):
            values = np.maximum(values * 0.5 + 0.1, values[::-1])

    return SpeedProbe(work, ARRAY_PROBE_REFERENCE_S)


def stream_probe() -> SpeedProbe:
    """In-process: passes over arrays larger than a 4 MiB L2 cache, as the CDF solvers' iterates are."""
    import numpy as np

    values = np.linspace(0.0, 1.0, STREAM_PROBE_VALUES)

    def work() -> None:
        for _ in range(STREAM_PROBE_PASSES):
            np.multiply(values, 0.5, out=values)
            np.add(values, 0.25, out=values)

    return SpeedProbe(work, STREAM_PROBE_REFERENCE_S)


def process_probe(ctx: Context) -> SpeedProbe:
    """A fresh interpreter importing numpy, as a CLI run or a set-up does."""

    def work() -> None:
        _wall, done = ctx.python(*PROCESS_PROBE, roots={})
        if done.returncode != 0:
            raise RuntimeError(f"process probe failed: {done.stderr.strip()[-300:]}")

    return SpeedProbe(work, PROCESS_PROBE_REFERENCE_S)


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread and child it starts, on one CPU.

    The two vCPUs of the host the benchmark was written on ran the same
    probe at different speeds (12-20 ms on one, 20-26 ms on the other), and
    a process moved between them at the scheduler's whim, so a call and the
    probe beside it could run at different speeds.  Call before numpy is
    imported, so its BLAS sizes its thread pool to the one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


