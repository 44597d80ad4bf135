"""``analytic``: the regeneration-theory answers behind Fig. 5 and Table 1.

Closed loop, one in-process client.  Each request runs on its own
seed-jittered copy of the paper's two-node system (failure and recovery
rates moved by up to 1%, which leaves every optimal gain on the grid where
it is, so requests cost the same whatever the seed).  There are two kinds:

* Fig. 5 theory: the optimal gain, then uniformization CDFs with and
  without failures on the 126-point grid, for a single-loaded panel and a
  both-loaded panel, plus an ``expm`` CDF of the single-loaded panel;
* Table 1 theory: optimal gains with and without failures for five
  workloads on the 21-point gain grid.

A Fig. 5 request takes about eight times as long as a Table 1 request; the
loop always issues the kind that has had less measured time, so each kind
is measured over about half the run.

The panels are smaller than the paper's (50, 0) and (25, 50) so that a
run holds several requests, but they keep the property the paper's pair
has: the both-loaded panel's CDF chain (6.0k states, a 5.8 MB dense
iterate matrix over the grid) is larger than a 4 MiB L2 cache and the
single-loaded one's (1.8k states, 1.7 MB) is not.  Both panels keep their
optimal gain (0.6 and 0.35) under the jitter.  No Monte-Carlo code runs.

Every solver call is timed on its own beside a probe of its kind: the CDF
calls beside a streaming probe, the rest beside the array probe (see
``common.SpeedProbe``).
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from benchstats import median
from common import Context, Result, array_probe, stream_probe, peak_rss_mb, pin_to_one_cpu, setup_args
from spans import NullRecorder

PANELS: Tuple[Tuple[int, int], ...] = ((40, 0), (36, 24))
EXPM_PANEL = (40, 0)
#: The expm CDF is evaluated on every EXPM_STRIDE-th point of the grid:
#: one expm_multiply call per point, about 70 ms each.
EXPM_STRIDE = 10
TABLE_WORKLOADS: Tuple[Tuple[int, int], ...] = ((20, 20), (20, 10), (10, 20), (20, 5), (5, 20))
MIRRORED = (((20, 10), (10, 20)), ((20, 5), (5, 20)))
JITTER = 0.01
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Request kinds; each draws its systems from its own seeded stream.
KINDS = ("fig5", "table1")

# Tolerances of the checks, taken from the repository's own tests.
MEAN_REL_TOL = 1e-2  # test_mean_from_cdf_matches_regeneration_solver
EXPM_ABS_TOL = 1e-5  # the CDF-method ablation
MIRROR_REL_TOL = 1e-3



def setup() -> None:
    """Import the solver stack and solve a tiny panel by both CDF methods."""
    from repro.core.distribution import completion_time_cdf_lbp1
    from repro.core.optimize import optimal_gain_lbp1
    from repro.core.parameters import paper_parameters

    params = paper_parameters()
    opt = optimal_gain_lbp1(params, (4, 0))
    for method in ("uniformization", "expm"):
        completion_time_cdf_lbp1(params, (4, 0), opt.optimal_gain, grid()[:3], method=method)


@dataclass
class Request:
    params: Any
    no_failure: Any


def generate(rng) -> Request:
    from repro.core.parameters import paper_parameters

    base = paper_parameters()
    nodes = tuple(
        replace(
            node,
            failure_rate=node.failure_rate * rng.uniform(1 - JITTER, 1 + JITTER),
            recovery_rate=node.recovery_rate * rng.uniform(1 - JITTER, 1 + JITTER),
        )
        for node in base.nodes
    )
    params = replace(base, nodes=nodes)
    return Request(params=params, no_failure=params.without_failures())


def grid():
    import numpy as np

    return np.linspace(0.0, 250.0, 126)


# -- untraced request: the public composite functions ------------------------


def fig5(req: Request, call) -> List[Dict[str, Any]]:
    """The Fig. 5 request; every solver call goes through ``call(fn, *args, **kwargs)``."""
    from repro.core.distribution import completion_time_cdf_lbp1
    from repro.core.optimize import optimal_gain_lbp1

    times = grid()
    panels = []
    for workload in PANELS:
        opt = call(optimal_gain_lbp1, req.params, workload)
        pair = dict(sender=opt.sender, receiver=opt.receiver)
        panels.append(
            {
                "workload": workload,
                "opt": opt,
                "failure": call(
                    completion_time_cdf_lbp1, req.params, workload, opt.optimal_gain, times, **pair
                ).probabilities,
                "no_failure": call(
                    completion_time_cdf_lbp1, req.no_failure, workload, opt.optimal_gain, times, **pair
                ).probabilities,
            }
        )
    return panels


def expm_cdf(req: Request, panel: Dict[str, Any], call):
    from repro.core.distribution import completion_time_cdf_lbp1

    opt = panel["opt"]
    return call(
        completion_time_cdf_lbp1,
        req.params, EXPM_PANEL, opt.optimal_gain, grid()[::EXPM_STRIDE],
        sender=opt.sender, receiver=opt.receiver, method="expm",
    ).probabilities


def table1(req: Request, optimize, make_solver) -> Dict[str, Dict]:
    """The Table 1 request, through the given ``optimal_gain_lbp1`` and solver constructor."""
    from repro.experiments.common import GAIN_GRID

    rows: Dict[str, Dict] = {"failure": {}, "no_failure": {}}
    for label, params in (("failure", req.params), ("no_failure", req.no_failure)):
        # One solver per system, shared across workloads, as Table 1 does.
        solver = make_solver(params)
        for workload in TABLE_WORKLOADS:
            rows[label][workload] = optimize(
                params, workload, gains=GAIN_GRID, solver=solver
            ).optimal_mean
    return rows


# -- checks (outside the timed region) ----------------------------------------


def check_cdf(name: str, probabilities) -> List[str]:
    import numpy as np

    problems = []
    if np.any(np.diff(probabilities) < -1e-12):
        problems.append(f"{name}: CDF decreases")
    if probabilities.min() < -1e-12 or probabilities.max() > 1 + 1e-12:
        problems.append(f"{name}: CDF leaves [0, 1]")
    return problems


def check_fig5(req: Request, panels, expm_values) -> List[str]:
    import numpy as np

    from repro.core.completion_time import CompletionTimeSolver

    integrate = getattr(np, "trapezoid", None) or np.trapz
    times = grid()
    problems: List[str] = []
    for panel in panels:
        opt, workload = panel["opt"], panel["workload"]
        means = {
            "failure": opt.optimal_mean,
            "no_failure": CompletionTimeSolver(req.no_failure).lbp1(
                workload, opt.optimal_gain, sender=opt.sender, receiver=opt.receiver
            ).mean,
        }
        for label, expected in means.items():
            cdf = panel[label]
            name = f"fig5 {workload} {label}"
            problems += check_cdf(name, cdf)
            from_cdf = float(integrate(1.0 - cdf, times))
            if abs(from_cdf - expected) > MEAN_REL_TOL * expected:
                problems.append(f"{name}: mean from CDF {from_cdf:.4f} vs eq. (4) {expected:.4f}")
    uniformized = panels[PANELS.index(EXPM_PANEL)]["failure"][::EXPM_STRIDE]
    problems += check_cdf("expm", expm_values)
    gap = float(np.max(np.abs(expm_values - uniformized)))
    if gap > EXPM_ABS_TOL:
        problems.append(f"expm vs uniformization: max gap {gap:.2e}")
    return problems


def check_table1(rows) -> List[str]:
    problems = []
    for label, means in rows.items():
        for a, b in MIRRORED:
            if abs(means[a] - means[b]) > MIRROR_REL_TOL * means[a]:
                problems.append(f"table1 {label}: {a} {means[a]:.4f} vs mirror {b} {means[b]:.4f}")
    for workload in TABLE_WORKLOADS:
        if not rows["no_failure"][workload] < rows["failure"][workload]:
            problems.append(f"table1 {workload}: no-failure mean not below failure mean")
    return problems


# -- untraced run ---------------------------------------------------------------


def run(ctx: Context) -> Result:
    pin_to_one_cpu()
    from repro.core.completion_time import CompletionTimeSolver
    from repro.core.distribution import completion_time_cdf_lbp1
    from repro.core.optimize import optimal_gain_lbp1

    result = Result()
    setups = ctx.time_setups(setup_args("wl_analytic"), SETUP_REPEATS, result)
    os.environ.update(ctx.fresh_roots())
    setup()  # the same set-up in this process, untimed
    streams = {kind: ctx.rng(f"analytic-{kind}") for kind in KINDS}
    fig5_s: List[float] = []
    expm_s: List[float] = []
    table_s: List[float] = []
    # Every solver call of a request goes through a probe of its kind: the
    # CDF calls stream over iterates larger than the L2 cache, the rest are
    # loops of small numpy calls.  Each call is tagged with its request.
    probes = {"array": array_probe(), "stream": stream_probe()}
    tags: Dict[str, List[int]] = {kind: [] for kind in probes}
    kinds: List[str] = []

    def call(fn, *args, **kwargs):
        kind = "stream" if fn is completion_time_cdf_lbp1 else "array"
        value = probes[kind].call(fn, *args, **kwargs)
        tags[kind].append(len(kinds))
        return value

    deadline = time.perf_counter() + ctx.seconds
    while not {"fig5", "table1"} <= set(kinds) or time.perf_counter() < deadline:
        # The kind with less measured time so far goes next, so Table 1's
        # short requests get as much of the run as Fig. 5's long ones.
        kind = "fig5" if sum(fig5_s) + sum(expm_s) <= sum(table_s) else "table1"
        req = generate(streams[kind])
        started = {name: len(p.seconds) for name, p in probes.items()}
        try:
            if kind == "fig5":
                panels = fig5(req, call=call)
                middle = len(probes["stream"].seconds)
                expm_values = expm_cdf(req, panels[PANELS.index(EXPM_PANEL)], call=call)
            else:
                rows = table1(
                    req,
                    optimize=functools.partial(call, optimal_gain_lbp1),
                    make_solver=functools.partial(call, CompletionTimeSolver),
                )
        except Exception as error:  # a failed request is counted, not fatal
            # Its timed calls stay tagged with an id no request keeps.
            for name, p in probes.items():
                tags[name][started[name]:] = [-1] * (len(p.seconds) - started[name])
            result.tally.record([f"analytic {kind} request raised {error!r}"])
            continue
        kinds.append(kind)
        timed = sum(sum(p.seconds[started[name]:]) for name, p in probes.items())
        if kind == "fig5":
            expm = sum(probes["stream"].seconds[middle:])
            fig5_s.append(timed - expm)
            expm_s.append(expm)
            result.tally.record(check_fig5(req, panels, expm_values))
        else:
            table_s.append(timed)
            result.tally.record(check_table1(rows))
    ms = [0.0] * len(kinds)
    for name, p in probes.items():
        p.finish()
        for request, seconds in zip(tags[name], p.reference_seconds()):
            if request >= 0:
                ms[request] += 1e3 * seconds
    by_kind = {k: [m for m, rk in zip(ms, kinds) if rk == k] for k in KINDS}
    result.metrics = {
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb(),
        # The mean, not the median: a run holds only two or three Fig. 5
        # requests, and the mean of so few settles faster than their median.
        "slow_path_ms": statistics.fmean(by_kind["fig5"]),
        "fast_path_ms": median(by_kind["table1"]),
    }
    result.figure("probe_ms", [s * 1e3 for s in probes["array"].samples], "ms", note="in-process array probe")
    result.figure("stream_probe_ms", [s * 1e3 for s in probes["stream"].samples], "ms", note="in-process streaming probe")
    result.figure("fig5_theory_s", fig5_s, "s")
    result.figure("table1_theory_s", table_s, "s")
    result.figure("expm_cdf_s", expm_s, "s")
    return result


# -- traced section: each layer's public function, one span per call -----------


def traced(ctx: Context, rec, seconds: float, tally) -> Dict[str, float]:
    """Each request through the layers untraced, then traced.

    Both passes run :func:`traced_request`; the untraced one hands it a
    recorder that keeps nothing, so the gap between them is the cost of
    tracing alone.  The traced pass's answers are checked like a run's.
    """
    os.environ.update(ctx.fresh_roots())
    setup()
    streams = {kind: ctx.rng(f"analytic-{kind}") for kind in KINDS}
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    while traced_s == 0.0 or time.perf_counter() < deadline:
        fig_req, table_req = (generate(streams[kind]) for kind in KINDS)
        started = time.perf_counter()
        traced_request(NullRecorder(), fig_req, table_req)
        untraced_s += time.perf_counter() - started
        started = time.perf_counter()
        panels, expm_values, rows = traced_request(rec, fig_req, table_req)
        traced_s += time.perf_counter() - started
        tally.record(check_fig5(fig_req, panels, expm_values))
        tally.record(check_table1(rows))
    return {"trace.analytic_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s}


class TimedSolver:
    """Hands ``optimal_gain_lbp1`` a solver whose gain sweeps are spanned."""

    def __init__(self, recorder, solver) -> None:
        self.recorder = recorder
        self.solver = solver

    def gain_sweep(self, *args, **kwargs):
        with self.recorder.span("core.gain_sweep"):
            return self.solver.gain_sweep(*args, **kwargs)


def traced_request(rec, fig_req: Request, table_req: Request):
    """A Fig. 5 and a Table 1 request, layer by layer, as one traced request.

    Returns what ``fig5``, ``expm_cdf`` and ``table1`` return.
    """
    from repro.core.completion_time import CompletionTimeSolver
    from repro.core.optimize import optimal_gain_lbp1

    times = grid()

    def optimize(params, workload, solver=None, **kwargs):
        solver = solver or TimedSolver(rec, CompletionTimeSolver(params))
        with rec.span("core.optimize"):
            return optimal_gain_lbp1(params, workload, solver=solver, **kwargs)

    with rec.request("analytic"):
        panels = []
        for workload in PANELS:
            panel = {"workload": workload, "opt": optimize(fig_req.params, workload)}
            for label, params in (("failure", fig_req.params), ("no_failure", fig_req.no_failure)):
                chain, start = _traced_chain(rec, params, workload, panel["opt"])
                with rec.span("core.uniformization", cdf_dense_bytes=len(times) * chain.num_states * 8):
                    panel[label] = chain.absorption_cdf(start, times)
            panels.append(panel)
        expm_opt = panels[PANELS.index(EXPM_PANEL)]["opt"]
        chain, start = _traced_chain(rec, fig_req.params, EXPM_PANEL, expm_opt)
        with rec.span("core.expm", points=len(times[::EXPM_STRIDE])):
            expm_values = chain.absorption_cdf(start, times[::EXPM_STRIDE], method="expm")
        rows = table1(
            table_req,
            optimize=optimize,
            make_solver=lambda params: TimedSolver(rec, CompletionTimeSolver(params)),
        )
    return panels, expm_values, rows


def _traced_chain(rec, params, workload, opt):
    from repro.core.ctmc import build_two_node_lbp1_chain

    batch = min(int(round(opt.optimal_gain * workload[opt.sender])), workload[opt.sender])
    remaining = list(workload)
    remaining[opt.sender] -= batch
    with rec.span("core.chain_build") as span:
        chain, start = build_two_node_lbp1_chain(
            params, tasks=remaining, in_transit=batch, destination=opt.receiver
        )
        span.attrs.update(states=chain.num_states, nnz=int(chain.generator.nnz))
    return chain, start
