"""``ensemble``: Monte-Carlo points through ``Orchestrator.run`` on both kernels.

Closed loop, one in-process client, inline executor.  A cycle holds
re-seeded points of the catalog families: 2-node LBP-1 with a pinned gain,
2-node LBP-1 under doubled failure rates whose gain the model resolves,
LBP-2 under doubled churn, 3- and 6-node ``multinode`` clusters, and the
``mc-scaling`` point (its system, workload and gain) at 512 realisations
grown to 1024, half the catalog's 2000 so that a run holds four or five
whole cycles instead of two.  Each point runs on
``reference`` and then on ``vectorized``, first at N realisations and
then grown to 2N, so half of every grown request's blocks come back from
the shard store.  The run measures whole cycles, so every run weighs the
families the same.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List

from benchstats import median, pooled_z
from common import Context, Figure, Result, array_probe, peak_rss_mb, pin_to_one_cpu, setup_args
from spans import NullRecorder

BACKENDS = ("reference", "vectorized")
SMALL_N = 96
SCALING_N = 512
WORKLOAD = (100, 60)
OPT_WORKLOAD = (20, 12)  # small, so resolving its gain stays a minor cost
Z_LIMIT = 4.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def setup() -> None:
    """Import the engine stack and run the smoke point on both kernels."""
    from repro.scenarios import registry
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.orchestrator import Orchestrator

    with Orchestrator(cache=ResultCache()) as orchestrator:
        for backend in BACKENDS:
            orchestrator.run(registry.resolve("smoke"), backend=backend)


@dataclass
class Point:
    label: str
    spec: Any  # ScenarioSpec without a backend chosen
    two_node_lbp1: bool

    @property
    def n(self) -> int:
        return self.spec.mc_realisations


def generate_cycle(rng) -> List[Point]:
    from repro.scenarios.spec import DelaySpec, NodeSpec, PolicySpec, ScenarioSpec, SystemSpec

    paper = SystemSpec.paper()

    def scaled(system, failure, recovery):
        return replace(
            system,
            nodes=tuple(
                replace(n, failure_rate=n.failure_rate * failure, recovery_rate=n.recovery_rate * recovery)
                for n in system.nodes
            ),
        )

    def point(label, system, workload, policy, realisations=SMALL_N):
        spec = ScenarioSpec(
            name=f"bench/{label}",
            kind="mc_point",
            system=system,
            workload=workload,
            policy=policy,
            mc_realisations=realisations,
            seed=rng.randrange(2**31),
        )
        two_node_lbp1 = policy.kind == "lbp1" and len(workload) == 2
        return Point(label, spec, two_node_lbp1)

    # Every cycle has the same points; the seed moves rates by a few percent
    # (which barely changes a point's cost) and re-seeds every point.
    def cluster(n_nodes):
        return SystemSpec(
            nodes=tuple(
                NodeSpec(
                    service_rate=1.5 - 0.2 * (i % 3),
                    failure_rate=0.05 * rng.uniform(0.95, 1.05),
                    recovery_rate=0.1 * rng.uniform(0.95, 1.05),
                    name=f"node-{i}",
                )
                for i in range(n_nodes)
            ),
            delay=DelaySpec(mean_delay_per_task=0.05),
        )

    def cluster_load(n_nodes):
        return tuple(10 * n_nodes if i == n_nodes - 1 else 0 for i in range(n_nodes))

    def jitter():
        return rng.uniform(0.95, 1.05)

    churn, lbp2_churn, mttf_scale, scaling = jitter(), jitter(), jitter(), jitter()
    return [
        point("lbp1", scaled(paper, churn, churn), WORKLOAD,
              PolicySpec(kind="lbp1", gain=0.3, sender=0, receiver=1)),
        point("lbp1-optimal", scaled(paper, 2.0 * mttf_scale, 1.0), OPT_WORKLOAD,
              PolicySpec(kind="lbp1", gain=None)),
        point("lbp2-churn", scaled(paper, 2.0 * lbp2_churn, 2.0 * lbp2_churn), WORKLOAD,
              PolicySpec(kind="lbp2", gain=1.0)),
        point("multinode-3", cluster(3), cluster_load(3), PolicySpec(kind="lbp1", gain=0.8)),
        point("multinode-6", cluster(6), cluster_load(6), PolicySpec(kind="proportional")),
        point("mc-scaling", scaled(paper, scaling, scaling), WORKLOAD,
              PolicySpec(kind="lbp1", gain=0.35, sender=0, receiver=1), SCALING_N),
    ]


def theory_mean(point: Point) -> Dict[str, float]:
    """Eq. (4) mean, gain and sender of a 2-node LBP-1 point."""
    from repro.core.completion_time import CompletionTimeSolver
    from repro.core.optimize import optimal_gain_lbp1

    params = point.spec.system.to_parameters()
    policy = point.spec.policy
    if policy.gain is None:
        opt = optimal_gain_lbp1(params, point.spec.workload)
        return {"mean": opt.optimal_mean, "gain": opt.optimal_gain}
    mean = CompletionTimeSolver(params).lbp1(
        point.spec.workload, policy.gain, sender=policy.sender, receiver=policy.receiver
    ).mean
    return {"mean": mean, "gain": policy.gain}


def check_point(point: Point, backend: str, first, grown, theory, residuals) -> List[str]:
    """The grown run extends the first one exactly; gains match the model.

    The grown sample's residual against eq. (4) goes into ``residuals``,
    pooled per backend by :func:`check_theory`.
    """
    import numpy as np

    problems = []
    name = f"{point.label}/{backend}"
    head = np.asarray(grown.arrays["completion_times"])[: point.n]
    if not np.array_equal(head, np.asarray(first.arrays["completion_times"])):
        problems.append(f"{name}: grown run's first {point.n} completion times differ")
    if theory is not None:
        scalars = grown.scalars
        if abs(float(scalars["gain"]) - theory["gain"]) > 1e-12:
            problems.append(f"{name}: gain {scalars['gain']} vs model optimum {theory['gain']}")
        residuals.append((scalars["num_realisations"],
                          scalars["mean_completion_time"] - theory["mean"],
                          scalars["std_completion_time"]))
    return problems


def check_theory(backend: str, residuals, notes: List[str]) -> List[str]:
    """A backend's 2-node LBP-1 means against eq. (4), within 4 standard errors.

    The run's points are pooled: a 192-realisation sample of right-skewed
    completion times gives a z-score with a fat lower tail, and the
    benchmark makes hundreds of them.
    """
    z = pooled_z(residuals)
    notes.append(f"{backend}: pooled MC means vs eq. (4) z={z:.2f} over {len(residuals)} points")
    return [notes[-1]] if abs(z) > Z_LIMIT else []


def run(ctx: Context) -> Result:
    pin_to_one_cpu()
    result = Result()
    setups = ctx.time_setups(setup_args("wl_ensemble"), SETUP_REPEATS, result)
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.orchestrator import Orchestrator

    os.environ.update(ctx.fresh_roots())
    setup()  # the same set-up in this process, untimed
    rng = ctx.rng("ensemble")
    # Indices of each backend's timed calls in the probe's record.
    calls: Dict[str, List[int]] = {b: [] for b in BACKENDS}
    computed = {b: 0 for b in BACKENDS}
    residuals: Dict[str, List] = {b: [] for b in BACKENDS}
    cycles = 0
    probe = array_probe()
    deadline = time.perf_counter() + ctx.seconds
    while cycles == 0 or time.perf_counter() < deadline:
        # Each cycle starts on fresh roots.  The run-history ledger costs
        # every engine run more the longer it is (a vectorized request took
        # 64 ms on a fresh ledger and 90 ms after 240 runs), so sharing the
        # roots would make a cycle's cost depend on how many cycles the
        # host's speed fitted in before it.
        roots = ctx.fresh_roots()
        os.environ.update(roots)
        with Orchestrator(cache=ResultCache(roots["REPRO_CACHE_DIR"])) as orchestrator:

            def first_then_grown(spec, backend):
                first = orchestrator.run(spec, backend=backend)
                grown = orchestrator.run(spec.with_(mc_realisations=2 * spec.mc_realisations), backend=backend)
                return first, grown

            for point in generate_cycle(rng):
                theory = theory_mean(point) if point.two_node_lbp1 else None
                for backend in BACKENDS:
                    try:
                        first, grown = probe.call(first_then_grown, point.spec, backend)
                    except Exception as error:  # counted, not fatal
                        result.tally.record([f"{point.label}/{backend} raised {error!r}"])
                        continue
                    calls[backend].append(len(probe.seconds) - 1)
                    # N computed by the first run, N more by the grown one.
                    computed[backend] += 2 * point.n
                    result.tally.record(
                        check_point(point, backend, first, grown, theory, residuals[backend])
                    )
        cycles += 1
    probe.finish()
    for backend in BACKENDS:
        result.tally.record(check_theory(backend, residuals[backend], result.notes))

    # Whole cycles over the realisations they computed: a run holds only
    # three or four cycles, and a sum over them weighs every family alike.
    at_reference = probe.reference_seconds()
    per_1000 = {b: 1e6 * sum(at_reference[i] for i in calls[b]) / computed[b] for b in BACKENDS}
    result.metrics = {
        "setup_s": setups,
        "peak_rss_mb": peak_rss_mb(),
        "slow_path_ms": per_1000["reference"],
        "fast_path_ms": per_1000["vectorized"],
    }
    result.figure("probe_ms", [s * 1e3 for s in probe.samples], "ms", note="in-process array probe")
    for backend in BACKENDS:
        wall = sum(probe.seconds[i] for i in calls[backend])
        result.figures.append(
            Figure(f"{backend}_realisations_per_s", computed[backend] / wall, "1/s",
                   computed[backend], "realisations computed per wall second; store hits excluded")
        )
    result.notes.append(f"ensemble: {cycles} whole cycles")
    return result


# -- traced section -----------------------------------------------------------


def traced(ctx: Context, rec, seconds: float, tally) -> Dict[str, float]:
    """One cycle through the engine, then through its layers one by one.

    The engine pass runs every request through ``run_engine`` and reads
    engine overhead and merge time from its ``EngineReport.timings``.  The
    layer pass calls plan → store get → ``run_block`` → store put →
    result-cache put → ledger append itself, once with a recorder that
    keeps nothing and once with a span around each call; the gap between
    those two is the tracing overhead.  Every pass has its own fresh roots
    and must produce the engine's completion times.
    """
    cycle = generate_cycle(ctx.rng("ensemble"))
    roots = ctx.fresh_roots()
    os.environ.update(roots)
    setup()
    reference, engine = engine_pass(rec, cycle, roots)

    # The untraced and traced passes take turns request by request, each on
    # its own roots, so a swing in the host's speed lands on both alike.
    recorders = {False: NullRecorder(), True: rec}
    layers = {traced: _Layers(ctx.fresh_roots()) for traced in recorders}
    pass_seconds = {traced: 0.0 for traced in recorders}
    for index, (key, spec) in enumerate(requests(cycle)):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            started = time.perf_counter()
            times = layers[traced].point(recorders[traced], spec)
            pass_seconds[traced] += time.perf_counter() - started
            same = (times == reference[key]).all()
            tally.record([] if same else [f"layers {'/'.join(map(str, key))} differ from run_engine"])
    untraced_s, traced_s = pass_seconds[False], pass_seconds[True]

    values = kernel_rates(rec, cycle[-1], ctx.rng("kernel"))
    values.update(engine)
    values.update(layers[True].summary())
    values["trace.ensemble_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return values


def requests(cycle: List[Point]):
    """``(key, spec)`` of every request in a cycle, in the order the run issues them."""
    for point in cycle:
        for backend in BACKENDS:
            for n in (point.n, 2 * point.n):
                yield (point.label, backend, n), point.spec.with_(backend=backend, mc_realisations=n)


def resolve_gain(rec, spec):
    """Fold the model's gain into a spec without one, as ``Orchestrator.run``
    does before it calls ``run_engine``."""
    from repro.distributed.work import policy_spec_of

    if spec.policy.gain is not None:
        return spec
    with rec.span("core.optimize"):
        built = spec.policy.build(spec.system.to_parameters(), spec.workload)
    return spec.with_(policy=policy_spec_of(built))


def engine_pass(rec, cycle: List[Point], roots: Dict[str, str]):
    """Every request of a cycle through ``run_engine``, inline, with a shard store.

    Returns the completion times by request and the engine's own figures:
    overhead (wall time minus block compute, summed over the cycle) and
    the median merge time.
    """
    from repro.distributed.store import ShardStore
    from repro.montecarlo.engine import EngineRequest, run_engine

    store = ShardStore(roots["REPRO_CACHE_DIR"])
    reference, overhead, merges = {}, 0.0, []
    for key, spec in requests(cycle):
        with rec.request("engine", point=key[0], backend=key[1], realisations=key[2]) as span:
            report = run_engine(EngineRequest(spec=resolve_gain(rec, spec), store=store))
            span.attrs.update(report.timings, wall_seconds=report.wall_seconds)
        reference[key] = report.estimate.completion_times
        overhead += report.wall_seconds - report.timings["block_compute_seconds"]
        merges.append(report.timings["merge_seconds"])
    return reference, {
        "montecarlo.engine_overhead_s": overhead,
        "montecarlo.merge_ms": median(merges) * 1e3,
    }


class _Layers:
    """The engine pipeline, one public call per span, on its own roots."""

    def __init__(self, roots: Dict[str, str]) -> None:
        from repro.distributed.store import ShardStore
        from repro.obs.history import RunLedger
        from repro.scenarios.cache import ResultCache

        self.store = ShardStore(roots["REPRO_CACHE_DIR"])
        self.cache = ResultCache(roots["REPRO_CACHE_DIR"])
        self.ledger = RunLedger(roots["REPRO_HISTORY_DIR"])
        self.gets = self.hits = self.puts = 0

    def point(self, rec, spec):
        import numpy as np

        from repro.distributed.plan import block_key, plan_blocks, shard_plan_key
        from repro.distributed.work import run_block
        from repro.montecarlo.engine import EngineReport
        from repro.montecarlo.runner import MonteCarloEstimate
        from repro.montecarlo.statistics import RunningStatistics
        from repro.obs import history
        from repro.scenarios.cache import ScenarioResult

        started = time.perf_counter()
        n, backend = spec.mc_realisations, spec.backend
        with rec.request("ensemble", point=spec.name, backend=backend, realisations=n):
            spec = resolve_gain(rec, spec)
            spec_dict = spec.to_dict()
            with rec.span("montecarlo.plan"):
                plan_key = shard_plan_key(spec)
                blocks = plan_blocks(n, spec.shard_block)
            payloads, hits = [], 0
            for block in blocks:
                key = block_key(plan_key, block)
                with rec.span("distributed.store.get") as span:
                    payload = self.store.get(key)
                    span.attrs["hit"] = payload is not None
                hits += payload is not None
                if payload is None:
                    with rec.span(f"backends.{backend}.block", realisations=block.num_realisations):
                        payload = run_block(spec_dict, block)
                    with rec.span("distributed.store.put"):
                        self.store.put(key, payload)
                    self.puts += 1
                payloads.append(payload)
            times = np.concatenate([np.asarray(p["completion_times"], dtype=float) for p in payloads])
            stats = RunningStatistics.merged(RunningStatistics.from_dict(p["stats"]) for p in payloads)
            result = ScenarioResult(
                name=spec.name, kind=spec.kind, spec_hash=spec.content_hash,
                scalars={"headline": stats.mean, "mean_completion_time": stats.mean,
                         "num_realisations": stats.n},
                arrays={"completion_times": times},
            )
            with rec.span("scenarios.cache.put"):
                self.cache.put(spec, result)
            report = EngineReport(
                estimate=MonteCarloEstimate(policy_name=str(payloads[0]["policy"]),
                                            workload=tuple(spec.workload),
                                            completion_times=times, stats=stats),
                stats=stats, blocks_total=len(blocks),
                blocks_cached=hits,
                shards_dispatched=len(blocks) - hits,
                wall_seconds=time.perf_counter() - started,
            )
            with rec.span("obs.ledger_append"):
                history.record_engine_run(report, scenario=spec.name, spec_hash=spec.content_hash,
                                          backend=backend, executor="inline", realisations=n,
                                          ledger=self.ledger)
        self.gets += len(blocks)
        self.hits += hits
        return times

    def summary(self) -> Dict[str, float]:
        store_bytes = sum(f.stat().st_size for f in self.store.root.rglob("*") if f.is_file())
        return {
            "distributed.store.hit_ratio": self.hits / self.gets,
            "distributed.store.bytes_per_block": store_bytes / self.puts,
        }


def kernel_rates(rec, point: Point, rng) -> Dict[str, float]:
    """The vectorized kernel alone, at the spec's block size and 16 times it."""
    from repro.backends.base import resolve_backend

    params = point.spec.system.to_parameters()
    policy = point.spec.policy.build(params, point.spec.workload)
    kernel = resolve_backend("vectorized")
    block = point.spec.shard_block
    rates = {}
    for name, size, repeats in (("rps_at_block", block, 32), ("rps_at_16x_block", 16 * block, 2)):
        elapsed = 0.0
        with rec.request("kernel", realisations=size):
            for _ in range(repeats):
                with rec.span("backends.vectorized.kernel", realisations=size) as span:
                    kernel.run_batch(params, policy, point.spec.workload, size,
                                     seed=rng.randrange(2**31))
                elapsed += span.end - span.start
        rates[f"backends.vectorized.{name}"] = size * repeats / elapsed
    return rates
