"""``service``: ``repro serve`` plus one ``repro worker``, both with defaults.

One client process with two threads.  An open loop submits fully cached
jobs at a fixed rate, each timed from the moment it was due; a closed
loop keeps one computed job in flight: a re-seeded ``gain-sweep`` point,
sharded, run with executor ``workers``.  This is the only workload that
runs the HTTP server, the job queue, the worker board, the frame wire and
a remote worker, and the mix shows whether work on the compute path slows
the cached reads.  A round trip to ``echo_server.py`` follows every cached
submission: the speed probe its latency is set against.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from benchstats import median, paired_ratios, pooled_z, run_open_loop, tail_percentile
from common import BENCH_DIR, Context, Figure, Result, SpeedProbe, peak_rss_mb

#: Cached submissions per second (open loop): a tenth of the cached-lookup
#: capacity.  On the 2-vCPU box the benchmark was written on, one client
#: submitting cached jobs back to back completed 460-490 per second with
#: the service otherwise idle and 400-425 per second beside a computed job.
#: At a tenth of the latter, one lookup (about 2.5 ms) fills a tenth of the
#: 25 ms between submissions, so ``fast_path_ms`` measures a lookup beside
#: the computed job, not lookups waiting on one another.
CACHED_RATE = 40.0
#: The ``gain-sweep`` point every computed job re-seeds (the family's
#: points differ in cost by up to 40%, so one point keeps runs comparable).
GAIN = 0.35
WORKLOAD = (100, 60)
#: The family's own point size: 5 blocks of 32 over 4 shards.
JOB_REALISATIONS, JOB_SHARDS, JOB_BLOCK = 160, 4, 32
Z_LIMIT = 4.0
START_TIMEOUT = 60.0
#: The echo probe's reference time: about its median on the 2-vCPU host
#: the benchmark was written on (see ``common.SpeedProbe``).
ECHO_PROBE_REFERENCE_S = 0.002


def gain_sweep_point(rng, realisations=JOB_REALISATIONS, shards=JOB_SHARDS, block=JOB_BLOCK):
    """The ``gain-sweep/K=0.35`` point with a fresh seed, as a spec dict."""
    from repro.scenarios.spec import PolicySpec, ScenarioSpec, SystemSpec

    return ScenarioSpec(
        name=f"gain-sweep/K={GAIN:g}",
        kind="mc_point",
        system=SystemSpec.paper(),
        workload=WORKLOAD,
        policy=PolicySpec(kind="lbp1", gain=GAIN, sender=0, receiver=1),
        mc_realisations=realisations,
        seed=rng.randrange(2**31),
        shards=shards,
        shard_block=block,
    ).to_dict()


@dataclass
class Service:
    serve: subprocess.Popen
    worker: subprocess.Popen
    url: str
    cache_root: Path

    def stop(self) -> None:
        for proc in (self.worker, self.serve):
            if proc.poll() is None:
                proc.terminate()
        for proc in (self.worker, self.serve):
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def start(ctx: Context, rng) -> Service:
    """Spawn serve and a worker, then wait for a warm-up job's block result."""
    from repro.service.client import ServiceClient

    roots = ctx.fresh_roots()
    env = ctx.child_env(roots)
    logs = Path(roots["REPRO_CACHE_DIR"]).parent
    serve_log = logs / "serve.log"
    with open(serve_log, "w") as out:
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ctx.root, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
    worker = None
    try:
        url = _wait_for_url(serve, serve_log)
        with open(logs / "worker.log", "w") as out:
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--connect", url],
                cwd=ctx.root, env=env, stdout=out, stderr=subprocess.STDOUT,
            )
        service = Service(serve, worker, url, Path(roots["REPRO_CACHE_DIR"]))
        client = ServiceClient(url)
        warm_up = gain_sweep_point(rng, realisations=8, shards=1, block=8)
        job = client.submit(spec=warm_up, executor="workers")
        events = list(client.events(job.id))
        if not events or events[-1].get("state") != "done":
            raise RuntimeError(f"warm-up job ended {events[-1:]}")
        return service
    except BaseException:
        for proc in (worker, serve):
            if proc is not None:
                proc.kill()
                proc.wait()
        raise


def _wait_for_url(serve: subprocess.Popen, log: Path) -> str:
    deadline = time.monotonic() + START_TIMEOUT
    while time.monotonic() < deadline:
        match = re.search(r"listening on (http://[0-9.:]+)", log.read_text())
        if match:
            return match.group(1)
        if serve.poll() is not None:
            raise RuntimeError(f"repro serve exited: {log.read_text()[-500:]}")
        time.sleep(0.02)
    raise RuntimeError("repro serve did not report its address")


@contextlib.contextmanager
def echo_probe(body: bytes) -> Iterator[SpeedProbe]:
    """A probe timing one POST of ``body`` to ``echo_server.py`` (started and stopped here)."""
    server = subprocess.Popen(
        [sys.executable, "-I", str(BENCH_DIR / "echo_server.py")],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(server.stdout.readline())

        def round_trip() -> None:
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("POST", "/", body=body, headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
            finally:
                connection.close()
            if response.status != 200:
                raise RuntimeError(f"echo probe answered {response.status}")

        yield SpeedProbe(round_trip, ECHO_PROBE_REFERENCE_S)
    finally:
        server.terminate()
        server.wait()
        server.stdout.close()


def theory_mean() -> float:
    """Eq. (4) mean of the computed jobs' point."""
    from repro.core.completion_time import CompletionTimeSolver
    from repro.core.parameters import paper_parameters

    return CompletionTimeSolver(paper_parameters()).lbp1(WORKLOAD, GAIN, sender=0, receiver=1).mean


def computed_job(client, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Submit one computed job and follow its event stream to the end."""
    started = time.perf_counter()
    job = client.submit(spec=spec, executor="workers")
    states: Dict[str, float] = {}
    last: Dict[str, Any] = {}
    for event in client.events(job.id):
        states.setdefault(event.get("state"), event.get("t"))
        last = event
    done = time.perf_counter()
    return {"id": job.id, "seconds": done - started, "state": last.get("state"),
            "queue_s": states.get("running", 0.0) - states.get("queued", 0.0),
            "run_s": last.get("t", 0.0) - states.get("running", 0.0)}


def check_computed(client, outcome) -> Tuple[List[str], Optional[Tuple[int, float, float]]]:
    """Problems with a computed job, and its sample's ``(n, mean, std)``."""
    if outcome["state"] != "done":
        return [f"job {outcome['id']} ended {outcome['state']}"], None
    view = client.job(outcome["id"])
    scalars = client.result(view.content_hashes[0]).scalars
    sample = (scalars["num_realisations"], scalars["mean_completion_time"],
              scalars["std_completion_time"])
    return [], sample


def check_theory(samples: List[Tuple[int, float, float]], theory: float, notes: List[str]) -> List[str]:
    """The computed jobs' pooled MC mean against eq. (4), within 4 standard errors.

    Every job samples the same point, so the run's jobs are pooled: one job's
    160 right-skewed completion times make a small-sample z-score with a
    fat lower tail, and a run makes some 25 of them.
    """
    z = pooled_z([(n, mean - theory, std) for n, mean, std in samples])
    notes.append(f"computed jobs: pooled MC mean vs eq. (4) z={z:.2f} over {len(samples)} jobs")
    return [notes[-1]] if abs(z) > Z_LIMIT else []


def check_cached(view) -> List[str]:
    if view.state != "done" or not all(p.get("from_cache") for p in view.results):
        return [f"cached submission {view.id} not born done from cache ({view.state})"]
    return []


def run(ctx: Context) -> Result:
    from repro.service.client import ServiceClient

    result = Result()
    theory = theory_mean()
    rng = ctx.rng("service")
    setups: List[float] = []
    service: Optional[Service] = None
    for attempt in range(3):
        started = time.perf_counter()
        service = start(ctx, rng)
        setups.append(time.perf_counter() - started)
        if attempt < 2:
            service.stop()
    pool: List[Dict[str, Any]] = []  # specs whose results are cached
    pool_lock = threading.Lock()
    jobs: List[Dict[str, Any]] = []
    job_samples: List[Tuple[int, float, float]] = []
    try:
        client = ServiceClient(service.url)
        with pool_lock:
            pool.extend(job.request["spec"] for job in client.jobs())

        def closed_loop():
            own = ServiceClient(service.url)
            while time.perf_counter() < deadline:
                spec = gain_sweep_point(rng)
                try:
                    outcome = computed_job(own, spec)
                    problems, sample = check_computed(own, outcome)
                except Exception as error:  # counted, not fatal
                    problems, sample = [f"computed job raised {error!r}"], None
                result.tally.record(problems)
                if sample is not None:
                    jobs.append(outcome)
                    job_samples.append(sample)
                    with pool_lock:
                        pool.append(spec)

        def send_cached(index: int) -> Tuple[str, ...]:
            with pool_lock:
                spec = pool[index % len(pool)]
            try:
                return tuple(check_cached(client.submit(spec=spec, executor="workers")))
            except Exception as error:
                return (f"cached submission raised {error!r}",)

        # A probe round trip runs before the loop and after every cached
        # submission, in the idle time before the next one is due.
        with echo_probe(json.dumps({"spec": pool[0], "executor": "workers"}).encode()) as probe:
            probe.sample()
            deadline = time.perf_counter() + ctx.seconds
            compute = threading.Thread(target=closed_loop, name="closed-loop")
            compute.start()
            samples = run_open_loop(
                CACHED_RATE, deadline, send_cached, time.perf_counter, time.sleep, between=probe.sample
            )
            compute.join()
    finally:
        service.stop()
    for sample in samples:
        result.tally.record(sample.problems)
    result.tally.record(check_theory(job_samples, theory, result.notes))

    cached_ms = [s.latency * 1e3 for s in samples]
    job_s = [j["seconds"] for j in jobs]
    # Submission i ran between probes i and i + 1.
    cached_ratios = paired_ratios([s.latency for s in samples], range(len(samples)), probe.samples)
    result.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        # Raw, and the mean, not the median: a computed job waits mostly on
        # the worker's jittered polling, which no probe of the host's speed
        # tracks, and the mean of a run settles faster.
        "slow_path_ms": statistics.fmean(job_s) * 1e3,
        "fast_path_ms": median(cached_ratios) * probe.reference * 1e3,
    }
    result.figure("probe_ms", [s * 1e3 for s in probe.samples], "ms", note="echo round trip")
    result.figure("cached_p50_ms", cached_ms, "ms", note=f"open loop at {CACHED_RATE:g}/s")
    tail = tail_percentile(cached_ms)
    if tail is not None:
        p, value, beyond = tail
        result.figures.append(Figure("cached_tail_ms", value, "ms", len(cached_ms),
                                     f"p{p:g}, {beyond} samples beyond it"))
    else:
        result.notes.append("cached_tail_ms: too few samples for any tail percentile")
    result.figure("job_p50_s", job_s, "s", note="closed loop, one computed job in flight")
    lateness = [s.lateness * 1e3 for s in samples]
    result.figures.append(Figure("generator_late_max_ms", max(lateness), "ms", len(lateness),
                                 f"median {median(lateness):.3f} ms"))
    return result


# -- traced section -----------------------------------------------------------


def traced(ctx: Context, rec, seconds: float, tally) -> Dict[str, float]:
    """One computed job, cached submissions, and frame round-trips, spanned."""
    from repro.distributed.frames import decode_frame, encode_frame
    from repro.distributed.plan import plan_blocks
    from repro.distributed.work import run_block
    from repro.scenarios.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.jobs import plan_submission

    rng = ctx.rng("service")
    service = start(ctx, rng)
    deadline = time.perf_counter() + seconds
    queue_s, run_s = [], []
    try:
        client = ServiceClient(service.url)
        with rec.request("service-health"):
            for _ in range(20):
                with rec.span("service.healthz"):
                    client.health()
        specs = []
        while not specs or time.perf_counter() < deadline:
            spec = gain_sweep_point(rng)
            with rec.request("service-job"):
                with rec.span("service.computed_job"):
                    outcome = computed_job(client, spec)
            tally.record(check_computed(client, outcome)[0])
            queue_s.append(outcome["queue_s"])
            run_s.append(outcome["run_s"])
            specs.append(spec)
        cache = ResultCache(service.cache_root)
        with rec.request("service-cached"):
            for spec in specs * 10:
                payload = {"spec": spec, "executor": "workers"}
                with rec.span("service.plan_submission"):
                    planned, _echo = plan_submission(payload)
                with rec.span("scenarios.cache.peek"):
                    cache.peek(planned[0])
                with rec.span("service.submit_cached"):
                    view = client.submit(spec=spec, executor="workers")
                tally.record(check_cached(view))
    finally:
        service.stop()

    block = plan_blocks(specs[0]["mc_realisations"], specs[0]["shard_block"])[0]
    payload = {"blocks": [run_block(specs[0], block)]}
    with rec.request("frames"):
        for _ in range(50):
            with rec.span("distributed.frames.encode"):
                frame = encode_frame(payload)
            with rec.span("distributed.frames.decode", bytes=len(frame)):
                decode_frame(frame)
    return {
        "service.job_queue_s": median(queue_s),
        "service.job_run_s": median(run_s),
        "distributed.frames.bytes": float(len(frame)),
    }
