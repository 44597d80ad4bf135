"""The traced run: every layer of every workload, with a span per call.

The traced run issues the same generated requests as the untraced runs,
but calls each layer's public function itself, with a span around the
call.  It covers all four workloads' layers whichever ``--workload`` is
given (that workload's section runs first), sharing ``--seconds`` among
the sections; each section still completes at least one request.
Per-layer times are self times.  The analytic and ensemble sections run
their layer-by-layer pass twice, the first time with a recorder that keeps
nothing, and report the difference as the tracing overhead.  Spans are
written as NDJSON when the run ends.

``layers.json`` maps every per-layer metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Dict, List

from benchstats import median
from common import Context, Result
from spans import Recorder, self_time_by_request

SECTIONS = ("analytic", "ensemble", "service", "cli")

#: Per-call medians of span durations: metric -> (span name, scale).
CALL_MEDIANS = {
    "backends.reference.block_ms": ("backends.reference.block", 1e3),
    "backends.vectorized.block_ms": ("backends.vectorized.block", 1e3),
    "distributed.store.put_ms": ("distributed.store.put", 1e3),
    "distributed.store.get_ms": ("distributed.store.get", 1e3),
    "scenarios.cache.put_ms": ("scenarios.cache.put", 1e3),
    "scenarios.cache.peek_ms": ("scenarios.cache.peek", 1e3),
    "obs.ledger_append_ms": ("obs.ledger_append", 1e3),
    "service.healthz_rtt_ms": ("service.healthz", 1e3),
    "service.plan_submission_ms": ("service.plan_submission", 1e3),
    "distributed.frames.encode_ms": ("distributed.frames.encode", 1e3),
    "distributed.frames.decode_ms": ("distributed.frames.decode", 1e3),
    "main.interpreter_s": ("main.interpreter", 1.0),
}

#: Self time per analytic request (median over requests): metric -> span name.
ANALYTIC_SELF = {
    "core.chain_build_s": "core.chain_build",
    "core.uniformization_s": "core.uniformization",
    "core.expm_s": "core.expm",
    "core.gain_sweep_s": "core.gain_sweep",
    "core.optimize_self_s": "core.optimize",
}


def from_spans(spans) -> Dict[str, float]:
    """The per-layer metrics that are read straight off the spans."""
    values: Dict[str, float] = {}
    by_name: Dict[str, List] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    for metric, (name, scale) in CALL_MEDIANS.items():
        values[metric] = median([s.duration for s in by_name.get(name, [])]) * scale
    analytic = [s for s in spans if s.request_id.startswith("analytic-")]
    for metric, name in ANALYTIC_SELF.items():
        values[metric] = median(self_time_by_request(analytic, name))
    largest = max(by_name["core.chain_build"], key=lambda s: s.attrs["states"])
    values["core.chain_states"] = float(largest.attrs["states"])
    values["core.chain_nnz"] = float(largest.attrs["nnz"])
    values["core.cdf_dense_bytes"] = float(
        max(s.attrs["cdf_dense_bytes"] for s in by_name["core.uniformization"])
    )
    # The ensemble section traces exactly one cycle; this is per cycle.
    ensemble = [s for s in spans if s.request_id.startswith("ensemble-")]
    values["core.optimize_s"] = sum(self_time_by_request(ensemble, "core.optimize"))
    return values


def run(ctx: Context, first: str, out_dir: Path) -> Result:
    result = Result()
    rec = Recorder()
    order = [first] + [name for name in SECTIONS if name != first]
    values: Dict[str, float] = {}
    for name in order:
        section = importlib.import_module(f"wl_{name}")
        values.update(section.traced(ctx, rec, ctx.seconds / len(order), result.tally))
    values.update(from_spans(rec.spans))
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{first}-seed{ctx.seed}.ndjson"
    path.write_text(rec.to_ndjson())
    result.notes.append(f"{len(rec.spans)} spans written to {path.relative_to(ctx.root)}")
    result.metrics = values
    return result
