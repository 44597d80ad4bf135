"""Metric arithmetic shared by every workload of the benchmark.

Pure standard library, so the rules here can be tested without the
numerical stack: medians, the tail-percentile rule, open-loop latency
measured from each request's due time, and how failures are counted.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it; otherwise the tail is too thin to be a measurement.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (raises ``ValueError`` when empty)."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must lie in [0, 100], got {p!r}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest of ``TAIL_CANDIDATES`` with ``MIN_BEYOND`` samples beyond it.

    Returns ``(p, value, beyond)`` where ``beyond`` counts the samples
    strictly greater than ``value``, or ``None`` when no candidate has
    enough samples beyond it.
    """
    for p in TAIL_CANDIDATES:
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None


def paired_ratios(
    seconds: Sequence[float], index: Sequence[int], probes: Sequence[float]
) -> List[float]:
    """Each operation's time over the mean of the probes just before and after it.

    ``probes[i]`` ran just before the ``i``-th slot of a loop and
    ``probes[i + 1]`` just after it; ``seconds[k]`` is the time of the
    operation in slot ``index[k]``.  Only a probe taken beside an
    operation sees the host as the operation did.
    """
    if len(seconds) != len(index):
        raise ValueError("one slot index per operation")
    return [s / ((probes[i] + probes[i + 1]) / 2.0) for s, i in zip(seconds, index)]


def pooled_z(parts: Sequence[Tuple[int, float, float]]) -> float:
    """z-score of the pooled residual of independent samples.

    Each part is ``(n, mean - expected, std)`` of one sample.  For one part
    this is the usual ``(mean - expected) / (std / sqrt(n))``; pooling many
    small samples keeps the sample standard deviation from tracking the
    sample mean, which on right-skewed completion times fattens the lower
    tail of a small sample's z-score.
    """
    numerator = sum(n * delta for n, delta, _std in parts)
    denominator = math.sqrt(sum(n * std * std for n, _delta, std in parts))
    return numerator / denominator


@dataclass
class Tally:
    """Operations attempted and failed, for ``error_rate``.

    An operation fails when it raised, was refused, or failed any of its
    correctness checks; it counts once however many of those happened.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class OpenLoopSample:
    """One open-loop request: when it was due, sent and finished."""

    due: float
    sent: float
    done: float
    problems: Tuple[str, ...] = ()

    @property
    def latency(self) -> float:
        """Time from when the request was due, not from when it was sent.

        A stalled generator sends late; charging that wait to the request
        keeps the stall visible instead of hiding it (coordinated omission).
        """
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def run_open_loop(
    rate: float,
    deadline: float,
    send: Callable[[int], Tuple[str, ...]],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    between: Callable[[], None],
) -> List[OpenLoopSample]:
    """Issue ``send(i)`` at ``start + i / rate`` until ``deadline``.

    ``start`` is the clock's reading when the loop begins.

    ``send`` returns the problems found with its request (empty when it
    succeeded).  ``between`` runs after each request is recorded, in the
    time before the next is due.  The schedule never adapts to the system:
    a slow reply delays later sends, and that delay lands in their latency.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate!r}")
    start = clock()
    samples: List[OpenLoopSample] = []
    index = 0
    while True:
        due = start + index / rate
        if due >= deadline:
            return samples
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        problems = tuple(send(index))
        samples.append(OpenLoopSample(due=due, sent=sent, done=clock(), problems=problems))
        between()
        index += 1
