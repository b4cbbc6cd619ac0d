"""Pure helpers every reported number goes through.

They import nothing from the library under measurement, so ``selfcheck.py``
can test them on hand-made inputs.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
# The CLI's default --tol-match: a value further than this from its closed
# form, modulo sign, is a wrong number.
MATCH_TOL = 1e-6
# Residuals are clamped to [one unit roundoff, 1e16] before taking digits, so
# an exact match reads as 15.95 digits and a NaN or huge miss stays finite.
RESIDUAL_FLOOR = 2.0 ** -53
RESIDUAL_CEIL = 1e16

# Host-normalised time.  The host's speed drifts by up to 1.6x between states
# lasting seconds to minutes (other tenants on the same cores), which no run
# length averages away.  A fixed reference workload is timed before and after
# each measured call, and the call's time is scaled by REF_NOMINAL_S over the
# median of the reference times nearest the call: the result is the time on a
# host where the reference takes REF_NOMINAL_S.  The reference mixes small-integer arithmetic, big-integer
# arithmetic (mpmath's mantissas) and small-object allocation, because the
# library's sensitivity to the drift lies between theirs; on a 2-core Xeon this
# cut the spread of 10-s windows from 9-24% to 3-4%.  It runs no library
# code, so a change to the library moves the call's time and not the scale.
REF_NOMINAL_S = 5e-3
# Reference times on each side of a call that enter its scale.
REF_REACH = 3
_BIG_MODULUS = (1 << 127) - 1
_BIG_FACTOR = 0x5DEECE66D5DEECE66D5DEECE66D5DEECE66D


def reference_seconds() -> float:
    """Wall time of the fixed reference workload.

    The cyclic garbage collector is paused meanwhile: its passes scan the
    library's heap, which would make the reference depend on the code under
    measurement.  The reference makes no cycles, so nothing is left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        x = 12345
        for i in range(6_000):
            x = (x * _BIG_FACTOR + i) % _BIG_MODULUS
        table = {}
        for i in range(4_000):
            table[(i, i & 7)] = [i, float(i)]
        for value in table.values():
            acc += value[0]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scales(refs: Sequence[float]) -> List[float]:
    """Factors that turn the times of calls made between references into nominal time.

    ``refs[i]`` was timed just before call i and ``refs[i + 1]`` just after;
    call i is scaled by the median of the REF_REACH references on each side.
    """
    return [
        REF_NOMINAL_S / statistics.median(refs[max(0, i + 1 - REF_REACH): i + 1 + REF_REACH])
        for i in range(len(refs) - 1)
    ]


@dataclass
class Outcome:
    """One attempted public call: its latency and how it ended.

    ``seconds`` is wall time and ``scale`` the host factor around the call.
    ``residual`` is None when the call raised; ``error`` then holds the
    exception type, message and the span it came out of.
    """

    call: tuple
    seconds: float
    residual: Optional[float] = None
    match: bool = False
    error: Optional[dict] = None
    scale: float = 1.0

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * self.scale


def residual(value: complex, reference: complex) -> float:
    """Relative distance to the closed form modulo sign, as torsion_equal measures it."""
    dist = min(abs(value - reference), abs(value + reference)) / abs(reference)
    return dist if math.isfinite(dist) else math.inf


def percentile(samples: Sequence[float], q: float) -> Tuple[Optional[float], int, int]:
    """Nearest-rank q-th percentile, with the sample count and how many lie beyond.

    The value is None unless at least MIN_BEYOND samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None, 0, 0
    rank = max(1, math.ceil(q * n / 100.0))
    beyond = n - rank
    return (ordered[rank - 1] if beyond >= MIN_BEYOND else None), n, beyond


def min_samples_for(q: float) -> int:
    """Smallest sample count at which percentile(., q) is reported."""
    n = MIN_BEYOND + 1
    while percentile(range(n), q)[0] is None:
        n += 1
    return n


def tally(outcomes: Sequence[Outcome]) -> Dict[str, int]:
    """Attempted, raised and mismatched calls; failed is raised plus mismatched."""
    raised = sum(1 for o in outcomes if o.error is not None)
    mismatched = sum(1 for o in outcomes if o.error is None and not o.match)
    return {
        "attempted": len(outcomes),
        "raised": raised,
        "mismatched": mismatched,
        "failed": raised + mismatched,
    }


def worst_residual(outcomes: Sequence[Outcome]) -> Optional[float]:
    """Worst closed-form residual over the calls that returned a value."""
    values = [o.residual for o in outcomes if o.error is None]
    return max(values) if values else None


def residual_digits(worst: Optional[float]) -> float:
    """-log10 of the worst residual, clamped; 0 when no call returned a value."""
    if worst is None:
        return 0.0
    return -math.log10(min(max(worst, RESIDUAL_FLOOR), RESIDUAL_CEIL))


# -- spans -------------------------------------------------------------------------

# A span is a list [name, start, end, parent, call_id, error_type, count];
# parent is the index of the enclosing span in the same list, or -1.
NAME, START, END, PARENT, CALL_ID, ERROR, COUNT = range(7)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[list], selfs: Sequence[float], weights: Sequence[float],
                 keep=lambda span: True) -> Dict[str, dict]:
    """Per span name: calls, weighted total and self seconds, summed counts, errors by type."""
    table: Dict[str, dict] = {}
    for span, self_s, weight in zip(spans, selfs, weights):
        if not keep(span):
            continue
        row = table.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "errors": {}}
        )
        row["calls"] += 1
        row["total_s"] += (span[END] - span[START]) * weight
        row["self_s"] += self_s * weight
        row["count"] += span[COUNT]
        if span[ERROR] is not None:
            row["errors"][span[ERROR]] = row["errors"].get(span[ERROR], 0) + 1
    return table


def child_calls(spans: Sequence[list], child: str, parent: str, keep=lambda span: True) -> int:
    """Number of ``child`` spans whose parent span is a ``parent`` span."""
    return sum(
        1 for span in spans
        if keep(span) and span[NAME] == child and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == parent
    )
