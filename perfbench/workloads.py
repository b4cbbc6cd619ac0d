"""The benchmark's three workloads as lists of public library calls.

A call is ``(family, a, b, index, xi)``; family "AA" goes to
``tor_E_abelian``, the others to ``tor_E``.  The set of calls in a workload is
fixed: it is the parameter range the paper covers, including the points where
the engine raises today.  The seed only fixes the order: groups of calls that
share (a, b) are shuffled, and so are the calls inside each group, so a
workload keeps its (a, b) locality whatever the seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Tuple


class Call(NamedTuple):
    family: str
    a: int
    b: int
    index: Tuple[int, ...]
    xi: complex


def _index_range(family: str, a: int, b: int) -> List[Tuple[int, ...]]:
    # Same ranges as cabletorsion.index_range, written out so that the call
    # lists do not depend on the code under measurement.
    if family == "AN":
        return [(j,) for j in range(b)]
    if family == "NA":
        return [(k,) for k in range(a)]
    return [(l, m) for l in range(b - 4 * a - 2) for m in range(a)]


def index_sweep() -> List[Call]:
    """Every admissible index of AN, NA and NN at (3, 40), xi = 0.3+0.1i."""
    xi = complex(0.3, 0.1)
    return [Call(f, 3, 40, i, xi) for f in ("AN", "NA", "NN") for i in _index_range(f, 3, 40)]


def band_scan() -> List[Call]:
    """First index of each non-empty family at the 15 corners of the band."""
    calls = []
    for a, b in ((1, 6), (1, 7), (2, 10), (2, 12), (3, 40)):
        for family in ("AN", "NA", "NN"):
            indices = _index_range(family, a, b)
            if not indices:
                continue
            calls.extend(
                Call(family, a, b, indices[0], complex(re, im))
                for re in (-1.0, -0.05, 0.05, 0.5, 1.0) for im in (-1.0, 0.0, 1.0)
            )
    return calls


def abelian_direct() -> List[Call]:
    """tor_E_abelian over growing (a, b), Re xi in {0.05, 0.3, 0.6, 1}, Im xi = 0.1."""
    return [
        Call("AA", a, b, (), complex(re, 0.1))
        for a, b in ((1, 6), (2, 10), (2, 20), (3, 40), (4, 80))
        for re in (0.05, 0.3, 0.6, 1.0)
    ]


WORKLOADS: Dict[str, Callable[[], List[Call]]] = {
    "index_sweep": index_sweep,
    "band_scan": band_scan,
    "abelian_direct": abelian_direct,
}


def ordered_calls(workload: str, seed: int) -> List[Call]:
    """The workload's calls in the order fixed by ``seed``."""
    rng = random.Random(seed)
    groups: Dict[Tuple[int, int], List[Call]] = {}
    for call in WORKLOADS[workload]():
        groups.setdefault((call.a, call.b), []).append(call)
    blocks = list(groups.values())
    rng.shuffle(blocks)
    out: List[Call] = []
    for block in blocks:
        rng.shuffle(block)
        out.extend(block)
    return out


def first_call(workload: str) -> Call:
    """The workload's first call in its canonical order, used for set-up time."""
    return WORKLOADS[workload]()[0]
