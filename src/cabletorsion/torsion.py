"""Reidemeister torsion of a based chain complex with prescribed homology lifts.

For each degree i the engine picks b_i (vectors whose boundaries base the
image of d_i, chosen as pivot columns), assembles

    d_{i+1}(b_{i+1})  u  lifts_i  u  b_i

as a basis of C_i, takes its determinant D_i against the geometric coordinate
basis, and returns prod_i D_i^((-1)^(i+1)).  The result is well defined up to
sign and up to the choices of b_i and of lifts (within their homology
classes); comparisons therefore go through torsion_equal, which works modulo
multiplication by -1.

The size of each b_i, rank(d_i), is fixed by the chain dimensions and the
number of lifts per degree; one call gives each D_i and its basis check
(``linalg.conditioned_det``), which reads singular values only as a fallback.
The assembled bases come back with the value (``TorsionValue.bases``): class
coordinates are solved against them, with the ranks the lift counts fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from . import linalg
from .chains import CYCLE_TOL, BasedChainComplex
from .representations import CabletorsionError

BASIS_CONDITION_TOL = 1e-13   # sigma_min / sigma_max of an assembled basis: it is a basis

class TorsionError(CabletorsionError):
    pass


@dataclass(frozen=True)
class AssembledBasis:
    """d_{i+1}(b_{i+1}) u lifts_i u b_i as the columns of ``matrix``; ``lifts`` slices the lifts;
    ``conditioning`` is what it was accepted on at ``BASIS_CONDITION_TOL``."""

    matrix: np.ndarray
    lifts: slice
    conditioning: linalg.Conditioning


@dataclass(frozen=True)
class TorsionValue:
    """A nonzero complex number carrying an intrinsic sign ambiguity.

    A value returned by ``reidemeister_torsion`` keeps the assembled basis of
    each nonzero degree in ``bases``; products and quotients keep none.
    """

    value: complex
    bases: Dict[int, AssembledBasis] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __mul__(self, other):
        return TorsionValue(self.value * _raw(other))

    def __truediv__(self, other):
        return TorsionValue(self.value / _raw(other))

    def __repr__(self):
        return f"TorsionValue({self.value:+.12g} * (+-1))"


def _raw(x) -> complex:
    return x.value if isinstance(x, TorsionValue) else complex(x)


def torsion_equal(x, y, rel_tol: float = 1e-9) -> bool:
    """Equality modulo sign: min(|x-y|, |x+y|) <= rel_tol * |y|."""
    xv, yv = _raw(x), _raw(y)
    return min(abs(xv - yv), abs(xv + yv)) <= rel_tol * abs(yv)


def _lift_table(lifts: Mapping[int, Sequence] | None, top: int) -> Dict[int, List[np.ndarray]]:
    table: Dict[int, List[np.ndarray]] = {i: [] for i in range(top + 1)}
    for degree, chains in (lifts or {}).items():
        if not 0 <= degree <= top:
            raise TorsionError(f"lift degree {degree} outside complex")
        table[degree].extend(np.asarray(c, dtype=complex) for c in chains)
    return table


def reidemeister_torsion(
    cplx: BasedChainComplex,
    lifts: Mapping[int, Sequence] | None = None,
    rng: np.random.Generator | None = None,
) -> TorsionValue:
    """Torsion of the based complex with homology lifts ``{degree: [chains]}``.

    The boundary ranks come from the lift counts alone (``_lift_ranks``).
    Pivot feasibility, the cycle residual of every lift and the conditioning
    of every assembled basis are checked, and each failure raises a
    TorsionError.  Passing ``rng`` draws another admissible b_i selection, to
    confirm the result is independent of that choice: the same pivot rule on
    d_i times random positive column weights, whose picks stay independent in d_i.
    """
    top = cplx.top
    table = _lift_table(lifts, top)
    ranks = _lift_ranks(cplx, table)

    b_cols: Dict[int, list[int]] = {}
    for i in range(1, top + 2):
        d_i = cplx.d(i)
        if rng is not None and ranks[i]:  # weights in [e^-3, e^3] reorder the greedy rule's choices
            d_i = d_i * np.exp(rng.uniform(-3.0, 3.0, d_i.shape[1]))
        try:
            b_cols[i] = linalg.pivot_columns(d_i, ranks[i]) if ranks[i] else []
        except np.linalg.LinAlgError:
            raise TorsionError(
                f"boundary d_{i} cannot supply {ranks[i]} numerically independent "
                "columns: either the lift counts are wrong or the matrix is too "
                "ill-conditioned for double precision at these parameters"
            ) from None

    for i in range(top + 1):
        d_i = cplx.d(i)
        d_norm = linalg.norm(d_i)
        for chain in table[i]:
            if chain.shape != (cplx.dims[i],):
                raise TorsionError(f"degree-{i} lift has shape {chain.shape}")
            resid = linalg.norm(d_i @ chain)  # 0 for d_0, which is empty
            scale = max(d_norm * linalg.norm(chain), 1.0)
            if resid > CYCLE_TOL * scale:
                raise TorsionError(f"degree-{i} lift is not a cycle (residual {resid / scale:.3e})")

    result = 1.0 + 0.0j
    bases: Dict[int, AssembledBasis] = {}
    for i in range(top + 1):
        dim = cplx.dims[i]
        if dim == 0:
            continue
        # the lift counts make the assembled basis square (``_lift_ranks``)
        assembled = np.zeros((dim, dim), dtype=complex)
        up = b_cols.get(i + 1, [])
        lift_cols = slice(len(up), len(up) + len(table[i]))
        assembled[:, :len(up)] = cplx.d(i + 1)[:, up]
        for col, chain in enumerate(table[i], lift_cols.start):
            assembled[:, col] = chain
        for col, j in enumerate(b_cols.get(i, []), lift_cols.stop):
            assembled[j, col] = 1.0
        det, conditioning = linalg.conditioned_det(assembled, BASIS_CONDITION_TOL)
        if not conditioning.full_rank:
            raise TorsionError(
                f"assembled basis singular in degree {i}; "
                "wrong lifts or degenerate parameters"
            )
        bases[i] = AssembledBasis(assembled, lift_cols, conditioning)
        result *= det ** ((-1) ** (i + 1))
    tor = TorsionValue(result)
    tor.bases.update(bases)
    return tor


def _lift_ranks(cplx, table) -> Dict[int, int]:
    """Boundary ranks rank(d_i), i >= 1, forced by the declared lift counts.

    With n_i lifts per degree, exactness of the based decomposition pins
    rank(d_i) = dim C_i - n_i - rank(d_{i+1}) from the top down.  A count is
    impossible when a rank comes out negative or d_0 comes out nonzero.  A
    possible count already keeps every rank within both dimensions of its
    boundary matrix, so no separate shape check is needed.
    """
    ranks: Dict[int, int] = {cplx.top + 1: 0}
    for i in range(cplx.top, -1, -1):
        room = cplx.dims[i] - ranks[i + 1]
        got = len(table[i])
        if got > room or (i == 0 and got != room):
            bound = "exactly" if i == 0 else "at most"
            raise TorsionError(
                f"degree {i} takes {bound} {room} homology lifts (dim {cplx.dims[i]}, "
                f"rank d_{i + 1} = {ranks[i + 1]}), got {got}"
            )
        ranks[i] = room - got
    del ranks[0]
    return ranks
