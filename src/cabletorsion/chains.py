"""Twisted chain complexes with distinguished geometric bases.

A presentation with n generators and n-1 relators gives a 2-complex with one
0-cell, n 1-cells and n-1 2-cells; tensoring the cellular chain complex of the
universal cover with sl(2,C) over the group ring gives chain groups of
dimensions 3, 3n, 3(n-1).  In the geometric basis (cell x {E,H,F}) the
differentials are

    d2 block (i, j) = evaluate_ring(rho, fox_derivative(r_j, x_i))   (3n x 3(n-1))
    d1 block i      = adjoint(rho(x_i)) - I_3                        (3 x 3n)

d1 d2 = 0 is the fundamental identity of the free calculus pushed through the
(anti-homomorphic) adjoint evaluation, and is asserted at construction.

The d2 formula is the definition; a prefix walk (``words._fox_walk``) over each
relator's letters fills it bit for bit, and the same walk with no blocks is
``evaluate_word``, the product the splitting torus reads.  ``rep_build``
certifies its families' cable and pattern relators over F_P, once per Galois
orbit; any other relator is checked in float64 before a complex is built.
Betti numbers are dim C_i - rank d_i - rank d_(i+1).  Under a diagonal
representation the walk needs only the prefix's degree: ``abelian_fox_rows`` is
the Fox matrix over Z[t^+-1], ``alexander_minor`` its minor.
``chain_of_loop_hp`` runs the same walk on mpmath scalars at HP_BITS bits: the
reference the tests hold the integer phi_1 rows to.

The boundary torus gets its own cell structure (one 0-cell, 1-cells mu, la,
one 2-cell glued along the commutator), whose differentials collapse to
d2 = [[I-L], [M-I]] and d1 = [M-I | L-I] once M and L commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from . import linalg
from .presentations import Presentation, _ldet, abelianization_exponents
from .representations import CabletorsionError, Representation, _invariant_root, ensure_relations
from .representations import HP_BITS, _adj2, _invariant_entries, _mul2
from .words import Word, _fox_walk

SL2_BASIS_NAMES = ("E", "H", "F")

BOUNDARY_SQUARE_TOL = 1e-9    # |d_i d_(i+1)| / (|d_i| |d_(i+1)|): the matrices form a complex
COMMUTATOR_TOL = 1e-9         # |ML - LM| / (|M| |L|): the peripheral actions commute
CYCLE_TOL = 1e-8              # |d_i v| / (|d_i| |v|): a class_coordinates vector or homology lift is a cycle
SUBGROUP_TOL = 1e-20          # |Ad(word) v - v| / |v| after a reference loop walk: it kept its digits


class ChainComplexError(CabletorsionError):
    pass


@dataclass
class BasedChainComplex:
    """Chain groups C_0..C_top with boundary maps and geometric basis labels.

    ``boundaries[i]`` is the matrix of d_{i+1}: C_{i+1} -> C_i, so a complex
    with top degree N stores N matrices.  Labels name the coordinate basis of
    each degree, for dumps and error messages.
    """

    dims: Tuple[int, ...]
    boundaries: Tuple[np.ndarray, ...]
    labels: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self):
        if len(self.boundaries) != len(self.dims) - 1:
            raise ChainComplexError(
                f"{len(self.dims)} chain groups need {len(self.dims) - 1} boundary maps, "
                f"got {len(self.boundaries)}"
            )
        boundaries = []
        for i, mat in enumerate(self.boundaries):
            arr = np.asarray(mat, dtype=complex)
            want = (self.dims[i], self.dims[i + 1])
            if arr.shape != want:
                raise ChainComplexError(f"d_{i + 1} has shape {arr.shape}, expected {want}")
            if not np.isfinite(arr).all():
                raise ChainComplexError(f"d_{i + 1} has non-finite entries")
            boundaries.append(arr)
        self.boundaries = tuple(boundaries)
        for i in range(len(self.boundaries) - 1):
            lower, upper = self.boundaries[i], self.boundaries[i + 1]
            if lower.size and upper.size:
                residual = linalg.norm(lower @ upper)
                scale = max(linalg.norm(lower) * linalg.norm(upper), 1.0)
                if residual > BOUNDARY_SQUARE_TOL * scale:
                    raise ChainComplexError(
                        f"d_{i + 1} d_{i + 2} != 0 (relative residual {residual / scale:.3e})"
                    )

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def d(self, i: int) -> np.ndarray:
        """Matrix of d_i: C_i -> C_{i-1}; zero-shaped outside 1..top."""
        if 1 <= i <= self.top:
            return self.boundaries[i - 1]
        if i == self.top + 1:
            return np.zeros((self.dims[self.top], 0), dtype=complex)
        if i == 0:
            return np.zeros((0, self.dims[0]), dtype=complex)
        raise IndexError(f"degree {i} outside complex of top degree {self.top}")

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "boundaries": [
                [[[v.real, v.imag] for v in row] for row in mat] for mat in self.boundaries
            ],
            "labels": [list(l) for l in self.labels],
        }


def _sl2_labels(cells: Sequence[str]) -> Tuple[str, ...]:
    return tuple(f"{cell}*{s}" for cell in cells for s in SL2_BASIS_NAMES)


def presentation_complex(pres: Presentation, rep: Representation) -> BasedChainComplex:
    """The twisted chain complex of the presentation 2-complex, on relators
    that hold (``ensure_relations`` checks those ``rep_build`` did not), each
    relator's d2 column one ``_fox_walk`` of its letters.  The walks run with
    overflow warnings off, so a prefix past float64 (the AA (6,200) cable r2 at
    |Re xi| near 0.9) is the named non-finite d_2 alone."""
    ensure_relations(pres, rep)
    n, m = len(pres.generators), len(pres.relators)
    eye = np.eye(3, dtype=complex)
    d2 = np.zeros((3 * n, 3 * m), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, rel in enumerate(pres.relators):
            blocks, _ = _fox_walk(rel, pres.generators, eye, rep.adjoints, rep.adjoint_invs)
            d2[:, 3 * j:3 * j + 3] = np.vstack(blocks)
    d1 = np.zeros((3, 3 * n), dtype=complex)
    for i, gen in enumerate(pres.generators):
        d1[:, 3 * i:3 * i + 3] = rep.adjoints[gen] - np.eye(3)
    return BasedChainComplex((3, 3 * n, 3 * m), (d1, d2), _presentation_labels(pres))


@lru_cache(maxsize=64)
def _presentation_labels(pres: Presentation) -> Tuple[Tuple[str, ...], ...]:
    """Basis labels of ``presentation_complex``, once per presentation."""
    return (
        _sl2_labels(["v~"]),
        _sl2_labels([f"{g}~" for g in pres.generators]),
        _sl2_labels([f"f{j + 1}~" for j in range(len(pres.relators))]),
    )


# -- abelianised Fox calculus: Laurent polynomials over Z as ((exponent, coefficient), ...)


@lru_cache(maxsize=64)
def abelian_fox_rows(pres: Presentation, character: Tuple[int, ...] | None = None) -> tuple:
    """Per generator g, the row of d r_j / d g pushed through g -> t^e(g) into Z[t^+-1]
    (sorted terms), e the ``character`` in generator order or else ``abelianization_exponents``:
    ``_fox_walk`` on the prefix's degree alone, one walk per relator, with
    g adding +t^deg before deg rises by e(g) and g^-1 adding -t^deg after it falls."""
    exps = dict(zip(pres.generators, character or abelianization_exponents(pres).values()))
    columns = []
    for rel in pres.relators:
        polys, deg = {g: {} for g in exps}, 0  # in generator order
        for gen, sign in rel.letters:
            at = deg if sign > 0 else deg - exps[gen]
            polys[gen][at] = polys[gen].get(at, 0) + sign
            deg += sign * exps[gen]
        columns.append([tuple(sorted((e, c) for e, c in poly.items() if c)) for poly in polys.values()])
    return tuple(zip(*columns))


@lru_cache(maxsize=64)
def alexander_minor(pres: Presentation) -> Tuple[Tuple[Tuple[int, int], ...], float]:
    """The Laurent determinant A of ``abelian_fox_rows`` without the row of the first generator
    of exponent 1, as terms ((e, c), ...) scaled to A(1) = +1, and the centre of its exponents;
    raises unless A(1) = +-1 exactly and A is symmetric, as for a knot group."""
    deleted = next((g for g, e in abelianization_exponents(pres).items() if e == 1), None)
    if deleted is None:
        raise ChainComplexError("presentation has no meridian-class generator")
    det = _ldet([row for g, row in zip(pres.generators, abelian_fox_rows(pres)) if g != deleted])
    total = sum(det.values())
    if abs(total) != 1:
        raise ChainComplexError(f"determinant of {pres.label} sums to {total}, not +-1; not a knot group")
    lo, hi = min(det), max(det)
    if any(det.get(lo + hi - e) != c for e, c in det.items()):
        raise ChainComplexError(f"Alexander coefficients of {pres.label} not symmetric")
    return tuple(sorted((e, c * total) for e, c in det.items())), (lo + hi) / 2


def torus_complex(M, L) -> BasedChainComplex:
    """Twisted complex of the torus from the adjoint actions M, L, checked finite and commuting
    at COMMUTATOR_TOL (d1 d2 is [L, M])."""
    M = np.asarray(M, dtype=complex)
    L = np.asarray(L, dtype=complex)
    if M.shape != (3, 3) or L.shape != (3, 3):
        raise ChainComplexError("torus complex needs two 3x3 matrices")
    if not (np.isfinite(M).all() and np.isfinite(L).all()):
        raise ChainComplexError("peripheral adjoint actions have non-finite entries")
    scale = max(linalg.norm(M) * linalg.norm(L), 1.0)
    if linalg.norm(M @ L - L @ M) > COMMUTATOR_TOL * scale:
        raise ChainComplexError("peripheral adjoint actions do not commute")
    eye = np.eye(3)
    d2 = np.vstack([eye - L, M - eye])
    d1 = np.hstack([M - eye, L - eye])
    labels = (_sl2_labels(["v~"]), _sl2_labels(["mu~", "la~"]), _sl2_labels(["f~"]))
    return BasedChainComplex((3, 6, 3), (d1, d2), labels)


@dataclass(frozen=True)
class HomologySummary:
    dims: Tuple[int, ...]


def homology(cplx: BasedChainComplex, tol: float = linalg.DEFAULT_RANK_TOL) -> HomologySummary:
    """Betti numbers dim C_i - rank d_i - rank d_(i+1), one numerical rank per boundary."""
    ranks = [0] + [linalg.numerical_rank(d, tol) for d in cplx.boundaries] + [0]
    return HomologySummary(tuple(n - ranks[i] - ranks[i + 1] for i, n in enumerate(cplx.dims)))


def class_coordinates(cycles, basis, cplx: BasedChainComplex, degree: int) -> np.ndarray:
    """Coordinates of a cycle, or of each column of ``cycles``, against the lifts.

    ``basis`` is the piece's assembled basis in ``degree``
    (``TorsionValue.bases``): the cycles are solved against it at once and
    the lift block returned, so the ranks are the torsion's own.  A cycle has
    no component on the b_i columns, whose boundaries are independent; a
    vector that is not a cycle raises.
    """
    cycles = np.asarray(cycles, dtype=complex)
    d_this = cplx.d(degree)
    d_norm = linalg.norm(d_this)
    for cycle in cycles.reshape(len(cycles), -1).T:
        if linalg.norm(d_this @ cycle) > CYCLE_TOL * max(d_norm * linalg.norm(cycle), 1.0):
            raise ChainComplexError(f"vector is not a cycle in degree {degree}")
    return np.linalg.solve(basis.matrix, cycles)[basis.lifts]


def chain_of_loop(word: Word, vector, rep: Representation, pres: Presentation) -> np.ndarray:
    """1-chain of a based loop with sl(2,C) coefficient ``vector``.

    Block i is evaluate_ring(rho, d(word)/d(x_i)) applied to the vector; for a
    relator and an invariant vector this lands in the boundaries.
    """
    vector = np.asarray(vector, dtype=complex)
    blocks, _ = _fox_walk(word, pres.generators, vector, rep.adjoints, rep.adjoint_invs)
    return np.concatenate(blocks)


def _hp_adjoint(g) -> np.ndarray:
    """Ad(g) of a 2x2 ``g`` of scalars in SL(2), as a 3x3 object array: the columns
    are the coordinates (e, h, f) of the conjugates g^-1 v g of E, H and F."""
    conj = [_mul2(_mul2(_adj2(g), v), g) for v in (((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 0), (1, 0)))]
    return np.array([[c[0][1] for c in conj], [c[0][0] for c in conj], [c[1][0] for c in conj]], dtype=object)


def chain_of_loop_hp(word: Word, rep: Representation, pres: Presentation, case: str) -> np.ndarray:
    """chain_of_loop with the family's invariant vector, walked on mpmath scalars at HP_BITS bits
    (``Representation.hp_tables``) and rounded: the tests' reference chain of mu_C and la_C.
    ``word`` must lie in the gluing-torus subgroup, which fixes the vector, so the walk must end
    where it started; a word whose prefixes outgrow 2^HP_BITS times the chain loses every digit
    to cancellation (the flat pattern longitude at NA (3,40), Re xi = 1, ends 4e-9 to 6e-8 away),
    and a deviation beyond SUBGROUP_TOL raises."""
    import mpmath

    root = _invariant_root(case, rep.family)
    mats, (z, roots) = rep.hp_tables
    with mpmath.mp.workprec(HP_BITS):
        forward = {g: _hp_adjoint(mats[g]) for g, s in set(word.letters) if s == 1}  # the letters' alone
        backward = {g: _hp_adjoint(_adj2(mats[g])) for g, s in set(word.letters) if s == -1}
        vector = np.array(_invariant_entries(case, z, roots.get(root)), dtype=object)
        blocks, end = _fox_walk(word, pres.generators, vector, forward, backward)
        deviation = max(abs(v) for v in end - vector)
        scale = max(abs(v) for v in vector)
        if deviation > SUBGROUP_TOL * scale:
            raise ChainComplexError(
                f"the {case} vector is not returned by a loop of {len(word)} letters "
                f"(relative deviation {float(deviation / scale):.3e} > {SUBGROUP_TOL:g}): "
                "the word is not in the gluing-torus subgroup or the walk lost its digits"
            )
        return np.array([complex(v) for block in blocks for v in block])
