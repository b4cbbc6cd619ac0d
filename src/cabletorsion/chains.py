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

The d2 formula is the definition; a prefix walk (``_fox_walk``) fills it bit
for bit, except long powers of factored relators, summed (``_walk_plan``).
Loop chains walk the 3-vector the chain is applied to, not the 3x3 prefix.
Relators that ``rep_build`` did not certify are checked in float64 before a
complex is built.  Betti numbers are dim C_i - rank d_i - rank d_(i+1).

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
from .presentations import Presentation
from .representations import Representation, _pow2, _to_complex, ensure_relations, hp_invariant_vector
from .words import Generator, Word

SL2_BASIS_NAMES = ("E", "H", "F")

BOUNDARY_SQUARE_TOL = 1e-9    # |d_i d_(i+1)| / (|d_i| |d_(i+1)|): the matrices form a complex
COMMUTATOR_TOL = 1e-9         # |ML - LM| / (|M| |L|): the peripheral actions commute
CYCLE_TOL = 1e-8              # class_coordinates: the vector is a cycle
SUBGROUP_TOL = 1e-20          # |Ad(word) v - v| / |v| after a fixed-point loop walk: it kept its digits


class ChainComplexError(ValueError):
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


def _fox_walk(word: Word, generators: Sequence[Generator], start, forward, backward):
    """(Fox blocks of ``word`` applied to ``start``, one per generator, in one
    pass; the final accumulator, Ad(word) start).

    With u the prefix so far, a letter g adds Ad(u) start to block g, then
    extends u; g^-1 extends u first, then subtracts (d(g^-1)/dg = -g^-1).
    ``forward`` / ``backward`` map names to Ad(g) / Ad(g)^-1 as numpy arrays
    or flat fixed-point ``_Flat``; ``start - start`` is the zero block.
    """
    blocks = {g.name: start - start for g in generators}
    acc = start
    for gen, sign in word.letters:
        name = gen.name
        if sign == 1:
            blocks[name] = blocks[name] + acc
            acc = forward[name] @ acc
        else:
            acc = backward[name] @ acc
            blocks[name] = blocks[name] - acc
    return [blocks[g.name] for g in generators], acc


def presentation_complex(pres: Presentation, rep: Representation) -> BasedChainComplex:
    """The twisted chain complex of the presentation 2-complex, on relators
    that hold (``ensure_relations`` checks those ``rep_build`` did not), each
    walked by its ``_walk_plan`` on one prefix Ad(u).  A summed w^k adds Fox's
    d(w^k)/dg = (1 + w + ... + w^(k-1)) dw/dg at u, B_g(w) S_k Ad(u), and leaves
    Ad(w)^k Ad(u); (S_k, Ad(w)^k) = (I, Ad(w))^k under (S, P)(S', P') = (S + P S', P P').
    A near-unipotent Ad(w) loses up to three digits there: AN (3,40) glue^b at xi = -1+0.1i
    is 2.6e-5 from a dps-50 walk, against 2.8e-8 for the letter walk."""
    ensure_relations(pres, rep)
    n, m = len(pres.generators), len(pres.relators)
    eye = np.eye(3, dtype=complex)
    d2 = np.zeros((3 * n, 3 * m), dtype=complex)
    for j, steps in enumerate(_walk_plan(pres)):
        blocks, acc = None, eye
        for word, k in steps:
            part, end = _fox_walk(word, pres.generators, eye if k > 1 else acc, rep.adjoints, rep.adjoint_invs)
            if k > 1:
                sums, power = _pow2((eye, end), k, lambda x, y: (x[0] + x[1] @ y[0], x[1] @ y[1]))
                head, end = sums @ acc, power @ acc
                part = [block @ head for block in part]
            blocks, acc = part if blocks is None else list(map(np.add, blocks, part)), end
        d2[:, 3 * j:3 * j + 3] = np.vstack(blocks)
    d1 = np.zeros((3, 3 * n), dtype=complex)
    for i, gen in enumerate(pres.generators):
        d1[:, 3 * i:3 * i + 3] = rep.adjoint(gen) - np.eye(3)
    return BasedChainComplex((3, 3 * n, 3 * m), (d1, d2), _presentation_labels(pres))


@lru_cache(maxsize=64)
def _walk_plan(pres: Presentation) -> Tuple[Tuple[Tuple[Word, int], ...], ...]:
    """Per relator, a step (w, k) per factor w^e, or (w^-1)^-e when e < 0:
    summed if that takes fewer 3x3 products (|w|, two per ``_pow2`` product, two
    onto the prefix, one per block) than its k |w| letters, else walked as
    (w^k, 1).  A relator with nothing summed, as every piece relator up to a = 7,
    is one walk of its own word."""
    def step(word, e):
        base, k = (word, e) if e > 0 else (word.inverse(), -e)
        cost = len(base) + 2 * (k.bit_length() + bin(k).count("1")) - 2 + len(pres.generators)
        return (base, k) if cost < k * len(base) else (base ** k, 1)
    plans = [tuple(step(*f) for f in factors) for factors in pres.factored or [()] * len(pres.relators)]
    return tuple(s if any(k > 1 for _, k in s) else ((rel, 1),) for rel, s in zip(pres.relators, plans))


@lru_cache(maxsize=64)
def _presentation_labels(pres: Presentation) -> Tuple[Tuple[str, ...], ...]:
    """Basis labels of ``presentation_complex``, once per presentation."""
    return (
        _sl2_labels(["v~"]),
        _sl2_labels([f"{g.name}~" for g in pres.generators]),
        _sl2_labels([f"f{j + 1}~" for j in range(len(pres.relators))]),
    )


def check_peripheral_actions(M, L) -> Tuple[np.ndarray, np.ndarray]:
    """M and L as complex 3x3 arrays, checked finite and commuting at COMMUTATOR_TOL
    (d1 d2 on the torus complex is [L, M]); ``tor_E`` checks S this way without building it."""
    M = np.asarray(M, dtype=complex)
    L = np.asarray(L, dtype=complex)
    if M.shape != (3, 3) or L.shape != (3, 3):
        raise ChainComplexError("torus complex needs two 3x3 matrices")
    if not (np.isfinite(M).all() and np.isfinite(L).all()):
        raise ChainComplexError("peripheral adjoint actions have non-finite entries")
    scale = max(linalg.norm(M) * linalg.norm(L), 1.0)
    if linalg.norm(M @ L - L @ M) > COMMUTATOR_TOL * scale:
        raise ChainComplexError("peripheral adjoint actions do not commute")
    return M, L


def torus_complex(M, L) -> BasedChainComplex:
    """Twisted complex of the torus from the commuting adjoint actions M, L."""
    M, L = check_peripheral_actions(M, L)
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


def chain_of_loop_hp(word: Word, rep: Representation, pres: Presentation, case: str) -> np.ndarray:
    """chain_of_loop with the family's invariant vector, in extended precision.

    Peripheral words pile up adjoint products of size z^(+-4 len) that cancel
    down to a small chain; in float64 that costs eight or more digits at the
    edge of the xi range, which is too coarse for the induced-map entries.
    So the invariant 3-vector is walked in FIXED_BITS-bit fixed point, as a
    flat ``_Flat`` of six ints, through the flat 3x3 adjoints of
    ``Representation.hp_adjoints``, each built on its first lookup (the walks
    of one ``tor_E`` read five of the eight): one 3x3-times-vector kernel per
    letter, each entry shifted once.  Only the finished chain is downcast,
    correctly rounded.  Callers keep the words short: a longitude
    is walked as its split h mu_C^k (``PeripheralSystem.splits``), never
    letter by letter.

    ``word`` must lie in the gluing-torus subgroup, which fixes the vector, so
    the walk must end where it started.  The error of a fixed-point walk is
    absolute, and a long word whose prefixes grow past 2^FIXED_BITS times the
    chain loses every digit (the flat pattern longitude at NA (3,40),
    Re xi = 1, ends 5e7 to 8e7 away); a deviation beyond SUBGROUP_TOL raises
    instead of returning such a chain.
    """
    forward, backward = rep.hp_adjoints
    vector = hp_invariant_vector(case, rep)
    blocks, end = _fox_walk(word, pres.generators, vector, forward, backward)
    deviation = max(map(abs, _to_complex(end - vector)))
    scale = max(map(abs, _to_complex(vector)))
    if deviation > SUBGROUP_TOL * scale:
        raise ChainComplexError(
            f"the {case} vector is not returned by a loop of {len(word)} letters "
            f"(relative deviation {deviation / scale:.3e} > {SUBGROUP_TOL:g}): "
            "the word is not in the gluing-torus subgroup or the fixed-point walk lost its digits"
        )
    return np.array([v for block in blocks for v in _to_complex(block)])
