"""SL(2,C) representations of the cable-exterior group and their adjoint actions.

The four families are tagged by whether the restriction to the torus-knot
piece (first letter) and to the pattern piece (second letter) has Abelian
image:

* AA: every generator diagonal, z = exp(xi/2) on the meridian p;
* AN: x = y abelian with eigenvalues omega2^{+-1}, omega2^(2b+1) = -1;
* NA: pattern side abelian, torus side irreducible, omega1^(2a+1) = -1;
* NN: both sides non-abelian, omega1^(2a+1) = -1 and
  omega3^(2b+1-4(2a+1)) = -1.

Roots of unity come straight from their index (omega = exp(i pi (2j+1)/den)),
never from root finding.  The NN matrices are built from their theta1-tilde
conjugated forms, which avoids the half-integer powers z^(1/2) that the other
conjugator would introduce.

The matrices are rational in z over Q(omega), so a cable or pattern relator holds
identically or fails for almost every xi: ``rep_build`` certifies them, with the
gluing-torus identities, once per (family, a, b, Galois orbit of the index), over
F_P (``_certify_relations``).  ``hp_assignment`` rebuilds them on mpmath scalars
for the reference loop walk, ``chains.chain_of_loop_hp``.

Conventions for the twisted chain complex: sl(2,C) carries the basis {E,H,F};
the adjoint action is Ad(g)(v) = rho(g)^-1 v rho(g), written as a 3x3 matrix
acting from the left.  Because of the inverse in Ad, the letter-by-letter
evaluation of a word is an anti-homomorphism: a word u v maps to the matrix
product Ad(v) Ad(u) (so p t evaluates to T P).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Dict, Tuple

import numpy as np

from .presentations import (
    Presentation,
    abelianization_exponents,
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from .words import GroupRingElement, Word, _fox_walk

_SL2_BASIS = np.array([[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]], dtype=complex)  # E, H, F

FAMILIES = ("AA", "AN", "NA", "NN")

RELATION_TOL = 1e-10
HP_BITS = 216                 # mpmath working precision of the reference loop walk, about 65 digits
SL2_DET_TOL = 1e-9            # |det - 1| of each generator matrix: it lies in SL(2,C)
XI_REAL_GUARD = 1e-3          # theta2 contains z^2/(z^4-1); keep z^4 off 1
ABELIAN_GUARD = 1e-6          # |z^2 - 1| must exceed this in the AA family


class CabletorsionError(ValueError):
    """Base of the library's named errors: a stage that cannot certify its value says why."""


class RepresentationError(CabletorsionError):
    pass


# 2x2 helpers over a generic scalar domain (complex, mpmath or _Residue): the
# family formulas are written once, in scalar arithmetic, so the float
# constructors, the reference walk and the certificate cannot drift apart.


def _m2(a, b, c, d):
    return [[a, b], [c, d]]


def _mul2(x, y):
    return [
        [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
        [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
    ]


def _adj2(x):
    """The adjugate: the inverse of an SL(2) matrix, without a division."""
    return [[x[1][1], -x[0][1]], [-x[1][0], x[0][0]]]


def _word2(mats, word: Word):
    """The product of ``word``'s letters on 2x2 ``mats`` by generator name, inverses by adjugate."""
    letters = [mats[g] if s == 1 else _adj2(mats[g]) for g, s in word.letters]
    return reduce(_mul2, letters) if letters else [[1, 0], [0, 1]]


def _pow2(x, n: int):
    """x^n for n >= 1 by repeated squaring."""
    if n == 1:
        return x
    half = _pow2(_mul2(x, x), n // 2)
    return _mul2(half, x) if n % 2 else half


def _family_entries(family, z, a, b, omega1=None, omega2=None, omega3=None):
    """Generator matrices as nested lists of scalars, one formula per family;
    each power or reciprocal a formula repeats is computed once."""
    zi = 1 / z
    if family == "AA":
        z2, zm2, t = z ** 2, z ** -2, _m2(z ** (2 * b), 0, 0, z ** (-2 * b))
        return {"p": _m2(z, 0, 0, zi), "x": _m2(z2, 0, 0, zm2), "y": _m2(z2, 0, 0, zm2), "t": t}
    if family == "AN":
        w, wi = omega2, 1 / omega2
        wb, wmb = w ** b, w ** -b
        p = _m2(z, 1, 0, zi)
        q = _m2(z, 0, w + wi - z ** 2 - z ** -2, zi)
        x = _mul2(p, q)
        th = _m2(1, 0, z / w - zi, 1)
        t_model = _m2(wb, (wb - wmb) / (w - wi) / z, 0, wmb)
        t = _mul2(_mul2(_adj2(th), t_model), th)
        return {"p": p, "x": x, "y": [row[:] for row in x], "t": t}
    if family == "NA":
        w = omega1
        z2, zm2 = z ** 2, z ** -2
        p = _m2(z, 1 / (z + zi), 0, zi)
        x = _m2(z2, 1, 0, zm2)
        y = _m2(z2, 0, w + 1 / w - z ** 4 - z ** -4, zm2)
        n = 2 * b - 8 * a - 4  # t = -p^n by squaring: no NA value reads rho(t), only its relators do
        t = [[-e for e in row] for row in (_pow2(p, n) if n else _m2(1, 0, 0, 1))]
        return {"p": p, "x": x, "y": y, "t": t}
    if family == "NN":
        w1, w3, w3i = omega1, omega3, 1 / omega3
        p = _m2(z, 1, 0, zi)
        th = _m2(1, 0, z / w3 - zi, 1)
        th_inv = _adj2(th)
        x = _mul2(_mul2(th_inv, _m2(w3, zi, 0, w3i)), th)
        y_model = _m2(w3, 0, (w1 + 1 / w1 - w3 ** 2 - w3 ** -2) * z, w3i)
        y = _mul2(_mul2(th_inv, y_model), th)
        e = 4 * a - b + 1
        w3e, w3me = w3 ** e, w3 ** -e
        t_model = _m2(w3e, (w3e - w3me) / (w3 - w3i) / z, 0, w3me)
        t = _mul2(_mul2(th_inv, t_model), th)
        return {"p": p, "x": x, "y": y, "t": t}
    raise RepresentationError(f"unknown family {family!r}")


# (family, root name read by the formula) of each invariant-vector case
_INVARIANT_CASES = {"H": ("AA", None), "U": ("AN", "omega2"), "V": ("AN", None),
                    "W": ("NA", None), "Ut": ("NN", "omega3"), "Vt": ("NN", None)}
TORUS_CASES = {"AN": ("U", "V"), "NA": ("W", "W"), "NN": ("Ut", "Vt")}  # (gluing, outer) torus by family


def _invariant_root(case: str, family: str):
    """The root ``case`` reads; raises unless the case is known and fits ``family``."""
    if case not in _INVARIANT_CASES:
        raise ValueError(f"unknown invariant-vector case {case!r}")
    if _INVARIANT_CASES[case][0] != family:
        raise ValueError(f"case {case!r} is incompatible with family {family}")
    return _INVARIANT_CASES[case][1]


def _invariant_entries(case, z, omega=None):
    if case == "H":
        return [0, 1, 0]
    if case in ("U", "Ut"):
        return [
            2,
            z * (omega + 1 / omega) - 2 / z,
            2 * (omega + 1 / omega - z ** 2 - z ** -2),
        ]
    if case in ("V", "Vt"):
        return [2, z - 1 / z, 0]
    return [2, z ** 2 - z ** -2, 0]  # W


def _root_fractions(family: str, a: int, b: int, index) -> dict:
    """(k, den) of each root omega = exp(i pi (2k+1)/den) by name, in index order; a bad index raises."""
    dens = {"AN": {"omega2": 2 * b + 1}, "NA": {"omega1": 2 * a + 1},
            "NN": {"omega3": 2 * b + 1 - 4 * (2 * a + 1), "omega1": 2 * a + 1}}.get(family, {})
    return {name: (k, den) for k, (name, den) in zip(_checked_index(family, a, b, index), dens.items())}


def _scalars(xi: complex, fractions: dict):
    """(z = exp(xi/2), roots by name) as complex, from an index's ``_root_fractions``."""
    return cmath.exp(xi / 2), {name: cmath.exp(1j * cmath.pi * (2 * k + 1) / den)
                               for name, (k, den) in fractions.items()}


def hp_assignment(rep: "Representation"):
    """The generator matrices rebuilt from the defining data on mpmath z and roots at the current
    mpmath precision, free of the float64 rounding of ``assignment``, and (z, roots by name): the
    2x2s and scalars of the reference walk ``chains.chain_of_loop_hp`` (``Representation.hp_tables``)."""
    import mpmath

    fractions = _root_fractions(rep.family, rep.a, rep.b, rep.index)
    roots = {name: mpmath.expjpi(mpmath.mpf(2 * k + 1) / den) for name, (k, den) in fractions.items()}
    z = mpmath.exp(mpmath.mpc(rep.xi) / 2)
    return _family_entries(rep.family, z, rep.a, rep.b, **roots), (z, roots)


def adjoint_matrix(m) -> np.ndarray:
    """3x3 matrix of v -> m^-1 v m on sl(2,C) in the basis {E, H, F}, or a
    stack of them for a stack of 2x2s.

    A traceless [[h, e], [f, -h]] has coordinates (e, h, f), so the columns
    are read off the conjugates of E, H, F directly.
    """
    arr = np.asarray(m, dtype=complex)[..., None, :, :]
    conj = np.linalg.inv(arr) @ _SL2_BASIS @ arr  # the conjugates of E, H and F
    return np.ascontiguousarray(conj[..., (0, 0, 1), (1, 0, 0)]).swapaxes(-1, -2)


@dataclass
class Representation:
    """Generator-to-SL(2,C) assignment and the data that define it, every map keyed by
    generator name: rho(g) is ``assignment[g]``, Ad(g) is ``adjoints[g]``.

    Family, xi, (a, b) and index fix everything else: z = exp(xi/2), the roots
    omega1-3 (None where the family has no such root), the float64 adjoints and
    their inverses (one stacked call each), the invariant vectors and the reference
    walk's ``hp_tables``.  Each is derived on first read and kept; none is a
    constructor argument, so none can disagree with the data.  Instances are
    treated as immutable; ``certified`` holds the relators ``rep_build`` certified.
    """

    family: str
    assignment: Dict[str, np.ndarray]
    xi: complex = 0.0
    a: int = 0
    b: int = 0
    index: Tuple[int, ...] = ()
    certified: frozenset = field(default_factory=frozenset, init=False, repr=False)

    def __post_init__(self):
        for (p, q), (r, s) in (m.tolist() for m in self.assignment.values()):  # faster than numpy scalars
            det = p * s - q * r
            if abs(det - 1) > SL2_DET_TOL:
                raise RepresentationError(f"matrix determinant {det} is not 1 within {SL2_DET_TOL}")

    @cached_property
    def _complex_scalars(self):
        return _scalars(self.xi, _root_fractions(self.family, self.a, self.b, self.index))

    @property
    def z(self) -> complex:
        return self._complex_scalars[0]

    omega1, omega2, omega3 = (property(lambda rep, name=name: rep._complex_scalars[1].get(name))
                              for name in ("omega1", "omega2", "omega3"))  # None where the family has none

    @cached_property
    def adjoints(self) -> Dict[str, np.ndarray]:
        """Ad(g) by generator name, from one stacked ``adjoint_matrix`` call; an entry past float64
        (NA's Ad(t) far out in xi) is non-finite, without a warning, and each reader names it."""
        with np.errstate(over="ignore", invalid="ignore"):
            return dict(zip(self.assignment, adjoint_matrix(list(self.assignment.values()))))

    @cached_property
    def adjoint_invs(self) -> Dict[str, np.ndarray]:
        """Ad(g)^-1 by generator name, from one stacked inverse, non-finite as ``adjoints`` may be."""
        with np.errstate(over="ignore", invalid="ignore"):
            return dict(zip(self.adjoints, np.linalg.inv(list(self.adjoints.values()))))

    @cached_property
    def hp_tables(self) -> tuple:
        """``hp_assignment`` at HP_BITS, built once for the reference walk."""
        import mpmath
        with mpmath.mp.workprec(HP_BITS):
            return hp_assignment(self)

    @cached_property
    def vectors(self) -> dict:
        """The family's invariant vectors by case as read-only float64 arrays."""
        z, roots = self._complex_scalars
        vecs = {case: np.array(_invariant_entries(case, z, roots.get(root)), dtype=complex)
                for case, (family, root) in _INVARIANT_CASES.items() if family == self.family}
        for vec in vecs.values():
            vec.flags.writeable = False
        return vecs


# -- evaluation ----------------------------------------------------------------


def evaluate_word(rep: Representation, word: Word) -> np.ndarray:
    """Adjoint evaluation of a word by ``_fox_walk``; anti-homomorphic, so u v goes to Ad(v) Ad(u)."""
    return _fox_walk(word, (), np.eye(3, dtype=complex), rep.adjoints, rep.adjoint_invs)[1]


def evaluate_ring(rep: Representation, elem: GroupRingElement) -> np.ndarray:
    """Z-linear extension of evaluate_word to group-ring elements."""
    out = np.zeros((3, 3), dtype=complex)
    for word, coeff in elem.terms.items():
        out += coeff * evaluate_word(rep, word)
    return out


# -- relation verification ------------------------------------------------------


def _relator_deviations(factored, mats) -> list:
    """Max-entry deviation from the identity of each relator prod w^e in ``factored``,
    on ``mats``, 2x2 nested lists of scalars by generator name.  One power table serves
    every relator: each base word w is multiplied out once, w^n is built once, by squaring
    from w or as (w^(n/2))^2 when that is in the table, and w^-n is the adjugate of w^n:
    31 2x2 products for the cable and pattern relators at (a, b) = (3, 40)."""
    powers: dict = {}  # (w, n) -> w^n, n >= 1

    def power(word, e):
        n = abs(e)
        if (word, n) not in powers:
            if (word, 1) not in powers:
                powers[word, 1] = _word2(mats, word)
            half = powers.get((word, n // 2)) if n % 2 == 0 else None
            powers[word, n] = _pow2(powers[word, 1], n) if half is None else _mul2(half, half)
        return powers[word, n] if e > 0 else _adj2(powers[word, n])

    values = [reduce(_mul2, (power(word, e) for word, e in factors)) for factors in factored]
    return [max(abs(v[i][j] - (i == j)) for i in (0, 1) for j in (0, 1)) for v in values]


def _gluing_deviations(family: str, a: int, b: int, mats, z, roots) -> list:
    """Max-entry deviations, on ``mats``, of the identities the pieces' lifts and Seifert routes rest on:
    V = [[v_H, v_E], [v_F, -v_H]] of the gluing-torus vector commutes with each generator of an abelian
    side, with x on a non-abelian torus side and with t and p t p t^-1 on a non-abelian pattern side, and
    each Seifert generator g of a non-abelian side (``PeripheralSystem.seifert``) has rho(g)^n = -I;
    2x2 products: 2 per commutation, 3 for p t p t^-1, 1 + 1 for (p t)^2, and 6 + 1 and 1 + 4 for
    ((xy)^3 x)^2 and (xy)^7 at a = 3."""
    case = TORUS_CASES[family][0]
    vec = _invariant_entries(case, z, roots.get(_INVARIANT_CASES[case][1]))
    vmat = [[vec[1], vec[0]], [vec[2], -vec[1]]]
    p, t, x, y = (mats[g] for g in "ptxy")
    fixers = [x, y] if family[0] == "A" else [x]
    fixers += [p, t] if family[1] == "A" else [t, reduce(_mul2, (p, t, p, _adj2(t)))]
    pairs = [(_mul2(vmat, m), _mul2(m, vmat)) for m in fixers]
    for side, (_, peri) in zip(family, (torus_piece_presentation(a), pattern_piece_presentation(b))):
        if side == "N":
            pairs += [(_pow2(_word2(mats, g), n), _m2(-1, 0, 0, -1)) for g, n in peri.seifert]
    return [max(abs(u[i][j] - w[i][j]) for i in (0, 1) for j in (0, 1)) for u, w in pairs]


def verify_relations(pres: Presentation, rep: Representation, skip=frozenset()) -> Tuple[float, ...]:
    """Max-entry deviation from the identity of each relator not in ``skip``, by
    ``_relator_deviations`` on the float64 matrices: from the factored forms
    when the presentation keeps them, else each relator as one factor."""
    for g in pres.generators:
        if g not in rep.assignment:
            raise RepresentationError(f"representation does not assign generator {g!r}")
    factored = pres.factored or [((rel, 1),) for rel in pres.relators]
    todo = [factors for rel, factors in zip(pres.relators, factored) if rel not in skip]
    if not todo:  # nothing left to check: build no float64 matrices
        return ()
    mats = {g: rep.assignment[g].tolist() for g in pres.generators}
    return tuple(_relator_deviations(todo, mats))


def ensure_relations(pres: Presentation, rep: Representation) -> None:
    """Raise unless every relator of ``pres`` holds for ``rep`` within RELATION_TOL.

    Relators ``rep_build`` certified are skipped; every other one, and all of a
    hand-built representation's, is checked by ``verify_relations``, with no retry.
    """
    deviations = verify_relations(pres, rep, skip=rep.certified)
    if not all(d <= RELATION_TOL for d in deviations):
        raise RepresentationError(f"{pres.label} relators fail verification: deviations {deviations}")


class _Residue:
    """An element of F_P, the certificate's scalar; ints mix in, and ``abs`` is 0 or 1."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v, self.p = v % p, p

    __add__ = __radd__ = lambda self, other: _Residue(self.v + getattr(other, "v", other), self.p)
    __mul__ = __rmul__ = lambda self, other: _Residue(self.v * getattr(other, "v", other), self.p)
    __pow__ = lambda self, n: _Residue(pow(self.v, n, self.p), self.p)  # a negative n inverts
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -other
    __truediv__ = lambda self, other: self * (other * _Residue(1, self.p)) ** -1
    __rtruediv__ = lambda self, other: self ** -1 * other
    __abs__ = lambda self: int(self.v != 0)


# A relator that fails is a nonzero rational function of z.  With each generator
# M_g(z) / (z^s (z^2+1)^r), M_g polynomial, its numerator has degree at most deg_z =
# sum over the letters of deg M_g (4 for x, y, t, 2 for p; NN y 2, NA p 4, NA y 8,
# AA t 4b, NA t = -p^(2b-8a-4) at most 4(2b-8a-4)), so a uniform z passes it with
# probability at most deg_z / P (Schwartz 1980; Zippel 1979): 2.4e-13 per draw for NA
# r2 at (6, 200), deg_z <= 560,044.  The second prime covers a P dividing every coefficient.
CERT_PRIME_FLOOR = 1 << 61
CERT_DRAWS = 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 37 at the primes to 37, exact for n < 2^64 (Sorenson and Webster 2015)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    return all(pow(q, (n - 1) >> s, n) == 1 or any(pow(q, (n - 1) >> r, n) == n - 1 for r in range(1, s + 1))
               for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


@lru_cache(maxsize=64)
def _certificate_draws(a: int, b: int) -> tuple:
    """``CERT_DRAWS`` draws (P, N, h, z): N = lcm(2(2a+1), 2(2b+1), 2(2b+1-4(2a+1))), the
    first primes P = 1 mod N from CERT_PRIME_FLOOR, h of order N in F_P, z seeded by P."""
    n = math.lcm(2 * (2 * a + 1), 2 * (2 * b + 1), 2 * (2 * b + 1 - 4 * (2 * a + 1)))
    divisors = {q for d in range(1, math.isqrt(n) + 1) if n % d == 0 for q in (d, n // d)} - {1}
    primes = (p for p in itertools.count(-(-(CERT_PRIME_FLOOR - 1) // n) * n + 1, n) if _is_prime(p))
    draws = []
    for p in itertools.islice(primes, CERT_DRAWS):
        powers = (pow(x, (p - 1) // n, p) for x in itertools.count(2))  # orders dividing N
        h = next(h for h in powers if all(pow(h, n // q, p) != 1 for q in divisors))
        draws.append((p, n, h, random.Random(p).randrange(2, p - 1)))
    return tuple(draws)


@lru_cache(maxsize=1024)
def _certify_relations(family: str, a: int, b: int, orbit: Tuple[int, ...]) -> frozenset:
    """The cable and pattern relators, shown to hold at every xi and every index of
    ``orbit`` (its least index) by ``_relator_deviations`` on ``_family_entries`` over
    F_P, with omega = exp(i pi (2k+1)/den) -> h^(N(2k+1)/(2 den)), at each draw, and past
    AA the gluing-torus and Seifert identities (``_gluing_deviations``; v is rational in z over Q(omega))."""
    cable, _ = cable_exterior_presentation(a, b)
    pattern, _ = pattern_piece_presentation(b)
    for p, n, h, z in _certificate_draws(a, b):
        roots = {name: _Residue(pow(h, n * (2 * k + 1) // (2 * den), p), p)
                 for name, (k, den) in _root_fractions(family, a, b, orbit).items()}
        z = _Residue(z, p)
        mats = _family_entries(family, z, a, b, **roots)
        checks = [("relators", _relator_deviations(cable.factored + pattern.factored, mats))]
        if family in TORUS_CASES:
            checks.append(("gluing-torus identities", _gluing_deviations(family, a, b, mats, z, roots)))
        for what, devs in checks:
            if any(devs):
                raise RepresentationError(f"{family} {what} fail verification: deviations {tuple(devs)} "
                                          f"mod P = {p} at (a, b) = ({a}, {b}), index {orbit}")
    return frozenset(cable.relators + pattern.relators)


# -- family constructors ---------------------------------------------------------


def _index_bounds(family: str, a: int, b: int) -> Tuple[int, ...]:
    """The count of admissible values of each index slot: AN j < b, NA k < a, NN l < b - 4a - 2, m < a."""
    if family not in FAMILIES:
        raise RepresentationError(f"unknown family {family!r}")
    return {"AA": (), "AN": (b,), "NA": (a,), "NN": (b - 4 * a - 2, a)}[family]


def index_range(family: str, a: int, b: int) -> list[tuple[int, ...]]:
    """Admissible representation indices: AN j, NA k, NN (l, m)."""
    return list(itertools.product(*map(range, _index_bounds(family, a, b))))


def _checked_index(family: str, a: int, b: int, index, error=RepresentationError) -> Tuple[int, ...]:
    """``index`` as a tuple of ints (an integer, numpy's too, is one slot), raising ``error`` unless
    its entries are integers, one per slot of the family, each in range (``_index_bounds``)."""
    entries = () if index is None else (index,) if isinstance(index, (int, np.integer)) else index
    try:
        integers = all(isinstance(i, (int, np.integer)) for i in entries)
    except TypeError:
        integers = False
    if not integers:
        raise error(f"index {index!r} is neither an integer nor a sequence of integers")
    index, bounds = tuple(map(int, entries)), _index_bounds(family, a, b)
    if len(index) != len(bounds):
        raise error(f"family {family} takes {len(bounds)} index value(s), got {index}")
    if not all(0 <= i < n for i, n in zip(index, bounds)):
        raise error(f"index {index} outside the admissible range for {family} at (a,b)=({a},{b})")
    return index


def check_parameters(family: str, xi: complex, a: int, b: int) -> complex:
    """xi as a complex, once ``rep_build``'s guards pass (``tor_E_abelian`` shares them)."""
    if family not in FAMILIES:
        raise RepresentationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise RepresentationError(f"parameters a and b must be integers: got a={a!r}, b={b!r}")
    if a < 1:
        raise RepresentationError(f"parameters need a >= 1: got a={a}")
    if 2 * b + 1 <= 4 * (2 * a + 1):
        raise RepresentationError(
            f"parameters need 2b+1 > 4(2a+1): got 2b+1={2 * b + 1}, 4(2a+1)={4 * (2 * a + 1)}"
        )
    xi = complex(xi)
    if not cmath.isfinite(xi):
        raise RepresentationError(f"xi = {xi} is not finite")
    if abs(xi.real) < XI_REAL_GUARD:
        raise RepresentationError(
            f"|Re xi| = {abs(xi.real):.2e} below the degeneracy guard {XI_REAL_GUARD}"
        )
    if family == "AA" and abs(cmath.exp(xi / 2) ** 2 - 1) <= ABELIAN_GUARD:
        raise RepresentationError("z^2 too close to 1 for the abelian family")
    return xi


def rep_build(family: str, xi: complex, a: int, b: int, index=None) -> Representation:
    """Build a verified representation of the cable-exterior group on x, y, p, t.

    The cable and pattern relators, and the gluing-torus and Seifert identities, are ``certified``
    by the cached ``_certify_relations`` of the index's orbit, so a repeated build checks nothing.
    That proves the formulas ``mayer_vietoris._seifert_torsion`` reads its traces from.  The indices of an
    orbit of omega -> omega^k, k a unit mod N, share the certificate of its least one, fixed by each gcd(2k+1, den).
    """
    xi = check_parameters(family, xi, a, b)
    fractions = _root_fractions(family, a, b, index)  # the one index check
    z, roots = _scalars(xi, fractions)
    entries = _family_entries(family, z, a, b, **roots)
    assignment = {name: np.array(m, dtype=complex) for name, m in entries.items()}
    rep = Representation(family, assignment, xi, a, b, tuple(k for k, _ in fractions.values()))
    coprime = len(fractions) < 2 or math.gcd(*(den for _, den in fractions.values())) == 1
    orbit = tuple((math.gcd(2 * k + 1, den) - 1) // 2 if coprime else k for k, den in fractions.values())
    rep.certified = _certify_relations(family, a, b, orbit)
    return rep


def abelian_representation(xi: complex, pres: Presentation) -> Representation:
    """Diagonal representation g -> diag(z^e(g), z^-e(g)) along the abelianization.

    On a meridional (Wirtinger-style) presentation every generator gets
    diag(z, 1/z); on the cable presentation this reproduces the AA family.
    """
    xi = complex(xi)
    z = cmath.exp(xi / 2)
    if abs(z * z - 1) <= ABELIAN_GUARD:
        raise RepresentationError("z^2 too close to 1 for an abelian representation")
    exps = abelianization_exponents(pres)
    assignment = {g: np.diag([z ** e, z ** -e]) for g, e in exps.items()}
    return Representation(family="AA", assignment=assignment, xi=xi)


# -- distinguished invariant vectors ---------------------------------------------


def invariant_vector(case: str, rep: Representation) -> np.ndarray:
    """The canonically normalized sl(2,C) vector fixed by a peripheral subgroup.

    H is the AA case (fixed by everything diagonal); U and V belong to the AN
    family (gluing torus and outer torus); W to NA (both tori); Ut and Vt are
    U and V with omega2 replaced by omega3 (NN family).  The exact
    normalizations matter: the torsion scales with the homology basis, and the
    closed-form theorem values are tied to these vectors.
    """
    _invariant_root(case, rep.family)
    return rep.vectors[case]
