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

Conventions for the twisted chain complex: sl(2,C) carries the basis {E,H,F};
the adjoint action is Ad(g)(v) = rho(g)^-1 v rho(g), written as a 3x3 matrix
acting from the left.  Because of the inverse in Ad, the letter-by-letter
evaluation of a word is an anti-homomorphism: a word u v maps to the matrix
product Ad(v) Ad(u) (so p t evaluates to T P).
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Dict, Tuple

import numpy as np

from .presentations import (
    Presentation,
    abelianization_exponents,
    cable_exterior_presentation,
    pattern_piece_presentation,
)
from .words import Generator, GroupRingElement, Word

_SL2_BASIS = np.array([[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]], dtype=complex)  # E, H, F

FAMILIES = ("AA", "AN", "NA", "NN")

RELATION_TOL = 1e-10
SL2_DET_TOL = 1e-9            # |det - 1| of each generator matrix: it lies in SL(2,C)
XI_REAL_GUARD = 1e-3          # theta2 contains z^2/(z^4-1); keep z^4 off 1
ABELIAN_GUARD = 1e-6          # |z^2 - 1| must exceed this in the AA family


class RepresentationError(ValueError):
    pass


FIXED_BITS = 200              # fraction bits of _Fixed: about 60 digits, absolute
_ONE = 1 << FIXED_BITS


class _Fixed:
    """A complex number as two Python ints scaled by 2^FIXED_BITS: the scalar
    of the family formulas, which run once per representation (the hot loops
    use the flat kernels below).

    Sums are exact and a product is the exact integer product shifted back
    once, so the error is absolute: about 2^-FIXED_BITS per operation, whatever
    the size of the entry.  Ints mix in exactly; nothing else does.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re, self.im = re, im

    def __add__(self, other):
        o = _lift(other)
        return _Fixed(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        return _Fixed(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        return _Fixed(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return _Fixed(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _Fixed((a * c - b * d) >> FIXED_BITS, (a * d + b * c) >> FIXED_BITS)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return _Fixed(self.re // other, self.im // other)
        c, d = other.re, other.im
        den = c * c + d * d
        return _Fixed(
            ((self.re * c + self.im * d) << FIXED_BITS) // den,
            ((self.im * c - self.re * d) << FIXED_BITS) // den,
        )

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, n: int):
        base, n = (self, n) if n >= 0 else (1 / self, -n)
        out = _Fixed(_ONE)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __complex__(self):
        return complex(self.re / _ONE, self.im / _ONE)  # int / int rounds correctly


def _lift(x) -> _Fixed:
    return x if isinstance(x, _Fixed) else _Fixed(x << FIXED_BITS)


def _fixed_mp(f) -> Tuple[int, int]:
    """f(mpmath) at FIXED_BITS + 16 bits, rounded to the nearest fixed-point (re, im)."""
    import mpmath

    with mpmath.mp.workprec(FIXED_BITS + 16):
        x = f(mpmath)
        return tuple(int(mpmath.nint(mpmath.ldexp(part, FIXED_BITS))) for part in (x.real, x.imag))


@lru_cache(maxsize=64)
def _fixed_z(xi: complex) -> Tuple[int, int]:
    """z = exp(xi/2), once per distinct xi."""
    return _fixed_mp(lambda mpmath: mpmath.exp(mpmath.mpc(xi) / 2))


@lru_cache(maxsize=512)
def _fixed_root(k: int, den: int) -> Tuple[int, int]:
    """omega = exp(i pi (2k+1)/den), once per distinct (k, den)."""
    return _fixed_mp(lambda mpmath: mpmath.expjpi(mpmath.mpf(2 * k + 1) / den))


# Flat fixed-point kernels for the hot loops (relation check, loop walks): a
# 2x2, 3x3 or 3-vector is one tuple of ints, (re, im) of each entry scaled by
# 2^FIXED_BITS, row-major; each entry is its exact sum of products, shifted once.


def _flat(entries) -> tuple:
    """``_Fixed`` / int scalars, in order, as one flat tuple of ints."""
    return tuple(part for x in map(_lift, entries) for part in (x.re, x.im))


def _to_complex(flat) -> list:
    """The correctly rounded complex values of flat (re, im) pairs."""
    it = iter(flat)
    return [complex(re / _ONE, im / _ONE) for re, im in zip(it, it)]  # int / int rounds correctly


def _fmul2(x, y) -> tuple:
    """The 2x2 product of flat fixed-point matrices."""
    er, ei, fr, fi, gr, gi, hr, hi = y
    out = []
    for k in (0, 4):
        ar, ai, br, bi = x[k:k + 4]
        out += ((ar * er - ai * ei + br * gr - bi * gi) >> FIXED_BITS,
                (ar * ei + ai * er + br * gi + bi * gr) >> FIXED_BITS,
                (ar * fr - ai * fi + br * hr - bi * hi) >> FIXED_BITS,
                (ar * fi + ai * fr + br * hi + bi * hr) >> FIXED_BITS)
    return tuple(out)


def _fadj2(x) -> tuple:
    """The adjugate of a flat fixed-point 2x2 (its inverse in SL(2))."""
    ar, ai, br, bi, cr, ci, dr, di = x
    return (dr, di, -br, -bi, -cr, -ci, ar, ai)


class _Flat(tuple):
    """A flat fixed-point 3-vector (6 ints) or 3x3 (18 ints) for the loop
    walks: ``+`` and ``-`` act entrywise, and 3x3 ``@`` 3-vector is one step."""

    __slots__ = ()

    def __add__(self, other):
        return _Flat(map(operator.add, self, other))

    def __sub__(self, other):
        return _Flat(map(operator.sub, self, other))

    def __matmul__(self, v):
        v0r, v0i, v1r, v1i, v2r, v2i = v
        out = []
        for k in (0, 6, 12):
            ar, ai, br, bi, cr, ci = self[k:k + 6]
            out += ((ar * v0r - ai * v0i + br * v1r - bi * v1i + cr * v2r - ci * v2i) >> FIXED_BITS,
                    (ar * v0i + ai * v0r + br * v1i + bi * v1r + cr * v2i + ci * v2r) >> FIXED_BITS)
        return _Flat(out)


def _fadjoint(m) -> _Flat:
    """``_adjoint_entries`` of a flat 2x2, written out as a flat 3x3."""
    ar, ai, br, bi, cr, ci, dr, di = m
    return _Flat(part >> FIXED_BITS for part in (
        dr * dr - di * di, 2 * dr * di,
        2 * (br * dr - bi * di), 2 * (br * di + bi * dr),
        bi * bi - br * br, -2 * br * bi,
        cr * dr - ci * di, cr * di + ci * dr,
        ar * dr - ai * di + br * cr - bi * ci, ar * di + ai * dr + br * ci + bi * cr,
        ai * bi - ar * br, -(ar * bi + ai * br),
        ci * ci - cr * cr, -2 * cr * ci,
        -2 * (ar * cr - ai * ci), -2 * (ar * ci + ai * cr),
        ar * ar - ai * ai, 2 * ar * ai,
    ))


# 2x2 helpers over a generic scalar domain (complex or _Fixed): the family
# formulas are written once, in scalar arithmetic, so the float constructors
# and the extended-precision path cannot drift apart.


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


def _pow2(x, n: int, mul=_mul2):
    """x^n for n >= 1 by repeated squaring, with ``mul`` the 2x2 product."""
    if n == 1:
        return x
    half = _pow2(mul(x, x), n // 2, mul)
    return mul(half, x) if n % 2 else half


def _family_entries(family, z, a, b, omega1=None, omega2=None, omega3=None):
    """Generator matrices as nested lists of scalars, one formula per family;
    each power or reciprocal a formula repeats is computed once."""
    zi = 1 / z
    if family == "AA":
        z2, zm2 = z ** 2, z ** -2
        return {
            "p": _m2(z, 0, 0, zi),
            "x": _m2(z2, 0, 0, zm2),
            "y": _m2(z2, 0, 0, zm2),
            "t": _m2(z ** (2 * b), 0, 0, z ** (-2 * b)),
        }
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
        # one product per factor: squaring would cost the fixed-point r2 ten digits
        t = [[-e for e in row] for row in reduce(_mul2, [p] * (2 * b - 8 * a - 4), _m2(1, 0, 0, 1))]
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


def _adjoint_entries(m):
    """adjoint_matrix of g = [[a, b], [c, d]] in SL(2), in closed form.

    v -> g^-1 v g written out with g^-1 = [[d, -b], [-c, a]]: nine products
    and no division, over any scalar type.
    """
    (a, b), (c, d) = m
    bd, ac = b * d, a * c
    return [
        [d * d, bd + bd, -(b * b)],
        [c * d, a * d + b * c, -(a * b)],
        [-(c * c), -(ac + ac), a * a],
    ]


def _scalars(family: str, xi: complex, a: int, b: int, index, exact: bool):
    """(z = exp(xi/2), roots omega = exp(i pi (2k+1)/den) by name): complex, or
    ``_Fixed`` from the bounded caches of ``_fixed_z`` / ``_fixed_root`` when
    ``exact``.  An index that does not fit the family raises."""
    index = _normalize_index(family, index)
    fractions = {}
    if family == "AN":
        fractions = {"omega2": (index[0], 2 * b + 1)}
    elif family == "NA":
        fractions = {"omega1": (index[0], 2 * a + 1)}
    elif family == "NN":
        l, m = index
        fractions = {"omega1": (m, 2 * a + 1), "omega3": (l, 2 * b + 1 - 4 * (2 * a + 1))}
    if exact:
        roots = {name: _Fixed(*_fixed_root(k, den)) for name, (k, den) in fractions.items()}
        return _Fixed(*_fixed_z(xi)), roots
    roots = {name: cmath.exp(1j * cmath.pi * (2 * k + 1) / den) for name, (k, den) in fractions.items()}
    return cmath.exp(xi / 2), roots


def hp_assignment(rep: "Representation"):
    """The generator matrices rebuilt from the defining data as ``_Fixed``
    scalars, so extended-precision evaluation does not inherit the float64
    rounding of ``assignment``.  ``Representation.hp_entries`` keeps a flat copy.
    """
    z, roots = rep._exact_scalars
    return _family_entries(rep.family, z, rep.a, rep.b, **roots)


def hp_invariant_vector(case: str, rep: "Representation") -> _Flat:
    """invariant_vector as a flat fixed-point ``_Flat``, kept on ``rep``."""
    _invariant_root(case, rep.family)
    return rep.hp_vectors[case]


def adjoint_matrix(m) -> np.ndarray:
    """3x3 matrix of v -> m^-1 v m on sl(2,C) in the basis {E, H, F}, or a
    stack of them for a stack of 2x2s.

    A traceless [[h, e], [f, -h]] has coordinates (e, h, f), so the columns
    are read off the conjugates of E, H, F directly.
    """
    arr = np.asarray(m, dtype=complex)[..., None, :, :]
    conj = np.linalg.inv(arr) @ _SL2_BASIS @ arr  # the conjugates of E, H and F
    return np.ascontiguousarray(conj[..., (0, 0, 1), (1, 0, 0)]).swapaxes(-1, -2)


class _LazyAdjoints(dict):
    """Flat fixed-point Ad(g), or Ad(g^-1) when ``inverse``, by generator name,
    each built from the flat 2x2 ``entries`` on first lookup."""

    def __init__(self, entries, inverse: bool):
        super().__init__()
        self._entries, self._inverse = entries, inverse

    def __missing__(self, name):
        m = self._entries[name]
        adj = self[name] = _fadjoint(_fadj2(m) if self._inverse else m)
        return adj


@dataclass
class Representation:
    """Generator-to-SL(2,C) assignment (by generator name) and the data that define it.

    Family, xi, (a, b) and index fix everything else: z = exp(xi/2), the roots
    omega1-3 (None where the family has no such root), the float64 adjoints and
    their inverses (one stacked call each), and the fixed-point matrices,
    adjoints (each on its first lookup) and invariant vectors, which share one
    fixed-point z and roots.  Each is derived on first read and kept; none is a
    constructor argument, so none can disagree with the data.  Instances are
    treated as immutable.
    ``certified`` holds the relators ``rep_build`` checked (none if hand-built).
    """

    family: str
    assignment: Dict[str, np.ndarray]
    xi: complex = 0.0
    a: int = 0
    b: int = 0
    index: Tuple[int, ...] = ()
    certified: frozenset = field(default_factory=frozenset, init=False, repr=False)

    def __post_init__(self):
        for m in self.assignment.values():
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det - 1) > SL2_DET_TOL:
                raise RepresentationError(f"matrix determinant {det} is not 1 within {SL2_DET_TOL}")

    @cached_property
    def _complex_scalars(self):
        return _scalars(self.family, self.xi, self.a, self.b, self.index, exact=False)

    @cached_property
    def _exact_scalars(self):
        """``_scalars`` as ``_Fixed``, shared by ``hp_assignment`` and ``hp_vectors``."""
        return _scalars(self.family, self.xi, self.a, self.b, self.index, exact=True)

    @property
    def z(self) -> complex:
        return self._complex_scalars[0]

    omega1, omega2, omega3 = (property(lambda rep, name=name: rep._complex_scalars[1].get(name))
                              for name in ("omega1", "omega2", "omega3"))  # None where the family has none

    @cached_property
    def adjoints(self) -> Dict[str, np.ndarray]:
        """Ad(g) by generator name, from one stacked ``adjoint_matrix`` call."""
        return dict(zip(self.assignment, adjoint_matrix(list(self.assignment.values()))))

    @cached_property
    def adjoint_invs(self) -> Dict[str, np.ndarray]:
        """Ad(g)^-1 by generator name, from one stacked inverse."""
        return dict(zip(self.adjoints, np.linalg.inv(list(self.adjoints.values()))))

    @cached_property
    def hp_entries(self) -> dict:
        """``hp_assignment`` as flat fixed-point 2x2s (8 ints each)."""
        return {name: _flat(m[0] + m[1]) for name, m in hp_assignment(self).items()}

    @cached_property
    def hp_adjoints(self) -> tuple:
        """(Ad(g), Ad(g^-1)) by generator name as flat fixed-point ``_Flat``,
        each built on first lookup: the walks of an AN or NN ``tor_E`` read five of the eight."""
        return _LazyAdjoints(self.hp_entries, False), _LazyAdjoints(self.hp_entries, True)

    @cached_property
    def vectors(self) -> dict:
        """The family's invariant vectors by case as read-only float64 arrays."""
        z, roots = self._complex_scalars
        vecs = {case: np.array(_invariant_entries(case, z, roots.get(root)), dtype=complex)
                for case, (family, root) in _INVARIANT_CASES.items() if family == self.family}
        for vec in vecs.values():
            vec.flags.writeable = False
        return vecs

    @cached_property
    def hp_vectors(self) -> dict:
        """The family's invariant vectors by case as flat fixed-point ``_Flat``."""
        z, roots = self._exact_scalars
        return {case: _Flat(_flat(_invariant_entries(case, z, roots.get(root))))
                for case, (family, root) in _INVARIANT_CASES.items() if family == self.family}

    def matrix(self, gen) -> np.ndarray:
        return self.assignment[gen.name if isinstance(gen, Generator) else gen]

    def adjoint(self, gen) -> np.ndarray:
        return self.adjoints[gen.name if isinstance(gen, Generator) else gen]


# -- evaluation ----------------------------------------------------------------


def evaluate_word(rep: Representation, word: Word) -> np.ndarray:
    """Adjoint evaluation of a word; anti-homomorphic, so u v goes to Ad(v) Ad(u)."""
    out = np.eye(3, dtype=complex)
    for gen, sign in word.letters:
        name = gen.name
        step = rep.adjoints[name] if sign == 1 else rep.adjoint_invs[name]
        out = step @ out
    return out


def evaluate_ring(rep: Representation, elem: GroupRingElement) -> np.ndarray:
    """Z-linear extension of evaluate_word to group-ring elements."""
    out = np.zeros((3, 3), dtype=complex)
    for word, coeff in elem.terms.items():
        out += coeff * evaluate_word(rep, word)
    return out


# -- relation verification ------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    deviations: Tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations, default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= RELATION_TOL


def _relator_deviations(factored, mats, exact: bool) -> list:
    """Max-entry deviation from the identity of each relator prod w^e in ``factored``,
    on ``mats``: flat fixed-point 2x2s by name when ``exact``, else nested lists.

    One power table serves every relator: each base word w is multiplied out
    once, w^n is built once, by squaring from w or as (w^(n/2))^2 when that is
    in the table, and w^-n is the adjugate of w^n.  That is 31 2x2 products for
    the cable and pattern relators at (a, b) = (3, 40), growing as log a + log b."""
    mul, adj = (_fmul2, _fadj2) if exact else (_mul2, _adj2)
    one = _flat((1, 0, 0, 1)) if exact else [[1, 0], [0, 1]]
    powers: dict = {}  # (w, n) -> w^n, n >= 1

    def power(word, e):
        n = abs(e)
        if (word, n) not in powers:
            if (word, 1) not in powers:
                letters = [mats[g.name] if s == 1 else adj(mats[g.name]) for g, s in word.letters]
                powers[word, 1] = reduce(mul, letters) if letters else one
            half = powers.get((word, n // 2)) if n % 2 == 0 else None
            powers[word, n] = _pow2(powers[word, 1], n, mul) if half is None else mul(half, half)
        return powers[word, n] if e > 0 else adj(powers[word, n])

    devs = []
    for factors in factored:
        value = reduce(mul, (power(word, e) for word, e in factors))
        off = (_to_complex(map(operator.sub, value, one)) if exact
               else [v - e for row, ones in zip(value, one) for v, e in zip(row, ones)])
        devs.append(max(map(abs, off)))
    return devs


def verify_relations(pres: Presentation, rep: Representation, skip=frozenset()) -> RelationReport:
    """Max-entry deviation from the identity of each relator not in ``skip``, by
    ``_relator_deviations`` on the float64 matrices: from the factored forms
    when the presentation keeps them, else each relator as one factor."""
    for g in pres.generators:
        if g.name not in rep.assignment:
            raise RepresentationError(f"representation does not assign generator {g.name!r}")
    factored = pres.factored or [((rel, 1),) for rel in pres.relators]
    todo = [factors for rel, factors in zip(pres.relators, factored) if rel not in skip]
    if not todo:  # nothing left to check: build no float64 matrices
        return RelationReport(())
    mats = {g.name: rep.assignment[g.name].tolist() for g in pres.generators}
    return RelationReport(tuple(_relator_deviations(todo, mats, exact=False)))


def ensure_relations(pres: Presentation, rep: Representation) -> None:
    """Raise unless every relator of ``pres`` holds for ``rep`` within RELATION_TOL.

    Relators ``rep_build`` certified are skipped; every other one, and all of a
    hand-built representation's, is checked by ``verify_relations``, with no retry.
    """
    report = verify_relations(pres, rep, skip=rep.certified)
    if not report.ok:
        raise RepresentationError(f"{pres.label} relators fail verification: deviations {report.deviations}")


def _certify_relations(rep: Representation) -> RelationReport:
    """The one relation check of a representation built from family data: the
    factored cable relators r1, r2, r3 and the pattern relator.

    AN, NA and NN run on the flat fixed-point ``hp_entries``, since float64
    loses the identity to cancellation between entries of size z^(+-4b); AA
    runs on float64 lists, where diagonal products do not cancel and 200
    absolute bits would flush z^(-4b) to zero.  Raises if a relator fails,
    else marks them ``rep.certified`` and returns the deviations.
    """
    cable, _ = cable_exterior_presentation(rep.a, rep.b)
    pattern, _ = pattern_piece_presentation(rep.b)
    exact = rep.family != "AA"
    mats = rep.hp_entries if exact else {n: m.tolist() for n, m in rep.assignment.items()}
    try:
        report = RelationReport(tuple(_relator_deviations(cable.factored + pattern.factored, mats, exact)))
    except OverflowError:  # raised only by the fixed-point path's float64 rounding
        raise RepresentationError(
            f"{rep.family} fixed-point relator deviation is past the float64 range: "
            f"FIXED_BITS = {FIXED_BITS} are too few at (a, b) = ({rep.a}, {rep.b}), xi = {rep.xi}"
        ) from None
    if not report.ok:
        raise RepresentationError(f"{rep.family} relators fail verification: deviations {report.deviations}")
    rep.certified = frozenset(cable.relators + pattern.relators)
    return report


# -- family constructors ---------------------------------------------------------


def _to_numpy_assignment(entries) -> Dict[str, np.ndarray]:
    return {name: np.array(m, dtype=complex) for name, m in entries.items()}


def index_range(family: str, a: int, b: int) -> list[tuple[int, ...]]:
    """Admissible representation indices: AN j, NA k, NN (l, m)."""
    if family == "AA":
        return [()]
    if family == "AN":
        return [(j,) for j in range(b)]
    if family == "NA":
        return [(k,) for k in range(a)]
    if family == "NN":
        return [(l, m) for l in range(b - 4 * a - 2) for m in range(a)]
    raise RepresentationError(f"unknown family {family!r}")


def _normalize_index(family: str, index) -> Tuple[int, ...]:
    index = () if index is None else (index,) if isinstance(index, int) else tuple(index)
    expected = {"AN": 1, "NA": 1, "NN": 2}.get(family, 0)
    if len(index) != expected:
        raise RepresentationError(f"family {family} takes {expected} index value(s), got {index}")
    return index


def rep_build(family: str, xi: complex, a: int, b: int, index=None) -> Representation:
    """Build a verified representation of the cable-exterior group.

    The returned assignment covers the generators x, y, p, t of the cable
    presentation; the cable and pattern relators are checked to the identity
    within 1e-10 once, by ``_certify_relations``, before it is handed back.
    """
    if family not in FAMILIES:
        raise RepresentationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if 2 * b + 1 <= 4 * (2 * a + 1):
        raise RepresentationError(
            f"parameters need 2b+1 > 4(2a+1): got 2b+1={2 * b + 1}, 4(2a+1)={4 * (2 * a + 1)}"
        )
    xi = complex(xi)
    if abs(xi.real) < XI_REAL_GUARD:
        raise RepresentationError(
            f"|Re xi| = {abs(xi.real):.2e} below the degeneracy guard {XI_REAL_GUARD}"
        )
    index = _normalize_index(family, index)
    if index not in index_range(family, a, b) and family != "AA":
        raise RepresentationError(
            f"index {index} outside the admissible range for {family} at (a,b)=({a},{b})"
        )
    z, roots = _scalars(family, xi, a, b, index, exact=False)
    if family == "AA" and abs(z * z - 1) <= ABELIAN_GUARD:
        raise RepresentationError("z^2 too close to 1 for the abelian family")
    assignment = _to_numpy_assignment(_family_entries(family, z, a, b, **roots))
    rep = Representation(family, assignment, xi, a, b, index)
    _certify_relations(rep)
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
    assignment = {g.name: np.diag([z ** e, z ** -e]) for g, e in exps.items()}
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
