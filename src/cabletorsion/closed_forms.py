"""Scalar reference formulas used as oracles against the torsion engine.

Contains the four asymptotic-expansion amplitudes tau_0..tau_3, the torus-knot
amplitude tau(k), Alexander polynomials, and the closed-form right-hand sides
of the three gluing theorems.  These are transcribed once and locked by golden
tests; everything else in the package is measured against them.

The Alexander polynomial is computed exactly: the Fox matrix is pushed through
the abelianization into integer Laurent polynomials, the row of a
meridian-class generator is deleted, the determinant is expanded over Z[t,1/t]
and the result is symmetrized to the representative with D(1) = 1 and
D(t) = D(1/t).  Only the final evaluation at a complex t is floating point.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Dict, Tuple

from .presentations import (
    Presentation,
    abelianization_exponents,
    cable_exterior_presentation,
)
from .words import fox_derivative


class ClosedFormError(ValueError):
    pass


# -- exact Laurent arithmetic (dict exponent -> integer coefficient) -----------


def _ladd(p: Dict[int, int], q: Dict[int, int]) -> Dict[int, int]:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _lmul(p: Dict[int, int], q: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ldet(rows: list) -> Dict[int, int]:
    if len(rows) == 1:
        return rows[0][0]
    out: Dict[int, int] = {}
    for j in range(len(rows)):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = _lmul(rows[0][j], _ldet(minor))
        out = _ladd(out, term if j % 2 == 0 else {e: -c for e, c in term.items()})
    return out


@lru_cache(maxsize=None)
def _alexander_data(pres: Presentation) -> Tuple[Tuple[Tuple[int, int], ...], float]:
    """Symmetrized Alexander coefficients ((exp, coeff), ...) plus the half shift."""
    exps = abelianization_exponents(pres)
    gens = pres.generators
    deleted = next((g for g in gens if exps[g] == 1), None)
    if deleted is None:
        raise ClosedFormError("presentation has no meridian-class generator")
    rows = []
    for g in gens:
        if g == deleted:
            continue
        row = []
        for rel in pres.relators:
            poly: Dict[int, int] = {}
            for word, coeff in fox_derivative(rel, g).terms.items():
                degree = sum(exps[h] * s for h, s in word.letters)
                poly = _ladd(poly, {degree: coeff})
            row.append(poly)
        rows.append(row)
    det = _ldet(rows)
    if not det:
        raise ClosedFormError(f"Alexander determinant of {pres.label} vanishes")
    total = sum(det.values())
    if abs(total) != 1:
        raise ClosedFormError(
            f"determinant of {pres.label} sums to {total}, not +-1; not a knot group"
        )
    lo, hi = min(det), max(det)
    coeffs = tuple(sorted((e, c * total) for e, c in det.items()))
    table = dict(coeffs)
    for e, c in coeffs:
        if table.get(lo + hi - e, 0) != c:
            raise ClosedFormError(f"Alexander coefficients of {pres.label} not symmetric")
    return coeffs, (lo + hi) / 2.0


def alexander(source, t: complex) -> complex:
    """Normalized Alexander polynomial at a complex argument.

    ``source`` is either a Presentation (Fox-matrix route) or the tag
    ``("torus", a)`` for the closed form of T(2, 2a+1).  Normalization fixes
    D(1) = 1 and D(t) = D(1/t); half-integer monomial shifts go through the
    principal branch of the square root.
    """
    t = complex(t)
    if t == 0:
        raise ClosedFormError("Alexander polynomial is not evaluated at t = 0")
    if isinstance(source, Presentation):
        coeffs, shift = _alexander_data(source)
        return sum(c * t ** (e - shift) for e, c in coeffs)
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "torus":
        return alexander_torus(source[1], t)
    raise ClosedFormError(f"unsupported Alexander source {source!r}")


def alexander_torus(a: int, t: complex) -> complex:
    """Closed form for T(2, 2a+1): the symmetrized alternating sum.

    The displayed ratio of w-power differences (w = sqrt(t)) telescopes to
    sum_{k=0}^{2a} (-1)^k t^(k-a), which is the same function without the
    removable 0/0 points at roots of unity (where the AN evaluation lands).
    """
    t = complex(t)
    return sum((-1) ** k * t ** (k - a) for k in range(2 * a + 1))


# -- tau amplitudes -------------------------------------------------------------


def _guard_denominator(value: complex, description: str) -> complex:
    if abs(value) < 1e-12:
        raise ClosedFormError(f"vanishing denominator: {description} = {value}")
    return value


def tau0(xi: complex, a: int, b: int) -> complex:
    """2 sinh(xi/2) / Delta(cable; e^xi), with Delta by the Fox route."""
    xi = complex(xi)
    delta = _guard_denominator(
        alexander(cable_exterior_presentation(a, b)[0], cmath.exp(xi)), "Delta(cable; e^xi)"
    )
    return 2 * cmath.sinh(xi / 2) / delta


def tau1(xi: complex, j: int, a: int, b: int) -> complex:
    num = math.sin(2 * (2 * j + 1) * math.pi / (2 * b + 1))
    den = _guard_denominator(
        math.cos((2 * j + 1) * (2 * a + 1) * math.pi / (2 * b + 1)),
        "cos((2j+1)(2a+1)pi/(2b+1))",
    )
    return (-1) ** j * math.sqrt(2 / (2 * b + 1)) * num / den


def tau2(xi: complex, k: int, a: int, b: int) -> complex:
    xi = complex(xi)
    den = _guard_denominator(
        cmath.cosh((2 * b + 1 - 4 * (2 * a + 1)) * xi / 2),
        "cosh((2b+1-4(2a+1))xi/2)",
    )
    num = math.sin((2 * k + 1) * math.pi / (2 * a + 1))
    return (-1) ** (k + 1) * math.sqrt(2 / (2 * a + 1)) * num / den


def tau3(xi: complex, l: int, m: int, a: int, b: int) -> complex:
    span = 2 * b + 1 - 4 * (2 * a + 1)
    if span <= 0:
        raise ClosedFormError("tau3 needs 2b+1 > 4(2a+1)")
    return (
        (-1) ** (l + m)
        * 4
        / math.sqrt((2 * a + 1) * span)
        * math.sin((2 * m + 1) * math.pi / (2 * a + 1))
    )


# -- torus-knot amplitude ------------------------------------------------------


def tau_torus(k: int, c: int, d: int) -> complex:
    """(-1)^(k+1) 4 sin(k pi/c) sin(k pi/d) / sqrt(c d)."""
    return (
        (-1) ** (k + 1)
        * 4
        * math.sin(k * math.pi / c)
        * math.sin(k * math.pi / d)
        / math.sqrt(c * d)
    )


# -- theorem right-hand sides -------------------------------------------------------


def theorem_rhs(family: str, a: int, b: int, index, xi: complex = 0.0) -> complex:
    """One representative of the +- class of the glued-torsion closed form."""
    if isinstance(index, int):
        index = (index,)
    index = tuple(index)
    if family == "AN":
        (j,) = index
        omega2 = cmath.exp(1j * math.pi * (2 * j + 1) / (2 * b + 1))
        num = (2 * b + 1) * (omega2 ** (2 * a + 1) + omega2 ** (-2 * a - 1)) ** 2
        den = _guard_denominator(2 * (omega2 ** 2 - omega2 ** -2) ** 2, "(omega2^2-omega2^-2)^2")
        return num / den
    if family == "NA":
        (k,) = index
        omega1 = cmath.exp(1j * math.pi * (2 * k + 1) / (2 * a + 1))
        z = cmath.exp(complex(xi) / 2)
        ratio = (z ** (8 * a - 2 * b + 3) + z ** (-8 * a + 2 * b - 3)) / _guard_denominator(
            omega1 - 1 / omega1, "omega1 - omega1^-1"
        )
        return (2 * a + 1) / 2 * ratio ** 2
    if family == "NN":
        l, m = index
        omega1 = cmath.exp(1j * math.pi * (2 * m + 1) / (2 * a + 1))
        num = (2 * a + 1) * (4 * (2 * a + 1) - (2 * b + 1))
        den = _guard_denominator(4 * (omega1 - 1 / omega1) ** 2, "(omega1-omega1^-1)^2")
        return num / den
    raise ClosedFormError(f"theorem_rhs knows families AN, NA, NN; got {family!r}")
