"""Scalar reference formulas used as oracles against the torsion engine.

Contains the four asymptotic-expansion amplitudes tau_0..tau_3, the torus-knot
amplitude tau(k), Alexander polynomials, and the closed-form right-hand sides
of the three gluing theorems.  These are transcribed once and locked by golden
tests; everything else in the package is measured against them.

The Alexander polynomial of a presentation is the engine's exact Fox minor
(``chains.alexander_minor``) with D(1) = 1 and D(t) = D(1/t); only its value at
a complex t is floating point.  ``tau0`` takes the cable's Delta from Seifert's
formula instead, so the abelian oracle shares no Fox calculus with the engine.
"""

from __future__ import annotations

import cmath
import math

from .chains import alexander_minor
from .presentations import Presentation
from .representations import CabletorsionError, _checked_index


class ClosedFormError(CabletorsionError):
    pass


def alexander(pres: Presentation, t: complex) -> complex:
    """Normalized Alexander polynomial of ``pres`` at a complex argument: D(1) = 1 and
    D(t) = D(1/t), half-integer monomial shifts through the principal branch of the square
    root.  The closed form for T(2, 2a+1) is ``alexander_torus``."""
    t = complex(t)
    if t == 0:
        raise ClosedFormError("Alexander polynomial is not evaluated at t = 0")
    coeffs, shift = alexander_minor(pres)
    return sum(c * t ** (e - shift) for e, c in coeffs)


def alexander_torus(a: int, t: complex) -> complex:
    """Closed form for T(2, 2a+1): the symmetrized alternating sum.

    The displayed ratio of w-power differences (w = sqrt(t)) telescopes to
    sum_{k=0}^{2a} (-1)^k t^(k-a), which is the same function without the
    removable 0/0 points at roots of unity (where the AN evaluation lands).
    """
    t = complex(t)
    return sum((-1) ** k * t ** (k - a) for k in range(2 * a + 1))


def _torus_sum(a: int, x: complex) -> complex:
    """``alexander_torus(a, e^x)`` with each term e^(x (k - a)) taken from x, as ``tau0`` holds xi;
    ``alexander_torus`` keeps t, as x = log t would carry t's rounding k-fold, as t^(k - a) does."""
    return sum((-1) ** k * cmath.exp(x * (k - a)) for k in range(2 * a + 1))


# -- tau amplitudes -------------------------------------------------------------


def _guard_denominator(value: complex, description: str) -> complex:
    if abs(value) < 1e-12:
        raise ClosedFormError(f"vanishing denominator: {description} = {value}")
    return value


def tau0(xi: complex, a: int, b: int) -> complex:
    """2 sinh(xi/2) / Delta(cable; e^xi), by Seifert's cable formula Delta(cable; t) =
    Delta_T(2,2a+1)(t^2) Delta_T(2,2b+1)(t) ("On the homology invariants of knots", 1950)."""
    xi = complex(xi)
    delta = _guard_denominator(_torus_sum(a, 2 * xi) * _torus_sum(b, xi), "Delta(cable; e^xi)")
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
    """One representative of the +- class of the glued-torsion closed form, for an index of
    ``index_range(family, a, b)``; any other index raises."""
    if family not in ("AN", "NA", "NN"):
        raise ClosedFormError(f"theorem_rhs knows families AN, NA, NN; got {family!r}")
    index = _checked_index(family, a, b, index, ClosedFormError)
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
    _, m = index  # NN
    omega1 = cmath.exp(1j * math.pi * (2 * m + 1) / (2 * a + 1))
    num = (2 * a + 1) * (4 * (2 * a + 1) - (2 * b + 1))
    den = _guard_denominator(4 * (omega1 - 1 / omega1) ** 2, "(omega1-omega1^-1)^2")
    return num / den
