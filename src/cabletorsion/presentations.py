"""Group presentations for the knot pieces and the cable exterior.

Three presentations are built as pure data, together with their peripheral
systems:

* the torus-knot piece  <x, y | (xy)^a x (xy)^-a y^-1>  with meridian x and
  preferred longitude y (xy)^{2a} x^{-4a-1},
* the pattern piece  <p, t | p t p t p^-1 t^-1 p^-1 t^-1>, whose boundary
  tori carry mu_C = p t p t^-1, lambda_C = t (p t p t^-1)^-b on the gluing
  torus and mu = p, lambda on the outer torus,
* the cable exterior  <x, y, p, t | r1, r2, r3>  obtained from the two pieces
  by the gluing words x = p t p t^-1 and lambda_C = t (p t p t^-1)^-b.

The longitude of the cable is stored fully expanded into {p, t} letters:
with q = t p t^-1 and r (p q)^b = t, it reduces to t p q^-b t p^{-3b-1}.
In both pieces the gluing-torus longitude also comes split as
lambda_C = h mu_C^k with h in the gluing-torus subgroup: h = t, k = -b on the
pattern side and h = y (xy)^{2a}, k = -(4a+1) on the torus side.  Likewise
each relator is kept factored next to its word, e.g. r2 = y (xy)^{2a}
x^{-4a-1} (p t p t^-1)^b t^-1: the relation check squares its powers, d2 sums them.
All presentations here have deficiency one; each builder is cached per argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .words import Generator, Word, parse_word, word_to_text


def _expand(factors) -> Word:
    """The word prod w^e over the (w, e) pairs of ``factors``."""
    return reduce(Word.__mul__, (word ** e for word, e in factors))


@dataclass(frozen=True)
class Presentation:
    label: str
    generators: Tuple[Generator, ...]
    relators: Tuple[Word, ...]
    # factored[j], when given: relator j as the (w, e) pairs of prod w^e
    factored: Tuple[Tuple[Tuple[Word, int], ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        if len({g.index for g in self.generators}) != len(self.generators):
            raise ValueError("generator indices must be unique")
        allowed = set(self.generators)
        for rel in self.relators:
            stray = rel.generators() - allowed
            if stray:
                raise ValueError(f"relator uses generators not in presentation: {stray}")

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)


@dataclass(frozen=True)
class PeripheralSystem:
    """Named peripheral words over a presentation's generators.

    Names are drawn from {mu_C, lambda_C, mu, lambda}.  The cabling parameter
    b lives here (metadata), not in the presentation: the pattern relator is
    b-independent.  ``splits[name] = (h, k)`` records words[name] = h mu_C^k
    with h in the gluing-torus subgroup.  All maps are read-only: cached
    builders share them.
    """

    words: Mapping[str, Word]
    metadata: Mapping[str, int] = field(default_factory=dict)
    splits: Mapping[str, Tuple[Word, int]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("words", "metadata", "splits"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __getitem__(self, name: str) -> Word:
        return self.words[name]


def _generators(*names: str) -> Tuple[Generator, ...]:
    return tuple(Generator(i, n) for i, n in enumerate(names))


@lru_cache(maxsize=None)
def torus_piece_presentation(a: int) -> tuple[Presentation, PeripheralSystem]:
    """Torus-knot group <x, y | (xy)^a x = y (xy)^a> with its peripheral system."""
    if a < 1:
        raise ValueError(f"torus piece needs a >= 1, got {a}")
    x, y = _generators("x", "y")
    xw, yw = Word([(x, 1)]), Word([(y, 1)])
    xy = xw * yw
    factored = ((xy, a), (xw, 1), (xy, -a), (yw, -1))
    pres = Presentation(f"torus_piece(a={a})", (x, y), (_expand(factored),), (factored,))
    head, k = yw * (xy ** (2 * a)), -4 * a - 1
    lam = head * (xw ** k)
    peri = PeripheralSystem({"mu_C": xw, "lambda_C": lam}, {"a": a}, {"lambda_C": (head, k)})
    return pres, peri


@lru_cache(maxsize=None)
def pattern_piece_presentation(b: int) -> tuple[Presentation, PeripheralSystem]:
    """Pattern group <p, t | ptpt = tptp>; b enters only the peripheral words."""
    if b < 1:
        raise ValueError(f"pattern piece needs b >= 1, got {b}")
    p, t = _generators("p", "t")
    pw, tw = Word([(p, 1)]), Word([(t, 1)])
    factored = ((pw * tw, 2), (tw * pw, -2))    # p t p t p^-1 t^-1 p^-1 t^-1
    pres = Presentation(f"pattern_piece(b={b})", (p, t), (_expand(factored),), (factored,))
    mu_c = pw * tw * pw * tw.inverse()          # the gluing word for x
    head, k = tw, -b
    lam_c = head * (mu_c ** k)                   # r = t (pq)^-b
    q = tw * pw * tw.inverse()
    lam = tw * pw * (q ** -b) * tw * (pw ** (-3 * b - 1))
    peri = PeripheralSystem(
        {"mu_C": mu_c, "lambda_C": lam_c, "mu": pw, "lambda": lam}, {"b": b},
        {"lambda_C": (head, k)},
    )
    return pres, peri


@lru_cache(maxsize=None)
def cable_exterior_presentation(a: int, b: int) -> tuple[Presentation, PeripheralSystem]:
    """Deficiency-one presentation of the cable exterior on generators x, y, p, t."""
    if a < 1:
        raise ValueError(f"cable exterior needs a >= 1, got {a}")
    if 2 * b + 1 <= 4 * (2 * a + 1):
        raise ValueError(
            f"cable parameters need 2b+1 > 4(2a+1): got 2b+1={2 * b + 1}, "
            f"4(2a+1)={4 * (2 * a + 1)}"
        )
    x, y, p, t = _generators("x", "y", "p", "t")
    xw, yw, pw, tw = (Word([(g, 1)]) for g in (x, y, p, t))
    xy = xw * yw
    glue = pw * tw * pw * tw.inverse()
    factored = (
        ((xy, a), (xw, 1), (xy, -a), (yw, -1)),                          # r1: C's relator
        ((yw, 1), (xy, 2 * a), (xw, -4 * a - 1), (glue, b), (tw, -1)),   # r2: lambda_C (t glue^-b)^-1
        ((xw, 1), (glue, -1)),                                           # r3: x = glue
    )
    pres = Presentation(
        f"cable_exterior(a={a},b={b})", (x, y, p, t), tuple(map(_expand, factored)), factored
    )
    q = tw * pw * tw.inverse()
    lam = tw * pw * (q ** -b) * tw * (pw ** (-3 * b - 1))
    peri = PeripheralSystem({"mu": pw, "lambda": lam}, {"a": a, "b": b})
    return pres, peri


def abelianization_exponents(pres: Presentation) -> Dict[Generator, int]:
    """Exponents e(g) with H_1 = Z<t>, generator g mapping to t^{e(g)}.

    Solves the relator exponent-sum system exactly over Q and returns the
    primitive integer solution, signed so that the smallest |e| is positive.
    Raises if the solution space is not one-dimensional (not a knot-like
    presentation).
    """
    gens = pres.generators
    n = len(gens)
    # Gaussian elimination to reduced row echelon form.
    mat = [[Fraction(rel.exponent_sum(g)) for g in gens] for rel in pres.relators]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [vi - factor * vr for vi, vr in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"abelianization rank is {len(free)}, expected 1")
    sol = [Fraction(0)] * n
    sol[free[0]] = Fraction(1)
    for row, c in zip(mat, pivots):
        sol[c] = -row[free[0]]
    denom = lcm(*(v.denominator for v in sol))
    ints = [int(v * denom) for v in sol]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if sum(ints) < 0:
        ints = [-v for v in ints]
    if any(v <= 0 for v in ints):
        raise ValueError("abelianization exponents are not all positive")
    return dict(zip(gens, ints))


# -- JSON for the CLI ------------------------------------------------------------


def presentation_to_json(pres: Presentation, peri: PeripheralSystem | None = None) -> dict:
    doc = {
        "label": pres.label,
        "generators": [g.name for g in pres.generators],
        "relators": [word_to_text(r) for r in pres.relators],
    }
    if peri is not None:
        doc["peripheral"] = {name: word_to_text(w) for name, w in peri.words.items()}
        if peri.metadata:
            doc["metadata"] = dict(peri.metadata)
    return doc
