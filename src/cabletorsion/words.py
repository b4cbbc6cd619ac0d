"""Free-group words, integer group-ring arithmetic, and the free differential calculus.

Words are stored freely reduced at all times; reduction happens eagerly in the
Word constructor so every derived quantity (group-ring products, free
derivatives) is computed on reduced input.  Group-ring coefficients stay exact
integers until a representation evaluates them, which keeps the differentials
reproducible bit for bit.

Text syntax for words: whitespace-separated letters with optional caret
exponents, e.g. ``"p t p t p^-1 t^-1 p^-1 t^-1"`` or ``"x^-5 y^2"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Tuple


@dataclass(frozen=True, order=True)
class Generator:
    """A generator of a presentation: a small index plus a display name."""

    index: int
    name: str

    def __repr__(self):
        return f"Generator({self.index}, {self.name!r})"


Letter = Tuple[Generator, int]


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {sign}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


class Word:
    """An element of a free group as a freely reduced sequence of signed letters."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce(letters))
        object.__setattr__(self, "_hash", hash(self.letters))  # once: words key dicts and sets

    def __setattr__(self, *args):
        raise AttributeError("Word is immutable")

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        """Repeated squaring: O(log |n|) products instead of |n| re-reductions."""
        base = self if n >= 0 else self.inverse()
        out = Word()
        n = abs(n)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def generators(self) -> set:
        return {g for g, _ in self.letters}

    def exponent_sum(self, gen: Generator) -> int:
        return sum(s for g, s in self.letters if g == gen)

    # -- hashing / display ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Word({word_to_text(self)!r})"


def parse_word(text: str, generators: Iterable[Generator]) -> Word:
    """Parse the whitespace-separated caret syntax into a Word.

    Exponents other than +-1 are expanded letter by letter, so ``"x^-3"``
    becomes x^-1 x^-1 x^-1 before reduction.
    """
    by_name = {g.name: g for g in generators}
    letters: list[Letter] = []
    for token in text.split():
        if "^" in token:
            name, _, exp_text = token.partition("^")
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
        else:
            name, exp = token, 1
        if name not in by_name:
            raise ValueError(f"unknown generator {name!r} in {text!r}")
        sign = 1 if exp > 0 else -1
        letters.extend([(by_name[name], sign)] * abs(exp))
    return Word(letters)


def word_to_text(word: Word) -> str:
    """Inverse of parse_word, with runs of a letter collapsed into one exponent."""
    parts = []
    for (gen, sign), run in groupby(word.letters):
        exp = sign * len(list(run))
        parts.append(gen.name if exp == 1 else f"{gen.name}^{exp}")
    return " ".join(parts)


class GroupRingElement:
    """A finite integer combination of Words, i.e. an element of Z[free group]."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, int] | None = None):
        object.__setattr__(self, "terms", {w: c for w, c in (terms or {}).items() if c})

    def __setattr__(self, *args):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({Word(): 1})

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> "GroupRingElement":
        return cls({word: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, 0) + coeff
        return GroupRingElement(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement({w: c * other for w, c in self.terms.items()})
        out: dict[Word, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                out[w] = out.get(w, 0) + cu * cv
        return GroupRingElement(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = " ".join(f"{coeff:+d}*{word_to_text(word) or '1'}" for word, coeff in self.terms.items())
        return f"GroupRingElement({bits})"


def fox_derivative(word: Word, gen: Generator) -> GroupRingElement:
    """The free derivative of ``word`` with respect to ``gen``.

    Characterised by d(g)/dg = 1, d(h)/dg = 0 for h != g, and the product rule
    d(uv)/dg = du/dg + u * dv/dg; consequently d(g^-1)/dg = -g^-1.  Computed in
    one pass: each occurrence of g^+-1 contributes its prefix (times -g^-1 for
    inverse letters).
    """
    terms: dict[Word, int] = {}
    prefix: list[Letter] = []
    for g, sign in word.letters:
        if g == gen:
            key = Word(prefix if sign == 1 else prefix + [(g, -1)])
            terms[key] = terms.get(key, 0) + sign
        prefix.append((g, sign))
    return GroupRingElement(terms)


def fox_fundamental_defect(word: Word, generators: Iterable[Generator]) -> GroupRingElement:
    """sum_g (dw/dg)(g - 1) - (w - 1); zero for every word (used by property tests)."""
    total = GroupRingElement.zero()
    for gen in generators:
        g_minus_1 = GroupRingElement.from_word(Word([(gen, 1)])) - GroupRingElement.one()
        total = total + fox_derivative(word, gen) * g_minus_1
    w_minus_1 = GroupRingElement.from_word(word) - GroupRingElement.one()
    return total - w_minus_1
