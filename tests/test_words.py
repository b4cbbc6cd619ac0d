import pytest

from cabletorsion.words import (
    GroupRingElement,
    Word,
    fox_derivative,
    fox_fundamental_defect,
    parse_word,
    word_to_text,
)
from conftest import random_word

X, Y, P, T = "x", "y", "p", "t"


def w(text, gens=(X, Y)):
    return parse_word(text, gens)


class TestWord:
    def test_free_reduction_on_construction(self):
        word = Word([(X, 1), (X, -1), (Y, 1)])
        assert word == Word([(Y, 1)])

    def test_hash_agrees_across_constructions_and_words_stay_immutable(self):
        parsed = w("x y x y")
        powered = w("x y") ** 2
        product = w("x") * w("y x") * Word([(Y, 1)])
        reduced = Word([(X, 1), (Y, 1), (Y, -1), (Y, 1), (X, 1), (Y, 1)])
        assert parsed == powered == product == reduced
        assert len({hash(parsed), hash(powered), hash(product), hash(reduced)}) == 1
        assert len({parsed, powered, product, reduced}) == 1
        for attr in ("letters", "_hash"):
            with pytest.raises(AttributeError):
                setattr(parsed, attr, ())

    def test_reduction_is_idempotent(self, rng):
        for _ in range(50):
            word = random_word(rng, (X, Y))
            assert Word(word.letters) == word

    def test_concatenation_associative(self, rng):
        for _ in range(50):
            u, v, t = (random_word(rng, (X, Y), 8) for _ in range(3))
            assert (u * v) * t == u * (v * t)

    def test_inverse_and_powers(self):
        word = w("x y^-1 x")
        assert word * word.inverse() == Word()
        assert word ** 0 == Word()
        assert word ** -2 == (word.inverse()) ** 2
        assert w("x^3") == w("x x x")
        assert w("x^-5") == (w("x") ** -5)

    @pytest.mark.parametrize("text", ["x y x^-1", "x^2 y x^-2", "y^-1 x y x^-1 y", "x", ""])
    def test_power_equals_repeated_product(self, text):
        # words that cancel across the seam exercise reduction inside squaring
        word = w(text)
        for n in range(-9, 10):
            base = word if n >= 0 else word.inverse()
            expected = Word()
            for _ in range(abs(n)):
                expected = expected * base
            assert word ** n == expected, n

    def test_parse_format_round_trip(self):
        text = "p t p t p^-1 t^-1 p^-1 t^-1"
        word = parse_word(text, (P, T))
        assert len(word) == 8
        assert word_to_text(word) == text
        assert word_to_text(parse_word("x^-4 y^2", (X, Y))) == "x^-4 y^2"

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_word("x z", (X, Y))
        with pytest.raises(ValueError):
            parse_word("x^q", (X, Y))

    def test_exponent_sum(self):
        assert w("x y x^-3 y").exponent_sum(X) == -2
        assert w("x y x^-3 y").exponent_sum(Y) == 2


class TestGroupRing:
    def test_ring_axioms_on_random_elements(self, rng):
        def random_elem():
            terms = {}
            for _ in range(int(rng.integers(1, 4))):
                terms[random_word(rng, (X, Y), 5)] = int(rng.integers(-3, 4))
            return GroupRingElement(terms)

        for _ in range(25):
            a, b, c = random_elem(), random_elem(), random_elem()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * GroupRingElement.one() == a
            assert a + GroupRingElement.zero() == a

    def test_no_zero_coefficients_stored(self):
        elem = GroupRingElement({w("x"): 1}) - GroupRingElement({w("x"): 1})
        assert elem.terms == {}


class TestFoxDerivative:
    def test_base_rule(self):
        assert fox_derivative(w("x"), X) == GroupRingElement.one()
        assert fox_derivative(w("y"), X) == GroupRingElement.zero()

    def test_inverse_rule(self):
        # d(x^-1 y)/dx = -x^-1, forced by the product and inverse rules
        assert fox_derivative(w("x^-1 y"), X) == GroupRingElement({w("x^-1"): -1})

    def test_pattern_relator_p_derivative(self):
        # d(ptptp^-1t^-1p^-1t^-1)/dp = 1 + pt - ptptp^-1 - ptptp^-1t^-1p^-1
        word = parse_word("p t p t p^-1 t^-1 p^-1 t^-1", (P, T))
        expected = GroupRingElement(
            {
                Word(): 1,
                parse_word("p t", (P, T)): 1,
                parse_word("p t p t p^-1", (P, T)): -1,
                parse_word("p t p t p^-1 t^-1 p^-1", (P, T)): -1,
            }
        )
        assert fox_derivative(word, P) == expected

    def test_pattern_relator_t_derivative(self):
        word = parse_word("p t p t p^-1 t^-1 p^-1 t^-1", (P, T))
        expected = GroupRingElement(
            {
                parse_word("p", (P, T)): 1,
                parse_word("p t p", (P, T)): 1,
                parse_word("p t p t p^-1 t^-1", (P, T)): -1,
                parse_word("p t p t p^-1 t^-1 p^-1 t^-1", (P, T)): -1,
            }
        )
        assert fox_derivative(word, T) == expected

    def test_product_rule_randomized(self, rng):
        for _ in range(60):
            u = random_word(rng, (X, Y))
            v = random_word(rng, (X, Y))
            for g in (X, Y):
                lhs = fox_derivative(u * v, g)
                rhs = fox_derivative(u, g) + GroupRingElement.from_word(u) * fox_derivative(v, g)
                assert lhs == rhs

    def test_fundamental_identity_randomized(self, rng):
        # sum_g (dw/dg)(g - 1) = w - 1
        for _ in range(60):
            word = random_word(rng, (X, Y))
            assert fox_fundamental_defect(word, (X, Y)).terms == {}

    def test_negative_powers_expand_before_differentiation(self):
        # d(x^-3)/dx = -x^-1 - x^-2 - x^-3
        word = w("x^-3")
        expected = GroupRingElement({w("x^-1"): -1, w("x^-2"): -1, w("x^-3"): -1})
        assert fox_derivative(word, X) == expected
