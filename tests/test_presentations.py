import pytest

from cabletorsion.presentations import (
    Presentation,
    abelianization_exponents,
    cable_exterior_presentation,
    pattern_piece_presentation,
    presentation_to_json,
    torus_piece_presentation,
)
from cabletorsion.words import Word, parse_word


class TestTorusPiece:
    def test_trefoil_relator(self):
        pres, peri = torus_piece_presentation(1)
        assert pres.word("x y x y^-1 x^-1 y^-1") == pres.relators[0]
        assert peri["mu_C"] == pres.word("x")
        assert peri["lambda_C"] == pres.word("y x y x y x^-5")  # y (xy)^2 x^-5

    def test_a2_relator_and_deficiency(self):
        pres, _ = torus_piece_presentation(2)
        xy = pres.word("x y")
        expected = (xy ** 2) * pres.word("x") * (xy ** -2) * pres.word("y").inverse()
        assert pres.relators[0] == expected
        assert len(pres.generators) - len(pres.relators) == 1  # deficiency one

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            torus_piece_presentation(0)

    @pytest.mark.parametrize("a", range(1, 8))
    def test_abelianization_is_meridional(self, a):
        pres, _ = torus_piece_presentation(a)
        exps = abelianization_exponents(pres)
        assert exps == {"x": 1, "y": 1}
        # every relator maps to t^0
        for rel in pres.relators:
            assert sum(exps[g] * s for g, s in rel.letters) == 0


class TestPatternPiece:
    def test_relator_is_the_commuting_word(self):
        pres, _ = pattern_piece_presentation(6)
        assert len(pres.relators[0]) == 8
        assert pres.relators[0] == pres.word("p t p t p^-1 t^-1 p^-1 t^-1")

    def test_meridian_is_p(self):
        _, peri = pattern_piece_presentation(6)
        pres, _ = pattern_piece_presentation(6)
        assert peri["mu"] == pres.word("p")
        assert peri.metadata["b"] == 6

    def test_lambda_matches_raw_form(self):
        # raw form r (pq)^b p q^-b r (pq)^b p^(-3b-1), with q = t p t^-1 and
        # r = t (pq)^-b, stored fully expanded into {p, t}
        b = 6
        pres, peri = pattern_piece_presentation(b)
        p, t = pres.word("p"), pres.word("t")
        q = t * p * t.inverse()
        pq = p * q
        r = t * (pq ** -b)
        raw = r * (pq ** b) * p * (q ** -b) * r * (pq ** b) * (p ** (-3 * b - 1))
        assert peri["lambda"] == raw

    def test_peripheral_words_of_the_gluing_torus(self):
        b = 4
        pres, peri = pattern_piece_presentation(b)
        glue = pres.word("p t p t^-1")
        assert peri["mu_C"] == glue
        assert peri["lambda_C"] == pres.word("t") * (glue ** -b)


@pytest.mark.parametrize(
    "a, b",
    [(a, b) for a in range(1, 6) for b in (6, 7, 10, 12, 40, 80) if 2 * b + 1 > 4 * (2 * a + 1)],
)
def test_gluing_longitude_splits_through_mu_c(a, b):
    """lambda_C = h mu_C^k as freely reduced words, in both pieces."""
    for (pres, peri), want_k in (
        (torus_piece_presentation(a), -4 * a - 1),
        (pattern_piece_presentation(b), -b),
    ):
        head, k = peri.splits["lambda_C"]
        assert k == want_k, pres.label
        assert head * peri["mu_C"] ** k == peri["lambda_C"], pres.label


@pytest.mark.parametrize("a, b", [(1, 6), (3, 40), (6, 200)])
def test_seifert_generators_present_the_pieces(a, b):
    """The Seifert relations are the pieces' relators as free words: u^2 v^-(2a+1) is the torus
    relator conjugated by u = (xy)^a x, v = xy; u^2 t u^-2 t^-1 is the pattern relator, u = p t."""
    torus, torus_peri = torus_piece_presentation(a)
    (u, two), (v, n) = torus_peri.seifert
    x, y = torus.word("x"), torus.word("y")
    assert (u, two, v, n) == ((x * y) ** a * x, 2, x * y, 2 * a + 1)
    assert u ** 2 * v ** -n == u * torus.relators[0] * u.inverse()
    pattern, pattern_peri = pattern_piece_presentation(b)
    ((u, two),) = pattern_peri.seifert
    assert (u, two) == (pattern.word("p t"), 2)
    t = pattern.word("t")
    assert u ** 2 * t * u ** -2 * t.inverse() == pattern.relators[0]
    assert cable_exterior_presentation(a, b)[1].seifert == ()  # the cable exterior is not a Seifert piece


@pytest.mark.parametrize(
    "a, b",
    [(a, b) for a in range(1, 6) for b in (6, 7, 10, 12, 40, 80) if 2 * b + 1 > 4 * (2 * a + 1)],
)
def test_factored_relators_equal_the_flat_words(a, b):
    """Each factored relator, multiplied out here, is the flat relator word."""
    cable, _ = cable_exterior_presentation(a, b)
    x, y, p, t = (cable.word(n) for n in "xypt")
    xy, glue = x * y, p * t * p * t.inverse()
    lam_c = y * xy ** (2 * a) * x ** (-4 * a - 1)
    r1 = xy ** a * x * xy ** -a * y.inverse()
    flat = {
        cable: (r1, lam_c * (t * glue ** -b).inverse(), x * glue.inverse()),
        torus_piece_presentation(a)[0]: (r1,),
    }
    pattern, _ = pattern_piece_presentation(b)
    flat[pattern] = (pattern.word("p t p t p^-1 t^-1 p^-1 t^-1"),)
    for pres, words in flat.items():
        assert len(pres.factored) == len(pres.relators) == len(words), pres.label
        for factors, relator, word in zip(pres.factored, pres.relators, words):
            product = Word()
            for w, e in factors:
                product = product * w ** e
            assert product == relator == word, pres.label


class TestCableExterior:
    def test_shape_at_1_6(self):
        pres, peri = cable_exterior_presentation(1, 6)
        assert pres.generators == ("x", "y", "p", "t")
        assert len(pres.relators) == 3
        assert len(pres.generators) - len(pres.relators) == 1  # deficiency one
        assert peri["mu"] == pres.word("p")

    def test_third_relator_is_the_gluing_word(self):
        pres, _ = cable_exterior_presentation(1, 6)
        assert pres.relators[2] == pres.word("x") * pres.word("p t p t^-1").inverse()

    def test_precondition_gate(self):
        with pytest.raises(ValueError):
            cable_exterior_presentation(1, 5)  # 2b+1 = 11 < 12
        cable_exterior_presentation(1, 6)  # 13 > 12 passes

    @pytest.mark.parametrize("a, b", [(1, 6), (3, 40), (6, 200)])
    def test_abelianization_exponents(self, a, b):
        pres, _ = cable_exterior_presentation(a, b)
        exps = abelianization_exponents(pres)
        assert list(exps) == list(pres.generators)  # in generator order
        assert exps == {"x": 2, "y": 2, "p": 1, "t": 2 * b}

    def test_substituting_the_gluing_word_eliminates_x(self):
        # Substituting x -> p t p t^-1 into relators 1 and 2 must produce
        # words in {p, t, y} that still abelianize to zero.
        a, b = 1, 6
        pres, _ = cable_exterior_presentation(a, b)
        x = "x"
        glue = pres.word("p t p t^-1")
        exps = abelianization_exponents(pres)

        def substitute(word):
            out = Word()
            for g, s in word.letters:
                out = out * (glue if g == x else Word([(g, s)])) if s == 1 else (
                    out * (glue.inverse() if g == x else Word([(g, s)]))
                )
            return out

        for rel in pres.relators[:2]:
            image = substitute(rel)
            assert x not in image.generators()
            assert sum(exps[g] * s for g, s in image.letters) == 0


class TestAbelianizationExponents:
    """Cramer's rule: e(g_i) = (-1)^i times the exponent-sum minor without column i; the
    torus piece and the cable are in ``test_abelianization_is_meridional`` and
    ``test_abelianization_exponents``."""

    def test_one_generator_and_no_relator(self):
        assert abelianization_exponents(Presentation("Z", ("x",), ())) == {"x": 1}

    def test_pattern_piece_raises(self):
        # its relator is a commutator: H_1 = Z^2, every minor is 0
        pres, _ = pattern_piece_presentation(6)
        with pytest.raises(ValueError, match=r"minors \[0, 0\] of pattern_piece\(b=6\) are not nonzero"):
            abelianization_exponents(pres)

    def test_minors_of_two_signs_raise(self):
        pres = Presentation("xy", ("x", "y"), (Word([("x", 1), ("y", 1)]),))  # x -> t, y -> t^-1
        with pytest.raises(ValueError, match=r"minors \[1, -1\] of xy are not nonzero with one sign"):
            abelianization_exponents(pres)

    @pytest.mark.parametrize("copies", [0, 2])
    def test_not_deficiency_one_raises(self, copies):
        torus, _ = torus_piece_presentation(1)
        pres = Presentation("doubled", torus.generators, torus.relators * copies)
        with pytest.raises(ValueError, match=f"has 2 generators and {copies} relators, not deficiency one"):
            abelianization_exponents(pres)


class TestValidationAndJson:
    def test_generator_names_must_be_unique(self):
        with pytest.raises(ValueError, match="^generator names must be unique$"):
            Presentation("xx", ("x", "x"), ())

    def test_words_over_the_same_names_agree_across_presentations(self):
        # a generator is its name: the pattern's mu_C is the cable's gluing word for x
        pattern, pattern_peri = pattern_piece_presentation(6)
        cable, _ = cable_exterior_presentation(1, 6)
        assert pattern_peri["mu_C"] == cable.word("p t p t^-1") == pattern.word("p t p t^-1")
        assert cable.relators[2] == cable.word("x") * pattern_peri["mu_C"].inverse()

    def test_relators_must_use_listed_generators(self):
        pres, _ = torus_piece_presentation(1)
        other, _ = pattern_piece_presentation(2)
        with pytest.raises(ValueError):
            Presentation("bad", pres.generators, (other.relators[0],))

    def test_json_round_trip(self):
        pres, peri = cable_exterior_presentation(1, 6)
        doc = presentation_to_json(pres, peri)
        assert doc["generators"] == list(pres.generators)
        assert [parse_word(text, pres.generators) for text in doc["relators"]] == list(pres.relators)
        peripheral = {name: parse_word(text, pres.generators) for name, text in doc["peripheral"].items()}
        assert peripheral == dict(peri.words)


class TestCaching:
    @pytest.mark.parametrize(
        "build, args",
        [
            (torus_piece_presentation, (2,)),
            (pattern_piece_presentation, (10,)),
            (cable_exterior_presentation, (2, 10)),
        ],
    )
    def test_builders_return_the_identical_objects(self, build, args):
        first, second = build(*args), build(*args)
        assert first is second

    def test_shared_peripheral_system_is_read_only(self):
        _, peri = pattern_piece_presentation(6)
        with pytest.raises(TypeError):
            peri.words["mu"] = Word()
        with pytest.raises(TypeError):
            peri.metadata["b"] = 7
        with pytest.raises(TypeError):
            del peri.words["lambda"]
        assert peri.metadata["b"] == 6
        assert pattern_piece_presentation(6)[1].words["mu"] == peri["mu"]
