import cmath
import os
import random
import re
import subprocess
import sys
from functools import reduce

import mpmath
import numpy as np
import pytest

import cabletorsion.mayer_vietoris as mayer_vietoris
import cabletorsion.representations as representations
from cabletorsion.chains import chain_of_loop_hp, presentation_complex
from cabletorsion.mayer_vietoris import tor_E, tor_E_abelian
from cabletorsion.presentations import (
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from cabletorsion.representations import (
    RELATION_TOL,
    Representation,
    RepresentationError,
    _certify_relations,
    _family_entries,
    _mul2,
    abelian_representation,
    adjoint_matrix,
    evaluate_ring,
    evaluate_word,
    index_range,
    invariant_vector,
    rep_build,
    verify_relations,
)
from cabletorsion.closed_forms import theorem_rhs
from cabletorsion.torsion import TorsionError, torsion_equal
from cabletorsion.words import GroupRingElement, Word, fox_derivative
from conftest import adjoint_entries, assert_close, mp_family_scalars, random_word

XI = 0.3 + 0.1j
A, B = 1, 6
BAND_CORNERS = [complex(re, im) for re in (-1.0, -0.05, 0.05, 1.0) for im in (-1.0, 1.0)]


@pytest.fixture(scope="module")
def rep_an():
    return rep_build("AN", XI, A, B, 0)


@pytest.fixture(scope="module")
def rep_na():
    return rep_build("NA", XI, A, B, 0)


@pytest.fixture(scope="module")
def rep_nn():
    return rep_build("NN", XI, 1, 7, (0, 0))


class TestFamilyMatrices:
    def test_aa_assignment(self):
        rep = rep_build("AA", XI, A, B)
        z = cmath.exp(XI / 2)
        assert_close(rep.assignment["p"], np.diag([z, 1 / z]))
        assert_close(rep.assignment["x"], np.diag([z ** 2, z ** -2]))
        assert_close(rep.assignment["t"], np.diag([z ** (2 * B), z ** (-2 * B)]))

    def test_an_displayed_matrices(self, rep_an):
        z, w2 = rep_an.z, rep_an.omega2
        assert_close(rep_an.assignment["p"], [[z, 1], [0, 1 / z]])
        pres, _ = pattern_piece_presentation(B)
        q_value = reduce(np.matmul, (np.linalg.matrix_power(rep_an.assignment[g], s)
                                     for g, s in pres.word("t p t^-1").letters))
        assert_close(q_value, [[z, 0], [w2 + 1 / w2 - z ** 2 - z ** -2, 1 / z]])
        assert abs(w2 ** (2 * B + 1) + 1) < 1e-12 and abs(w2 + 1) > 1e-6

    def test_na_longitude_of_torus_piece(self, rep_na):
        # rho(lambda_C) = -rho(p)^(-8a-4)
        pres, peri = torus_piece_presentation(A)
        value = reduce(np.matmul, (np.linalg.matrix_power(rep_na.assignment[g], s)
                                   for g, s in peri["lambda_C"].letters))
        p_inv = np.linalg.inv(rep_na.assignment["p"])
        assert_close(value, -np.linalg.matrix_power(p_inv, 8 * A + 4))

    def test_nn_cable_longitude_diagonal(self, rep_nn):
        _, peri = cable_exterior_presentation(1, 7)
        value = reduce(np.matmul, (np.linalg.matrix_power(rep_nn.assignment[g], s)
                                   for g, s in peri["lambda"].letters))
        z = rep_nn.z
        assert abs(value[1, 0]) < 1e-12
        assert_close(value[0, 0], -z ** (-4 * 7 - 2))
        assert_close(value[1, 1], -z ** (4 * 7 + 2))

    def test_x_equals_pq_in_every_family(self, rep_an, rep_na, rep_nn):
        for rep in (rep_build("AA", XI, A, B), rep_an, rep_na, rep_nn):
            p = rep.assignment["p"]
            q = rep.assignment["t"] @ rep.assignment["p"] @ np.linalg.inv(rep.assignment["t"])
            assert_close(p @ q, rep.assignment["x"], 1e-10)

    def test_roots_of_unity_from_index(self, rep_an, rep_na, rep_nn):
        assert_close(rep_an.omega2, cmath.exp(1j * cmath.pi / 13))
        assert_close(rep_na.omega1, cmath.exp(1j * cmath.pi / 3))
        assert abs(rep_nn.omega3 ** (2 * 7 + 1 - 4 * (2 * 1 + 1)) + 1) < 1e-12
        for rep in (rep_an, rep_na, rep_nn):  # the reference walk's mpmath roots come from the same indices
            _, (_, roots) = representations.hp_assignment(rep)
            assert roots and all(abs(complex(w) - getattr(rep, name)) < 1e-15 for name, w in roots.items())


class TestValidation:
    def test_index_out_of_range(self):
        with pytest.raises(RepresentationError):
            rep_build("AN", XI, A, B, B)  # j must stay below b
        with pytest.raises(RepresentationError):
            rep_build("NA", XI, A, B, 1)  # k must stay below a
        with pytest.raises(RepresentationError):
            rep_build("NN", XI, 1, 7, (1, 0))

    def test_numpy_integer_index_is_an_int(self):
        assert rep_build("AN", XI, 3, 40, np.int64(5)).index == (5,)
        assert type(rep_build("NA", XI, 3, 40, np.int32(1)).index[0]) is int
        assert tor_E("AN", 3, 40, np.int64(5), XI).value.value == tor_E("AN", 3, 40, 5, XI).value.value

    @pytest.mark.parametrize("index", [5.0, object()])
    def test_non_iterable_index_is_named(self, index):
        with pytest.raises(RepresentationError, match=re.escape(f"index {index!r} is neither an integer")):
            rep_build("AN", XI, 3, 40, index)

    @pytest.mark.parametrize("index", [(5.0,), ("5",), (5, 1.0), [np.float64(5)]])
    def test_non_integer_entry_is_named(self, index):
        # a float entry passed the range check (5.0 in range(6)) and failed deep in the build
        with pytest.raises(RepresentationError, match=re.escape(f"index {index!r} is neither an integer")):
            tor_E("AN" if len(index) == 1 else "NN", 1, 6 if len(index) == 1 else 7, index, XI)

    def test_numpy_integer_entries_are_ints(self):
        rep = rep_build("NN", XI, 3, 40, (np.int64(25), np.int32(2)))
        assert rep.index == (25, 2) and all(type(i) is int for i in rep.index)

    def test_degenerate_xi_guard(self):
        with pytest.raises(RepresentationError):
            rep_build("NA", 1e-5 + 0.3j, A, B, 0)

    def test_parameter_gate(self):
        with pytest.raises(RepresentationError):
            rep_build("AN", XI, 1, 5, 0)

    def test_nn_range_empty_at_span_one(self):
        assert index_range("NN", 1, 6) == []
        assert index_range("NN", 2, 10) == []
        assert index_range("NN", 1, 7) == [(0, 0)]


class TestVerifyRelations:
    def test_cable_relations_hold(self, rep_an):
        pres, _ = cable_exterior_presentation(A, B)
        assert max(verify_relations(pres, rep_an)) < 1e-12

    def test_aa_diagonal_relations_are_exact(self):
        pres, _ = cable_exterior_presentation(A, B)
        assert max(verify_relations(pres, rep_build("AA", XI, A, B))) <= 1e-12

    def test_perturbed_root_fails(self, rep_na):
        pres, _ = torus_piece_presentation(A)
        bad_root = rep_na.omega1 * cmath.exp(1e-3j)
        bad = {name: np.array(m, dtype=complex)
               for name, m in _family_entries("NA", rep_na.z, A, B, omega1=bad_root).items()}
        rep_bad = Representation("NA", bad, xi=XI, a=A, b=B, index=(0,))
        assert max(verify_relations(pres, rep_bad)) > RELATION_TOL

    def test_unassigned_generator_raises(self, rep_an):
        pres, _ = torus_piece_presentation(A)
        partial = Representation("AN", {"x": rep_an.assignment["x"]}, xi=XI, a=A, b=B, index=(0,))
        with pytest.raises(RepresentationError):
            verify_relations(pres, partial)

    def test_unassigned_generator_is_named(self, rep_an):
        pres, _ = torus_piece_presentation(A)
        partial = Representation("AN", {"y": rep_an.assignment["y"]}, xi=XI, a=A, b=B, index=(0,))
        with pytest.raises(RepresentationError, match="^representation does not assign generator 'x'$"):
            verify_relations(pres, partial)


class TestAdjoint:
    def test_diagonal_and_identity(self):
        z = 1.7 - 0.4j
        m = np.diag([z, 1 / z])
        assert_close(adjoint_matrix(m), np.diag([z ** -2, 1, z ** 2]))
        assert_close(adjoint_matrix(np.eye(2)), np.eye(3))

    def test_an_x_action_matches_conjugated_display(self, rep_an):
        z, w2 = rep_an.z, rep_an.omega2
        d = w2 ** -1 * z - z ** -1  # theta1, the conjugator of the upper-triangular model
        theta = np.array([[1, 0, 0], [d, 1, 0], [-d * d, -2 * d, 1]], dtype=complex)
        model = np.array(
            [[w2 ** -2, 2 / (w2 * z), -z ** -2], [0, 1, -w2 / z], [0, 0, w2 ** 2]],
            dtype=complex,
        )
        assert_close(rep_an.adjoints["x"], theta @ model @ np.linalg.inv(theta), 1e-12)

    def test_antihomomorphism_of_adjoint(self, rng, rep_na):
        m1 = rep_na.assignment["x"]
        m2 = rep_na.assignment["y"]
        assert_close(
            adjoint_matrix(m1) @ adjoint_matrix(m2),
            adjoint_matrix(m2 @ m1),
            1e-10,
        )

    @pytest.mark.parametrize("family", ["AA", "AN", "NA", "NN"])
    def test_stacked_calls_equal_per_matrix_calls(self, family):
        # Representation.adjoints and adjoint_invs come from one stacked call each
        index = None if family == "AA" else index_range(family, 3, 40)[0]
        for xi in BAND_CORNERS:
            rep = rep_build(family, xi, 3, 40, index)
            stack = np.array(list(rep.assignment.values()))
            adjoints = adjoint_matrix(stack)
            inverses = np.linalg.inv(adjoints)
            for name, m, ad, inv in zip(rep.assignment, stack, adjoints, inverses):
                np.testing.assert_allclose(ad, adjoint_matrix(m), rtol=1e-15, atol=0)
                np.testing.assert_allclose(inv, np.linalg.inv(adjoint_matrix(m)), rtol=1e-15, atol=0)
                np.testing.assert_allclose(rep.adjoints[name], adjoint_matrix(m), rtol=1e-15, atol=0)
                np.testing.assert_allclose(rep.adjoint_invs[name], np.linalg.inv(ad), rtol=1e-15, atol=0)
            one = adjoint_matrix(stack[:1])  # a one-matrix stack
            np.testing.assert_allclose(one, adjoint_matrix(stack[0])[None], rtol=1e-15, atol=0)

    def test_determinant_one(self, rep_nn):
        for name in "xypt":
            assert abs(np.linalg.det(rep_nn.adjoints[name]) - 1) < 1e-9

    def test_preserves_trace_form(self, rep_nn):
        # Ad^T G Ad = G for the trace form tr(XY) on {E, H, F}
        gram = np.array([[0, 0, 1], [0, 2, 0], [1, 0, 0]], dtype=complex)
        for name in "xypt":
            ad = rep_nn.adjoints[name]
            assert np.max(np.abs(ad.T @ gram @ ad - gram)) < 1e-9 * np.max(np.abs(ad)) ** 2


class TestEvaluation:
    def test_identity_and_empty_word(self, rep_an):
        assert_close(evaluate_word(rep_an, Word()), np.eye(3))
        assert_close(evaluate_ring(rep_an, GroupRingElement.one()), np.eye(3))

    def test_pattern_derivative_matches_tp_form(self, rep_an):
        # 1 + pt - ptptp^-1 - ptptp^-1t^-1p^-1 evaluates to I + TP - TPT - T
        pres, _ = pattern_piece_presentation(B)
        elem = fox_derivative(pres.relators[0], "p")
        P, T = rep_an.adjoints["p"], rep_an.adjoints["t"]
        expected = np.eye(3) + T @ P - T @ P @ T - T
        assert_close(evaluate_ring(rep_an, elem), expected, 1e-10)

    def test_abelian_x_minus_one(self):
        pres, _ = torus_piece_presentation(1)
        rep = abelian_representation(XI, pres)
        z = rep.z
        elem = GroupRingElement({pres.word("x"): 1, Word(): -1})
        assert_close(evaluate_ring(rep, elem), np.diag([z ** -2 - 1, 0, z ** 2 - 1]))

    def test_word_evaluation_reverses_products(self, rng, rep_nn):
        pres, _ = cable_exterior_presentation(1, 7)
        for _ in range(30):
            u = random_word(rng, pres.generators, 6)
            v = random_word(rng, pres.generators, 6)
            lhs = evaluate_word(rep_nn, u * v)
            rhs = evaluate_word(rep_nn, v) @ evaluate_word(rep_nn, u)
            assert_close(lhs, rhs, 1e-10)


class TestInvariantVectors:
    def test_catalog_values(self, rep_an, rep_na):
        z, w2 = rep_an.z, rep_an.omega2
        assert_close(
            invariant_vector("U", rep_an),
            [2, z * (w2 + 1 / w2) - 2 / z, 2 * (w2 + 1 / w2 - z ** 2 - z ** -2)],
        )
        assert_close(invariant_vector("V", rep_an), [2, z - 1 / z, 0])
        zn = rep_na.z
        assert_close(invariant_vector("W", rep_na), [2, zn ** 2 - zn ** -2, 0])
        assert_close(invariant_vector("H", rep_build("AA", XI, A, B)), [0, 1, 0])

    def test_u_is_theta1_image(self, rep_an):
        d = rep_an.omega2 ** -1 * rep_an.z - rep_an.z ** -1
        theta = np.array([[1, 0, 0], [d, 1, 0], [-d * d, -2 * d, 1]], dtype=complex)
        seed = np.array([2, (rep_an.omega2 - 1 / rep_an.omega2) * rep_an.z, 0])
        assert_close(invariant_vector("U", rep_an), theta @ seed)

    def test_invariance_under_designated_peripherals(self, rep_an, rep_na, rep_nn):
        presC, periC = torus_piece_presentation(A)
        presC7, periC7 = torus_piece_presentation(1)
        _, periE = cable_exterior_presentation(A, B)
        _, periE7 = cable_exterior_presentation(1, 7)
        cases = [
            (rep_an, "U", [periC["mu_C"], periC["lambda_C"]], (A, B)),
            (rep_an, "V", [Word([("p", 1)]), periE["lambda"]], (A, B)),
            (rep_na, "W", [periC["mu_C"], periC["lambda_C"]], (A, B)),
            (rep_nn, "Ut", [periC7["mu_C"], periC7["lambda_C"]], (1, 7)),
            (rep_nn, "Vt", [Word([("p", 1)]), periE7["lambda"]], (1, 7)),
        ]
        for rep, case, words, _ in cases:
            vec = invariant_vector(case, rep)
            for word in words:
                action = evaluate_word(rep, word)
                assert_close(action @ vec, vec, 1e-9, label=f"{case} under {word}")

    def test_joint_fixed_space_is_one_dimensional(self, rep_an, rep_na, rep_nn):
        presC, periC = torus_piece_presentation(A)
        presC7, periC7 = torus_piece_presentation(1)
        for rep, case, peri in [
            (rep_an, "U", periC),
            (rep_na, "W", periC),
            (rep_nn, "Ut", periC7),
        ]:
            m_act = evaluate_word(rep, peri["mu_C"])
            l_act = evaluate_word(rep, peri["lambda_C"])
            stacked = np.vstack([m_act - np.eye(3), l_act - np.eye(3)])
            _, sigma, vh = np.linalg.svd(stacked)
            assert np.sum(sigma > 1e-9 * sigma[0]) == 2
            kernel = vh[2].conj()
            vec = invariant_vector(case, rep)
            cos = abs(kernel @ vec.conj()) / np.linalg.norm(vec)
            assert abs(cos - 1) < 1e-9

    def test_incompatible_pairing_raises(self, rep_an):
        with pytest.raises(ValueError):
            invariant_vector("W", rep_an)
        with pytest.raises(ValueError):
            invariant_vector("Q", rep_an)


class TestNNIndexConvention:
    def test_omega1_uses_second_index(self):
        # omega1 is indexed by m; swapping in l changes the value whenever the
        # two sin factors differ, so the convention is observable.
        a, b = 2, 12
        rep = rep_build("NN", XI, a, b, (0, 1))
        assert_close(rep.omega1, cmath.exp(3j * cmath.pi / 5))
        assert_close(rep.omega3, cmath.exp(1j * cmath.pi / 5))
        import math

        from cabletorsion.closed_forms import theorem_rhs

        value = abs(theorem_rhs("NN", a, b, (0, 1)))
        m_based = (2 * a + 1) * (2 * b + 1 - 4 * (2 * a + 1)) / (
            16 * math.sin(3 * math.pi / 5) ** 2
        )
        l_based = (2 * a + 1) * (2 * b + 1 - 4 * (2 * a + 1)) / (
            16 * math.sin(1 * math.pi / 5) ** 2
        )
        assert abs(value - m_based) < 1e-10 * m_based
        assert abs(value - l_based) > 1e-2 * l_based


@pytest.mark.parametrize("family, a, b, index", [("AN", 3, 40, (5,)), ("NA", 2, 12, (1,)), ("NN", 3, 40, (5, 1))])
def test_tor_e_builds_no_adjoints_and_no_piece(family, a, b, index, monkeypatch):
    # both sides are traced on the 2x2 assignment and phi_1 is integer rows: no float64
    # adjoint, no piece and no reference-walk matrix; the pieces read them on demand
    calls = _count_calls(monkeypatch, "hp_assignment")

    def refuse(*args, **kwargs):
        raise AssertionError("tor_E built a piece")

    monkeypatch.setattr(mayer_vietoris, "PieceData", refuse)
    result = tor_E(family, a, b, index, XI)
    assert calls == [0]
    assert not {"adjoints", "adjoint_invs", "vectors"} & set(result.rep.__dict__)
    monkeypatch.undo()
    assert result.piece_d.torsion == result.tor_d
    assert result.piece_d.complex.dims == (3, 6, 3)  # built on demand, from the float64 adjoints
    assert {"adjoints", "vectors"} <= set(result.rep.__dict__)


def _count_calls(monkeypatch, attr):
    """Count the calls of ``representations.<attr>`` in a one-item list."""
    calls = [0]
    original = getattr(representations, attr)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(representations, attr, counting)
    return calls


@pytest.mark.parametrize("cache", ["adjoints", "adjoint_invs", "vectors", "z", "omega1", "omega2", "omega3"])
def test_caches_are_not_constructor_arguments(cache):
    # data derived from the defining data cannot be passed in disagreeing with it
    with pytest.raises(TypeError):
        Representation("AA", {"p": np.eye(2, dtype=complex)}, **{cache: {}})


class TestDerivedData:
    """z, the roots and the invariant vectors come from (family, xi, a, b, index) alone."""

    @pytest.mark.parametrize(
        "family, a, b, index",
        [("AA", 1, 6, None), ("AN", 1, 6, 0), ("NA", 2, 12, 1), ("NN", 3, 40, (5, 1))],
    )
    def test_rebuilt_representation_derives_the_same_data(self, family, a, b, index):
        built = rep_build(family, XI, a, b, index)
        rebuilt = Representation(built.family, dict(built.assignment), built.xi, built.a, built.b, built.index)
        for name in ("z", "omega1", "omega2", "omega3"):
            assert getattr(rebuilt, name) == getattr(built, name), name
        assert built.z == cmath.exp(complex(XI) / 2)
        for case, (case_family, _) in representations._INVARIANT_CASES.items():
            if case_family == family:
                assert np.array_equal(invariant_vector(case, rebuilt), invariant_vector(case, built)), case
                # built once per representation and shared, so it cannot be written
                assert invariant_vector(case, built) is built.vectors[case]
                assert not built.vectors[case].flags.writeable

    @pytest.mark.parametrize("case, message", [("W", "incompatible with family AN"),
                                               ("Q", "unknown invariant-vector case")])
    def test_both_precisions_refuse_the_same_cases(self, rep_an, case, message):
        pres, peri = torus_piece_presentation(A)
        with pytest.raises(ValueError, match=message):
            invariant_vector(case, rep_an)
        with pytest.raises(ValueError, match=message):  # the reference walk reads the same table
            chain_of_loop_hp(peri["mu_C"], rep_an, pres, case)

    def test_index_that_does_not_fit_the_family_raises(self, rep_an):
        for index in ((), (0, 0)):
            rep = Representation("AN", dict(rep_an.assignment), XI, A, B, index)
            with pytest.raises(RepresentationError, match="index value"):
                rep.omega2


def _random_sl2(gen):
    a, b, c = (complex(gen.gauss(0, 1), gen.gauss(0, 1)) for _ in range(3))
    return np.array([[a, b], [c, (1 + b * c) / a]])


def test_closed_form_adjoint_matches_conjugation():
    """adjoint_entries against adjoint_matrix (m^-1 v m computed by numpy),
    for g and, through the adjugate [[d, -b], [-c, a]], for g^-1."""
    gen = random.Random(20261018)
    for _ in range(50):
        m = _random_sl2(gen)
        (a, b), (c, d) = m.tolist()
        ad = adjoint_matrix(m)
        assert_close(np.array(adjoint_entries(m.tolist()), dtype=complex), ad, 1e-12)
        inverse = np.array(adjoint_entries([[d, -b], [-c, a]]), dtype=complex)
        assert_close(inverse, adjoint_matrix(np.linalg.inv(m)), 1e-12)
        assert_close(inverse @ ad, np.eye(3), 1e-10)


@pytest.fixture
def fresh_certificates():
    """An empty certificate cache before and after: a test that patches the
    family formulas must not read, or leave, certificates of the real ones."""
    representations._certify_relations.cache_clear()
    yield representations._certify_relations
    representations._certify_relations.cache_clear()


def _wrong_formula(kind):
    """A ``_family_entries`` with one defect, over any scalar type: ``root``
    doubles each root of unity (AA has none: its t takes the eigenvalue of x),
    ``sign`` flips the sign of the (0, 0) entry of x."""
    original = representations._family_entries

    def wrong(family, z, a, b, **roots):
        if kind == "root":
            roots = {name: 2 * w for name, w in roots.items()}
        ents = original(family, z, a, b, **roots)
        if kind == "root" and family == "AA":
            ents["t"] = ents["x"]
        if kind == "sign":
            ents["x"][0][0] = -ents["x"][0][0]
        return ents

    return wrong


class TestRelationCheck:
    """rep_build's one relation check: the certificate of the family formulas,
    once per (family, a, b, Galois orbit of the index), in modular arithmetic."""

    @pytest.mark.parametrize(
        "family, index", [("AA", None), ("AN", 0), ("NA", 0), ("NN", (0, 0))]
    )
    def test_perturbed_family_entries_fail(self, family, index, monkeypatch, fresh_certificates):
        rep_build(family, XI, 1, 7, index)  # holds unperturbed
        original = representations._family_entries

        def perturbed(fam, z, *args, **kwargs):
            ents = original(fam, z, *args, **kwargs)
            eps = 1e-6 if isinstance(z, complex) else 1
            ents["p"] = _mul2(ents["p"], [[1, eps], [0, 1]])  # stays in SL(2)
            return ents

        monkeypatch.setattr(representations, "_family_entries", perturbed)
        fresh_certificates.cache_clear()
        with pytest.raises(RepresentationError, match=f"{family} relators fail verification"):
            rep_build(family, XI, 1, 7, index)

    @pytest.mark.parametrize("kind", ["root", "sign"])
    @pytest.mark.parametrize("family, index", [("AA", ()), ("AN", (5,)), ("NA", (1,)), ("NN", (5, 1))])
    def test_wrong_formula_fails_the_certificate(self, family, index, kind, monkeypatch, fresh_certificates):
        assert len(fresh_certificates(family, 3, 40, index)) == 4  # the real formulas hold
        fresh_certificates.cache_clear()
        monkeypatch.setattr(representations, "_family_entries", _wrong_formula(kind))
        with pytest.raises(RepresentationError, match=rf"{family} relators fail verification: .* mod P = "):
            fresh_certificates(family, 3, 40, index)

    def test_draws_are_primes_with_primitive_roots(self):
        n = 2 * 7 * 81 * 53  # lcm(2*7, 2*81, 2*53) at (3, 40)
        draws = representations._certificate_draws(3, 40)
        assert len(draws) == representations.CERT_DRAWS == 2
        assert len({p for p, _, _, _ in draws}) == 2
        for p, order, h, z in draws:
            assert order == n and p % n == 1 and p >= representations.CERT_PRIME_FLOOR
            assert representations._is_prime(p) and all(pow(q, p - 1, p) == 1 for q in range(2, 60))
            assert pow(h, n, p) == 1 and all(pow(h, n // q, p) != 1 for q in (2, 3, 7, 53))
            assert 1 < z < p - 1
        assert representations._certificate_draws(3, 40) is draws  # kept per (a, b)
        odd = range(39, 3000, 2)  # _is_prime takes odd n > 37
        assert [n for n in odd if representations._is_prime(n)] == [n for n in odd if all(n % q for q in range(3, n))]
        assert not representations._is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7

    def test_orbits_at_3_40(self, monkeypatch):
        # the orbit rep_build keys the certificate by
        keys, certify = [], representations._certify_relations
        monkeypatch.setattr(representations, "_certify_relations",
                            lambda family, a, b, orbit: keys.append(orbit) or certify(family, a, b, orbit))

        def orbits(family, a=3, b=40, indices=None):
            keys.clear()
            for index in indices or index_range(family, a, b):
                rep_build(family, XI, a, b, index)
            return set(keys)
        # gcd(2j+1, 81) is 1, 3, 9 or 27; 7 is prime; 53 and 7 are coprime and prime
        assert orbits("AN") == {(0,), (1,), (4,), (13,)}
        assert orbits("NA") == {(0,)}
        assert orbits("NN") == {(0, 0)}
        # (2, 17): the NN denominators 5 and 15 are not coprime, so it is keyed by index
        assert orbits("NN", 2, 17, [(3, 1)]) == {(3, 1)}

    def test_cold_sweep_makes_one_certificate_per_orbit(self, monkeypatch, fresh_certificates):
        calls = _count_calls(monkeypatch, "_relator_deviations")
        for family in ("AN", "NA", "NN"):
            for index in index_range(family, 3, 40):
                rep = rep_build(family, XI, 3, 40, index)
                assert len(rep.certified) == 4
        assert fresh_certificates.cache_info().misses == 6  # AN 4, NA 1, NN 1
        assert calls == [6 * representations.CERT_DRAWS]

    @pytest.mark.parametrize("family, index", [("AA", None), ("AN", (5,)), ("NA", (1,)), ("NN", (5, 1))])
    def test_warm_rep_build_makes_no_relator_products(self, family, index, monkeypatch):
        rep_build(family, XI, 3, 40, index)  # warms the certificate
        z, roots = representations._scalars(XI, representations._root_fractions(family, 3, 40, index))
        calls = _count_calls(monkeypatch, "_mul2")
        representations._family_entries(family, z, 3, 40, **roots)
        formulas = calls[0]  # the products of the family formulas themselves
        rep_build(family, XI, 3, 40, index)
        assert calls == [2 * formulas]

    def test_na_t_products_are_flat_in_b(self, monkeypatch):
        # t = -p^(2b-8a-4) by squaring: 7 and 12 2x2 products at b = 40 and 200, where a
        # product per factor made 52 and 372
        calls, counts = _count_calls(monkeypatch, "_mul2"), []
        for b in (40, 200):
            z, roots = representations._scalars(XI, representations._root_fractions("NA", 3, b, (1,)))
            before = calls[0]
            representations._family_entries("NA", z, 3, b, **roots)
            counts.append(calls[0] - before)
        assert counts[1] - counts[0] <= 8

    def test_na_adjoints_past_float64_warn_nothing(self):
        # Ad(t) overflows here and no NA route reads it: the adjoints that are read come out
        # finite, nothing warns (an error under the suite's filter), and tor_E names D's overflow
        xi = 2.05 + 0.1j
        rep = rep_build("NA", xi, 6, 200, 0)
        for name in "xyp":
            assert np.isfinite(rep.adjoints[name]).all() and np.isfinite(rep.adjoint_invs[name]).all()
        message = "Tor(D) of NA at (a, b) = (6, 200), xi = (2.05+0.1j) is (nan+nanj): outside float64"
        with pytest.raises(TorsionError, match=re.escape(message)):
            tor_E("NA", 6, 200, 0, xi)

    def test_na_6_200_reaches_the_pieces(self):
        # NA (6,200) at this xi raised "fixed-point relator deviation is past the
        # float64 range" in rep_build; certified exactly, it then lost a rank in
        # D's float64 complex, and D's exact route now gives the theorem's value
        xi = -0.848 + 0.828j
        assert len(rep_build("NA", xi, 6, 200, (1,)).certified) == 4
        assert torsion_equal(tor_E("NA", 6, 200, (1,), xi).value, theorem_rhs("NA", 6, 200, (1,), xi), 1e-9)

    def test_foreign_presentation_is_still_checked(self, rep_na, monkeypatch):
        evaluated = []
        original = representations._relator_deviations
        monkeypatch.setattr(
            representations, "_relator_deviations",
            lambda factored, *args, **kw: evaluated.extend(factored) or original(factored, *args, **kw),
        )
        presentation_complex(pattern_piece_presentation(B)[0], rep_na)
        presentation_complex(torus_piece_presentation(A)[0], rep_na)
        assert evaluated == []  # both relators were certified by rep_build
        foreign, _ = torus_piece_presentation(2)
        with pytest.raises(RepresentationError, match=r"torus_piece\(a=2\) relators fail"):
            presentation_complex(foreign, rep_na)
        assert evaluated == list(foreign.factored)

    def test_hand_built_representation_is_checked_in_float64(self, rep_na):
        bad_root = rep_na.omega1 * cmath.exp(1e-3j)
        bad = {name: np.array(m, dtype=complex)
               for name, m in _family_entries("NA", rep_na.z, A, B, omega1=bad_root).items()}
        rep_bad = Representation("NA", bad, xi=XI, a=A, b=B, index=(0,))
        assert rep_bad.certified == frozenset()
        with pytest.raises(RepresentationError, match="relators fail verification"):
            presentation_complex(torus_piece_presentation(A)[0], rep_bad)

    @pytest.mark.parametrize("family, index", [("AN", (5,)), ("NA", (1,)), ("NN", (5, 1))])
    def test_one_power_table_per_build(self, family, index, monkeypatch, fresh_certificates):
        # per draw, each base word multiplied out once, (xy)^(2a) as ((xy)^a)^2:
        # 31 products at (3, 40), next to the products of the family formulas and
        # of the gluing-torus and Seifert identities: 2 per commutation of V (AN with
        # x, y, t and p t p t^-1; NA with x, p, t; NN with x, t and p t p t^-1), 3 for
        # p t p t^-1, on a non-abelian pattern side 1 + 1 for (p t)^2, and on a
        # non-abelian torus side 6 + 1 for ((xy)^3 x)^2 and 1 + 4 for (xy)^7
        calls = _count_calls(monkeypatch, "_mul2")
        z, roots = representations._scalars(XI, representations._root_fractions(family, 3, 40, index))
        representations._family_entries(family, z, 3, 40, **roots)
        formulas = calls[0]
        calls[0] = 0
        rep_build(family, XI, 3, 40, index)
        identities = {"AN": 4 * 2 + 3 + 2, "NA": 3 * 2 + 12, "NN": 3 * 2 + 3 + 2 + 12}[family]
        assert calls == [formulas + representations.CERT_DRAWS * (formulas + 31 + identities)]

    @pytest.mark.parametrize("family, index", [("AN", (5,)), ("NN", (5, 1))])
    def test_vector_with_the_wrong_root_fails_the_certificate(self, family, index, monkeypatch, fresh_certificates):
        # U and Ut read omega2 / omega3; built with its square, the vector is
        # not fixed by the gluing torus and the identities fail, not the relators
        assert len(fresh_certificates(family, 3, 40, index)) == 4
        fresh_certificates.cache_clear()
        original = representations._invariant_entries
        monkeypatch.setattr(representations, "_invariant_entries",
                            lambda case, z, omega=None: original(case, z, omega * omega))
        with pytest.raises(RepresentationError, match=rf"{family} gluing-torus identities fail verification: "
                                                      rf".* mod P = \d+ at \(a, b\) = \(3, 40\), index"):
            fresh_certificates(family, 3, 40, index)

    def test_perturbed_omega1_breaks_the_torus_power(self):
        # rho(((xy)^3 x)^2) and rho((xy)^7) are -I at the true omega1 only: with 2 omega1 the
        # last two deviations (the Seifert generators of C) fail, the commutations hold
        p, n, h, z = representations._certificate_draws(3, 40)[0]
        z, omega1 = representations._Residue(z, p), representations._Residue(pow(h, n // 14, p), p)  # k = 0, den 7
        for root, want in ((omega1, [0] * 5), (2 * omega1, [0, 0, 0, 1, 1])):
            mats = _family_entries("NA", z, 3, 40, omega1=root)
            assert representations._gluing_deviations("NA", 3, 40, mats, z, {"omega1": root}) == want

    @pytest.mark.parametrize("family, index", [("AN", (5,)), ("NN", (5, 1))])
    def test_pattern_fibre_is_minus_one(self, family, index):
        # the last deviation is rho((p t)^2) = -I, the Seifert generator of a non-abelian D:
        # it holds for the family's matrices and fails where p t = I
        p, n, h, z = representations._certificate_draws(3, 40)[0]
        roots = {name: representations._Residue(pow(h, n * (2 * k + 1) // (2 * den), p), p)
                 for name, (k, den) in representations._root_fractions(family, 3, 40, index).items()}
        z = representations._Residue(z, p)
        mats = _family_entries(family, z, 3, 40, **roots)
        assert not any(representations._gluing_deviations(family, 3, 40, mats, z, roots))
        mats["p"] = representations._adj2(mats["t"])
        assert representations._gluing_deviations(family, 3, 40, mats, z, roots)[-1] == 1

    def test_one_check_per_tor_e(self, monkeypatch, fresh_certificates):
        counts = {"evaluator": 0, "hp_assignment": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, attr in (("evaluator", "_relator_deviations"), ("hp_assignment", "hp_assignment")):
            monkeypatch.setattr(representations, attr, counting(name, getattr(representations, attr)))
        for family, index in (("AN", (0,)), ("NA", (0,)), ("NN", (0, 0))):
            tor_E(family, 1, 7, index, XI)
        tor_E_abelian(1, 7, XI)
        # one certificate each (a power table per draw), and no float64
        # re-check of the certified relators; phi_1 is integer rows, so no
        # reference-walk matrix is built; the abelian route
        # builds no representation, so it checks no relators
        assert fresh_certificates.cache_info().misses == 3
        assert counts == {"evaluator": 3 * representations.CERT_DRAWS, "hp_assignment": 0}
        for family, index in (("AN", (0,)), ("NA", (0,)), ("NN", (0, 0))):
            tor_E(family, 1, 7, index, XI)
        # warm: no certificate, no relator products
        assert fresh_certificates.cache_info().misses == 3
        assert counts == {"evaluator": 3 * representations.CERT_DRAWS, "hp_assignment": 0}


class TestNAEdgeRelations:
    """NA at (3,40), Re xi = 1: float64 cannot certify the relators, yet they hold."""

    def test_relations_hold_in_extended_precision(self):
        rep = rep_build("NA", 1 + 0j, 3, 40, (0,))
        pres, _ = cable_exterior_presentation(3, 40)
        pattern, _ = pattern_piece_presentation(40)
        assert max(verify_relations(pres, rep)) > RELATION_TOL  # the factored float64 check falls short
        # the certificate holds identically in z, so at Re xi = 1 too
        assert _certify_relations("NA", 3, 40, (0,)) == frozenset(pres.relators + pattern.relators)
        assert rep.certified == frozenset(pres.relators + pattern.relators)
        with mpmath.mp.workdps(80):
            z, roots = mp_family_scalars(rep)
            ents = _family_entries("NA", z, 3, 40, **roots)
            for rel in pres.relators:
                value = mpmath.eye(2)
                for gen, sign in rel.letters:
                    value = value * mpmath.matrix(ents[gen]) ** sign
                dev = value - mpmath.eye(2)
                assert max(abs(dev[i, j]) for i in range(2) for j in range(2)) <= 1e-20, rel


def test_abelian_route_does_not_import_mpmath():
    """The direct route builds no representation, so it never needs the
    reference walk's mpmath scalars."""
    code = (
        "import sys\n"
        "from cabletorsion.mayer_vietoris import tor_E_abelian\n"
        "tor_E_abelian(4, 80, 0.05 + 0.1j)\n"
        "assert 'mpmath' not in sys.modules, 'mpmath imported'\n"
    )
    src = os.path.dirname(os.path.dirname(representations.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
