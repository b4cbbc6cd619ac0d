import cmath

import numpy as np
import pytest

from cabletorsion.chains import BasedChainComplex, presentation_complex, torus_complex
from cabletorsion.closed_forms import alexander_torus, tau0
from cabletorsion.linalg import numerical_rank
from cabletorsion.mayer_vietoris import build_torus_piece, tor_E_abelian
from cabletorsion.presentations import (
    cable_exterior_presentation,
    pattern_piece_presentation,
    torus_piece_presentation,
)
from cabletorsion.representations import (
    abelian_representation,
    invariant_vector,
    rep_build,
)
from cabletorsion.torsion import (
    BASIS_CONDITION_TOL,
    TorsionError,
    TorsionValue,
    reidemeister_torsion,
    torsion_equal,
)
from conftest import b1_columns

XI = 0.3 + 0.1j


def pad(vec, block, nblocks=2):
    out = np.zeros(3 * nblocks, dtype=complex)
    out[3 * block:3 * block + 3] = vec
    return out


def abelian_cable_torsion(a, b, xi):
    """(complex, torsion) of the float64 engine on the 12x9 four-generator cable
    complex of the AA representation, with lifts p~ x H in degree 1 and v~ x H in
    degree 0: the complex whose splitting ``tor_E_abelian`` evaluates exactly."""
    pres, _ = cable_exterior_presentation(a, b)
    rep = rep_build("AA", xi, a, b)
    cplx = presentation_complex(pres, rep)
    h_vec = invariant_vector("H", rep)
    p_block = pres.generators.index("p")
    return cplx, reidemeister_torsion(cplx, {1: [pad(h_vec, p_block, 4)], 0: [h_vec]})


def torus_lifts(vec):
    return {
        2: [vec],
        1: [np.concatenate([vec, np.zeros(3)]), np.concatenate([np.zeros(3), vec])],
        0: [vec],
    }


class TestTorsionEqual:
    def test_sign_class(self):
        assert torsion_equal(3 + 0j, -3 + 0j, 1e-9)
        assert torsion_equal(1, 1 + 1e-12, 1e-9)
        assert not torsion_equal(1, 2, 1e-9)

    def test_accepts_torsion_values(self):
        assert torsion_equal(TorsionValue(-2.0), TorsionValue(2.0))


class TestPaperValues:
    def test_torus_is_plus_minus_one(self):
        h = np.array([0, 1, 0], dtype=complex)
        zeta, eta = cmath.exp(0.4 - 0.2j), cmath.exp(-0.9 + 1.1j)
        cplx = torus_complex(
            np.diag([zeta ** -2, 1, zeta ** 2]), np.diag([eta ** -2, 1, eta ** 2])
        )
        tor = reidemeister_torsion(cplx, torus_lifts(h))
        assert torsion_equal(tor, 1.0, 1e-9)

    def test_pattern_an_is_half(self):
        rep = rep_build("AN", XI, 1, 6, 0)
        pres, _ = pattern_piece_presentation(6)
        cplx = presentation_complex(pres, rep)
        u, v = invariant_vector("U", rep), invariant_vector("V", rep)
        lifts = {2: [u, v], 1: [pad(v, 0), pad(u, 1)]}
        assert torsion_equal(reidemeister_torsion(cplx, lifts), 0.5, 1e-10)

    def test_trefoil_abelian_matches_alexander_square(self):
        pres, _ = torus_piece_presentation(1)
        rep = abelian_representation(XI, pres)
        cplx = presentation_complex(pres, rep)
        h = np.array([0, 1, 0], dtype=complex)
        tor = reidemeister_torsion(cplx, {1: [pad(h, 0)], 0: [h]})
        z = rep.z
        ref = (alexander_torus(1, z ** 2) / (z - 1 / z)) ** 2
        assert torsion_equal(tor, ref, 1e-10)

    def test_torus_piece_na_closed_form(self):
        a, b = 1, 6
        rep = rep_build("NA", XI, a, b, 0)
        pres, _ = torus_piece_presentation(a)
        cplx = presentation_complex(pres, rep)
        w = invariant_vector("W", rep)
        conj = pres.word("y") * (pres.word("x y") ** a)
        from cabletorsion.representations import evaluate_word

        h2 = (np.eye(3) - evaluate_word(rep, conj)) @ w
        tor = reidemeister_torsion(cplx, {2: [h2], 1: [pad(w, 0)]})
        ref = (2 * a + 1) / (2 * (rep.omega1 - 1 / rep.omega1) ** 2)
        assert torsion_equal(tor, ref, 1e-10)

    def test_pattern_na_closed_form(self):
        a, b = 1, 6
        rep = rep_build("NA", XI, a, b, 0)
        pres, _ = pattern_piece_presentation(b)
        cplx = presentation_complex(pres, rep)
        w = invariant_vector("W", rep)
        lifts = {2: [w], 1: [pad(w, 0), pad(w, 1)], 0: [w]}
        z = rep.z
        ref = (z ** (8 * a - 2 * b + 3) + z ** (-8 * a + 2 * b - 3)) ** 2
        assert torsion_equal(reidemeister_torsion(cplx, lifts), ref, 1e-10)


@pytest.fixture(scope="module")
def an_pattern():
    rep = rep_build("AN", XI, 1, 6, 0)
    pres, _ = pattern_piece_presentation(6)
    cplx = presentation_complex(pres, rep)
    u, v = invariant_vector("U", rep), invariant_vector("V", rep)
    lifts = {2: [u, v], 1: [pad(v, 0), pad(u, 1)]}
    return cplx, lifts, reidemeister_torsion(cplx, lifts)


@pytest.fixture(scope="module")
def nn_torus():
    piece = build_torus_piece(rep_build("NN", XI, 1, 7, (0, 0)))
    return piece.complex, piece.lifts, piece.torsion


class TestEngineProperties:
    @pytest.mark.parametrize("piece", ["an_pattern", "nn_torus"])
    def test_pivot_choice_independence(self, piece, rng, request):
        # each draw is admissible and gives the torsion; 10 draws make at least two b_1 choices,
        # which the deterministic rule alone (every draw the same set) would not
        cplx, lifts, base = request.getfixturevalue(piece)
        draws = [reidemeister_torsion(cplx, lifts, rng=rng) for _ in range(10)]
        assert all(torsion_equal(draw, base, 1e-9) for draw in draws)
        assert len({b1_columns(draw) for draw in draws}) >= 2

    def test_boundary_shift_of_lift(self, an_pattern, rng):
        cplx, lifts, base = an_pattern
        boundary = cplx.d(2) @ (rng.normal(size=3) + 1j * rng.normal(size=3))
        shifted = {2: lifts[2], 1: [lifts[1][0] + boundary, lifts[1][1]]}
        assert torsion_equal(reidemeister_torsion(cplx, shifted), base, 1e-9)

    def test_scaling_law_per_degree(self):
        # scaling one degree-i lift by s multiplies the torsion by s^((-1)^(i+1))
        rep = rep_build("NA", XI, 1, 6, 0)
        pres, _ = pattern_piece_presentation(6)
        cplx = presentation_complex(pres, rep)
        w = invariant_vector("W", rep)
        base_lifts = {2: [w], 1: [pad(w, 0), pad(w, 1)], 0: [w]}
        base = reidemeister_torsion(cplx, base_lifts)
        s = 1.7 - 0.6j
        for degree, expected_power in [(0, -1), (1, 1), (2, -1)]:
            lifts = {d: list(v) for d, v in base_lifts.items()}
            lifts[degree] = [s * lifts[degree][0]] + lifts[degree][1:]
            scaled = reidemeister_torsion(cplx, lifts)
            assert torsion_equal(scaled, base.value * s ** expected_power, 1e-9)

    def test_acyclic_two_term_complex(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        det = np.linalg.det(m)
        placed_high = BasedChainComplex((0, 4, 4), (np.zeros((0, 4)), m))
        assert torsion_equal(reidemeister_torsion(placed_high), det, 1e-10)
        placed_low = BasedChainComplex((4, 4), (m,))
        assert torsion_equal(reidemeister_torsion(placed_low), 1 / det, 1e-10)

    def test_lift_count_mismatch_raises(self, an_pattern):
        cplx, lifts, _ = an_pattern
        with pytest.raises(TorsionError, match="degree"):
            reidemeister_torsion(cplx, {2: lifts[2], 1: lifts[1][:1]})

    def test_non_cycle_lift_raises(self, an_pattern):
        cplx, lifts, _ = an_pattern
        bad = dict(lifts)
        bad[1] = [np.ones(6, dtype=complex), lifts[1][1]]
        with pytest.raises(TorsionError):
            reidemeister_torsion(cplx, bad)

    def test_assembled_bases_come_back_with_the_value(self, an_pattern):
        # one basis per nonzero degree, lifts in their slice, determinants
        # multiplying to the value; equality and repr ignore the bases
        cplx, lifts, base = an_pattern
        tor = reidemeister_torsion(cplx, lifts)
        assert sorted(tor.bases) == [0, 1, 2]
        product = 1.0 + 0.0j
        for i, basis in tor.bases.items():
            assert basis.matrix.shape == (cplx.dims[i], cplx.dims[i])
            assert list(basis.matrix[:, basis.lifts].T.tolist()) == [list(c) for c in lifts.get(i, [])]
            product *= np.linalg.det(basis.matrix) ** ((-1) ** (i + 1))
        assert product == tor.value
        assert tor == TorsionValue(tor.value) and repr(tor) == repr(TorsionValue(tor.value))
        assert (tor * 2).bases == {}

    def test_each_basis_records_the_conditioning_it_was_accepted_on(self):
        # on the four-generator cable complex (3x3, 12x12 and 9x9 bases) each
        # record is the sigma_min / sigma_max the basis was accepted on
        bases = abelian_cable_torsion(1, 6, 0.3 + 0.1j)[1].bases
        assert sorted(bases) == [0, 1, 2]
        for basis in bases.values():
            sigma = np.linalg.svd(basis.matrix, compute_uv=False)
            assert isinstance(basis.conditioning, float)
            assert basis.conditioning == sigma[-1] / sigma[0] > BASIS_CONDITION_TOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lift_names_the_degree(self, bad):
        # a NaN residual compares False, so the cycle check alone would let
        # these lifts through to the basis check, which would misname them
        cplx = torus_complex(np.diag([4, 1, 0.25]), np.eye(3))
        lifts = {2: [np.array([0, 1, 0])], 1: [pad([0, 1, 0], 0), pad([0, 1, 0], 1)],
                 0: [np.array([0, bad, 0])]}
        with pytest.raises(TorsionError, match="degree-0 lift has non-finite entries"):
            reidemeister_torsion(cplx, lifts)

    def test_singular_assembled_basis_names_the_degree(self):
        # a degree-0 "lift" that is itself a boundary makes the assembled
        # basis singular; the engine raises at once and names the degree
        d1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        cplx = BasedChainComplex((2, 2), (d1,))
        boundary_lift = np.array([1.0, 0.0], dtype=complex)
        cycle_lift = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(TorsionError, match="degree 0"):
            reidemeister_torsion(cplx, {0: [boundary_lift], 1: [cycle_lift]})


class TestRanksFromLiftCounts:
    # On the four-generator cable complex at these points the SVD of d2 counts
    # fewer than its 9 columns above the rank tolerance (sigma_9 / sigma_1 is
    # about 1e-11), while the lift counts pin rank d2 = 9; the engine follows
    # the lift counts and still lands on the closed form, and on the exact
    # Laurent route of tor_E_abelian with the same sign.
    @pytest.mark.parametrize("a, b, re", [(1, 6, 1.0), (2, 10, 0.6), (2, 20, 0.3)])
    def test_abelian_direct_where_svd_undercounts(self, a, b, re):
        xi = complex(re, 0.1)
        cplx, tor = abelian_cable_torsion(a, b, xi)
        assert cplx.d(2).shape[1] == 9
        assert numerical_rank(cplx.d(2)) < 9
        assert torsion_equal(tor, tau0(xi, a, b) ** -2, 1e-8)
        exact = tor_E_abelian(a, b, xi).value
        assert abs(tor.value - exact) <= 1e-8 * abs(exact)

    def test_impossible_count_names_the_degree(self):
        # three lifts in degree 1 of a 2-dimensional C_1
        cplx = BasedChainComplex((2, 2), (np.eye(2, dtype=complex),))
        lifts = {1: [np.ones(2, dtype=complex)] * 3}
        with pytest.raises(TorsionError, match="degree 1 takes at most 2"):
            reidemeister_torsion(cplx, lifts)


def _basis_with_spectrum(rng, sigma):
    """U diag(sigma) V^H for random unitary U, V."""
    n = len(sigma)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * sigma) @ v.conj().T


class TestAssembledBasisRule:
    # A complex C_0 alone, with the columns of m as its degree-0 lifts, makes m
    # the one assembled basis: at every order a basis of the engine has, near
    # the threshold and at extreme scales, it is accepted exactly when its
    # singular values clear BASIS_CONDITION_TOL sigma_max, with that ratio as
    # its conditioning, and the torsion is 1 / det m.
    ORDERS = (3, 6, 9, 12)

    def judge(self, m):
        """The accepted basis's conditioning and the torsion, or None where it is rejected."""
        cplx = BasedChainComplex((m.shape[0],), ())
        try:
            tor = reidemeister_torsion(cplx, {0: list(m.T)})
        except TorsionError as err:
            assert "assembled basis singular in degree 0" in str(err)
            return None
        basis = tor.bases[0]
        assert np.array_equal(basis.matrix, m) and basis.lifts == slice(0, m.shape[0])
        sigma = np.linalg.svd(m, compute_uv=False)
        assert basis.conditioning == sigma[-1] / sigma[0] > BASIS_CONDITION_TOL
        return basis.conditioning, tor

    @pytest.mark.parametrize("n", ORDERS)
    def test_decision_is_the_svd_decision_across_the_threshold(self, n, rng):
        accepted = rejected = 0
        for ratio in np.r_[np.geomspace(1e-16, 1e-7, 28), 1e-4, 1e-1]:
            for sigma in (np.geomspace(1.0, ratio, n), np.r_[np.ones(n - 1), ratio]):
                m = _basis_with_spectrum(rng, sigma)
                judged = self.judge(m)
                computed = np.linalg.svd(m, compute_uv=False)
                assert (judged is not None) == (computed[-1] > BASIS_CONDITION_TOL * computed[0])
                if judged is None:
                    rejected += 1
                    assert ratio < 2 * BASIS_CONDITION_TOL
                else:
                    accepted += 1
                    assert ratio > BASIS_CONDITION_TOL / 2
                    assert torsion_equal(judged[1], 1 / np.linalg.det(m), 1e-12)
        assert accepted and rejected

    @pytest.mark.parametrize("n", ORDERS)
    def test_unitary_bases_are_accepted(self, n, rng):
        for m in (np.eye(n, dtype=complex), _basis_with_spectrum(rng, np.ones(n))):
            conditioning, tor = self.judge(m)
            assert abs(conditioning - 1) < 1e-12
            assert abs(abs(tor.value) - 1) < 1e-12

    @pytest.mark.parametrize("n", ORDERS)
    def test_columns_scaled_by_1e100(self, n, rng):
        # alternating 1e100 and 1e-100 keeps the determinant finite, but
        # sigma_min / sigma_max is about 1e-200: no basis
        scales = np.where(np.arange(n) % 2, 1e-100, 1e100)
        for m in (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), np.eye(n)):
            assert self.judge(m * scales) is None

    @pytest.mark.parametrize("n", ORDERS)
    def test_zero_basis(self, n):
        assert self.judge(np.zeros((n, n), dtype=complex)) is None

    # At the scales below det m leaves float64 (numpy warns, silenced here),
    # so only the decision and the conditioning are checked.
    @pytest.mark.parametrize("n", ORDERS)
    def test_entries_near_1e160(self, n, rng):
        m = 1e160 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assert self.judge(m) is not None

    @pytest.mark.parametrize("n", ORDERS)
    def test_entries_near_1e_minus_160(self, n, rng):
        m = 1e-160 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assert self.judge(m) is not None

    def test_determinant_past_the_float_range(self, rng):
        m = 1e150 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            assert np.isinf(np.linalg.det(m))
            assert self.judge(m) is not None
