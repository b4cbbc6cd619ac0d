import numpy as np
import pytest

from cabletorsion.linalg import (
    DEFAULT_RANK_TOL,
    conditioned_det,
    image_basis_orthonormal,
    kernel_basis,
    numerical_rank,
    pivot_columns,
)
from cabletorsion.torsion import BASIS_CONDITION_TOL


class TestKernelBasis:
    def test_zero_matrix(self):
        vecs = kernel_basis(np.zeros((3, 3)), 1e-9)
        assert len(vecs) == 3

    def test_torus_d2_kernel(self):
        # stacked [I-L; M-I] for generic diagonal actions has kernel <(0,1,0)>
        zeta, eta = 1.3 + 0.2j, 0.8 - 0.5j
        M = np.diag([zeta ** -2, 1, zeta ** 2])
        L = np.diag([eta ** -2, 1, eta ** 2])
        d2 = np.vstack([np.eye(3) - L, M - np.eye(3)])
        vecs = kernel_basis(d2, 1e-9)
        assert len(vecs) == 1
        direction = vecs[0] / vecs[0][1]
        np.testing.assert_allclose(direction, [0, 1, 0], atol=1e-12)

    def test_rank_by_construction(self, rng):
        left = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        right = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        vecs = kernel_basis(left @ right, 1e-9)
        assert len(vecs) == 1

    def test_kernel_is_orthonormal_and_annihilated(self, rng):
        m = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        for v in kernel_basis(m, 1e-9):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            assert np.linalg.norm(m @ v) <= 10 * 1e-9 * sigma_max

    def test_rank_plus_nullity(self, rng):
        for _ in range(10):
            rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            assert numerical_rank(m) + len(kernel_basis(m)) == cols

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            kernel_basis(np.eye(2), 0.0)


class TestImagePivots:
    def test_identity(self):
        assert pivot_columns(np.eye(4), numerical_rank(np.eye(4), 1e-9)) == [0, 1, 2, 3]

    def test_abelian_d1_has_two_pivots(self):
        # n copies of diag(z^-2-1, 0, z^2-1) side by side: rank 2
        z = 1.2 + 0.3j
        block = np.diag([z ** -2 - 1, 0, z ** 2 - 1])
        d1 = np.hstack([block] * 5)
        idx = pivot_columns(d1, numerical_rank(d1, 1e-9))
        assert len(idx) == 2
        assert numerical_rank(d1[:, idx]) == 2

    def test_rank_one_outer_product(self, rng):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert numerical_rank(np.outer(u, v), 1e-9) == 1

    def test_pivot_columns_full_rank_restriction(self, rng):
        m = rng.normal(size=(5, 8)) @ rng.normal(size=(8, 8))
        m[:, 2] = m[:, 0] + m[:, 1]  # force dependence
        rank = numerical_rank(m)
        idx = pivot_columns(m, rank)
        assert numerical_rank(m[:, idx]) == rank

    def test_custom_order_draws_admissible_sets(self, rng):
        m = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1e-14]])
        rank = numerical_rank(m)
        idx = pivot_columns(m, rank, order=[2, 1, 0])
        assert len(idx) == rank


class TestRankTolerance:
    # one rule decides every rank reading: a tolerance outside (0, 1) would
    # count roundoff singular values (or nothing) as rank, so it is refused
    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, float("nan"), float("inf")])
    def test_every_rank_reader_rejects_bad_tol(self, tol):
        m = np.diag([1.0, 0.0])
        for reader in (numerical_rank, kernel_basis, image_basis_orthonormal, conditioned_det):
            with pytest.raises(ValueError, match="must be finite and in"):
                reader(m, tol)

    def test_empty_matrix_still_checks_tol(self):
        for reader in (numerical_rank, kernel_basis, image_basis_orthonormal):
            with pytest.raises(ValueError):
                reader(np.zeros((0, 3)), -1.0)
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert len(kernel_basis(np.zeros((0, 3)))) == 3
        assert image_basis_orthonormal(np.zeros((3, 0))).shape == (3, 0)


def _basis_with_spectrum(rng, sigma):
    """U diag(sigma) V^H for random unitary U, V."""
    n = len(sigma)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (u * sigma) @ v.conj().T


def _svd_full_rank(m, tol):
    sigma = np.linalg.svd(m, compute_uv=False)
    return bool(sigma[0] > 0 and sigma[-1] > tol * sigma[0])


class TestConditionedDet:
    # The determinant bound may only certify what the singular values accept:
    # at every order a basis of the engine has, across both tolerances, near
    # the threshold, at extreme scales and where the bound itself breaks down,
    # the decision is the SVD's and the determinant is np.linalg.det's.
    ORDERS = (3, 6, 9, 12)
    TOLS = (BASIS_CONDITION_TOL, DEFAULT_RANK_TOL)

    def check(self, m, tol):
        det, cond = conditioned_det(m, tol)
        assert det == np.linalg.det(m)
        assert cond.full_rank == _svd_full_rank(m, tol)
        return cond

    @pytest.mark.parametrize("n", ORDERS)
    def test_decision_is_the_svd_decision_across_the_threshold(self, n, rng):
        certified = 0
        for ratio in np.r_[np.geomspace(1e-16, 1e-7, 28), 1e-4, 1e-1]:
            for sigma in (np.geomspace(1.0, ratio, n), np.r_[np.ones(n - 1), ratio]):
                m = _basis_with_spectrum(rng, sigma)
                for tol in self.TOLS:
                    cond = self.check(m, tol)
                    if cond.certified:
                        certified += 1
                        # the bound is a lower bound and clears the tolerance
                        sigma_m = np.linalg.svd(m, compute_uv=False)
                        assert tol < cond.ratio <= sigma_m[-1] / sigma_m[0] * (1 + 1e-12)
        assert certified  # the bound decides some of them itself

    @pytest.mark.parametrize("n", ORDERS)
    def test_unitary_bases_are_certified(self, n, rng):
        for m in (np.eye(n, dtype=complex), _basis_with_spectrum(rng, np.ones(n))):
            for tol in self.TOLS:
                assert self.check(m, tol).certified

    @pytest.mark.parametrize("n", ORDERS)
    def test_columns_scaled_by_1e100(self, n, rng):
        # alternating 1e100 and 1e-100 keeps the determinant finite; the
        # bound, about 1e-100^n, leaves the decision to the singular values
        scales = np.where(np.arange(n) % 2, 1e-100, 1e100)
        for m in (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), np.eye(n)):
            for tol in self.TOLS:
                assert not self.check(m * scales, tol).certified

    @pytest.mark.parametrize("n", ORDERS)
    def test_zero_basis(self, n):
        for tol in self.TOLS:
            cond = self.check(np.zeros((n, n), dtype=complex), tol)
            assert cond == (0.0, False, False)

    @pytest.mark.parametrize("n", ORDERS)
    def test_entries_near_1e160(self, n, rng):
        # ||B||_F^2 overflows, and so does the determinant itself (numpy
        # warns, silenced here): the singular values decide
        m = 1e160 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for tol in self.TOLS:
            with np.errstate(over="ignore"):
                cond = self.check(m, tol)
            assert not cond.certified and cond.full_rank

    @pytest.mark.parametrize("n", ORDERS)
    def test_entries_near_1e_minus_160(self, n, rng):
        # ||B||_F^2 underflows and the determinant flushes to zero, so the
        # bound would be 0 / 0: the singular values decide
        m = 1e-160 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for tol in self.TOLS:
            cond = self.check(m, tol)
            assert not cond.certified and cond.full_rank

    def test_bound_past_the_float_range(self, rng):
        # ||B||_F^2 is finite but ||B||_F^n and |det B| are not: no
        # OverflowError, and an infinite bound does not certify
        m = 1e150 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.det(m))
            cond = self.check(m, BASIS_CONDITION_TOL)
        assert not cond.certified and cond.full_rank
