import numpy as np
import pytest

from cabletorsion.linalg import (
    image_basis_orthonormal,
    kernel_basis,
    numerical_rank,
    pivot_columns,
)


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
        for reader in (numerical_rank, kernel_basis, image_basis_orthonormal):
            with pytest.raises(ValueError, match="must be finite and in"):
                reader(m, tol)

    def test_empty_matrix_still_checks_tol(self):
        for reader in (numerical_rank, kernel_basis, image_basis_orthonormal):
            with pytest.raises(ValueError):
                reader(np.zeros((0, 3)), -1.0)
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert len(kernel_basis(np.zeros((0, 3)))) == 3
        assert image_basis_orthonormal(np.zeros((3, 0))).shape == (3, 0)
