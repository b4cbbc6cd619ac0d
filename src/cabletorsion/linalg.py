"""Dense complex linear algebra with explicit rank tolerances.

Rank decisions use singular values (rank = number of sigma > tol * sigma_max,
counted once in ``_rank``); pivot selection for image bases uses
column-pivoted orthogonalization on the same matrix, with deterministic
tie-breaking (largest remaining column norm, lowest index on ties) so repeated
runs pick identical bases.  Every rank the torsions and the gluing use comes
from the homology lift counts (see ``torsion``); the rest are checks at named
tolerances.  The Betti numbers of ``chains.homology`` read singular values; a
square basis (each assembled basis of a torsion, and [phi_1 | e_designated1])
is judged by ``conditioned_det`` from its determinant, and reads them only
when that bound is inconclusive.  Every tolerance must be in (0, 1).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_RANK_TOL = 1e-9       # sigma / sigma_max above which a singular value counts as rank
PIVOT_TOL = 1e-13             # greedy pivots: a chosen column adds a direction of the span
PIVOT_ORDER_TOL = 1e-12       # pivots from a given order: a kept column enlarges the span
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def norm(x: np.ndarray) -> float:
    """The 2-norm of ``x`` flattened (Frobenius for a matrix) as ``sqrt(vdot(x, x).real)``:
    ``np.linalg.norm`` up to rounding, for the guards whose tolerances are its only readers."""
    return math.sqrt(np.vdot(x, x).real)


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"rank tolerance {tol!r} must be finite and in (0, 1)")


def _rank(sigma: np.ndarray, tol: float) -> int:
    """Number of singular values above tol * sigma_max (sigma sorted descending)."""
    _check_tol(tol)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * sigma[0]))


class Conditioning(NamedTuple):
    """What a square B was judged on: |det B| / ||B||_F^n if ``certified``, else sigma_min / sigma_max."""

    ratio: float
    certified: bool
    full_rank: bool


# The certificate of ``conditioned_det`` for B of order n.  As |det B| = prod sigma_i
# <= sigma_min sigma_max^(n-1) and sigma_max <= ||B||_F, r = |det B| / ||B||_F^n <= sigma_min / sigma_max.
# np.linalg.det's LU is exact for some B + E, |E| <= g |L||U| with g = 4 n u / (1 - 4 n u) in complex
# arithmetic, u = 2^-53; pivoting on |Re| + |Im| keeps |l_ij| <= sqrt 2 and |u_ij| <= (1 + sqrt 2)^(n-1)
# max|b_ij|, so ||E||_2 <= e ||B||_F, e = g n (n (n + 1) / 2)^(1/2) (1 + sqrt 2)^(n-1) (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., 2002, Thm 9.3, Lemma 3.5, Sec 9.3): 6e-14, 6e-12,
# 3e-10 and 9e-9 at n = 3, 6, 9 and 12.  Then sigma_min / sigma_max >= r / (1 + e)^(n-1) - e, so a
# computed r >= MARGIN (tol + e) proves sigma_min > tol sigma_max whenever MARGIN exceeds (1 + e)^(n-1)
# (below 1 + 2e-7) times the rounding of r (below 1 + 1e-12 while ||B||_F^2 is a finite normal float).
DET_CERTIFICATE_MARGIN = 2.0


def conditioned_det(m: np.ndarray, tol: float) -> tuple[complex, Conditioning]:
    """``np.linalg.det(m)`` and whether square ``m`` has sigma_min > tol * sigma_max (``_rank``'s rule),
    certified by the determinant bound above; a smaller, non-finite or NaN bound, or an under- or
    overflowing ||m||_F^2, reads the singular values instead."""
    _check_tol(tol)
    det, n = np.linalg.det(m), m.shape[0]
    square_norm = float(np.vdot(m, m).real)
    if _SMALLEST_NORMAL <= square_norm < math.inf:
        g = 4 * n * 2.0 ** -53
        e = g / (1 - g) * n * math.sqrt(n * (n + 1) / 2) * (1 + math.sqrt(2)) ** (n - 1)
        ratio, norm_ = abs(complex(det)), math.sqrt(square_norm)
        for _ in range(n):  # not norm_ ** n, which overflows a float
            ratio /= norm_
        if DET_CERTIFICATE_MARGIN * (tol + e) <= ratio < math.inf:
            return det, Conditioning(ratio, True, True)
    sigma = np.linalg.svd(m, compute_uv=False)
    return det, Conditioning(float(sigma[-1] / sigma[0]) if sigma[0] else 0.0, False, _rank(sigma, tol) == n)


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    arr = _as_matrix(m)
    sigma = np.linalg.svd(arr, compute_uv=False) if arr.size else np.zeros(0)
    return _rank(sigma, tol)


def kernel_basis(m, tol: float = DEFAULT_RANK_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the null space, rank decided by singular values."""
    arr = _as_matrix(m)
    if not arr.size:
        return list(np.eye(arr.shape[1], dtype=complex)[_rank(np.zeros(0), tol):])
    _, sigma, vh = np.linalg.svd(arr)
    return [vh[j].conj() for j in range(_rank(sigma, tol), arr.shape[1])]


def _column_norms(arr: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(arr, axis=0)``, by the same formula, so pivots tie the same way."""
    return np.sqrt(np.add.reduce((arr.conj() * arr).real, axis=0))


def pivot_columns(m, rank: int, order: Sequence[int] | None = None) -> list[int]:
    """``rank`` column indices spanning the column space.

    Default order is greedy by largest remaining column norm (numpy argmax
    gives the lowest index on exact ties).  Passing ``order`` restricts the
    greedy choice to that candidate sequence, which is how randomized
    admissible pivot sets are drawn: shuffle the candidates and keep each
    column that enlarges the span.
    """
    arr = _as_matrix(m)
    if rank == 0:
        return []
    work = arr  # replaced, never written in place
    chosen: list[int] = []
    norms = _column_norms(arr)
    if order is None:
        scale0 = float(np.max(norms)) if arr.size else 0.0
        for _ in range(rank):
            j = int(np.argmax(norms))
            if norms[j] <= PIVOT_TOL * scale0:
                raise np.linalg.LinAlgError("matrix rank smaller than requested pivots")
            chosen.append(j)
            if len(chosen) < rank:  # no update after the last pivot
                q = work[:, j] / norms[j]
                work = work - np.outer(q, q.conj() @ work)
                norms = _column_norms(work)
    else:
        scale = max(norms.max(), 1.0)
        for j in order:
            residual = np.linalg.norm(work[:, j])
            if residual > PIVOT_ORDER_TOL * scale:
                chosen.append(j)
                if len(chosen) == rank:
                    break
                q = work[:, j] / residual
                work = work - np.outer(q, q.conj() @ work)
        if len(chosen) < rank:
            raise np.linalg.LinAlgError("candidate order does not span the column space")
    return sorted(chosen)


def image_basis_orthonormal(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space (left singular vectors).

    Better conditioned than raw pivot columns when the matrix mixes scales;
    used wherever only the span matters, not a reproducible pivot choice.
    """
    arr = _as_matrix(m)
    if not arr.size:
        return np.zeros((arr.shape[0], _rank(np.zeros(0), tol)), dtype=complex)
    u, sigma, _ = np.linalg.svd(arr)
    return u[:, :_rank(sigma, tol)]
