"""Dense complex linear algebra with explicit rank tolerances.

Rank decisions use singular values (rank = number of sigma > tol * sigma_max,
counted once in ``_rank``); the one pivot rule for image bases,
``pivot_columns``, is column-pivoted orthogonalization with deterministic
tie-breaking (largest remaining column norm, lowest index on ties) so repeated
runs pick identical bases, and a random admissible choice is the same rule on
randomly weighted columns.  Every rank the torsions and the gluing use comes
from the homology lift counts (see ``torsion``); the rest are checks at named
tolerances.  The Betti numbers of ``chains.homology`` and the check of each
assembled basis of a torsion read singular values by the same rule.  Every
tolerance must be in (0, 1).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RANK_TOL = 1e-9       # sigma / sigma_max above which a singular value counts as rank
PIVOT_TOL = 1e-13             # greedy pivots: a chosen column adds a direction of the span


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


def pivot_columns(m, rank: int) -> list[int]:
    """``rank`` column indices spanning the column space, greedy by largest remaining column
    norm (numpy argmax gives the lowest index on exact ties); on randomly weighted columns,
    a random admissible set (``torsion.reidemeister_torsion``)."""
    arr = _as_matrix(m)
    if rank == 0:
        return []
    work = arr  # replaced, never written in place
    chosen: list[int] = []
    norms = _column_norms(arr)
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
