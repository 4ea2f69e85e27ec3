"""Dense real or complex linear algebra with explicit rank tolerances.

Every rank decision is one SVD and one cut (see ``_factor``): rank, kernel
and pruned rows read the same singular values, so they agree on a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-8
ABSOLUTE_FLOOR = 1e-14


@dataclass(frozen=True)
class RankReport:
    rank: int
    singular_values: np.ndarray
    tol_used: float
    corank: int


def _check_unit_interval(**tolerances: float) -> None:
    """Raise ValueError unless every tolerance lies in (0, 1)."""
    for name, v in tolerances.items():
        if not 0 < v < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")


def _check_finite(M: np.ndarray) -> np.ndarray:
    """M as a float64 matrix if its entries are real, else complex128."""
    M = np.asarray(M)
    M = M.astype(float if M.dtype.kind in "biuf" else complex, copy=False)
    if M.ndim == 1:
        M = M.reshape(1, -1) if M.size else M.reshape(0, 0)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains NaN or Inf entries")
    return M


def _factor(M: np.ndarray, tol: float, scale: float):
    """Singular values s, the n-by-n right factor V^H, and the rank of M.

    The rank is 0 when sigma_1 is below ``ABSOLUTE_FLOOR`` (near-zero
    matrices get no spurious rank), otherwise the count of singular values
    above tol * max(sigma_1, scale). An empty matrix has no singular values,
    rank 0 and V^H = I.
    """
    M = _check_finite(M)
    if M.size == 0:
        return np.zeros(0), np.eye(M.shape[1] if M.ndim == 2 else 0, dtype=M.dtype), 0
    _, s, vh = np.linalg.svd(M)
    rank = 0 if s[0] < ABSOLUTE_FLOOR else int(np.sum(s > tol * max(s[0], scale)))
    return s, vh, rank


def numerical_rank(
    M: np.ndarray, tol: float = DEFAULT_RANK_TOL, scale: float = 0.0
) -> RankReport:
    """Rank = number of singular values above tol * max(sigma_1, scale).

    ``scale`` supplies an external reference magnitude (e.g. the coefficient
    size of the polynomial matrix being evaluated), so a matrix that is
    uniformly tiny relative to its natural scale is rank-deficient rather
    than spuriously full-rank.
    """
    s, vh, rank = _factor(M, tol, scale)
    return RankReport(rank, s, tol, len(vh) - rank)


def kernel_basis(
    M: np.ndarray, tol: float = DEFAULT_RANK_TOL, scale: float = 0.0
) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as columns.

    Deterministic: right singular vectors for the trailing singular values.
    ``scale`` has the same meaning as in :func:`numerical_rank`.
    """
    _, vh, rank = _factor(M, tol, scale)
    return vh[rank:].conj().T


def least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of A x = b."""
    A = _check_finite(A)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains NaN or Inf entries")
    return np.linalg.lstsq(A, b, rcond=None)[0]


def prune_rows(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Replace M by a rank(M)-row matrix with the same numerical kernel.

    Rows sigma_i * v_i^H for the singular values above tolerance span the
    row space, so the kernel is preserved.
    """
    s, vh, rank = _factor(M, tol, 0.0)
    return s[:rank, None] * vh[:rank]
