"""Rank decisions, kernels, pruning, and least squares."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeflate import RankReport, kernel_basis, least_squares, numerical_rank
from dualdeflate.linalg import _factor, prune_rows

from oracles import subspace_distance


def engineered_matrix(rng, m, n, rank, noise=0.0):
    """Random m-by-n complex matrix with exactly the given (numerical) rank."""
    U = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    s = np.zeros(min(m, n))
    s[:rank] = np.exp(rng.uniform(-2, 2, size=rank))  # well separated from 0
    M = (U[:, : len(s)] * s) @ V[: len(s)]
    if noise:
        M = M + noise * (
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        )
    return M


def test_rank_of_engineered_matrices():
    rng = np.random.default_rng(0)
    for trial in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m, n) + 1))
        # noise only makes sense for r > 0: the rank test is relative to
        # sigma_1, so a pure-noise matrix is full-rank at its own tiny scale
        M = engineered_matrix(rng, m, n, r, noise=1e-12 if r else 0.0)
        report = numerical_rank(M, tol=1e-8)
        assert report.rank == r, (trial, m, n, r)
        assert report.corank == n - r


def test_kernel_is_orthonormal_and_annihilated():
    rng = np.random.default_rng(1)
    for trial in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m, n) + 1))
        M = engineered_matrix(rng, m, n, r)
        K = kernel_basis(M, tol=1e-8)
        assert K.shape == (n, n - r)
        s1 = np.linalg.svd(M, compute_uv=False)[0] if min(m, n) else 0.0
        assert np.linalg.norm(M @ K) <= 10 * 1e-8 * max(s1, 1e-300) + 1e-12
        assert np.allclose(K.conj().T @ K, np.eye(n - r), atol=1e-10)


def test_prune_rows_preserves_kernel():
    rng = np.random.default_rng(2)
    for trial in range(50):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(m, n) + 1))
        M = engineered_matrix(rng, m, n, r, noise=1e-13)
        P = prune_rows(M, tol=1e-8)
        assert P.shape[0] == numerical_rank(M, 1e-8).rank
        K = kernel_basis(M, 1e-8)
        KP = kernel_basis(P, 1e-8)
        assert K.shape == KP.shape
        if K.size:
            assert subspace_distance(K, KP) < 1e-10
        # pruned rows stay inside the row space: kernel vectors annihilate them
        assert np.linalg.norm(P @ K) < 1e-10 * max(1.0, np.linalg.norm(P))


def test_rank_and_kernel_agree_at_straddling_cuts():
    # LAPACK's values-only SVD and the full one may differ in the last bits.
    # A cut placed between their k-th singular values must still give one
    # corank: rank and kernel read the same factorization.
    rng = np.random.default_rng(5)
    cuts = 0
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(2, 9, size=2))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        values_only = np.linalg.svd(M, compute_uv=False)
        full = np.linalg.svd(M)[1]
        # a power of two above both sigma_1: tol * scale is then exactly the cut
        scale = 2.0 ** np.ceil(np.log2(max(values_only[0], full[0])) + 1)
        for k in np.flatnonzero(values_only != full):
            tol = min(values_only[k], full[k]) / scale
            cuts += 1
            assert numerical_rank(M, tol, scale).corank == kernel_basis(M, tol, scale).shape[1]
    if not cuts:
        pytest.skip("the two LAPACK paths agree on every matrix tried")


def test_rank_scale_invariance():
    rng = np.random.default_rng(3)
    M = engineered_matrix(rng, 6, 5, 3)
    base = numerical_rank(M, 1e-8).rank
    for factor in (1e-6, 1e6):
        assert numerical_rank(factor * M, 1e-8).rank == base


def test_external_scale_demotes_uniformly_tiny_matrix():
    # a matrix that is tiny compared to its natural scale has rank 0
    M = 1e-10 * np.eye(3)
    assert numerical_rank(M, 1e-8).rank == 3
    assert numerical_rank(M, 1e-8, scale=1.0).rank == 0
    assert kernel_basis(M, 1e-8, scale=1.0).shape == (3, 3)


def test_zero_and_empty_matrices():
    assert numerical_rank(np.zeros((3, 4))).rank == 0
    assert numerical_rank(np.zeros((3, 4))).corank == 4
    assert kernel_basis(np.zeros((2, 3))).shape == (3, 3)
    assert prune_rows(np.zeros((3, 4))).shape == (0, 4)
    E = np.zeros((0, 5))
    assert kernel_basis(E).shape == (5, 5)


def test_report_keeps_sigma_tolerance_and_kernel_only():
    # the rank is what the kernel leaves of the column count
    fields = [f.name for f in dataclasses.fields(RankReport)]
    assert fields == ["singular_values", "tol_used", "kernel"]
    rng = np.random.default_rng(6)
    cases = [
        (rng.standard_normal((5, 3)), 3),
        (engineered_matrix(rng, 4, 6, 2), 2),
        (engineered_matrix(rng, 6, 4, 3), 3),
        (np.zeros((3, 4)), 0),
        (np.zeros((0, 5)), 0),
    ]
    for M, rank in cases:
        report = numerical_rank(M)
        assert report.rank == rank
        assert report.rank + report.corank == M.shape[1]


def test_a_tall_matrix_builds_no_square_left_factor(monkeypatch):
    asked = []
    svd = np.linalg.svd

    def recording(M, *args, **kwargs):
        asked.append(kwargs.get("full_matrices", True))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    rng = np.random.default_rng(10)
    _, vh, rank = _factor(rng.standard_normal((6, 2)), 1e-8, 0.0)
    assert asked == [False] and vh.shape == (2, 2) and rank == 2
    # a wide matrix still needs the full right factor for its kernel
    _, vh, rank = _factor(rng.standard_normal((2, 6)), 1e-8, 0.0)
    assert asked == [False, True] and vh.shape == (6, 6) and rank == 2


def test_real_input_stays_real():
    # a real matrix takes LAPACK's real routines and decides as its complex cast
    rng = np.random.default_rng(8)
    for trial in range(50):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        M = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        report, K, P = numerical_rank(M), kernel_basis(M), prune_rows(M)
        assert report.singular_values.dtype == K.dtype == P.dtype == np.float64
        assert report.rank == r == numerical_rank(M.astype(complex)).rank
        assert K.shape == (n, n - r)
        if K.size:
            assert subspace_distance(K, kernel_basis(M.astype(complex))) <= 1e-12
    for M in ([[1, 2], [2, 4]], np.array([[True, False], [True, False]])):
        assert kernel_basis(M).dtype == np.float64


@pytest.mark.parametrize("dtype", [float, complex])
def test_input_reaches_the_svd_unchanged(dtype):
    rng = np.random.default_rng(9)
    if dtype is complex:
        M = engineered_matrix(rng, 7, 5, 3)
    else:
        M = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 5))
    _, s, vh = np.linalg.svd(M)
    r = 3  # the rank both matrices are built with
    assert numerical_rank(M).singular_values.tobytes() == s.tobytes()
    assert kernel_basis(M).tobytes() == vh[r:].conj().T.tobytes()
    assert prune_rows(M).tobytes() == (s[:r, None] * vh[:r]).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_non_finite_and_empty_input_of_each_dtype(dtype):
    for bad in (np.nan, np.inf):
        for f in (numerical_rank, kernel_basis, prune_rows):
            with pytest.raises(ValueError):
                f(np.array([[bad, 1.0]], dtype=dtype))
    E = np.zeros((0, 5), dtype=dtype)
    report = numerical_rank(E)
    assert (report.rank, report.corank, report.singular_values.size) == (0, 5, 0)
    K, P = kernel_basis(E), prune_rows(E)
    assert K.dtype == P.dtype == dtype
    assert np.array_equal(K, np.eye(5)) and P.shape == (0, 5)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        numerical_rank(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        least_squares(np.eye(2), np.array([np.inf, 0.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
def test_least_squares_residual_orthogonality(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    x = least_squares(A, b)
    r = A @ x - b
    # normal equations: the residual is orthogonal to the column space
    assert np.linalg.norm(A.conj().T @ r) < 1e-8 * max(1.0, np.linalg.norm(b))


def test_least_squares_minimum_norm():
    # rank-deficient: among all minimizers, the returned one has least norm
    A = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    x = least_squares(A, b)
    assert np.linalg.norm(A @ x - b) < 1e-12
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_subspace_distance():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    # same span under an invertible recombination
    B = A @ (rng.standard_normal((2, 2)) + np.eye(2) * 3)
    assert subspace_distance(A, B) < 1e-12
    # orthogonal spans are at distance 1
    assert subspace_distance(np.eye(4)[:, :2], np.eye(4)[:, 2:]) == pytest.approx(1.0)
    assert subspace_distance(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0
