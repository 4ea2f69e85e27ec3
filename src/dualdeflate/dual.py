"""Multiplicity structure at an isolated root via the local dual space.

Both incremental constructions solve each degree d over the closedness
candidates: every functional of the degree-d space is closed (its
anti-derivatives lie in the degree-(d - 1) space), so it lies in the span
of the integrals of that space, at most n dim D_(d-1) columns. They differ
only in their conditions: :func:`dual_space_dz` takes the monomial
multiples (x - x0)^alpha f_j with |alpha| < d, :func:`dual_space_st` the
generators and the closedness conditions themselves. Both return the same
space; the cross-check against the frame-wide loops is part of the test
suite.

The loop ends at the first degree d that adds nothing. When degree d - 1
added fewer elements than degree d - 2, a closedness test on top-degree
parts alone (:func:`_no_top_extension`) can show this without building
degree d; the report's degree-d coefficient rows are then exact zeros. A
"no" from the test is always safe: degree d is then computed as before.

All row monomials and functionals are taken in coordinates shifted so the
basepoint is the origin, which turns every matrix entry into a coefficient
lookup in the shifted generators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import add
from typing import Sequence

import numpy as np

from .errors import DegenerateBasisError, NonIsolatedSuspectError, NotARootError
from .linalg import DEFAULT_RANK_TOL, _check_unit_interval, _factor, kernel_basis
from .linalg import prune_rows  # noqa: F401  (bench/tracer.py patches dual.prune_rows)
from .poly import GRLEX, Exponent, MonomialOrder, PolySystem, _as_vector

DEFAULT_MAX_DEGREE = 16


@dataclass(frozen=True)
class MonomialFrame:
    """All exponents of total degree <= degree, sorted ascending by grlex."""

    nvars: int
    degree: int
    exponents: tuple[Exponent, ...]

    @classmethod
    def build(cls, nvars: int, degree: int) -> "MonomialFrame":
        return _frame_cached(nvars, degree)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def nonzero(self) -> tuple[Exponent, ...]:
        return self.exponents[1:]

    @cached_property
    def position(self) -> dict[Exponent, int]:
        """Each exponent's index in the frame: its grlex rank, as frames are
        grlex-sorted prefixes of each other."""
        return {e: i for i, e in enumerate(self.exponents)}


@lru_cache(maxsize=None)
def _frame_cached(nvars: int, degree: int) -> MonomialFrame:
    if degree < 0:
        raise ValueError("degree must be non-negative")
    picks = combinations_with_replacement(range(nvars + 1), degree)  # last: slack
    exps = [tuple(c.count(i) for i in range(nvars)) for c in picks]
    exps.sort(key=GRLEX.key)
    assert len(exps) == comb(nvars + degree, nvars)
    return MonomialFrame(nvars, degree, tuple(exps))


@dataclass(frozen=True)
class MultiplicityReport:
    """Basis of the local dual space at a root, one element per column.

    Row i of the read-only ``coefficients`` holds the coefficients of D_a
    for the i-th exponent a of ``MonomialFrame.build(n, degree).exponents``,
    in coordinates shifted to the root. Column 0 is D_0. The rows of the
    top degree are exact zeros when the top-degree test ended the loop.
    """

    coefficients: np.ndarray
    per_degree_dims: tuple[int, ...]
    initial_support: frozenset[Exponent]

    @property
    def multiplicity(self) -> int:
        return self.coefficients.shape[1]

    @property
    def degree(self) -> int:
        return len(self.per_degree_dims) - 1


@lru_cache(maxsize=None)
def _mdz_index(n: int, d: int) -> np.ndarray:
    """T[a, c]: frame index of beta_c - alpha_a over the degree-d matrix's
    row monomials alpha and column exponents beta, -1 if it goes negative.
    Only the valid cells are visited: each gamma of frame(d - |alpha|) is
    beta - alpha for beta = alpha + gamma."""
    frame, alphas = MonomialFrame.build(n, d), MonomialFrame.build(n, d - 1).exponents
    T = np.full((len(alphas), frame.size - 1), -1, dtype=np.intp)
    T[0] = np.arange(1, frame.size)  # alpha = 0: beta itself
    for a, alpha in enumerate(alphas[1:], start=1):
        gammas = MonomialFrame.build(n, d - sum(alpha)).exponents
        cols = [frame.position[tuple(map(add, alpha, g))] - 1 for g in gammas]
        T[a, cols] = np.arange(len(gammas))
    T.flags.writeable = False
    return T


@lru_cache(maxsize=None)
def _integral_index(n: int, d: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """U[j, g]: frame(d) index of gamma_g + e_j over the exponents gamma_g of
    frame(d - 1); Z[j]: the g whose gamma_g is zero before component j, which
    integral_j maps to gamma_g + e_j rather than to zero."""
    lower = MonomialFrame.build(n, d - 1).exponents
    pos = MonomialFrame.build(n, d).position
    U = np.array([[pos[e[:j] + (e[j] + 1,) + e[j + 1 :]] for e in lower] for j in range(n)])
    Z = tuple(np.flatnonzero([not any(e[:j]) for e in lower]) for j in range(n))
    for a in (U, *Z):
        a.flags.writeable = False
    return U, Z


class _CoefficientRows:
    """The generators shifted to the root, each term kept with its exponent."""

    def __init__(self, F: PolySystem, x0, tol: float, max_d: int):
        x0 = _as_vector(x0, F.nvars)
        residual = F.residual(x0)
        if not residual < tol:  # also true for a NaN residual
            raise NotARootError(
                f"residual {residual:.3e} at the given point exceeds "
                f"tolerance {tol:.1e}"
            )
        shifted = [p.shift(x0, max_d) for p in F.polys]
        # terms above max_d are never read: no frame the loop builds holds them
        items = [(j, e, c) for j, p in enumerate(shifted) for e, c in p.items()]
        items = [t for t in items if sum(t[1]) <= max_d]
        self.n, self.count = F.nvars, len(shifted)
        self.eq = np.array([j for j, _, _ in items], dtype=np.intp)
        self.exponents = [e for _, e, _ in items]
        self.values = np.array([c for _, _, c in items], dtype=complex)

    def over_frame(self, d: int) -> np.ndarray:
        """Row j: generator j's coefficients over frame(d), dropping terms
        above degree d, then the zero entry that index -1 picks."""
        pos = MonomialFrame.build(self.n, d).position
        keep = [k for k, e in enumerate(self.exponents) if e in pos]
        V = np.zeros((self.count, len(pos) + 1), dtype=self.values.dtype)
        V[self.eq[keep], [pos[self.exponents[k]] for k in keep]] = self.values[keep]
        return V

    def mdz(self, d: int) -> np.ndarray:
        """The degree-d matrix of monomial-multiple conditions, N*B(d-1) by
        B(d)-1: row (alpha, j) for |alpha| < d (alpha outer, in frame order,
        j inner), column beta for 0 < |beta| <= d in frame order, holding
        generator j's coefficient of x^(beta - alpha)."""
        T = _mdz_index(self.n, d)
        M = np.ascontiguousarray(self.over_frame(d)[:, T].transpose(1, 0, 2))
        return M.reshape(-1, T.shape[1])


def _scale_rows(M: np.ndarray) -> np.ndarray:
    if M.size == 0:
        return M
    mags = np.abs(M).max(axis=1)
    mags[mags == 0] = 1.0
    return M / mags[:, None]


def _dual_space(F, x0, tol, max_d, order, conditions):
    """The degree loop of both methods: stop at the first degree that adds
    nothing, or before building degree d when :func:`_no_top_extension`
    shows that it adds nothing; ``dims`` then repeats its last entry.

    Each degree is solved over the closedness candidates Q of
    :func:`_closedness_candidates`, or over the frame when Q is None;
    ``conditions(rows, d, K, Q)`` gives the degree-d matrix over them, where
    ``K`` is the orthonormal kernel of degree d - 1 over frame(d - 1)
    without D_0, and the kernel over the frame is Q times its own. A tall
    matrix is handed over as the R factor of its QR decomposition: R = Q^H M
    has the same singular values, right singular vectors and row space, and
    the SVD of R builds no square U factor of the tall M. Real generators at
    a real root keep every matrix real; the coefficients come back complex.
    """
    _check_unit_interval(tol=tol)
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    rows = _CoefficientRows(F, x0, tol, max_d)
    if not rows.values.imag.any():  # -0.0 counts as zero
        rows.values = rows.values.real
    dims, K = [1], np.zeros((0, 0), dtype=rows.values.dtype)
    for d in range(1, max_d + 1):
        # degree d - 1 added h elements, fewer than degree d - 2 did
        if d > 2 and (h := dims[-1] - dims[-2]) < dims[-2] - dims[-3]:
            if _no_top_extension(rows.n, d, K, h, tol):
                dims.append(dims[-1])
                break
        Q = _closedness_candidates(rows.n, d, K)
        M = conditions(rows, d, K, Q)
        if M.shape[0] > M.shape[1]:
            M = np.linalg.qr(M, mode="r")
        K = kernel_basis(M, tol)
        if Q is not None:
            K = Q @ K
        dims.append(1 + K.shape[1])
        if dims[-1] < dims[-2]:
            warnings.warn(
                "dual-space dimension decreased from degree "
                f"{d - 1} to {d} ({dims[-2]} -> {dims[-1]}); "
                "rank tolerance is likely marginal for this system",
                RuntimeWarning,
            )
        if dims[-1] <= dims[-2]:
            break
    else:
        raise NonIsolatedSuspectError(
            f"dual-space dimension still growing at degree {max_d}; "
            "the root may be non-isolated",
            per_degree_dims=dims,
        )
    exponents = MonomialFrame.build(F.nvars, d).exponents
    C = np.zeros((len(exponents), K.shape[1] + 1), dtype=complex)
    C[0, 0], C[1 : len(K) + 1, 1:] = 1, K  # K stops short of degree d if tested
    C.flags.writeable = False
    init = frozenset(initial_support_of_elements(C, exponents, order, tol))
    return MultiplicityReport(C, tuple(dims), init)


def _with_d0(K: np.ndarray) -> np.ndarray:
    """span(D_0, K) over a frame, for K over the frame without D_0."""
    C = np.zeros((K.shape[0] + 1, K.shape[1] + 1), dtype=K.dtype)
    C[0, 0], C[1:, 1:] = 1, K
    return C


def _closedness_candidates(n: int, d: int, K: np.ndarray) -> np.ndarray | None:
    """Orthonormal candidates for the degree-d dual space, over frame(d)
    without D_0, or None when every functional over the frame is closed.

    For L without a D_0 term, L = sum_j integral_j sigma_j L. As sigma_j L
    lies in span(D_0, K) for every closed L, the candidates are the
    :func:`_integrals` of span(D_0, K): at most n dim D_(d-1) columns. They
    are fewer than the frame's B(d) - 1 exactly when K does not span
    frame(d - 1); when it does, the frame is returned as None.
    """
    if K.shape[0] == K.shape[1]:
        return None
    return _integrals(n, d, _with_d0(K), 0)[1:]  # integral_j never reaches D_0


def _integrals(n: int, d: int, B: np.ndarray, first: int) -> np.ndarray:
    """Columns over frame(d): for each j, integral_j of an orthonormal basis
    of span(B) restricted to the gammas zero before component j, for B
    orthonormal over the exponents of frame(d - 1) from index ``first`` on.

    integral_j maps D_gamma to D_(gamma + e_j) if gamma is zero before
    component j, and to zero otherwise. The images of different j have
    disjoint supports, so the at most n B.shape[1] columns are orthonormal
    together. A Householder QR gives each basis without a rank decision; its
    span may exceed the restriction's, which only adds columns.
    """
    size = MonomialFrame.build(n, d).size
    U, Z = _integral_index(n, d)
    Z = [z[z >= first] for z in Z]
    widths = [min(len(z), B.shape[1]) for z in Z]
    Q, c = np.zeros((size, sum(widths)), dtype=B.dtype), 0
    for j, (z, w) in enumerate(zip(Z, widths)):
        if j == 0:
            P = B
        elif w == len(z):  # C^w itself spans the restriction
            P = np.eye(w)
        else:
            P = np.linalg.qr(B[z - first])[0]
        Q[U[j, z], c : c + w] = P
        c += w
    return Q


def _no_top_extension(n: int, d: int, K: np.ndarray, h: int, tol: float) -> bool:
    """True when no functional of degree d is closed over span(D_0, K), for
    K as in :func:`_dual_space` and h its elements of degree d - 1.

    Each sigma_k L_top of the degree-d part of a closed L lies in span(T),
    T an orthonormal basis of K's degree-(d - 1) rows; so L_top lies in the
    span of the integrals H of T and gives a kernel vector of the stacked
    (I - T T^H) sigma_k H. Full column rank with sigma_min above
    sqrt(tol) max(sigma_1, 1) rules L out; the gap keeps roundoff in T, near
    tol, from passing. Spurious columns of H only enlarge the kernel, so the
    test errs only toward False. It reads no generator row.
    """
    # S has rank at most (n - 1)(z[0] - h) but sum_j min(z[j], h) columns,
    # z[j] the exponents of degree d - 1 that are zero before component j
    z = [comb(d + n - 2 - j, d - 1) for j in range(n)]
    if sum(min(k, h) for k in z) > (n - 1) * (z[0] - h):
        return False
    lo = MonomialFrame.build(n, d - 2).size  # degree d - 1 starts; K lacks D_0
    T = _factor(K[lo - 1 :].conj().T, tol, 0.0)[1][:h].conj().T
    H = _integrals(n, d, T, lo)
    U = _integral_index(n, d)[0][:, lo:]
    # sigma_k H over the degree-(d - 1) exponents; sigma_1 H = [T 0] passes
    S = np.vstack([Y - T @ (T.conj().T @ Y) for Y in (H[U[k]] for k in range(1, n))])
    # the eigenvalues of S^H S are the squared singular values of S
    return _factor(S.conj().T @ S, tol, 1.0)[2] == S.shape[1]


def _dz_conditions(rows: _CoefficientRows, d: int, K, Q) -> np.ndarray:
    """The monomial multiples (x - x0)^alpha f_j, |alpha| < d, row-scaled,
    over the candidates Q. Rows with |alpha| + ord f_j > d are zero over
    frame(d) and are left out."""
    M = rows.mdz(d)
    M = _scale_rows(M[M.any(axis=1)])
    return M if Q is None else M @ Q


def _st_conditions(rows: _CoefficientRows, d: int, K: np.ndarray, Q) -> np.ndarray:
    """The generators and the closedness conditions, over the candidates Q.

    Rows: the generators over frame(d), row-scaled, then (I - K K^H) sigma_j
    for each j, unscaled: row-scaling the rows of a projector amplifies
    roundoff in its near-zero rows. Over the whole frame (Q is None) every
    L is closed and the generators alone are the conditions.
    """
    G = _scale_rows(rows.over_frame(d)[:, 1:-1])
    if Q is None:
        return G
    U = _integral_index(rows.n, d)[0]
    Kh = K.conj().T
    # sigma_j Q without its D_0 row; sigma_1 Q = [0 K 0], which is closed
    X = [Q[U[j, 1:] - 1] for j in range(1, rows.n)]
    return np.vstack([G @ Q] + [Y - K @ (Kh @ Y) for Y in X])


def dual_space_dz(
    F: PolySystem,
    x0: Sequence[complex],
    tol: float = DEFAULT_RANK_TOL,
    max_d: int = DEFAULT_MAX_DEGREE,
    order: MonomialOrder = GRLEX,
) -> MultiplicityReport:
    """Dual space from the monomial multiples of the generators, over the
    closedness candidates of each degree."""
    return _dual_space(F, x0, tol, max_d, order, _dz_conditions)


def dual_space_st(
    F: PolySystem,
    x0: Sequence[complex],
    tol: float = DEFAULT_RANK_TOL,
    max_d: int = DEFAULT_MAX_DEGREE,
    order: MonomialOrder = GRLEX,
) -> MultiplicityReport:
    """Dual space from the generators and the closedness conditions, over
    the closedness candidates of each degree."""
    return _dual_space(F, x0, tol, max_d, order, _st_conditions)


def initial_support_of_elements(
    coefficients: np.ndarray,
    exponents: Sequence[Exponent],
    order: MonomialOrder = GRLEX,
    tol: float = DEFAULT_RANK_TOL,
) -> set[Exponent]:
    """Leading exponents of a reduced basis, one per element.

    Column k of ``coefficients`` is element k, row i its coefficient of
    D_(exponents[i]). The elements are reduced with the exponents scanned
    from the top of the order downwards, so each ends up with a distinct
    leading exponent; the set of those exponents is returned.
    """
    if not coefficients.shape[1]:
        raise DegenerateBasisError("empty functional basis")
    keys = [order.key(a) for a in exponents]
    support = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    A = np.asarray(coefficients, dtype=complex).T[:, support]
    scale = np.abs(A).max() if A.size else 0.0
    if scale == 0:
        raise DegenerateBasisError("all functionals are zero")
    remaining = np.arange(A.shape[0])
    leading: set[Exponent] = set()
    c = 0
    while remaining.size:
        # the columns the scan would skip, all at once: no remaining row
        # exceeds tol * scale there, and skipping changes nothing in A
        mags = np.abs(A[remaining, c:])
        (ahead,) = np.nonzero(mags.max(axis=0, initial=0.0) > tol * scale)
        if not ahead.size:
            break
        k = int(np.argmax(mags[:, ahead[0]]))  # the first of tied maxima
        c += int(ahead[0])
        pivot, remaining = remaining[k], np.delete(remaining, k)
        # columns up to c are never read again
        factors = A[remaining, c] / A[pivot, c]
        A[remaining, c + 1 :] -= np.outer(factors, A[pivot, c + 1 :])
        leading.add(exponents[support[c]])
        c += 1
    if remaining.size:
        raise DegenerateBasisError(
            f"{remaining.size} basis elements reduced to numerical zero"
        )
    return leading

