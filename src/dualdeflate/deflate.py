"""Construction of deflated (augmented) systems and deflation-order prediction.

The generalized derivative matrices built here use unscaled partials
d^beta, matching the operator side of the operator/functional pairing;
conversion to the normalized functionals of the dual-space module is the
diagonal beta! map provided at the bottom of this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from .errors import (
    AlreadyRegularError,
    DimensionMismatchError,
    InconclusivePredictionError,
    OrderTooLowError,
)
from .dual import MonomialFrame
from .linalg import DEFAULT_RANK_TOL, RankReport, kernel_basis, least_squares, numerical_rank
from .poly import (
    Exponent,
    Functional,
    Polynomial,
    PolySystem,
    _as_vector,
    _CompiledRows,
    factorial,
    substitute_line,
    total_degree,
)


def unit_modulus(rng: np.random.Generator, shape) -> np.ndarray:
    """Random complex numbers on the unit circle (generic, well conditioned)."""
    return np.exp(2j * np.pi * rng.random(shape))


@dataclass(frozen=True)
class SymbolicMatrix:
    """A matrix of polynomials with (alpha, j) row labels and beta column labels."""

    row_labels: tuple[tuple[Exponent, int], ...]
    col_labels: tuple[Exponent, ...]
    entries: tuple[tuple[Polynomial, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, alpha: Exponent, j: int, beta: Exponent) -> Polynomial:
        r = self.row_labels.index((tuple(alpha), j))
        c = self.col_labels.index(tuple(beta))
        return self.entries[r][c]

    @cached_property
    def _compiled(self) -> _CompiledRows:
        return _CompiledRows([e for row in self.entries for e in row])

    def evaluate(self, pt: Sequence[complex]) -> np.ndarray:
        v = _as_vector(pt, len(self.col_labels[0]))
        return self._compiled.evaluate(v).reshape(self.shape)


@dataclass(frozen=True)
class DeflationOperator:
    """Constant-coefficient differential operator sum lambda_beta d^beta."""

    order: int
    terms: dict[Exponent, complex]
    homogeneous: bool = False

    def __post_init__(self):
        clean = {tuple(b): complex(c) for b, c in self.terms.items() if c != 0}
        if not clean:
            raise ValueError("deflation operator must have a nonzero coefficient")
        for b in clean:
            deg = total_degree(b)
            if deg == 0 or deg > self.order:
                raise ValueError(f"operator term {b} outside 1..{self.order}")
            if self.homogeneous and deg != self.order:
                raise ValueError(
                    f"homogeneous operator of order {self.order} has term {b}"
                )
        object.__setattr__(self, "terms", clean)

    @property
    def nvars(self) -> int:
        return len(next(iter(self.terms)))

    def apply(self, p: Polynomial) -> Polynomial:
        out = Polynomial.zero(p.nvars)
        for beta, lam in self.terms.items():
            out = out + lam * p.diff(beta)
        return out


@dataclass(frozen=True)
class AugmentedSystem:
    """A deflated system, possibly over extended variables (x, lambda)."""

    system: PolySystem
    n_original: int
    multiplier_count: int
    order: int
    stage: int
    kind: str
    drawn: dict[str, np.ndarray | None]
    lambda_estimate: np.ndarray | None = None

    def extend_point(self, x: Sequence[complex]) -> np.ndarray:
        """Append the multiplier estimate to a point in the original variables."""
        x = _as_vector(x, self.n_original)
        if self.multiplier_count == 0:
            return x
        if self.lambda_estimate is None:
            raise ValueError("no multiplier estimate available")
        return np.concatenate([x, self.lambda_estimate])

    def project_point(self, z: Sequence[complex]) -> np.ndarray:
        """Original-variable part of an extended point."""
        z = _as_vector(z, self.system.nvars, "extended point")
        return z[: self.n_original]


@dataclass(frozen=True)
class OrderPrediction:
    d: int
    support_degrees: frozenset[int]
    gamma: np.ndarray
    tol_coeff: float


def _row_exponents(n: int, d: int) -> tuple[Exponent, ...]:
    return MonomialFrame.build(n, d - 1).exponents


def deflation_matrix(F: PolySystem, d: int) -> SymbolicMatrix:
    """Symbolic matrix of d^beta(x^alpha f_j), |alpha| < d, 0 < |beta| <= d.

    At d = 1 this is the Jacobian of F.
    """
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    n = F.nvars
    cols = MonomialFrame.build(n, d).nonzero()
    rows = []
    entries = []
    for alpha in _row_exponents(n, d):
        for j, f in enumerate(F.polys):
            rows.append((alpha, j))
            shifted = f.monomial_multiply(alpha)
            entries.append(tuple(shifted.diff(beta) for beta in cols))
    assert len(rows) == F.nequations * comb(n + d - 1, n)
    assert len(cols) == comb(n + d, n) - 1
    return SymbolicMatrix(tuple(rows), tuple(cols), tuple(entries))


def truncated_deflation_matrix(
    F: PolySystem, d: int, rows: str = "original"
) -> SymbolicMatrix:
    """Columns restricted to d^beta with |beta| = d exactly.

    ``rows="original"`` keeps only the rows of F itself; ``rows="multiples"``
    also includes the monomial multiples x^alpha f_j with 0 < |alpha| < d.
    """
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    if rows not in ("original", "multiples"):
        raise ValueError(f"unknown row set {rows!r}")
    n = F.nvars
    cols = tuple(
        b for b in MonomialFrame.build(n, d).nonzero() if total_degree(b) == d
    )
    alphas = _row_exponents(n, d) if rows == "multiples" else ((0,) * n,)
    row_labels = []
    entries = []
    for alpha in alphas:
        for j, f in enumerate(F.polys):
            row_labels.append((alpha, j))
            shifted = f.monomial_multiply(alpha)
            entries.append(tuple(shifted.diff(beta) for beta in cols))
    return SymbolicMatrix(tuple(row_labels), cols, tuple(entries))


def predict_order(
    F: PolySystem,
    x0: Sequence[complex],
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_coeff: float = 1e-4,
    rng: np.random.Generator | None = None,
) -> OrderPrediction:
    """Minimal deflation order from the support of F along a kernel line.

    Draws a generic direction in the numerical kernel of the Jacobian,
    expands H(t) = F(x0 + gamma t), keeps the degrees whose coefficients
    exceed tol_coeff relative to the per-equation maximum, and returns
    min(support) - 1.
    """
    rng = rng if rng is not None else np.random.default_rng()
    x0 = _as_vector(x0, F.nvars)
    J = F.jacobian_at(x0)
    jscale = F.jacobian_scale()
    report = numerical_rank(J, tol_rank, scale=jscale)
    if report.corank == 0:
        raise AlreadyRegularError("Jacobian has full rank; nothing to predict")
    K = kernel_basis(J, tol_rank, scale=jscale)
    gamma = K @ unit_modulus(rng, K.shape[1])
    gamma = gamma / np.linalg.norm(gamma)
    H = substitute_line(F, x0, gamma)
    support = H.support(tol_coeff)
    support.discard(0)
    if not support or min(support) < 2:
        raise InconclusivePredictionError(
            f"support {sorted(support)} gives no usable order; "
            "the point may be too far from the root or the tolerance too tight"
        )
    return OrderPrediction(min(support) - 1, frozenset(support), gamma, tol_coeff)


def _extended_names(F: PolySystem, k: int) -> tuple[str, ...]:
    names = list(F.var_names)
    taken = set(names)
    out = []
    i = 1
    while len(out) < k:
        cand = f"l{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return tuple(names + out)


def deflate_first_order(
    F: PolySystem,
    x0: Sequence[complex],
    tol_rank: float = DEFAULT_RANK_TOL,
    rng: np.random.Generator | None = None,
    stage: int = 1,
) -> AugmentedSystem:
    """One first-order deflation step with indeterminate multipliers.

    With numerical rank r of the Jacobian at x0: for corank 1 the multipliers
    pair directly with the gradient columns (lambda in C^n); for larger
    corank the Jacobian is compressed with a random n-by-(r+1) matrix and
    lambda lives in C^(r+1). One random scaling equation pins lambda.
    """
    rng = rng if rng is not None else np.random.default_rng()
    x0 = _as_vector(x0, F.nvars)
    n, N = F.nvars, F.nequations
    J0 = F.jacobian_at(x0)
    report = numerical_rank(J0, tol_rank, scale=F.jacobian_scale())
    if report.corank == 0:
        raise AlreadyRegularError("Jacobian already has full rank at the point")
    r = report.rank
    jac = F.jacobian()
    if r == n - 1:
        k = n
        B = None
        columns = [[jac[i][j] for i in range(N)] for j in range(n)]
    else:
        k = r + 1
        B = unit_modulus(rng, (n, k))
        columns = []
        for m in range(k):
            col = []
            for i in range(N):
                acc = Polynomial.zero(n)
                for j in range(n):
                    acc = acc + B[j, m] * jac[i][j]
                col.append(acc)
            columns.append(col)
    b = unit_modulus(rng, k)

    total = n + k
    polys = [p.embed(total) for p in F.polys]
    for i in range(N):
        g = Polynomial.zero(total)
        for m in range(k):
            lam = Polynomial.variable(total, n + m)
            g = g + lam * columns[m][i].embed(total)
        polys.append(g)
    h = Polynomial.constant(total, -1)
    for m in range(k):
        h = h + b[m] * Polynomial.variable(total, n + m)
    polys.append(h)

    Beff = B if B is not None else np.eye(n, dtype=complex)
    stacked = np.vstack([J0 @ Beff, b[None, :]])
    rhs = np.zeros(N + 1, dtype=complex)
    rhs[-1] = 1
    lam0, _ = least_squares(stacked, rhs)

    system = PolySystem(total, tuple(polys), _extended_names(F, k))
    return AugmentedSystem(
        system=system,
        n_original=n,
        multiplier_count=k,
        order=1,
        stage=stage,
        kind="first-order-B",
        drawn={"B": B, "b": b},
        lambda_estimate=lam0,
    )


def deflate_higher_order(
    F: PolySystem,
    d: int,
    x0: Sequence[complex],
    tol_rank: float = DEFAULT_RANK_TOL,
    rng: np.random.Generator | None = None,
    stage: int = 1,
) -> AugmentedSystem:
    """Order-d deflation with indeterminate multipliers lambda_beta.

    Appends the equations sum_beta lambda_beta d^beta(x^alpha f_j) for
    |alpha| < d together with m = corank random scaling equations, where m is
    the numerical corank of the evaluated derivative matrix at x0.
    """
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    x0 = _as_vector(x0, F.nvars)
    n, N = F.nvars, F.nequations
    jac_report = numerical_rank(
        F.jacobian_at(x0), tol_rank, scale=F.jacobian_scale()
    )
    if jac_report.corank == 0:
        raise AlreadyRegularError("Jacobian already has full rank at the point")

    A = deflation_matrix(F, d)
    Aval = A.evaluate(x0)
    ascale = max(
        (e.max_coeff_magnitude() for row in A.entries for e in row), default=1.0
    )
    m = numerical_rank(Aval, tol_rank, scale=max(ascale, 1.0)).corank
    if m == 0:
        raise OrderTooLowError(
            f"derivative matrix of order {d} has full rank; raise the order"
        )
    k = len(A.col_labels)
    total = n + k
    polys = [p.embed(total) for p in F.polys]
    for row in A.entries:
        g = Polynomial.zero(total)
        for c, entry in enumerate(row):
            g = g + Polynomial.variable(total, n + c) * entry.embed(total)
        polys.append(g)
    b = unit_modulus(rng, (m, k))
    for kk in range(m):
        h = Polynomial.constant(total, -1)
        for c in range(k):
            h = h + b[kk, c] * Polynomial.variable(total, n + c)
        polys.append(h)

    stacked = np.vstack([Aval, b])
    rhs = np.zeros(stacked.shape[0], dtype=complex)
    rhs[Aval.shape[0]:] = 1
    lam0, _ = least_squares(stacked, rhs)

    system = PolySystem(total, tuple(polys), _extended_names(F, k))
    return AugmentedSystem(
        system=system,
        n_original=n,
        multiplier_count=k,
        order=d,
        stage=stage,
        kind="higher-order-indeterminate",
        drawn={"b": b},
        lambda_estimate=lam0,
    )


def deflate_with_operator(
    F: PolySystem,
    Q: DeflationOperator,
    d: int,
    multiple_degree: int | None = None,
) -> AugmentedSystem:
    """Augment F with Q applied to monomial multiples; no new variables.

    By default the appended rows run over all x^alpha f_j with |alpha| < d;
    ``multiple_degree`` overrides the exclusive bound on |alpha| (pass 1 to
    apply Q to the original equations only).
    """
    if Q.order > d:
        raise ValueError(f"operator order {Q.order} exceeds deflation order {d}")
    if Q.nvars != F.nvars:
        raise DimensionMismatchError(
            f"operator in {Q.nvars} variables, system in {F.nvars}"
        )
    bound = d if multiple_degree is None else multiple_degree
    polys = list(F.polys)
    for alpha in MonomialFrame.build(F.nvars, bound - 1).exponents:
        for f in F.polys:
            polys.append(Q.apply(f.monomial_multiply(alpha)))
    system = PolySystem(F.nvars, tuple(polys), F.var_names)
    return AugmentedSystem(
        system=system,
        n_original=F.nvars,
        multiplier_count=0,
        order=d,
        stage=1,
        kind="fixed-operator",
        drawn={},
        lambda_estimate=None,
    )


def corank_drop_order(
    F: PolySystem,
    x0: Sequence[complex],
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_coeff: float = 1e-8,
) -> int:
    """Exact-arithmetic counterpart of order prediction at a known root.

    Restricts F to the kernel subspace of the Jacobian (after shifting the
    root to the origin) and returns (minimal total degree in the support) - 1.
    """
    x0 = _as_vector(x0, F.nvars)
    J = F.jacobian_at(x0)
    jscale = F.jacobian_scale()
    report = numerical_rank(J, tol_rank, scale=jscale)
    if report.corank == 0:
        raise AlreadyRegularError("Jacobian has full rank; nothing to deflate")
    K = kernel_basis(J, tol_rank, scale=jscale)
    c = K.shape[1]
    subs = []
    for i in range(F.nvars):
        s = Polynomial.constant(c, x0[i])
        for kk in range(c):
            s = s + K[i, kk] * Polynomial.variable(c, kk)
        subs.append(s)
    degrees: set[int] = set()
    for f in F.polys:
        q = f.compose(subs)
        scale = q.max_coeff_magnitude()
        if scale == 0:
            continue
        degrees.update(
            total_degree(a) for a, cv in q.items() if abs(cv) > tol_coeff * scale
        )
    degrees.discard(0)
    if not degrees:
        raise InconclusivePredictionError(
            "system vanishes on the kernel subspace to working accuracy"
        )
    return min(degrees) - 1


def operator_to_functional(Q: DeflationOperator, basepoint) -> Functional:
    """The diagonal beta! bijection: lambda_beta d^beta -> lambda_beta beta! D_beta."""
    terms = {b: lam * factorial(b) for b, lam in Q.terms.items()}
    return Functional(Q.nvars, terms, tuple(basepoint))


def kernel_vector_to_operator(
    vec: np.ndarray, col_labels: Sequence[Exponent], d: int, homogeneous: bool = False
) -> DeflationOperator:
    """Package a kernel vector of a derivative matrix as a deflation operator."""
    terms = {tuple(b): complex(v) for b, v in zip(col_labels, vec)}
    return DeflationOperator(d, terms, homogeneous)
