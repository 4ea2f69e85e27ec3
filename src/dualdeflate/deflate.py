"""Construction of deflated (augmented) systems and deflation-order prediction.

The generalized derivative matrices built here use unscaled partials
d^beta, matching the operator side of the operator/functional pairing. A
fixed operator's order is its largest |beta|, read from its own terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from operator import add
from typing import Sequence

import numpy as np

from .errors import (
    AlreadyRegularError,
    DimensionMismatchError,
    InconclusivePredictionError,
    OrderTooLowError,
)
from .dual import MonomialFrame
from .linalg import RankReport, _check_unit_interval, least_squares, numerical_rank
from .linalg import kernel_basis  # noqa: F401  (bench/tracer.py patches it here)
from .poly import (
    Exponent,
    Polynomial,
    PolySystem,
    _as_vector,
    _CompiledRows,
    total_degree,
)


# predict_order's cut: a coefficient along the kernel line below this
# fraction of its equation's scale counts as zero
DEFAULT_COEFF_TOL = 1e-4


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

    @cached_property
    def _compiled(self) -> _CompiledRows:
        return _CompiledRows.of([e for row in self.entries for e in row])

    def evaluate(self, pt: Sequence[complex]) -> np.ndarray:
        v = _as_vector(pt, len(self.col_labels[0]))
        return self._compiled.evaluate(v).reshape(self.shape)


@dataclass(frozen=True)
class DeflationOperator:
    """Constant-coefficient differential operator sum lambda_beta d^beta, of
    order max |beta|."""

    terms: dict[Exponent, complex]

    def __post_init__(self):
        clean = {tuple(b): complex(c) for b, c in self.terms.items() if c != 0}
        if len({len(b) for b in self.terms}) > 1:
            raise DimensionMismatchError("operator exponents differ in length")
        if any(min(b, default=0) < 0 for b in self.terms):
            raise ValueError("negative exponent entry in operator term")
        if not clean:
            raise ValueError("deflation operator must have a nonzero coefficient")
        if not np.isfinite(list(clean.values())).all():
            raise ValueError("operator coefficients must be finite")
        if any(total_degree(b) == 0 for b in clean):
            raise ValueError("operator term of order 0")
        object.__setattr__(self, "terms", clean)

    @property
    def nvars(self) -> int:
        return len(next(iter(self.terms)))

    @property
    def order(self) -> int:
        return max(map(total_degree, self.terms))


@dataclass(frozen=True)
class AugmentedSystem:
    """A deflated system over the original variables, then the multipliers."""

    system: PolySystem
    order: int
    lambda_estimate: np.ndarray  # one per multiplier; empty for a fixed operator

    @property
    def multiplier_count(self) -> int:
        return len(self.lambda_estimate)

    @property
    def n_original(self) -> int:
        return self.system.nvars - self.multiplier_count

    @property
    def kind(self) -> str:
        if not self.multiplier_count:
            return "fixed-operator"
        return "first-order-B" if self.order == 1 else "higher-order-indeterminate"

    def extend_point(self, x: Sequence[complex]) -> np.ndarray:
        """Append the multiplier estimate to a point in the original variables."""
        return np.concatenate([_as_vector(x, self.n_original), self.lambda_estimate])


@dataclass(frozen=True)
class OrderPrediction:
    support_degrees: frozenset[int]

    @property
    def d(self) -> int:
        return min(self.support_degrees) - 1


def _derivative(terms, beta: Exponent) -> dict[Exponent, complex]:
    """d^beta of the terms (e, c): c x^e gives c e!/(e-beta)! x^(e-beta), or
    nothing where e < beta. Distinct e give distinct exponents."""
    support = [(i, b) for i, b in enumerate(beta) if b]
    out = {}
    for e, c in terms:
        if any(e[i] < b for i, b in support):
            continue
        rem, fac = list(e), 1
        for i, b in support:
            rem[i] -= b
            for k in range(rem[i] + 1, e[i] + 1):
                fac *= k
        out[tuple(rem)] = c * fac
    return out


def deflation_matrix(
    F: PolySystem, d: int, multiples: bool = True, top: bool = False
) -> SymbolicMatrix:
    """Symbolic matrix of d^beta(x^alpha f_j), |alpha| < d, 0 < |beta| <= d.

    ``multiples=False`` keeps only the rows of F itself (alpha = 0), and
    ``top=True`` only the columns with |beta| = d. At d = 1 the full matrix
    is the Jacobian of F.
    """
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    n = F.nvars
    cols = MonomialFrame.build(n, d).nonzero()
    if top:
        cols = tuple(b for b in cols if total_degree(b) == d)
    alphas = MonomialFrame.build(n, d - 1).exponents if multiples else ((0,) * n,)
    rows = []
    entries = []
    for alpha in alphas:
        for j, f in enumerate(F.polys):
            rows.append((alpha, j))
            shifted = [(tuple(map(add, e, alpha)), c) for e, c in f.items()]
            entries.append(tuple(
                Polynomial._trusted(n, _derivative(shifted, beta)) for beta in cols
            ))
    return SymbolicMatrix(tuple(rows), cols, tuple(entries))


def _check_kernel(F: PolySystem, jacobian: RankReport) -> None:
    if len(jacobian.kernel) != F.nvars:
        raise DimensionMismatchError(f"rank report in {len(jacobian.kernel)} "
                                     f"variables, system in {F.nvars}")


def predict_order(
    F: PolySystem,
    x0: Sequence[complex],
    jacobian: RankReport,
    tol_coeff: float,
    rng: np.random.Generator,
) -> OrderPrediction:
    """Minimal deflation order from the support of F along a kernel line.

    Draws a generic unit direction gamma in the kernel of ``jacobian``, the
    rank decision on F's Jacobian at x0, and takes the coefficients of
    H(t) = F(x0 + gamma t). H has degree at most D, the largest total degree
    in F, so they are the discrete Fourier transform of its values at the
    D + 1 roots of unity. It keeps the degrees k >= 1 whose coefficients
    exceed tol_coeff relative to each equation's largest coefficient in H or
    in F, and returns min(support) - 1.
    """
    _check_unit_interval(tol_coeff=tol_coeff)
    _check_kernel(F, jacobian)
    x0 = _as_vector(x0, F.nvars)
    K = jacobian.kernel
    if K.shape[1] == 0:
        raise AlreadyRegularError("Jacobian has full rank; nothing to predict")
    gamma = K @ unit_modulus(rng, K.shape[1])
    gamma = gamma / np.linalg.norm(gamma)
    m = 1 + max((total_degree(a) for p in F.polys for a, _ in p.items()), default=0)
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    H = np.abs(np.fft.fft([F.evaluate(x0 + w * gamma) for w in roots], axis=0) / m)
    above = H[1:] > tol_coeff * np.maximum(H.max(axis=0), F._compiled.scales)
    support = {k + 1 for k in np.flatnonzero(above.any(axis=1)).tolist()}
    if not support or min(support) < 2:
        raise InconclusivePredictionError(
            f"support {sorted(support)} gives no usable order; "
            "the point may be too far from the root or the tolerance too tight"
        )
    return OrderPrediction(frozenset(support))


def _extended_names(F: PolySystem, k: int) -> tuple[str, ...]:
    """F's variable names, then the first k of l1, l2, ... not among them."""
    fresh = (f"l{i}" for i in count(1) if f"l{i}" not in F.var_names)
    return F.var_names + tuple(islice(fresh, k))


def _weighted_sum(weights, polys) -> dict[Exponent, complex]:
    """sum_c w_c * p_c as one term map, added in order, term by term; a sum
    that cancels to zero drops its term, as ``Polynomial`` addition does."""
    acc = {}
    for w, p in zip(weights, polys):
        w = complex(w)
        for e, c in p.items():
            s = acc.get(e, 0) + w * c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return acc


def deflate_first_order(
    F: PolySystem,
    x0: Sequence[complex],
    jacobian: RankReport,
    rng: np.random.Generator,
) -> AugmentedSystem:
    """First-order deflation: ``deflate_higher_order`` at d = 1."""
    return deflate_higher_order(F, 1, x0, jacobian, rng)


def deflate_higher_order(
    F: PolySystem,
    d: int,
    x0: Sequence[complex],
    jacobian: RankReport,
    rng: np.random.Generator,
) -> AugmentedSystem:
    """Order-d deflation with indeterminate multipliers lambda.

    Appends sum_c lambda_c p_c for every row p of the order-d derivative
    matrix, and random scaling equations sum_c b_c lambda_c = 1 that pin
    lambda. At d = 1 the rows are the Jacobian's, from F's own terms; when
    its rank r in ``jacobian``, the rank decision at x0, is below n - 1 they
    are compressed by a random n-by-(r+1) matrix B, so lambda lives in
    C^(r+1). Order 1 takes one scaling equation; at d >= 2 there is one per
    unit of the matrix's corank at x0, cut at the report's tol_used.
    """
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    _check_kernel(F, jacobian)
    x0 = _as_vector(x0, F.nvars)
    n = F.nvars
    if jacobian.corank == 0:
        raise AlreadyRegularError("Jacobian already has full rank at the point")

    if d == 1:
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        rows = [[_derivative(f.items(), e) for e in units] for f in F.polys]
        B = np.eye(n, dtype=complex)
        if jacobian.rank < n - 1:
            B = unit_modulus(rng, (n, jacobian.rank + 1))
            rows = [[_weighted_sum(col, row) for col in B.T] for row in rows]
        # multiplied even when B = I: J @ I can differ from J in the sign of
        # zero entries, and the multiplier estimate is solved from it
        A0, m = F.jacobian_at(x0) @ B, 1
    else:
        A = deflation_matrix(F, d)
        rows = A.entries
        A0 = A.evaluate(x0)
        m = numerical_rank(A0, jacobian.tol_used, max([1.0, *A._compiled.scales])).corank
        if m == 0:
            raise OrderTooLowError(
                f"derivative matrix of order {d} has full rank; raise the order"
            )
    k = A0.shape[1]
    total = n + k
    # rows as term maps over x and lambda: F's equations padded, then each
    # row with lambda_c's exponent appended to the terms of its entry c;
    # the lambda_c are distinct variables, so no two terms share an exponent
    pad = (0,) * k
    lam = [pad[:c] + (1,) + pad[c + 1:] for c in range(k)]
    polys = [{e + pad: c for e, c in f.items()} for f in F.polys]
    polys += ({e + l: c for l, p in zip(lam, row) for e, c in p.items()} for row in rows)
    b = unit_modulus(rng, (m, k))
    polys += (
        {(0,) * total: -1 + 0j} | {(0,) * n + l: complex(c) for l, c in zip(lam, w)}
        for w in b
    )
    polys = [Polynomial._trusted(total, t) for t in polys]

    stacked = np.vstack([A0, b])
    rhs = np.zeros(stacked.shape[0], dtype=complex)
    rhs[A0.shape[0]:] = 1
    return AugmentedSystem(
        PolySystem(total, tuple(polys), _extended_names(F, k)),
        d,
        least_squares(stacked, rhs),
    )


def deflate_with_operator(F: PolySystem, Q: DeflationOperator) -> AugmentedSystem:
    """Augment F with Q applied to every x^alpha f_j, |alpha| < d, where d is
    Q's order; no new variables.

    Each appended row combines a row of ``deflation_matrix(F, d)`` with Q's
    coefficients as fixed weights.
    """
    d = Q.order
    if Q.nvars != F.nvars:
        raise DimensionMismatchError(
            f"operator in {Q.nvars} variables, system in {F.nvars}"
        )
    A = deflation_matrix(F, d)
    weights = [Q.terms.get(beta, 0) for beta in A.col_labels]
    polys = F.polys + tuple(
        Polynomial._trusted(F.nvars, _weighted_sum(weights, row)) for row in A.entries
    )
    return AugmentedSystem(
        PolySystem(F.nvars, polys, F.var_names), d, np.zeros(0, dtype=complex)
    )

