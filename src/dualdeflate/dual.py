"""Multiplicity structure at an isolated root via the local dual space.

Two incremental constructions are provided: one builds the full matrix of
monomial-multiple conditions per degree, the other reuses the previous
degree through anti-derivation closedness blocks and row pruning. Both
return the same space; the cross-check is part of the test suite.

All row monomials and functionals are taken in coordinates shifted so the
basepoint is the origin, which turns every matrix entry into a coefficient
lookup in the shifted generators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    NonIsolatedSuspectError,
    NotARootError,
)
from .linalg import DEFAULT_RANK_TOL, kernel_basis, prune_rows
from .poly import (
    GRLEX,
    Exponent,
    Functional,
    MonomialOrder,
    Polynomial,
    PolySystem,
    _as_vector,
    exponent_sub,
)

DEFAULT_MAX_DEGREE = 16


@dataclass(frozen=True)
class MonomialFrame:
    """All exponents of total degree <= degree, sorted ascending by grlex."""

    nvars: int
    degree: int
    exponents: tuple[Exponent, ...]
    index: dict[Exponent, int]

    @classmethod
    def build(cls, nvars: int, degree: int) -> "MonomialFrame":
        return _frame_cached(nvars, degree)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def nonzero(self) -> tuple[Exponent, ...]:
        return self.exponents[1:]


@lru_cache(maxsize=None)
def _frame_cached(nvars: int, degree: int) -> MonomialFrame:
    if degree < 0:
        raise ValueError("degree must be non-negative")
    exps: list[Exponent] = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            exps.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], remaining - 1, budget - k)

    rec([], nvars, degree)
    exps.sort(key=GRLEX.key)
    assert len(exps) == comb(nvars + degree, nvars)
    return MonomialFrame(nvars, degree, tuple(exps), {e: i for i, e in enumerate(exps)})


@dataclass(frozen=True)
class DualBasis:
    """Basis of the local dual space at a basepoint."""

    basepoint: tuple[complex, ...]
    degree: int
    elements: tuple[Functional, ...]
    per_degree_dims: tuple[int, ...]


@dataclass(frozen=True)
class MultiplicityReport:
    multiplicity: int
    dual_basis: DualBasis
    initial_support: frozenset[Exponent]
    standard_monomials: frozenset[Exponent]
    order_used: MonomialOrder
    method: str


def _shifted_generators(F: PolySystem, x0, tol: float) -> list[Polynomial]:
    x0 = _as_vector(x0, F.nvars)
    residual = F.residual(x0)
    if not residual < tol:  # also true for a NaN residual
        raise NotARootError(
            f"residual {residual:.3e} at the given point exceeds tolerance {tol:.1e}"
        )
    return [p.shift(x0) for p in F.polys]


def build_mdz(
    F: PolySystem, x0: Sequence[complex], d: int, tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Matrix of closedness conditions at degree d.

    Rows are labelled (x - x0)^alpha f_j for |alpha| < d (alpha outer, in
    frame order, j inner); columns are the functionals D_beta for
    0 < |beta| <= d in frame order. Size N*B(d-1) by B(d)-1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    shifted = _shifted_generators(F, x0, tol)
    return _assemble_mdz(shifted, F.nvars, d)


def _assemble_mdz(shifted: list[Polynomial], n: int, d: int) -> np.ndarray:
    rows_frame = MonomialFrame.build(n, d - 1)
    cols = MonomialFrame.build(n, d).nonzero()
    M = np.zeros((len(shifted) * rows_frame.size, len(cols)), dtype=complex)
    r = 0
    for alpha in rows_frame.exponents:
        for p in shifted:
            for c, beta in enumerate(cols):
                rem = exponent_sub(beta, alpha)
                if rem is not None:
                    M[r, c] = p.coefficient(rem)
            r += 1
    return M


def build_sigma(j: int, d: int, nvars: int) -> np.ndarray:
    """Matrix of the anti-derivation along variable j (1-based) at degree d.

    Maps coefficient vectors over {D_beta : 0 < |beta| <= d} to vectors over
    {D_gamma : 0 < |gamma| <= d-1} by D_beta -> D_{beta - e_j} (zero when
    beta_j = 0 or beta = e_j, the latter landing on the modded-out D_0).
    """
    if not 1 <= j <= nvars:
        raise DimensionMismatchError(f"variable index {j} out of range 1..{nvars}")
    if d < 2:
        raise ValueError("degree must be >= 2")
    rows = MonomialFrame.build(nvars, d - 1)
    cols = MonomialFrame.build(nvars, d).nonzero()
    S = np.zeros((rows.size - 1, len(cols)), dtype=complex)
    zero = (0,) * nvars
    for c, beta in enumerate(cols):
        if beta[j - 1] == 0:
            continue
        gamma = list(beta)
        gamma[j - 1] -= 1
        gamma = tuple(gamma)
        if gamma == zero:
            continue
        S[rows.index[gamma] - 1, c] = 1
    return S


def _scale_rows(M: np.ndarray) -> np.ndarray:
    if M.size == 0:
        return M
    mags = np.abs(M).max(axis=1)
    mags[mags == 0] = 1.0
    return M / mags[:, None]


def _basis_from_kernel(
    kernel: np.ndarray, frame: MonomialFrame, x0: tuple[complex, ...]
) -> tuple[Functional, ...]:
    n = frame.nvars
    cols = frame.nonzero()
    elements = [Functional.delta(n, (0,) * n, x0)]
    for k in range(kernel.shape[1]):
        terms = {cols[i]: kernel[i, k] for i in range(len(cols))}
        elements.append(Functional(n, terms, x0))
    return tuple(elements)


def _finish(
    F: PolySystem,
    x0,
    kernel: np.ndarray,
    frame: MonomialFrame,
    dims: list[int],
    order: MonomialOrder,
    method: str,
    tol: float,
) -> MultiplicityReport:
    bp = tuple(complex(v) for v in _as_vector(x0, F.nvars))
    elements = _basis_from_kernel(kernel, frame, bp)
    basis = DualBasis(bp, frame.degree, elements, tuple(dims))
    init = initial_support_of_elements(elements, order, tol)
    return MultiplicityReport(
        multiplicity=len(elements),
        dual_basis=basis,
        initial_support=frozenset(init),
        standard_monomials=frozenset(init),
        order_used=order,
        method=method,
    )


def _check_monotone(dims: list[int]) -> None:
    if dims[-1] < dims[-2]:
        warnings.warn(
            "dual-space dimension decreased from degree "
            f"{len(dims) - 2} to {len(dims) - 1} ({dims[-2]} -> {dims[-1]}); "
            "rank tolerance is likely marginal for this system",
            RuntimeWarning,
        )


def dual_space_dz(
    F: PolySystem,
    x0: Sequence[complex],
    tol: float = DEFAULT_RANK_TOL,
    max_d: int = DEFAULT_MAX_DEGREE,
    order: MonomialOrder = GRLEX,
) -> MultiplicityReport:
    """Dual space by the incremental full-matrix construction."""
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    shifted = _shifted_generators(F, x0, tol)
    dims = [1]
    for d in range(1, max_d + 1):
        frame = MonomialFrame.build(F.nvars, d)
        M = _scale_rows(_assemble_mdz(shifted, F.nvars, d))
        kernel = kernel_basis(M, tol)
        dims.append(1 + kernel.shape[1])
        _check_monotone(dims)
        if dims[-1] <= dims[-2]:
            return _finish(F, x0, kernel, frame, dims, order, "DZ", tol)
    raise NonIsolatedSuspectError(
        f"dual-space dimension still growing at degree {max_d}; "
        "the root may be non-isolated",
        per_degree_dims=dims,
    )


def dual_space_st(
    F: PolySystem,
    x0: Sequence[complex],
    tol: float = DEFAULT_RANK_TOL,
    max_d: int = DEFAULT_MAX_DEGREE,
    order: MonomialOrder = GRLEX,
) -> MultiplicityReport:
    """Dual space via anti-derivation closedness blocks with row pruning."""
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    shifted = _shifted_generators(F, x0, tol)
    n = F.nvars
    dims = [1]
    prev_pruned: np.ndarray | None = None
    for d in range(1, max_d + 1):
        frame = MonomialFrame.build(n, d)
        cols = frame.nonzero()
        top = np.array(
            [[p.coefficient(beta) for beta in cols] for p in shifted], dtype=complex
        )
        blocks = [top]
        if prev_pruned is not None and prev_pruned.shape[0] > 0:
            for j in range(1, n + 1):
                blocks.append(prev_pruned @ build_sigma(j, d, n))
        M = _scale_rows(np.vstack(blocks))
        kernel = kernel_basis(M, tol)
        dims.append(1 + kernel.shape[1])
        _check_monotone(dims)
        if dims[-1] <= dims[-2]:
            return _finish(F, x0, kernel, frame, dims, order, "ST", tol)
        prev_pruned = prune_rows(M, tol)
    raise NonIsolatedSuspectError(
        f"dual-space dimension still growing at degree {max_d}; "
        "the root may be non-isolated",
        per_degree_dims=dims,
    )


def initial_support_of_elements(
    elements: Sequence[Functional],
    order: MonomialOrder = GRLEX,
    tol: float = DEFAULT_RANK_TOL,
) -> set[Exponent]:
    """Leading exponents of a reduced basis, one per element.

    The coefficient matrix is reduced with columns scanned from the top of
    the order downwards, so each element ends up with a distinct leading
    exponent; the set of those exponents is returned.
    """
    if not elements:
        raise DegenerateBasisError("empty functional basis")
    support = sorted(
        {a for L in elements for a in L.support()}, key=order.key, reverse=True
    )
    A = np.array(
        [[L.terms.get(a, 0j) for a in support] for L in elements], dtype=complex
    )
    scale = np.abs(A).max() if A.size else 0.0
    if scale == 0:
        raise DegenerateBasisError("all functionals are zero")
    remaining = list(range(len(elements)))
    leading: set[Exponent] = set()
    for c, alpha in enumerate(support):
        if not remaining:
            break
        pivot = max(remaining, key=lambda r: abs(A[r, c]))
        if abs(A[pivot, c]) <= tol * scale:
            continue
        for r in remaining:
            if r != pivot:
                A[r] -= (A[r, c] / A[pivot, c]) * A[pivot]
        remaining.remove(pivot)
        leading.add(alpha)
    if remaining:
        raise DegenerateBasisError(
            f"{len(remaining)} basis elements reduced to numerical zero"
        )
    return leading


def initial_support(
    basis: DualBasis, order: MonomialOrder = GRLEX, tol: float = DEFAULT_RANK_TOL
) -> tuple[set[Exponent], set[Exponent]]:
    """Initial support of a dual basis and the matching standard monomials."""
    init = initial_support_of_elements(basis.elements, order, tol)
    return init, set(init)
