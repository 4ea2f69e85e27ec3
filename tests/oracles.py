"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own calculus: derivatives
are taken either term-by-term on raw exponent dictionaries or through sympy,
and multiplicities of monomial ideals are counted by brute-force staircase
enumeration. Keeping these separate from the library is what makes the
cross-checks meaningful. The exceptions are plain earlier forms of faster
code in the package, kept as references for it: ``mdz_by_lookup``, the
per-entry construction that the vectorised assembly must match bit for bit;
``dual_space_uncompressed``, the degree loop that hands each scaled matrix
to the SVD whole; and ``initial_support_by_scan``, the column-by-column,
row-by-row reduction.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
import sympy

from dualdeflate.dual import (
    MonomialFrame,
    _CoefficientRows,
    _scale_rows,
    _st_matrix,
)
from dualdeflate.errors import DegenerateBasisError
from dualdeflate.linalg import kernel_basis
from dualdeflate.poly import GRLEX, exponent_sub


def brute_derivative(
    terms: Mapping[tuple, complex], beta: Sequence[int]
) -> dict[tuple, complex]:
    """d^beta applied to a raw exponent->coefficient map, term by term.

    For a monomial c*x^a the derivative is c * prod_i a_i*(a_i-1)*...*
    (a_i-b_i+1) * x^(a-b), or zero when any a_i < b_i.
    """
    out: dict[tuple, complex] = {}
    for alpha, c in terms.items():
        if any(a < b for a, b in zip(alpha, beta)):
            continue
        fac = 1
        for a, b in zip(alpha, beta):
            fac *= math.factorial(a) // math.factorial(a - b)
        rem = tuple(a - b for a, b in zip(alpha, beta))
        val = out.get(rem, 0) + c * fac
        if val == 0:
            out.pop(rem, None)
        else:
            out[rem] = val
    return out


def monomial_multiply(
    terms: Mapping[tuple, complex], alpha: Sequence[int]
) -> dict[tuple, complex]:
    return {
        tuple(a + s for a, s in zip(e, alpha)): c for e, c in terms.items()
    }


def terms_to_sympy(terms: Mapping[tuple, complex], syms) -> sympy.Expr:
    expr = sympy.Integer(0)
    for alpha, c in terms.items():
        mono = sympy.Integer(1)
        for s, a in zip(syms, alpha):
            mono *= s**a
        expr += sympy.nsimplify(c, rational=True) * mono
    return sympy.expand(expr)


def sympy_mixed_derivative(expr: sympy.Expr, syms, beta: Sequence[int]):
    for s, b in zip(syms, beta):
        if b:
            expr = sympy.diff(expr, s, b)
    return sympy.expand(expr)


def apply_functional_oracle(
    func_terms: Mapping[tuple, complex],
    basepoint: Sequence[complex],
    poly_terms: Mapping[tuple, complex],
) -> complex:
    """sum_alpha c_alpha (1/alpha!) (d^alpha p)(basepoint) via brute force."""
    total = 0j
    for alpha, c in func_terms.items():
        dp = brute_derivative(poly_terms, alpha)
        val = 0j
        for e, ce in dp.items():
            m = 1 + 0j
            for x, a in zip(basepoint, e):
                m *= complex(x) ** a
            val += ce * m
        fac = 1
        for a in alpha:
            fac *= math.factorial(a)
        total += c * val / fac
    return total


def mdz_by_lookup(shifted, n: int, d: int) -> np.ndarray:
    """The degree-d DZ matrix built one cell at a time.

    Row (alpha, j), column beta holds the coefficient of x^(beta - alpha) in
    the shifted generator j, looked up per cell. This per-entry loop is the
    reference for the gather in ``build_mdz``; the frames it walks are checked
    on their own in ``test_frame_sizes_and_order``.
    """
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


def dual_space_uncompressed(F, x0, method: str, tol: float = 1e-8, max_d: int = 16):
    """The dual-space degree loop with every scaled matrix taken whole.

    Returns the per-degree dims, the stopping degree and the kernel at it,
    whose columns are the coefficients of the basis elements other than D_0
    over the nonzero exponents of frame(degree). ST prunes the whole matrix
    of the previous degree.
    """
    rows = _CoefficientRows(F, x0, tol, max_d)
    dims, M = [1], None
    for d in range(1, max_d + 1):
        if method == "DZ":
            M = _scale_rows(rows.mdz(d))
        else:
            M = _scale_rows(_st_matrix(rows, d, M, tol))
        kernel = kernel_basis(M, tol)
        dims.append(1 + kernel.shape[1])
        if dims[-1] <= dims[-2]:
            return tuple(dims), d, kernel
    raise ValueError(f"dual-space dimension still growing at degree {max_d}")


def initial_support_by_scan(elements, order=GRLEX, tol: float = 1e-8) -> set:
    """Leading exponents of a reduced basis, one column and one row at a time.

    Columns are scanned from the top of the order down; in each the pivot is
    the first remaining row of largest magnitude, skipped if that magnitude
    is at most tol times the largest coefficient, and every other remaining
    row is reduced against it.
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
    leading = set()
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


def staircase_count(generators: Sequence[tuple], nvars: int) -> int:
    """Multiplicity of a zero-dimensional monomial ideal at the origin.

    Counts the monomials not divisible by any generator, by enumerating the
    box bounded by the pure-power generators. Raises if some variable has no
    pure power among the generators (the ideal would not be
    zero-dimensional and the count infinite).
    """
    bounds = []
    for i in range(nvars):
        pures = [
            g[i]
            for g in generators
            if g[i] > 0 and all(g[j] == 0 for j in range(nvars) if j != i)
        ]
        if not pures:
            raise ValueError(
                f"no pure power of variable {i}: staircase is infinite"
            )
        bounds.append(min(pures))

    def divisible(mono, gen):
        return all(m >= g for m, g in zip(mono, gen))

    count = 0
    idx = [0] * nvars
    while True:
        if not any(divisible(idx, g) for g in generators):
            count += 1
        # odometer over the box prod [0, bounds_i)
        for i in range(nvars):
            idx[i] += 1
            if idx[i] < bounds[i]:
                break
            idx[i] = 0
        else:
            return count
