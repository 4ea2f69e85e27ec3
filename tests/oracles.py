"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own calculus: derivatives
are taken either term-by-term on raw exponent dictionaries or through sympy,
and multiplicities of monomial ideals are counted by brute-force staircase
enumeration. Keeping these separate from the library is what makes the
cross-checks meaningful. The one exception is ``mdz_by_lookup``, the plain
per-entry construction that the package's vectorised assembly must match
bit for bit.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
import sympy

from dualdeflate.dual import MonomialFrame
from dualdeflate.poly import exponent_sub


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
