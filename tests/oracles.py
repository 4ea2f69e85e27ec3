"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own calculus: derivatives
are taken either term-by-term on raw exponent dictionaries or through sympy,
and multiplicities of monomial ideals are counted by brute-force staircase
enumeration. Keeping these separate from the library is what makes the
cross-checks meaningful. The exceptions are plain earlier forms of faster
code in the package, kept as references for it: ``evaluate``, the
term-by-term evaluation that the compiled ``PolySystem`` and
``SymbolicMatrix`` evaluation must match bit for bit, with ``diff_once``
and ``max_coeff_magnitude``, the symbolic first partials and coefficient
scales that the compiled Jacobian must match; ``compose``, the
substitution through polynomial products that ``Polynomial.shift`` must
match; ``line_restriction``, the binomial expansion of F along a line,
whose support order prediction must find from values on the unit circle;
``corank_drop_order``, the exact deflation order at a known root that
order prediction must find; ``mdz_by_lookup``, the per-entry construction
that the vectorised assembly must match bit for bit;
``dual_space_uncompressed``, the degree loop that solves each degree over
the whole frame, with ``st_matrix``, the ST matrix over the whole frame
with its previous degree pruned through the anti-derivations of
``build_sigma``; ``initial_support_by_scan``, the
column-by-column, row-by-row reduction; and the three separate deflation
constructions with their two derivative-matrix functions
(``old_deflate_first_order`` and the other ``old_`` functions), which the
one deflation builder must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np
import sympy

from dualdeflate.dual import MonomialFrame, _CoefficientRows, _mdz_index, _scale_rows
from dualdeflate.deflate import SymbolicMatrix, _extended_names, unit_modulus
from dualdeflate.errors import (
    AlreadyRegularError,
    DegenerateBasisError,
    DimensionMismatchError,
    InconclusivePredictionError,
    OrderTooLowError,
)
from dualdeflate.linalg import (
    kernel_basis,
    least_squares,
    numerical_rank,
    prune_rows,
)
from dualdeflate.poly import (
    GRLEX,
    Polynomial,
    PolySystem,
    _as_vector,
    total_degree,
)


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


def embed(p: Polynomial, nvars: int) -> Polynomial:
    """p over its own variables followed by nvars - p.nvars new ones."""
    pad = (0,) * (nvars - p.nvars)
    return Polynomial(nvars, {a + pad: c for a, c in p.items()})


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


def evaluate(p: Polynomial, pt: Sequence[complex]) -> complex:
    """p at pt: the monomials as products of powers x_i**a_i, in variable
    order from 1, each times its coefficient, added in grlex order from 0."""
    v = _as_vector(pt, p.nvars)
    terms = p.terms
    total = 0j
    for alpha in sorted(terms, key=GRLEX.key):
        c = terms[alpha]
        m = 1 + 0j
        for x, a in zip(v, alpha):
            if a:
                m *= x**a
        total += c * m
    return total


def diff_once(p: Polynomial, i: int) -> Polynomial:
    """d/dx_i of p, one term at a time in p's own term order."""
    out: dict[tuple, complex] = {}
    for a, c in p.items():
        if a[i] == 0:
            continue
        b = list(a)
        b[i] -= 1
        out[tuple(b)] = out.get(tuple(b), 0) + c * a[i]
    return Polynomial._trusted(p.nvars, out)


def max_coeff_magnitude(p: Polynomial) -> float:
    return max((abs(c) for _, c in p.items()), default=0.0)


def compose(p: Polynomial, subs: Sequence[Polynomial]) -> Polynomial:
    """Substitute subs[i] for variable i; all subs share a variable count."""
    assert len(subs) == p.nvars
    m = subs[0].nvars
    out = Polynomial(m)
    for alpha, c in p.items():
        term = Polynomial.constant(m, c)
        for s, a in zip(subs, alpha):
            if a:
                term = term * s**a
        out = out + term
    return out


def shift_by_compose(p: Polynomial, basepoint: Sequence[complex]) -> Polynomial:
    """p(y + basepoint), by substituting y_i + v_i for x_i."""
    y = [Polynomial.variable(p.nvars, i) for i in range(p.nvars)]
    return compose(p, [yi + v for yi, v in zip(y, basepoint)])


def line_restriction(
    F: PolySystem, x0: Sequence[complex], gamma: Sequence[complex]
) -> list[dict[int, complex]]:
    """H(t) = F(x0 + gamma*t) by binomial expansion, one coefficient map per f_j.

    Each term's prod_i (x0_i + gamma_i t)^a_i is expanded binomially and
    the factors are convolved one variable at a time.
    """
    v = _as_vector(x0, F.nvars)
    g = _as_vector(gamma, F.nvars, "direction")
    out = []
    for p in F.polys:
        eq: dict[int, complex] = {}
        for alpha, c in p.items():
            conv = {0: c + 0j}
            for xi, gi, a in zip(v, g, alpha):
                if a == 0:
                    continue
                base = {k: comb(a, k) * xi ** (a - k) * gi**k for k in range(a + 1)}
                nxt: dict[int, complex] = {}
                for d1, c1 in conv.items():
                    for d2, c2 in base.items():
                        nxt[d1 + d2] = nxt.get(d1 + d2, 0) + c1 * c2
                conv = nxt
            for d, cv in conv.items():
                eq[d] = eq.get(d, 0) + cv
        out.append({d: cv for d, cv in eq.items() if cv != 0})
    return out


def line_support(
    F: PolySystem,
    x0: Sequence[complex],
    gamma: Sequence[complex],
    tol_coeff: float,
    slack: float = 0.0,
) -> set[int]:
    """Degrees k >= 1 of the expanded restriction that order prediction keeps.

    A coefficient counts when it exceeds tol_coeff times the larger of the
    restriction's and the polynomial's largest coefficient magnitude; an
    equation that vanishes on the line contributes nothing. A nonzero
    ``slack`` moves that cut by slack times the same magnitude.
    """
    degrees: set[int] = set()
    for p, eq in zip(F.polys, line_restriction(F, x0, gamma)):
        if not eq:
            continue
        scale = max(max(abs(cv) for cv in eq.values()), max_coeff_magnitude(p))
        cut = (tol_coeff + slack) * scale
        degrees.update(k for k, cv in eq.items() if k and abs(cv) > cut)
    return degrees


def predicted_support(
    F: PolySystem,
    x0: Sequence[complex],
    tol_rank: float,
    tol_coeff: float,
    rng: np.random.Generator,
    slack: float = 0.0,
) -> set[int]:
    """``line_support`` along the kernel direction that order prediction draws."""
    x0 = _as_vector(x0, F.nvars)
    K = kernel_basis(F.jacobian_at(x0), tol_rank, scale=F.jacobian_scale())
    if K.shape[1] == 0:
        raise AlreadyRegularError("Jacobian has full rank; nothing to predict")
    gamma = K @ unit_modulus(rng, K.shape[1])
    return line_support(F, x0, gamma / np.linalg.norm(gamma), tol_coeff, slack)


def subspace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Gap between column spans: the 2-norm of the projector difference.

    Equals the sine of the largest principal angle, computed without the
    arccos rounding floor, so identical spans measure as ~1e-16.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.size == 0 and B.size == 0:
        return 0.0
    if A.size == 0 or B.size == 0:
        return 1.0
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    Pa = qa @ qa.conj().T
    Pb = qb @ qb.conj().T
    return float(np.linalg.norm(Pa - Pb, 2))


def symbolic_entry(A: SymbolicMatrix, alpha, j: int, beta) -> Polynomial:
    """The entry of A in row (alpha, j) and column beta."""
    r = A.row_labels.index((tuple(alpha), j))
    return A.entries[r][A.col_labels.index(tuple(beta))]


def corank_drop_order(
    F: PolySystem,
    x0: Sequence[complex],
    tol_rank: float = 1e-8,
    tol_coeff: float = 1e-8,
) -> int:
    """Exact-arithmetic counterpart of order prediction at a known root.

    Restricts F to the kernel subspace of the Jacobian (after shifting the
    root to the origin) and returns (minimal total degree in the support) - 1.
    """
    x0 = _as_vector(x0, F.nvars)
    K = kernel_basis(F.jacobian_at(x0), tol_rank, scale=F.jacobian_scale())
    if K.shape[1] == 0:
        raise AlreadyRegularError("Jacobian has full rank; nothing to deflate")
    # x_i = x0_i + sum_k K[i, k] y_k over coordinates y of the kernel
    c = K.shape[1]
    y = [Polynomial.variable(c, k) for k in range(c)]
    subs = [
        sum((y[k] * K[i, k] for k in range(c)), Polynomial.constant(c, x0[i]))
        for i in range(F.nvars)
    ]
    degrees: set[int] = set()
    for f in F.polys:
        q = compose(f, subs)
        scale = max_coeff_magnitude(q)
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


def exponent_sub(alpha: Sequence[int], beta: Sequence[int]) -> tuple | None:
    """alpha - beta componentwise, or None if any component goes negative."""
    diff = tuple(a - b for a, b in zip(alpha, beta))
    return None if any(d < 0 for d in diff) else diff


def mdz_by_lookup(shifted, n: int, d: int) -> np.ndarray:
    """The degree-d DZ matrix built one cell at a time.

    Row (alpha, j), column beta holds the coefficient of x^(beta - alpha) in
    the shifted generator j, looked up per cell. This per-entry loop is the
    reference for the gather in ``_CoefficientRows.mdz``; the frames it walks
    are checked on their own in ``test_frame_sizes_and_order``.
    """
    rows_frame = MonomialFrame.build(n, d - 1)
    cols = MonomialFrame.build(n, d).nonzero()
    M = np.zeros((len(shifted) * rows_frame.size, len(cols)), dtype=complex)
    coefficients = [p.terms for p in shifted]
    r = 0
    for alpha in rows_frame.exponents:
        for terms in coefficients:
            for c, beta in enumerate(cols):
                rem = exponent_sub(beta, alpha)
                if rem is not None:
                    M[r, c] = terms.get(rem, 0)
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
    # T's row for alpha = e_j, which grlex puts at frame index nvars - j + 1
    rows = _mdz_index(nvars, d)[nvars - j + 1] - 1
    (cols,) = np.nonzero(rows >= 0)
    S = np.zeros((comb(nvars + d - 1, nvars) - 1, len(rows)), dtype=float)
    S[rows[cols], cols] = 1
    return S


def st_matrix(rows: _CoefficientRows, d: int, prev, tol: float) -> np.ndarray:
    """The frame-wide ST matrix: the generators over frame(d), then the
    previous degree's matrix, pruned to its rank, through each sigma_j."""
    blocks = [rows.over_frame(d)[:, 1:-1]]
    if prev is not None and (pruned := prune_rows(prev, tol)).shape[0] > 0:
        blocks += [pruned @ build_sigma(j, d, rows.n) for j in range(1, rows.n + 1)]
    return np.vstack(blocks)


def dual_space_uncompressed(F, x0, method: str, tol: float = 1e-8, max_d: int = 16):
    """The dual-space degree loop with every degree solved over the whole frame.

    Returns the per-degree dims, the stopping degree and the kernel at it,
    whose columns are the coefficients of the basis elements other than D_0
    over the nonzero exponents of frame(degree). ST takes its columns over
    the whole frame and prunes the whole matrix of the previous degree.
    Like the package's loop, it runs in real arithmetic when every shifted
    coefficient is real and hands a tall matrix to the SVDs as its R factor
    (the same singular values and row space; LAPACK's SVD of a tall ST matrix
    with entries from 1e-20 to 1 can fail to converge where the R factor's
    does not), so the two differ only in the columns each degree is solved
    over.
    """
    rows = _CoefficientRows(F, x0, tol, max_d)
    if not rows.values.imag.any():
        rows.values = rows.values.real
    dims, M = [1], None
    for d in range(1, max_d + 1):
        if method == "DZ":
            M = _scale_rows(rows.mdz(d))
        else:
            M = _scale_rows(st_matrix(rows, d, M, tol))
        if M.shape[0] > M.shape[1]:
            M = np.linalg.qr(M, mode="r")
        kernel = kernel_basis(M, tol)
        dims.append(1 + kernel.shape[1])
        if dims[-1] <= dims[-2]:
            return tuple(dims), d, kernel
    raise ValueError(f"dual-space dimension still growing at degree {max_d}")


def initial_support_by_scan(coefficients, exponents, order=GRLEX, tol=1e-8) -> set:
    """Leading exponents of a reduced basis, one column and one row at a time.

    Column k of ``coefficients`` is element k over ``exponents``, one per
    row. Exponents are scanned from the top of the order down; at each the
    pivot is the first remaining element of largest magnitude, skipped if
    that magnitude is at most tol times the largest coefficient, and every
    other remaining element is reduced against it.
    """
    if coefficients.shape[1] == 0:
        raise DegenerateBasisError("empty functional basis")
    row = {a: i for i, a in enumerate(exponents)}
    support = sorted(exponents, key=order.key, reverse=True)
    A = np.array([coefficients[row[a]] for a in support], dtype=complex).T
    scale = np.abs(A).max() if A.size else 0.0
    if scale == 0:
        raise DegenerateBasisError("all functionals are zero")
    remaining = list(range(A.shape[0]))
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


# -- the separate deflation constructions the one builder replaced ----------
# Function bodies copied unchanged, apart from the ``old_`` names,
# ``OldAugmentedSystem`` (which keeps the ``drawn`` field), the dropped
# ``stage`` number, ``apply_operator`` standing in for the removed
# ``DeflationOperator.apply``, ``diff_once`` and ``max_coeff_magnitude``
# standing in for the removed ``PolySystem.jacobian`` and
# ``Polynomial.max_coeff_magnitude``, and ``brute_derivative``,
# ``monomial_multiply``, ``embed`` and ``Polynomial(n)`` standing in for the
# removed ``Polynomial.diff``, ``monomial_multiply``, ``embed`` and ``zero``,
# storing the same bits.


def apply_operator(Q, p: Polynomial) -> Polynomial:
    """sum_beta lambda_beta d^beta p, term by term of the operator."""
    out = Polynomial(p.nvars)
    for beta, lam in Q.terms.items():
        out = out + lam * Polynomial(p.nvars, brute_derivative(p.terms, beta))
    return out


@dataclass(frozen=True)
class OldAugmentedSystem:
    system: PolySystem
    n_original: int
    multiplier_count: int
    order: int
    kind: str
    drawn: dict
    lambda_estimate: np.ndarray | None = None


def _row_exponents(n: int, d: int):
    return MonomialFrame.build(n, d - 1).exponents


def old_deflation_matrix(F: PolySystem, d: int) -> SymbolicMatrix:
    if d < 1:
        raise ValueError("deflation order must be >= 1")
    n = F.nvars
    cols = MonomialFrame.build(n, d).nonzero()
    rows = []
    entries = []
    for alpha in _row_exponents(n, d):
        for j, f in enumerate(F.polys):
            rows.append((alpha, j))
            shifted = monomial_multiply(f.terms, alpha)
            entries.append(
                tuple(Polynomial(n, brute_derivative(shifted, beta)) for beta in cols)
            )
    assert len(rows) == F.nequations * comb(n + d - 1, n)
    assert len(cols) == comb(n + d, n) - 1
    return SymbolicMatrix(tuple(rows), tuple(cols), tuple(entries))


def old_truncated_deflation_matrix(
    F: PolySystem, d: int, rows: str = "original"
) -> SymbolicMatrix:
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
            shifted = monomial_multiply(f.terms, alpha)
            entries.append(
                tuple(Polynomial(n, brute_derivative(shifted, beta)) for beta in cols)
            )
    return SymbolicMatrix(tuple(row_labels), cols, tuple(entries))


def old_deflate_first_order(F, x0, tol_rank=1e-8, rng=None):
    rng = rng if rng is not None else np.random.default_rng()
    x0 = _as_vector(x0, F.nvars)
    n, N = F.nvars, F.nequations
    J0 = F.jacobian_at(x0)
    report = numerical_rank(J0, tol_rank, scale=F.jacobian_scale())
    if report.corank == 0:
        raise AlreadyRegularError("Jacobian already has full rank at the point")
    r = report.rank
    jac = [[diff_once(p, j) for j in range(n)] for p in F.polys]
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
                acc = Polynomial(n)
                for j in range(n):
                    acc = acc + B[j, m] * jac[i][j]
                col.append(acc)
            columns.append(col)
    b = unit_modulus(rng, k)

    total = n + k
    polys = [embed(p, total) for p in F.polys]
    for i in range(N):
        g = Polynomial(total)
        for m in range(k):
            lam = Polynomial.variable(total, n + m)
            g = g + lam * embed(columns[m][i], total)
        polys.append(g)
    h = Polynomial.constant(total, -1)
    for m in range(k):
        h = h + b[m] * Polynomial.variable(total, n + m)
    polys.append(h)

    Beff = B if B is not None else np.eye(n, dtype=complex)
    stacked = np.vstack([J0 @ Beff, b[None, :]])
    rhs = np.zeros(N + 1, dtype=complex)
    rhs[-1] = 1
    lam0 = least_squares(stacked, rhs)

    system = PolySystem(total, tuple(polys), _extended_names(F, k))
    return OldAugmentedSystem(
        system=system,
        n_original=n,
        multiplier_count=k,
        order=1,
        kind="first-order-B",
        drawn={"B": B, "b": b},
        lambda_estimate=lam0,
    )


def old_deflate_higher_order(F, d, x0, tol_rank=1e-8, rng=None):
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

    A = old_deflation_matrix(F, d)
    Aval = A.evaluate(x0)
    ascale = max(
        (max_coeff_magnitude(e) for row in A.entries for e in row), default=1.0
    )
    m = numerical_rank(Aval, tol_rank, scale=max(ascale, 1.0)).corank
    if m == 0:
        raise OrderTooLowError(
            f"derivative matrix of order {d} has full rank; raise the order"
        )
    k = len(A.col_labels)
    total = n + k
    polys = [embed(p, total) for p in F.polys]
    for row in A.entries:
        g = Polynomial(total)
        for c, entry in enumerate(row):
            g = g + Polynomial.variable(total, n + c) * embed(entry, total)
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
    lam0 = least_squares(stacked, rhs)

    system = PolySystem(total, tuple(polys), _extended_names(F, k))
    return OldAugmentedSystem(
        system=system,
        n_original=n,
        multiplier_count=k,
        order=d,
        kind="higher-order-indeterminate",
        drawn={"b": b},
        lambda_estimate=lam0,
    )


def old_deflate_with_operator(F, Q, d):
    if Q.order > d:
        raise ValueError(f"operator order {Q.order} exceeds deflation order {d}")
    if Q.nvars != F.nvars:
        raise DimensionMismatchError(
            f"operator in {Q.nvars} variables, system in {F.nvars}"
        )
    polys = list(F.polys)
    for alpha in MonomialFrame.build(F.nvars, d - 1).exponents:
        for f in F.polys:
            shifted = Polynomial(F.nvars, monomial_multiply(f.terms, alpha))
            polys.append(apply_operator(Q, shifted))
    system = PolySystem(F.nvars, tuple(polys), F.var_names)
    return OldAugmentedSystem(
        system=system,
        n_original=F.nvars,
        multiplier_count=0,
        order=d,
        kind="fixed-operator",
        drawn={},
        lambda_estimate=None,
    )
