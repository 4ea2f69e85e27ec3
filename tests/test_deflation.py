"""Derivative matrices, order prediction, and the deflation constructions."""

import re
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualdeflate import (
    DeflationOperator,
    Polynomial,
    PolySystem,
    deflate_first_order,
    deflate_higher_order,
    deflate_with_operator,
    deflation_matrix,
    dual_space_dz,
    is_regular,
    numerical_rank,
    parse_system,
    predict_order,
)
from dualdeflate.deflate import _weighted_sum, unit_modulus
from dualdeflate.solver import refine
from dualdeflate.errors import (
    AlreadyRegularError,
    DimensionMismatchError,
    InconclusivePredictionError,
    OrderTooLowError,
)

import oracles
from corpus import (
    A2_EXAMPLE,
    CORPUS,
    EX2,
    SEC61,
    monomial_ideal_entry,
    monomial_ideals,
)
from oracles import (
    apply_operator,
    brute_derivative,
    corank_drop_order,
    evaluate,
    line_support,
    monomial_multiply,
    predicted_support,
    symbolic_entry,
    sympy_mixed_derivative,
    terms_to_sympy,
)


# -- symbolic derivative matrices ------------------------------------------

def _entry_oracle(f, alpha, beta):
    return brute_derivative(monomial_multiply(f.terms, alpha), beta)


@pytest.mark.parametrize("entry", [A2_EXAMPLE, EX2, SEC61], ids=lambda e: e.name)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_deflation_matrix_entries_match_oracle(entry, d):
    F = entry.system
    A = deflation_matrix(F, d)
    n, N = F.nvars, F.nequations
    assert A.shape == (N * comb(n + d - 1, n), comb(n + d, n) - 1)
    for (alpha, j), row in zip(A.row_labels, A.entries):
        for beta, e in zip(A.col_labels, row):
            assert e.terms == pytest.approx(_entry_oracle(F.polys[j], alpha, beta))


STAIR_XYZ = next(e for e in CORPUS if e.name == "stair-x2-y2-z2")


def test_deflation_matrix_entries_match_sympy():
    for entry, d, variant in (
        (A2_EXAMPLE, 2, {}),
        (A2_EXAMPLE, 2, {"top": True}),
        (A2_EXAMPLE, 2, {"multiples": False}),
        (STAIR_XYZ, 3, {}),
    ):
        F = entry.system
        syms = sympy.symbols(F.var_names)
        A = deflation_matrix(F, d, **variant)
        for (alpha, j), row in zip(A.row_labels, A.entries):
            shift = sympy.Mul(*(s**a for s, a in zip(syms, alpha)))
            base = terms_to_sympy(F.polys[j].terms, syms) * shift
            for beta, e in zip(A.col_labels, row):
                expected = sympy_mixed_derivative(base, syms, beta)
                got = terms_to_sympy(e.terms, syms)
                assert sympy.expand(expected - got) == 0, (entry.name, d, variant)


def test_order_one_matrix_is_the_jacobian():
    for entry in (EX2, SEC61):
        F = entry.system
        A = deflation_matrix(F, 1)
        jac = [[oracles.diff_once(p, j) for j in range(F.nvars)] for p in F.polys]
        assert sorted(A.col_labels) == sorted(
            tuple(int(i == k) for i in range(F.nvars)) for k in range(F.nvars)
        )
        for (alpha, j), row in zip(A.row_labels, A.entries):
            assert alpha == (0,) * F.nvars
            for beta, e in zip(A.col_labels, row):
                assert e == jac[j][beta.index(1)]


def test_second_order_matrix_known_entries():
    # the classic 9x5 example; rows indexed by (alpha, j), columns by beta
    A = deflation_matrix(A2_EXAMPLE.system, 2)
    assert A.shape == (9, 5)
    x1, x2 = (Polynomial.variable(2, i) for i in range(2))

    # top rows: the Jacobian block
    assert symbolic_entry(A, (0, 0), 0, (1, 0)) == 2 * x1
    assert symbolic_entry(A, (0, 0), 1, (0, 1)) == -3 * x2**2
    assert symbolic_entry(A, (0, 0), 2, (0, 1)) == 4 * x2**3
    assert symbolic_entry(A, (0, 0), 1, (0, 2)) == -6 * x2
    assert symbolic_entry(A, (0, 0), 2, (0, 2)) == 12 * x2**2

    # multiple rows, including the entries that are misprinted in circulation
    assert symbolic_entry(A, (1, 0), 1, (1, 0)) == 3 * x1**2 - x2**3
    assert symbolic_entry(A, (1, 0), 1, (1, 1)) == -3 * x2**2
    assert symbolic_entry(A, (1, 0), 2, (1, 1)) == 4 * x2**3
    assert symbolic_entry(A, (1, 0), 2, (0, 2)) == 12 * x1 * x2**2
    assert symbolic_entry(A, (0, 1), 1, (0, 1)) == x1**2 - 4 * x2**3
    assert symbolic_entry(A, (0, 1), 2, (0, 1)) == 5 * x2**4
    assert symbolic_entry(A, (0, 1), 2, (0, 2)) == 20 * x2**3


def test_truncated_matrix_shapes_and_content():
    F = SEC61.system
    for d in (2, 3):
        top = deflation_matrix(F, d, multiples=False, top=True)
        assert top.shape == (F.nequations, comb(F.nvars + d - 1, F.nvars - 1))
        assert all(sum(b) == d for b in top.col_labels)
        full = deflation_matrix(F, d, top=True)
        assert full.shape[0] == F.nequations * comb(F.nvars + d - 1, F.nvars)
        # the truncated entries agree with the full matrix
        A = deflation_matrix(F, d)
        for (alpha, j), row in zip(full.row_labels, full.entries):
            for beta, e in zip(full.col_labels, row):
                assert e == symbolic_entry(A, alpha, j, beta)


# -- operators -------------------------------------------------------------

def test_operator_validation():
    with pytest.raises(ValueError):
        DeflationOperator({})
    with pytest.raises(ValueError):
        DeflationOperator({(0, 0): 1.0})
    Q = DeflationOperator({(2, 0): 1.0, (0, 2): -1.0})
    assert Q.nvars == 2


def test_operator_order_is_its_largest_term():
    assert DeflationOperator({(1, 0): 1.0}).order == 1
    assert DeflationOperator({(0, 1): 1.0, (2, 1): 0.5}).order == 3
    # a zero coefficient is no term and sets no order
    assert DeflationOperator({(1, 1): 2.0, (0, 4): 0}).order == 2


@pytest.mark.parametrize("c", [np.nan, np.inf, complex(0.0, -np.inf)], ids=str)
def test_operator_rejects_non_finite_coefficients(c):
    # a NaN coefficient used to give a deflated system that could not be
    # printed and whose residual was NaN
    with pytest.raises(ValueError, match="finite"):
        DeflationOperator({(1, 0): c, (0, 1): 1.0})


def test_operator_rejects_negative_exponent_entries():
    # (2, -1) has total degree 1, a valid order; it used to be dropped
    # silently when the operator was applied
    with pytest.raises(ValueError, match="negative"):
        DeflationOperator({(0, 1): 1, (2, -1): 5})


def test_operator_rejects_exponents_of_different_lengths():
    # nvars used to come from the first key alone, and the 3-variable term
    # was then lost on ex2
    with pytest.raises(DimensionMismatchError):
        DeflationOperator({(1, 0): 1, (1, 0, 0): 2})


def test_operator_row_matches_brute_derivative():
    p = Polynomial(2, {(3, 1): 2.0, (1, 2): -1.5, (0, 4): 1j})
    Q = DeflationOperator({(1, 0): 2.0, (1, 1): -1.0, (0, 2): 0.5j})
    expected: dict = {}
    for beta, lam in Q.terms.items():
        for e, c in brute_derivative(p.terms, beta).items():
            expected[e] = expected.get(e, 0) + lam * c
    expected = {e: c for e, c in expected.items() if c != 0}
    # the first appended row is Q applied to p itself (alpha = 0)
    aug = deflate_with_operator(PolySystem(2, (p,)), Q)
    assert aug.system.polys[1].terms == pytest.approx(expected)


# -- order prediction ------------------------------------------------------

def test_predict_order_matches_exact_restriction_on_corpus():
    for entry in CORPUS:
        exact = corank_drop_order(entry.system, entry.root)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            jacobian = is_regular(entry.system, entry.root)[1]
            pred = predict_order(entry.system, entry.root, jacobian, rng=rng)
            assert pred.d == exact, (entry.name, seed, pred.support_degrees)


OFFSET = 1e-6 * (1 + 1j) / np.sqrt(2)


def assert_support_is_exact(F, x0, tol_rank, tol_coeff, seed):
    """predict_order keeps the support of the exact restriction along the same
    direction, or both stop with the same error.

    The FFT's coefficients carry rounding of about (D+1)^2 eps times the
    cut's reference magnitude, D being F's largest total degree. A degree
    whose exact coefficient lies that close to the cut may go either way;
    every other degree must agree.
    """
    args = (F, x0, tol_rank, tol_coeff)
    ours = (F, x0, is_regular(F, x0, tol_rank)[1], tol_coeff)
    D = max(sum(a) for p in F.polys for a, _ in p.items())
    slack = (D + 1) ** 2 * np.finfo(float).eps
    try:
        sure = predicted_support(*args, np.random.default_rng(seed), slack)
    except AlreadyRegularError:
        with pytest.raises(AlreadyRegularError):
            predict_order(*ours, np.random.default_rng(seed))
        return
    maybe = predicted_support(*args, np.random.default_rng(seed), -slack)
    try:
        got = predict_order(*ours, np.random.default_rng(seed)).support_degrees
        assert min(got) >= 2
    except InconclusivePredictionError as exc:
        listed = re.search(r"support \[([0-9, ]*)\] ", str(exc)).group(1)
        got = {int(k) for k in listed.split(",") if k}
        assert not got or min(got) < 2
    assert sure <= got <= maybe, (sorted(sure), sorted(got), sorted(maybe))


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_predicted_support_matches_exact_restriction(entry):
    # from 1e-6 off the root the Jacobian's kernel shows at a wider tolerance
    for x0, tol_rank in ((entry.root, 1e-8), (entry.root + OFFSET, 1e-5)):
        for seed in range(5):
            for tol_coeff in (1e-4, 1e-8, 1e-12):
                assert_support_is_exact(entry.system, x0, tol_rank, tol_coeff, seed)


@settings(max_examples=40, deadline=None)
@given(monomial_ideals(), st.integers(0, 4), st.sampled_from([1e-4, 1e-8, 1e-12]))
# x^3 from root + 1e-6(1+i)/sqrt(2): |H_1| = 3e-12 sits on the cut 1e-12 * 3
@example(ideal=(((3,),), 1, 0), seed=0, tol_coeff=1e-12)
@example(ideal=(((3,),), 1, 0), seed=1, tol_coeff=1e-12)
def test_predicted_support_matches_exact_restriction_on_monomial_ideals(
    ideal, seed, tol_coeff
):
    gens, n, system_seed = ideal
    entry = monomial_ideal_entry("random", gens, n, system_seed)
    assert_support_is_exact(entry.system, entry.root, 1e-8, tol_coeff, seed)
    assert_support_is_exact(entry.system, entry.root + OFFSET, 1e-5, tol_coeff, seed)


@pytest.mark.parametrize("factor", [1, 1e-6])
def test_support_scale_is_relative(factor):
    # a t^2 part of 1e-3 beside a t^3 part of 1000 counts only at a tight
    # tolerance, and scaling the equation changes nothing
    F = PolySystem(1, (Polynomial(1, {(3,): 1000 * factor, (2,): 1e-3 * factor}),))
    for tol_coeff, want in ((1e-4, {3}), (1e-7, {2, 3})):
        jacobian = is_regular(F, [0])[1]
        pred = predict_order(F, [0], jacobian, tol_coeff, np.random.default_rng(0))
        assert pred.support_degrees == want
        assert line_support(F, [0], [1], tol_coeff) == want


def test_support_scale_follows_a_larger_restriction():
    # along the line from 10, (x - 10)^2 x^4 is t^2 (10 + t)^4: its t^2
    # coefficient 1e4 outgrows F's largest coefficient 100, so t^6 drops
    F = parse_system("vars: x\n(x - 10)^2 * x^4;")
    jacobian = is_regular(F, [10])[1]
    pred = predict_order(F, [10], jacobian, 1e-3, np.random.default_rng(0))
    assert pred.support_degrees == {2, 3, 4, 5}
    assert line_support(F, [10], [1], 1e-3) == {2, 3, 4, 5}


def test_predict_order_inconclusive_support_raises():
    # at 1e-3 from the double root of x^2 the line term 2e-3 t is in the support
    F = parse_system("vars: x\nx^2;")
    with pytest.raises(InconclusivePredictionError, match=re.escape("support [1, 2] ")):
        predict_order(F, [1e-3], is_regular(F, [1e-3], 0.5)[1])


def test_predict_order_values():
    # minimal degree on the kernel restriction, minus one
    assert corank_drop_order(EX2.system, EX2.root) == 1
    assert corank_drop_order(SEC61.system, SEC61.root) == 2
    stair = next(e for e in CORPUS if e.name == "stair-x3-y3")
    assert corank_drop_order(stair.system, stair.root) == 2


def test_predict_order_regular_point_raises():
    F = parse_system("vars: x\nx - 2;")
    with pytest.raises(AlreadyRegularError):
        predict_order(F, [2.0], is_regular(F, [2.0])[1])
    with pytest.raises(AlreadyRegularError):
        corank_drop_order(F, [2.0])


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, 2.0, float("nan")])
def test_predict_order_rejects_tolerances_outside_unit_interval(tol):
    # the rank tolerance reaches predict_order only in a report, and both
    # makers of the report reject it
    F, x0 = EX2.system, EX2.root
    for decide in (is_regular, refine):
        with pytest.raises(ValueError, match="tol_rank must lie in"):
            predict_order(F, x0, decide(F, x0, tol)[1])
    with pytest.raises(ValueError, match="tol_coeff must lie in"):
        predict_order(F, x0, is_regular(F, x0)[1], tol_coeff=tol)


def test_unit_modulus_deterministic():
    a = unit_modulus(np.random.default_rng(9), (4,))
    b = unit_modulus(np.random.default_rng(9), (4,))
    assert np.array_equal(a, b)
    assert np.allclose(np.abs(a), 1.0)


# -- first-order deflation -------------------------------------------------

def test_first_order_structure_and_root_preservation():
    for entry in (EX2, SEC61):
        rng = np.random.default_rng(3)
        jacobian = is_regular(entry.system, entry.root)[1]
        aug = deflate_first_order(entry.system, entry.root, jacobian, rng)
        F = entry.system
        n, N = F.nvars, F.nequations
        J0 = F.jacobian_at(entry.root)
        r = numerical_rank(J0, scale=F.jacobian_scale()).rank
        k = n if r == n - 1 else r + 1
        assert aug.multiplier_count == k
        assert aug.system.nvars == n + k
        assert aug.system.nequations == 2 * N + 1
        # original equations are embedded unchanged
        for i, f in enumerate(F.polys):
            assert aug.system.polys[i] == oracles.embed(f, n + k)
        # the extended point is still a root
        z = aug.extend_point(entry.root)
        assert aug.system.residual(z) < 1e-10


def test_first_order_lambda_estimate_solves_scaling():
    rng = np.random.default_rng(4)
    jacobian = is_regular(SEC61.system, SEC61.root)[1]
    aug = deflate_first_order(SEC61.system, SEC61.root, jacobian, rng)
    # the appended scaling equation b . lambda - 1 holds at the estimate
    scaling = aug.system.polys[-1]
    assert abs(evaluate(scaling, aug.extend_point(SEC61.root))) < 1e-10


def test_first_order_regular_point_raises():
    F = parse_system("vars: x\nx - 2;")
    with pytest.raises(AlreadyRegularError):
        deflate_first_order(F, [2.0], is_regular(F, [2.0])[1])


# -- higher-order deflation ------------------------------------------------

def test_higher_order_structure_and_root_preservation():
    for entry, d in ((SEC61, 2), (EX2, 1), (A2_EXAMPLE, 2)):
        rng = np.random.default_rng(6)
        jacobian = is_regular(entry.system, entry.root)[1]
        aug = deflate_higher_order(entry.system, d, entry.root, jacobian, rng)
        F = entry.system
        n, N = F.nvars, F.nequations
        A = deflation_matrix(F, d)
        m = aug.system.nequations - N - A.shape[0]
        if d == 1:
            # the Jacobian's rows, compressed to r + 1 multipliers below
            # rank n - 1, and one scaling equation
            r = numerical_rank(F.jacobian_at(entry.root), scale=F.jacobian_scale()).rank
            k = n if r == n - 1 else r + 1
            assert m == 1
        else:
            k = comb(n + d, n) - 1
            assert m >= 1  # corank-many scaling equations
        assert aug.multiplier_count == k
        assert aug.system.nvars == n + k
        z = aug.extend_point(entry.root)
        assert aug.system.residual(z) < 1e-10


def test_higher_order_g_rows_are_lambda_combinations():
    rng = np.random.default_rng(8)
    F = SEC61.system
    d = 2
    aug = deflate_higher_order(F, d, SEC61.root, is_regular(F, SEC61.root)[1], rng)
    A = deflation_matrix(F, d)
    n, N = F.nvars, F.nequations
    x = np.array([0.3 - 0.2j, -0.1 + 0.4j])
    lam = rng.standard_normal(aug.multiplier_count) + 0j
    z = np.concatenate([x, lam])
    vals = aug.system.evaluate(z)
    expected = A.evaluate(x) @ lam
    assert np.allclose(vals[N:N + A.shape[0]], expected, atol=1e-10)


def test_higher_order_rejects_bad_order():
    with pytest.raises(ValueError):
        deflate_higher_order(
            SEC61.system, 0, SEC61.root, is_regular(SEC61.system, SEC61.root)[1]
        )


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, 5.0, float("nan")])
@pytest.mark.parametrize("d", [1, 2])
def test_deflation_rejects_rank_tolerance_outside_unit_interval(d, tol):
    # the rank tolerance reaches the builders only in a report, and both
    # makers of the report reject it
    F, x0 = EX2.system, EX2.root
    for decide in (is_regular, refine):
        with pytest.raises(ValueError, match="tol_rank must lie in"):
            deflate_higher_order(F, d, x0, decide(F, x0, tol)[1])
        if d == 1:
            with pytest.raises(ValueError, match="tol_rank must lie in"):
                deflate_first_order(F, x0, decide(F, x0, tol)[1])


def test_report_over_other_variables_is_a_dimension_mismatch():
    F, x0 = EX2.system, EX2.root
    report = numerical_rank(np.zeros((3, 3)))  # a kernel with three rows
    with pytest.raises(DimensionMismatchError):
        predict_order(F, x0, report)
    with pytest.raises(DimensionMismatchError):
        deflate_first_order(F, x0, report)
    for d in (1, 2):
        with pytest.raises(DimensionMismatchError):
            deflate_higher_order(F, d, x0, report)


def test_higher_order_regular_point_raises():
    F = parse_system("vars: x\nx - 2;")
    with pytest.raises(AlreadyRegularError):
        deflate_higher_order(F, 2, [2.0], is_regular(F, [2.0])[1])


# -- fixed-operator augmentation -------------------------------------------

def test_fixed_operator_augmentation():
    F = EX2.system
    Q = DeflationOperator({(2, 0): 1.0, (0, 2): 1.0})
    aug = deflate_with_operator(F, Q)
    n, N = F.nvars, F.nequations
    assert aug.multiplier_count == 0
    assert aug.system.nvars == n
    assert aug.system.nequations == N + N * comb(n + 1, n)
    # rows follow deflation_matrix: alpha = 0 first, equations inner
    for i in range(N):
        assert aug.system.polys[N + i] == apply_operator(Q, F.polys[i])
    Q3 = DeflationOperator({(2, 0, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        deflate_with_operator(F, Q3)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fixed_operator_rows_follow_its_order(order):
    # N * C(n + order - 1, n) rows: every x^alpha f_j with |alpha| < order
    F = SEC61.system
    n, N = F.nvars, F.nequations
    aug = deflate_with_operator(F, DeflationOperator({(0, order): 1.0, (1, 0): 2.0}))
    assert aug.order == order
    assert aug.system.nequations == N + N * comb(n + order - 1, n)


# -- multiplicity drop (spot checks; the full sweep is in the acceptance suite)

@pytest.mark.parametrize(
    "name", ["ex2-three-eqs-two-vars", "stair-x2-y2", "univariate-double-root"]
)
def test_multiplicity_strictly_decreases(name):
    entry = next(e for e in CORPUS if e.name == name)
    rng = np.random.default_rng(2)
    jacobian = is_regular(entry.system, entry.root)[1]
    aug = deflate_first_order(entry.system, entry.root, jacobian, rng)
    z = aug.extend_point(entry.root)
    after = dual_space_dz(aug.system, z).multiplicity
    assert after < entry.multiplicity


# -- one builder: equal to the separate constructions it replaced -----------

def _assert_builder_matches(F, x, tol, d, seed):
    """deflate_higher_order against the separate construction for order d."""
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    if d == 1:
        old_build = oracles.old_deflate_first_order
        args = (F, x, tol, rng_old)
    else:
        old_build = oracles.old_deflate_higher_order
        args = (F, d, x, tol, rng_old)
    try:
        old = old_build(*args)
    except (AlreadyRegularError, OrderTooLowError) as exc:
        with pytest.raises(type(exc)):
            deflate_higher_order(F, d, x, is_regular(F, x, tol)[1], rng_new)
        return
    new = deflate_higher_order(F, d, x, is_regular(F, x, tol)[1], rng_new)
    assert new.system.polys == old.system.polys, (d, seed)
    assert repr(new.system.polys) == repr(old.system.polys), (d, seed)
    assert new.system.var_names == old.system.var_names
    assert new.lambda_estimate.tobytes() == old.lambda_estimate.tobytes()
    for attr in ("multiplier_count", "order", "kind", "n_original"):
        assert getattr(new, attr) == getattr(old, attr), (attr, d, seed)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_builder_matches_separate_constructions(entry):
    F, root = entry.system, entry.root
    d0 = corank_drop_order(F, root, 1e-8)
    near = root + 1e-6 * (1 + 1j) / np.sqrt(2)
    for x, tol in ((root, 1e-8), (near, 1e-5)):
        for d in sorted({1, d0, d0 + 1}):
            for seed in range(3):
                _assert_builder_matches(F, x, tol, d, seed)
    # one stage in, the Jacobian often has rank n - 1, where order 1 keeps
    # all n multipliers and multiplies by the identity
    aug = deflate_first_order(F, root, is_regular(F, root)[1], np.random.default_rng(0))
    for d in (1, 2):
        for seed in range(3):
            _assert_builder_matches(aug.system, aug.extend_point(root), 1e-8, d, seed)


def _weighted_terms(n):
    """(weight, polynomial) pairs in n variables, small enough to cancel."""
    ints = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    floats = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
    weights = ints | floats
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    polys = st.dictionaries(exponents, ints, max_size=4).map(lambda t: Polynomial(n, t))
    return st.lists(st.tuples(weights, polys), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(_weighted_terms))
@example([  # x cancels, then comes back after y
    (1, Polynomial(2, {(1, 0): 1, (0, 1): 1})),
    (-1, Polynomial(2, {(1, 0): 1})),
    (1, Polynomial(2, {(1, 0): 1})),
])
def test_weighted_sum_stores_the_bits_of_polynomial_arithmetic(pairs):
    # the same sums, term order and dropped cancellations as acc + w * p
    n = pairs[0][1].nvars
    expected = Polynomial(n)
    for w, p in pairs:
        expected = expected + w * p
    got = _weighted_sum([w for w, _ in pairs], [p for _, p in pairs])
    assert repr(Polynomial._trusted(n, got)) == repr(expected)


def test_first_order_is_the_order_one_builder():
    for entry in (EX2, SEC61, A2_EXAMPLE):
        jacobian = is_regular(entry.system, entry.root)[1]
        a = deflate_first_order(
            entry.system, entry.root, jacobian, np.random.default_rng(5)
        )
        b = deflate_higher_order(
            entry.system, 1, entry.root, jacobian, np.random.default_rng(5)
        )
        assert repr(a.system.polys) == repr(b.system.polys)
        assert a.lambda_estimate.tobytes() == b.lambda_estimate.tobytes()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_deflation_matrix_row_and_column_sets_match_separate_functions(entry):
    F = entry.system
    for d in (1, 2, 3):
        pairs = [
            (deflation_matrix(F, d), oracles.old_deflation_matrix(F, d)),
            (
                deflation_matrix(F, d, multiples=False, top=True),
                oracles.old_truncated_deflation_matrix(F, d, rows="original"),
            ),
            (
                deflation_matrix(F, d, top=True),
                oracles.old_truncated_deflation_matrix(F, d, rows="multiples"),
            ),
        ]
        for new, old in pairs:
            assert new.row_labels == old.row_labels
            assert new.col_labels == old.col_labels
            assert new.entries == old.entries
            assert repr(new.entries) == repr(old.entries)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_operator_rows_match_term_by_term_application(entry):
    F = entry.system
    n = F.nvars
    rng = np.random.default_rng(13)
    for d in (1, 2):
        betas = deflation_matrix(F, d, multiples=False).col_labels
        coeffs = unit_modulus(rng, len(betas)) * rng.uniform(0.5, 2.0, len(betas))
        Q = DeflationOperator(dict(zip(betas, coeffs)))
        assert Q.order == d
        new = deflate_with_operator(F, Q)
        old = oracles.old_deflate_with_operator(F, Q, d)
        assert new.system.nequations == old.system.nequations
        assert (new.multiplier_count, new.order, new.kind) == (0, d, "fixed-operator")
        # the same rows, in the same order, up to rounding of the summation
        for p, q in zip(new.system.polys, old.system.polys):
            assert p.nvars == q.nvars == n
            scale = oracles.max_coeff_magnitude(q)
            for a in set(p.terms) | set(q.terms):
                assert abs(p.terms.get(a, 0) - q.terms.get(a, 0)) <= 1e-12 * scale
