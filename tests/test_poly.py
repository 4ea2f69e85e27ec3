"""Polynomial core: arithmetic, the deflation derivative formula, shifting,
functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeflate import (
    GRLEX,
    MonomialOrder,
    Polynomial,
    PolySystem,
)
from dualdeflate.deflate import _derivative
from dualdeflate.errors import DimensionMismatchError
from dualdeflate.poly import total_degree

from oracles import (
    apply_functional_oracle,
    brute_derivative,
    compose,
    diff_once,
    evaluate,
    line_restriction,
    max_coeff_magnitude,
    shift_by_compose,
)


# -- strategies ------------------------------------------------------------

def exponents(nvars, max_deg=4):
    return st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])


def coefficients():
    ints = st.integers(-3, 3)
    return st.builds(complex, ints, ints).filter(lambda z: z != 0)


def polynomials(nvars, max_deg=4, max_terms=6):
    return st.dictionaries(
        exponents(nvars, max_deg), coefficients(), max_size=max_terms
    ).map(lambda d: Polynomial(nvars, d))


def points(nvars):
    reals = st.floats(-1.5, 1.5, allow_nan=False)
    return st.tuples(
        *[st.builds(complex, reals, reals) for _ in range(nvars)]
    ).map(np.array)


# -- construction and canonical form ---------------------------------------

def test_zero_coefficients_are_dropped():
    p = Polynomial(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): 2}


def test_duplicate_terms_cancel():
    p = Polynomial(1, {(2,): 1}) - Polynomial(1, {(2,): 1})
    assert not p.terms


def test_immutability():
    p = Polynomial.variable(2, 0)
    with pytest.raises(AttributeError):
        p.nvars = 3
    p.terms[(5, 5)] = 1.0  # mutating the copy must not affect p
    assert (5, 5) not in p.terms


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(DimensionMismatchError):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): 1})


# -- arithmetic as evaluation homomorphism ---------------------------------

@settings(max_examples=60, deadline=None)
@given(polynomials(2), polynomials(2), points(2))
def test_add_mul_match_evaluation(p, q, x):
    scale = max(1.0, abs(evaluate(p, x)), abs(evaluate(q, x)))
    assert abs(evaluate(p + q, x) - (evaluate(p, x) + evaluate(q, x))) < 1e-9 * scale
    assert abs(evaluate(p * q, x) - evaluate(p, x) * evaluate(q, x)) < 1e-9 * scale**2
    assert abs(evaluate(p - q, x) - (evaluate(p, x) - evaluate(q, x))) < 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(polynomials(2, max_deg=2, max_terms=3), st.integers(0, 4), points(2))
def test_power_matches_repeated_product(p, k, x):
    expected = 1 + 0j
    for _ in range(k):
        expected *= evaluate(p, x)
    scale = max(1.0, abs(evaluate(p, x))) ** max(k, 1)
    assert abs(evaluate(p**k, x) - expected) < 1e-8 * scale


def test_scalar_operations():
    p = Polynomial.variable(1, 0)
    assert evaluate(2 * p + 1, [3]) == 7
    assert evaluate(1 - p, [3]) == -2


# -- the deflation builder's derivative formula against the oracles --------

def derivative(p, beta, alpha=None):
    """d^beta(x^alpha p) as deflation_matrix forms each entry."""
    alpha = alpha or (0,) * p.nvars
    shifted = [(tuple(a + s for a, s in zip(e, alpha)), c) for e, c in p.items()]
    return Polynomial(p.nvars, _derivative(shifted, beta))


@settings(max_examples=80, deadline=None)
@given(polynomials(2), exponents(2, 3))
def test_diff_matches_brute_oracle(p, beta):
    assert derivative(p, beta).terms == pytest.approx(brute_derivative(p.terms, beta))


@settings(max_examples=40, deadline=None)
@given(polynomials(3, max_deg=3), exponents(3, 2), exponents(3, 2))
def test_mixed_partials_commute(p, a, b):
    ab = derivative(derivative(p, a), b)
    ba = derivative(derivative(p, b), a)
    combined = derivative(p, tuple(x + y for x, y in zip(a, b)))
    assert ab == ba == combined


@settings(max_examples=40, deadline=None)
@given(polynomials(2), polynomials(2))
def test_diff_is_linear(p, q):
    assert derivative(p + q, (1, 0)) == derivative(p, (1, 0)) + derivative(q, (1, 0))
    assert derivative(3 * p, (0, 1)) == 3 * derivative(p, (0, 1))


def test_diff_once_agrees_with_diff():
    p = Polynomial(2, {(3, 2): 5, (0, 4): -1})
    assert diff_once(p, 0) == derivative(p, (1, 0))
    assert diff_once(p, 1) == derivative(p, (0, 1))


@settings(max_examples=40, deadline=None)
@given(polynomials(2), exponents(2, 2), exponents(2, 2))
def test_monomial_multiply_then_diff_oracle(p, alpha, beta):
    lhs = derivative(p, beta, alpha)
    rhs = brute_derivative(
        {tuple(a + s for a, s in zip(e, alpha)): c for e, c in p.items()}, beta
    )
    assert lhs.terms == pytest.approx(rhs)


# -- composition and shifting ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(polynomials(2, max_deg=3), points(2), points(2))
def test_shift_is_translation(p, b, y):
    direct = evaluate(p, y + b)
    shifted = evaluate(p.shift(b), y)
    scale = max(1.0, abs(direct))
    assert abs(direct - shifted) < 1e-8 * scale


@settings(max_examples=30, deadline=None)
@given(polynomials(2, max_deg=3), points(2))
def test_shift_roundtrip(p, b):
    back, terms = p.shift(b).shift(-b).terms, p.terms
    for alpha in set(terms) | set(back):
        assert back.get(alpha, 0) == pytest.approx(terms.get(alpha, 0), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(polynomials(3, max_deg=4, max_terms=8), points(3))
def test_shift_matches_compose_reference(p, b):
    got, ref = p.shift(b).terms, shift_by_compose(p, b).terms
    # each coefficient sums products no larger than those of |p| shifted by |b|
    bound = Polynomial(3, {a: abs(c) for a, c in p.items()})
    scale = max(1.0, max_coeff_magnitude(shift_by_compose(bound, np.abs(b))))
    for alpha in set(got) | set(ref):
        assert abs(got.get(alpha, 0) - ref.get(alpha, 0)) <= 1e-12 * scale


def dyadic_points(nvars):
    quarters = st.integers(-8, 8).map(lambda k: k / 4)
    return st.tuples(
        *[st.builds(complex, quarters, quarters) for _ in range(nvars)]
    ).map(np.array)


@settings(max_examples=60, deadline=None)
@given(polynomials(3, max_deg=4, max_terms=8), dyadic_points(3))
def test_shift_is_bit_identical_to_compose_at_dyadic_points(p, b):
    # every product and sum is exact here; both constructors store zero
    # parts as +0.0, so equal coefficient maps are equal bits
    assert p.shift(b).terms == shift_by_compose(p, b).terms


def test_compose_linear_substitution():
    p = Polynomial(2, {(2, 0): 1, (0, 1): 1})  # x^2 + y
    u = Polynomial(1, {(1,): 2})  # 2t
    v = Polynomial(1, {(3,): 1})  # t^3
    q = compose(p, [u, v])
    assert q == Polynomial(1, {(2,): 4, (3,): 1})


# -- line restriction ------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(polynomials(2, max_deg=3), points(2), points(2),
       st.floats(-1.0, 1.0, allow_nan=False))
def test_line_restriction_matches_evaluation(p, x0, gamma, t):
    F = PolySystem(2, (p,))
    (H,) = line_restriction(F, x0, gamma)
    direct = evaluate(p, x0 + gamma * t)
    scale = max(1.0, abs(direct))
    assert abs(sum(c * t**k for k, c in H.items()) - direct) <= 1e-8 * scale


# -- functionals -----------------------------------------------------------

def test_delta_duality_on_monomials():
    # D_alpha picks the coefficient of (x-b)^alpha: delta on shifted monomials
    b = (0.5, -0.25)
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 4), (3, 3)]:
        for beta in [(0, 0), (1, 0), (0, 1), (2, 1), (0, 4), (3, 3)]:
            mono = Polynomial.constant(2, 1)
            for i, e in enumerate(beta):
                mono = mono * (
                    Polynomial.variable(2, i) - Polynomial.constant(2, b[i])
                ) ** e
            expected = 1.0 if alpha == beta else 0.0
            got = apply_functional_oracle({alpha: 1}, b, mono.terms)
            assert abs(got - expected) < 1e-12


# -- orders and helpers ----------------------------------------------------

def test_grlex_orders_by_degree_then_lex():
    seq = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert sorted(seq, key=GRLEX.key) == seq


def test_weighted_order():
    w = MonomialOrder.weighted((2, 1))
    assert w.key((1, 0)) > w.key((0, 1))  # weight 2 vs 1
    # (1,0) and (0,2) tie on weight; lower total degree comes first
    assert w.key((1, 0)) < w.key((0, 2))
    assert w.key((2, 0)) > w.key((0, 3))  # weight 4 vs 3


def test_helpers():
    assert total_degree((2, 0, 3)) == 5


def test_system_shape_checks():
    with pytest.raises(ValueError):
        PolySystem(1, ())
    with pytest.raises(DimensionMismatchError):
        PolySystem(2, (Polynomial.variable(1, 0),))


def test_jacobian_at():
    F = PolySystem(2, (Polynomial(2, {(2, 0): 1, (0, 1): 1}),))  # x^2 + y
    J = F.jacobian_at([3, 5])
    assert np.allclose(J, [[6, 1]])


def test_jacobian_rank_zero_system():
    # all first partials vanish at the origin
    F = PolySystem(
        2,
        (
            Polynomial(2, {(1, 1): 1}),
            Polynomial(2, {(2, 0): 1, (0, 2): -1}),
            Polynomial(2, {(0, 4): 1}),
        ),
    )
    assert np.allclose(F.jacobian_at([0, 0]), 0)


def test_residual_is_relative():
    F = PolySystem(1, (Polynomial(1, {(1,): 1e8}),))
    assert F.residual([1e-9]) == pytest.approx(1e-9 * 1e8 / 1e8)
