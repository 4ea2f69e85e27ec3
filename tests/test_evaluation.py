"""Compiled evaluation of systems against the per-polynomial reference.

``PolySystem`` and ``SymbolicMatrix`` evaluate through arrays compiled once
per instance; ``evaluate`` in ``tests/oracles.py`` is the reference. The two
must agree bit for bit, not only to a tolerance, because the Newton iterates,
rank decisions and driver outcomes all follow from these values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeflate import (
    Polynomial,
    PolySystem,
    deflate_higher_order,
    deflation_matrix,
    is_regular,
    parse_system,
)

from corpus import CORPUS
from oracles import corank_drop_order, diff_once, evaluate, max_coeff_magnitude


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_matches_reference(F: PolySystem, x: np.ndarray) -> None:
    values = [evaluate(p, x) for p in F.polys]
    partials = [[diff_once(p, j) for j in range(F.nvars)] for p in F.polys]
    jacobian = [[evaluate(d, x) for d in row] for row in partials]
    scale = max([1.0] + [max_coeff_magnitude(d) for row in partials for d in row])
    assert same_bits(F.evaluate(x), values)
    assert same_bits(F.jacobian_at(x), jacobian)
    assert F.jacobian_scale() == scale
    # the residual divides each equation by its largest coefficient, at least 1
    scales = [max(max_coeff_magnitude(p), 1.0) for p in F.polys]
    assert F.residual(x) == max(np.abs(values) / scales)


def points_near(root: np.ndarray, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = [root]
    for scale in (1e-8, 1e-3, 1.0):
        step = rng.normal(size=root.size) + 1j * rng.normal(size=root.size)
        out.append(root + scale * step)
    return out


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_system_matches_reference(entry):
    for x in points_near(entry.root, 0):
        assert_matches_reference(entry.system, x)


@pytest.mark.parametrize("entry", CORPUS[:4], ids=lambda e: e.name)
def test_symbolic_matrix_matches_reference(entry):
    A = deflation_matrix(entry.system, 2)
    for x in points_near(entry.root, 1):
        expected = [[evaluate(e, x) for e in row] for row in A.entries]
        assert same_bits(A.evaluate(x), expected)


# A deflated system's multiplier terms have exponent 1, so most of its
# partials drop a variable from the monomial.
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_deflated_system_matches_reference(entry):
    F, x0 = entry.system, entry.root
    for d in sorted({1, corank_drop_order(F, x0)}):
        jacobian = is_regular(F, x0)[1]
        aug = deflate_higher_order(F, d, x0, jacobian, np.random.default_rng(3))
        assert aug.system.nvars > F.nvars
        for x in points_near(aug.extend_point(x0), 2):
            assert_matches_reference(aug.system, x)


def test_zero_rows_and_constant_rows():
    F = PolySystem(2, (Polynomial(2), Polynomial.constant(2, 2 - 1j)))
    x = np.array([0.5 + 1j, -2.0])
    assert_matches_reference(F, x)
    assert same_bits(F.evaluate(x), [0, 2 - 1j])


def test_compiling_keeps_equality_and_hash():
    text = "vars: x y\nx^2*y - 3*y^3 + (1,2);\nx*y - 2;\n"
    F, G = parse_system(text), parse_system(text)
    before = hash(F)
    F.evaluate([1.0, 2.0])
    F.jacobian_at([1.0, 2.0])
    assert "_compiled" in vars(F) and "_compiled" not in vars(G)
    assert F == G and hash(F) == hash(G) == before
    assert {F: 1}[G] == 1


# -- random sparse systems -------------------------------------------------

def components():
    return st.one_of(
        st.just(0.0),
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )


def complexes():
    return st.builds(complex, components(), components())


def polynomials(n: int):
    exponent = st.tuples(*[st.integers(0, 6) for _ in range(n)])
    return st.dictionaries(exponent, complexes(), max_size=12).map(
        lambda d: Polynomial(n, d)
    )


def small(z: complex) -> complex:
    return z / 1e6 if abs(z) > 4 else z


@st.composite
def systems_and_points(draw):
    n = draw(st.integers(1, 4))
    polys = draw(st.lists(polynomials(n), min_size=1, max_size=4))
    x = draw(st.lists(complexes().map(small), min_size=n, max_size=n))
    return PolySystem(n, tuple(polys)), np.array(x, dtype=complex)


@settings(max_examples=150, deadline=None)
@given(systems_and_points())
def test_random_sparse_system_matches_reference(case):
    F, x = case
    assert_matches_reference(F, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n))))
def test_arithmetic_results_store_the_bits_of_the_public_constructor(pair):
    # the trusted constructor of arithmetic results normalises like __init__
    p, q = pair
    for r in (p + q, p - q, -p, p * q, (1 - 2j) * p, diff_once(p, 0)):
        assert repr(r) == repr(Polynomial(r.nvars, r.terms))
