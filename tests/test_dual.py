"""Dual-space construction: matrices, both algorithms, initial supports."""

import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualdeflate import (
    GRLEX,
    MonomialFrame,
    MonomialOrder,
    Polynomial,
    PolySystem,
    dual_space_dz,
    dual_space_st,
    parse_system,
    serialize_system,
)
from dualdeflate.dual import (
    _CoefficientRows,
    _integral_index,
    _mdz_index,
    initial_support_of_elements,
)
from dualdeflate.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    NonIsolatedSuspectError,
    NotARootError,
)
from corpus import (
    CORPUS,
    EX1,
    EX2,
    LEC02,
    PUBLISHED,
    SEC61,
    monomial_ideal_entry,
    monomial_ideals,
)
from oracles import (
    apply_functional_oracle,
    build_sigma,
    dual_space_uncompressed,
    initial_support_by_scan,
    local_multiplicity,
    max_coeff_magnitude,
    mdz_by_lookup,
    monomial_multiply,
    subspace_distance,
)
from test_evaluation import systems_and_points


# -- monomial frames -------------------------------------------------------

def test_frame_sizes_and_order():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 4):
            frame = MonomialFrame.build(n, d)
            assert frame.size == comb(n + d, n)
            keys = [GRLEX.key(e) for e in frame.exponents]
            assert keys == sorted(keys)
            assert frame.exponents[0] == (0,) * n
            assert frame.nonzero() == frame.exponents[1:]


# -- the degree-d condition matrix -----------------------------------------

def _mdz_oracle(F, x0, d):
    """Entries recomputed as functional applications, via the brute oracle."""
    shifted = [p.shift(x0) for p in F.polys]
    rows_frame = MonomialFrame.build(F.nvars, d - 1)
    cols = MonomialFrame.build(F.nvars, d).nonzero()
    M = np.zeros((F.nequations * rows_frame.size, len(cols)), dtype=complex)
    r = 0
    origin = (0,) * F.nvars
    for alpha in rows_frame.exponents:
        for p in shifted:
            multiplied = monomial_multiply(p.terms, alpha)
            for c, beta in enumerate(cols):
                M[r, c] = apply_functional_oracle({beta: 1}, origin, multiplied)
            r += 1
    return M


@pytest.mark.parametrize("entry", [EX2, SEC61])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mdz_matches_functional_oracle(entry, d):
    M = _CoefficientRows(entry.system, entry.root, 1e-8, d).mdz(d)
    n, N = entry.system.nvars, entry.system.nequations
    assert M.shape == (N * comb(n + d - 1, n), comb(n + d, n) - 1)
    assert np.allclose(M, _mdz_oracle(entry.system, entry.root, d), atol=1e-12)


def test_mdz_nonzero_basepoint():
    F = parse_system("vars: x y\n(x - 1)^2;\n(x - 1)*(y + 2);\n(y + 2)^2;")
    root = np.array([1.0, -2.0])
    M = _CoefficientRows(F, root, 1e-8, 2).mdz(2)
    assert np.allclose(M, _mdz_oracle(F, root, 2), atol=1e-12)


# -- the gathered matrix equals the per-entry lookup, bit for bit ----------

def assert_mdz_matches_lookup(F, x0, d, tol=1e-8):
    M = _CoefficientRows(F, x0, tol, d).mdz(d)
    ref = mdz_by_lookup([p.shift(x0) for p in F.polys], F.nvars, d)
    assert M.shape == ref.shape
    assert M.dtype == ref.dtype == complex  # also for a real system
    assert M.flags.c_contiguous
    assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_mdz_bits_match_lookup_on_corpus(entry):
    dims = dual_space_dz(entry.system, entry.root).per_degree_dims
    for d in range(1, len(dims)):
        assert_mdz_matches_lookup(entry.system, entry.root, d)


RING_20 = "vars: " + " ".join(f"x{i}" for i in range(20)) + "\n" + "".join(
    f"x{i} + x{(i + 1) % 20}^80;\n" for i in range(20)
)


@pytest.mark.parametrize(
    "text, root, degrees",
    [
        # nonzero basepoint, non-integer shifted coefficients
        ("vars: x y\n(x - 0.5)^2*(y + 1.25);\n(x - 0.5)*(y + 1.25);\n"
         "(y + 1.25)^3;", (0.5, -1.25), 4),
        # univariate
        ("vars: t\n(t - 2)^3;", (2,), 4),
        # four variables
        ("vars: a b c d\na^2;\nb^2 - a*c;\nc^2;\nd^2 + a*b*c;", (0, 0, 0, 0), 4),
        # generator degrees above d: their higher terms must be dropped
        ("vars: x y\nx^2 + y^7;\ny^2 + x^5*y;", (0, 0), 3),
        # degree-80 terms in 20 variables, far above every frame looked up
        (RING_20, (0,) * 20, 2),
    ],
    ids=["nonzero-basepoint", "univariate", "four-vars", "terms-above-d", "degree-80"],
)
def test_mdz_bits_match_lookup(text, root, degrees):
    F = parse_system(text)
    for d in range(1, degrees + 1):
        assert_mdz_matches_lookup(F, np.array(root, dtype=complex), d)


@settings(max_examples=100, deadline=None)
@given(systems_and_points(), st.integers(1, 4))
def test_mdz_bits_match_lookup_on_random_sparse_systems(case, d):
    F, x0 = case
    # the matrix is defined at any point; an infinite tolerance admits non-roots
    assert_mdz_matches_lookup(F, x0, d, tol=np.inf)


def test_frame_index_is_the_position_in_the_frame():
    for n in (1, 2, 3, 4):
        for d in (0, 1, 3, 5):
            frame = MonomialFrame.build(n, d)
            assert list(frame.position) == list(frame.exponents)
            assert all(frame.position[e] == i for i, e in enumerate(frame.exponents))


def test_mdz_index_memory_follows_the_matrix():
    # a dense radix-(d+1) lookup would take (d+1)^n = 531441 entries here,
    # the index table and its temporaries only a few rows x cols arrays
    n, d = 12, 2
    rows, cols = comb(n + d - 1, n), comb(n + d, n) - 1
    for k in (d - 1, d):  # build the cached frames first: trace only the table
        MonomialFrame.build(n, k).position
    tracemalloc.start()
    try:
        T = _mdz_index.__wrapped__(n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.shape == (rows, cols)
    assert peak <= 16 * rows * cols * T.itemsize
    assert (d + 1) ** n * T.itemsize > 10 * peak


def test_mdz_rejects_non_root():
    with pytest.raises(NotARootError):
        _CoefficientRows(EX2.system, [0.3, 0.1], 1e-8, 2)


@pytest.mark.parametrize("method", [dual_space_dz, dual_space_st])
def test_dual_space_rejects_nan_point(method):
    with pytest.raises(NotARootError):
        method(EX2.system, [np.nan, 0.0])


@pytest.mark.parametrize("method", [dual_space_dz, dual_space_st])
@pytest.mark.parametrize("tol", [-1.0, 0.0, 1.0, float("nan")])
def test_dual_space_rejects_tol_outside_unit_interval(method, tol):
    with pytest.raises(ValueError, match="tol must lie in"):
        method(EX2.system, EX2.root, tol=tol)


# -- anti-derivation blocks ------------------------------------------------

def test_sigma_maps_basis_vectors():
    n, d = 3, 3
    cols = MonomialFrame.build(n, d).nonzero()
    rows = MonomialFrame.build(n, d - 1).nonzero()
    for j in range(1, n + 1):
        S = build_sigma(j, d, n)
        assert S.shape == (len(rows), len(cols))
        for c, beta in enumerate(cols):
            col = S[:, c]
            if beta[j - 1] == 0:
                assert not col.any()
                continue
            gamma = tuple(
                b - 1 if i == j - 1 else b for i, b in enumerate(beta)
            )
            if sum(gamma) == 0:
                assert not col.any()  # D_0 is modded out
            else:
                expected = np.zeros(len(rows))
                expected[rows.index(gamma)] = 1
                assert np.array_equal(col.real, expected)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 5) for d in range(2, 6)])
def test_integrals_of_anti_derivatives_give_back_the_functional(n, d):
    """sum_j integral_j sigma_j L = L for L without a D_0 term, where
    integral_j moves D_gamma to D_(gamma + e_j) if gamma is zero before j."""
    rng = np.random.default_rng(10 * n + d)
    frame = MonomialFrame.build(n, d)
    L = rng.standard_normal(frame.size - 1) + 1j * rng.standard_normal(frame.size - 1)
    U, Z = _integral_index(n, d)
    total = np.zeros(frame.size, dtype=complex)
    for j in range(n):
        e_j = tuple(int(i == j) for i in range(n))
        # sigma_j L over frame(d - 1), with the D_0 term that build_sigma drops
        head = L[frame.exponents.index(e_j) - 1]
        s = np.concatenate([[head], build_sigma(j + 1, d, n) @ L])
        np.add.at(total, U[j, Z[j]], s[Z[j]])
    assert total[0] == 0
    assert np.array_equal(total[1:], L)


def test_sigma_bad_indices():
    with pytest.raises(DimensionMismatchError):
        build_sigma(0, 2, 2)
    with pytest.raises(DimensionMismatchError):
        build_sigma(3, 2, 2)
    with pytest.raises(ValueError):
        build_sigma(1, 1, 2)


# -- the two algorithms agree and are correct ------------------------------

# each method with the name the uncompressed reference loop takes
METHODS = {dual_space_dz: "DZ", dual_space_st: "ST"}


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_methods_agree_on_corpus(entry):
    dz = dual_space_dz(entry.system, entry.root)
    st = dual_space_st(entry.system, entry.root)
    assert dz.multiplicity == st.multiplicity == entry.multiplicity
    assert dz.per_degree_dims == st.per_degree_dims
    A, B = dz.coefficients, st.coefficients
    assert subspace_distance(A, B) < 1e-8


@settings(max_examples=20, derandomize=True, deadline=None)
@given(monomial_ideals())
def test_local_multiplicity_is_the_staircase_count(ideal):
    # the moved and mixed system, read back from its text at its dyadic root
    gens, n, seed = ideal
    entry = monomial_ideal_entry("random", gens, n, seed)
    root = [Fraction(z.real) for z in entry.root]
    assert local_multiplicity(serialize_system(entry.system), root) == entry.multiplicity


@pytest.mark.parametrize("entry", PUBLISHED, ids=lambda e: e.name)
def test_methods_read_the_exact_multiplicity_of_published_systems(entry):
    mu = local_multiplicity(entry.text, [Fraction(z.real) for z in entry.root])
    assert mu == entry.multiplicity
    assert dual_space_dz(entry.system, entry.root).multiplicity == mu
    assert dual_space_st(entry.system, entry.root).multiplicity == mu


# Ideals that DZ miscounted while it solved each degree over the whole
# frame: at seed 55 the dims grew by one a degree up to max_d and it raised
# NonIsolatedSuspectError, at 33488 it counted 30 and at 1589 it counted 25.
# ST counts all three right.
CUBES_3 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
CUBES_3_SEED_55 = monomial_ideal_entry("cubes-3-seed-55", CUBES_3, 3, 55)
CUBES_3_SEED_33488 = monomial_ideal_entry("cubes-3-seed-33488", CUBES_3, 3, 33488)
MIXED_4_SEED_1589 = monomial_ideal_entry(
    "mixed-4-seed-1589",
    ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 2, 2, 0),
     (2, 0, 1, 0)),
    4,
    1589,
)
DZ_MISCOUNTS = (CUBES_3_SEED_55, CUBES_3_SEED_33488, MIXED_4_SEED_1589)


@pytest.mark.parametrize("entry", DZ_MISCOUNTS, ids=lambda e: e.name)
def test_st_counts_the_ideals_dz_miscounts(entry):
    assert dual_space_st(entry.system, entry.root).multiplicity == entry.multiplicity


# Not strict: both pass, but the smallest singular value kept above the cut
# lies at 1.07e-8 (seed 55) and 1.01e-8 (seed 33488) times sigma_1, only 1%
# above the cut of 1e-8, so another LAPACK build may place it below.
_NEAR_THE_CUT = pytest.mark.xfail(
    strict=False,
    reason="a kept singular value lies within 1% of the 1e-8 rank cut",
)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(CUBES_3_SEED_55, marks=_NEAR_THE_CUT),
        pytest.param(CUBES_3_SEED_33488, marks=_NEAR_THE_CUT),
        # the cut falls between 5.6e-6 and 2.6e-15 times sigma_1
        MIXED_4_SEED_1589,
    ],
    ids=lambda e: e.name,
)
def test_dz_counts_the_ideals_it_miscounts(entry):
    assert dual_space_dz(entry.system, entry.root).multiplicity == entry.multiplicity


# The ideals that frame-wide DZ miscounted in a sweep of 300 random ideals
# (n <= 4, pure powers <= 3, up to two mixed monomials, default_rng(12345)),
# with its reading: ST was right on all 300.
SWEEP_MISCOUNTS = tuple(
    monomial_ideal_entry(f"sweep-seed-{seed}-read-{read}", gens, 4, seed)
    for gens, seed, read in (
        (((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (2, 1, 1, 0),
          (2, 1, 1, 0)), 17941, "55"),
        (((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)), 32878, "57"),
        (((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)), 21594, "39"),
        (((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 2, 0, 0),
          (1, 1, 0, 1)), 30618, "30"),
        (((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1), (1, 1, 1, 2)),
         34488, "29"),
        (((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (2, 1, 0, 0),
          (1, 1, 0, 2)), 31984, "non-isolated"),
        (((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)), 55729,
         "non-isolated"),
        (((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)), 5772,
         "non-isolated"),
    )
)


@pytest.mark.parametrize("entry", SWEEP_MISCOUNTS, ids=lambda e: e.name)
def test_dz_and_st_count_the_sweep_ideals_frame_wide_dz_miscounted(entry):
    dz = dual_space_dz(entry.system, entry.root)
    st = dual_space_st(entry.system, entry.root)
    assert dz.multiplicity == st.multiplicity == entry.multiplicity
    assert dz.per_degree_dims == st.per_degree_dims


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_dual_basis_annihilates_multiples(entry):
    report = dual_space_dz(entry.system, entry.root)
    d = report.degree
    scale = max(max_coeff_magnitude(p) for p in entry.system.polys)
    # cap the multiple degree for the very large case; the annihilation
    # property is degree-by-degree, so a truncation is still a real check
    alpha_bound = max(d - 1, 0) if entry.multiplicity <= 10 else 2
    frame = MonomialFrame.build(entry.system.nvars, alpha_bound)
    exponents = MonomialFrame.build(entry.system.nvars, d).exponents
    for alpha in frame.exponents:
        for f in entry.system.polys:
            shifted_mono = Polynomial.constant(entry.system.nvars, 1)
            for i, e in enumerate(alpha):
                shifted_mono = shifted_mono * (
                    Polynomial.variable(entry.system.nvars, i)
                    - Polynomial.constant(entry.system.nvars, entry.root[i])
                ) ** e
            g = shifted_mono * f
            for v in report.coefficients.T:
                L = dict(zip(exponents, v))
                value = apply_functional_oracle(L, entry.root, g.terms)
                assert abs(value) < 1e-6 * scale


def assert_matches_uncompressed(report, F, x0, method):
    """Same multiplicity, dims and initial support as the loop that solves
    each degree over the whole frame, and a dual basis within 1e-10: a
    B(degree) x multiplicity coefficient matrix whose column 0 is e_0."""
    dims, degree, kernel = dual_space_uncompressed(F, x0, method)
    assert report.per_degree_dims == dims
    assert report.degree == degree
    assert report.multiplicity == dims[-1]
    C, frame = report.coefficients, MonomialFrame.build(F.nvars, degree)
    assert C.shape == (frame.size, report.multiplicity)
    assert np.array_equal(C[:, 0], np.eye(frame.size)[0])
    assert not C[0, 1:].any()
    assert subspace_distance(C[1:, 1:], kernel) <= 1e-10
    reference = np.zeros_like(C)
    reference[0, 0], reference[1:, 1:] = 1, kernel
    assert report.initial_support == initial_support_by_scan(reference, frame.exponents)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_r_factor_loop_matches_uncompressed_on_corpus(entry, method):
    report = method(entry.system, entry.root)
    assert report.multiplicity == entry.multiplicity
    assert_matches_uncompressed(report, entry.system, entry.root, METHODS[method])


@settings(max_examples=50, deadline=None)
@given(monomial_ideals())
# the frame-wide ST reference once failed here: its SVD of a 117 x 83 matrix
# with entries from 4.4e-20 to 1 did not converge
@example((((3, 0, 0), (0, 3, 0), (0, 0, 2)), 3, 45))
def test_r_factor_loop_matches_uncompressed_on_monomial_ideals(ideal):
    gens, n, seed = ideal
    entry = monomial_ideal_entry("random", gens, n, seed)
    for method, name in METHODS.items():
        report = method(entry.system, entry.root)
        assert report.multiplicity == entry.multiplicity
        assert_matches_uncompressed(report, entry.system, entry.root, name)


def record_shapes(monkeypatch, names=("kernel_basis",), key=np.shape):
    """(name, key(M)) of every matrix M handed to the named linalg functions
    in dual; by default, its shape."""
    import dualdeflate.dual as dual

    shapes = []

    def recording(name):
        real = getattr(dual, name)

        def record(M, *args):
            shapes.append((name, key(M)))
            return real(M, *args)

        return record

    for name in names:
        monkeypatch.setattr(dual, name, recording(name))
    return shapes


@pytest.mark.parametrize("method", METHODS)
def test_svd_gets_the_r_factor_of_tall_matrices(method, monkeypatch):
    shapes = record_shapes(monkeypatch, ("kernel_basis", "prune_rows"))
    method(SEC61.system, SEC61.root)
    kernels = [s for name, s in shapes if name == "kernel_basis"]
    n = SEC61.system.nvars
    frames = [comb(n + d, n) - 1 for d in range(1, len(kernels) + 1)]
    # at most the frame's columns, and one SVD per degree
    assert all(rows <= cols for _, (rows, cols) in shapes)
    assert all(cols <= f for (_, cols), f in zip(kernels, frames))
    assert len(shapes) == len(kernels)


@pytest.mark.parametrize("method", METHODS)
def test_svd_gets_at_most_the_closedness_candidates(method, monkeypatch):
    """On LEC02, each computed degree's SVD has at most n dim D_(d-1)
    columns wherever that is below the frame's B(d) - 1; the last degree
    is left to the stop test."""
    shapes = record_shapes(monkeypatch)
    report = method(LEC02.system, LEC02.root)
    dims, n = report.per_degree_dims, LEC02.system.nvars
    assert len(shapes) == len(dims) - 2
    below = 0
    for d, (_, (rows, cols)) in enumerate(shapes, start=1):
        bound, frame = n * dims[d - 1], comb(n + d, n) - 1
        assert rows <= cols <= frame
        if bound < frame:
            assert cols <= bound
            below += 1
    assert below >= 4


# -- the loop ends without factoring the degree that adds nothing -----------

# The benchmark's pure-power staircase shapes <x_1^a_1, ..., x_n^a_n>
STAIRCASES = tuple(
    monomial_ideal_entry(
        "stair-" + "-".join(map(str, shape)),
        tuple(tuple(a if j == i else 0 for j in range(len(shape)))
              for i, a in enumerate(shape)),
        len(shape),
        30 + k,
    )
    for k, shape in enumerate(
        ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (2, 2, 2), (3, 3, 2), (3, 3, 3),
         (2, 2, 2, 3))
    )
)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", (LEC02,) + STAIRCASES, ids=lambda e: e.name)
def test_last_degree_is_left_unfactored(entry, method, monkeypatch):
    shapes = record_shapes(monkeypatch)
    report = method(entry.system, entry.root)
    dims = report.per_degree_dims
    assert report.multiplicity == entry.multiplicity
    assert dims[-1] == dims[-2]
    assert len(shapes) == len(dims) - 2
    # the stopping degree's rows are exact zeros
    top = MonomialFrame.build(entry.system.nvars, report.degree - 1).size
    assert not report.coefficients[top:].any()


PURE_POWERS = (
    tuple(monomial_ideal_entry(f"x^{k}", ((k,),), 1, k) for k in range(2, 7))
    + tuple(
        monomial_ideal_entry(f"x^2-y^{k}", ((2, 0), (0, k)), 2, 40 + k)
        for k in range(1, 6)
    )
    # the stop test runs after degree 3 (h = 1, 2, 3, 2) and must not stop
    + (monomial_ideal_entry("x^3-y^3", ((3, 0), (0, 3)), 2, 47),)
)


def assert_stops_at_the_last_degree(entry):
    dims = dual_space_uncompressed(entry.system, entry.root, "ST")[0]
    for method in METHODS:
        report = method(entry.system, entry.root)
        assert report.per_degree_dims == dims
        assert report.multiplicity == entry.multiplicity


@pytest.mark.parametrize("entry", PURE_POWERS, ids=lambda e: e.name)
def test_loop_never_stops_before_the_last_degree(entry):
    assert_stops_at_the_last_degree(entry)


# Fixed draws: on some fresh draws, such as ((3,0,0),(0,3,0),(0,0,2)) with
# seed 45, LAPACK's SVD does not converge inside the frame-wide reference.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(monomial_ideals())
def test_loop_never_stops_before_the_last_degree_on_monomial_ideals(ideal):
    gens, n, seed = ideal
    assert_stops_at_the_last_degree(monomial_ideal_entry("random", gens, n, seed))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", (LEC02,) + STAIRCASES[:3], ids=lambda e: e.name)
def test_scaling_a_generator_keeps_the_stop(entry, method, monkeypatch):
    F = entry.system
    scaled = PolySystem(F.nvars, (F.polys[0] * 1e6, *F.polys[1:]), F.var_names)
    counts = []
    for G in (F, scaled):
        shapes = record_shapes(monkeypatch)
        dims = method(G, entry.root).per_degree_dims
        counts.append((dims, len(shapes)))
        monkeypatch.undo()
    assert counts[0] == counts[1]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("c", ["1e3", "1e6"])
def test_stop_with_small_top_parts(method, c, monkeypatch):
    """<x - c y^2, y^3, z^2>: the top part of the degree-3 element is about
    1/c of it. The stop still holds; at 1e6, DZ's degree 4 would grow."""
    F = parse_system(f"vars: x y z\nx - {c}*y^2;\ny^3;\nz^2;\n")
    shapes = record_shapes(monkeypatch)
    dims = method(F, [0, 0, 0]).per_degree_dims
    assert dims == (1, 3, 5, 6, 6)
    assert len(shapes) == len(dims) - 2


def linear_system(n: int) -> PolySystem:
    return PolySystem(n, tuple(Polynomial.variable(n, i) for i in range(n)))


def test_frame_past_int64_reads_multiplicity_one():
    # grlex ranks from a binomial table would need C(67, 33) > 2^63 at n = 66;
    # positions in the frame need only the frame's 67 exponents
    for method in METHODS:
        assert method(linear_system(66), np.zeros(66)).multiplicity == 1


@pytest.mark.parametrize("method", METHODS)
def test_terms_are_looked_up_only_in_the_frames_the_loop_builds(method, monkeypatch):
    import dualdeflate.dual as dual

    built, frame = [], dual._frame_cached

    def recording(n, d):
        # frame(12) of 20 variables would hold C(32, 12) ~ 2.3e8 exponents
        assert d <= 2, f"frame({d}) of {n} variables requested"
        built.append(d)
        return frame(n, d)

    monkeypatch.setattr(dual, "_frame_cached", recording)
    F = parse_system(RING_20.replace("^80", "^12"))
    report = method(F, np.zeros(20))
    assert report.multiplicity == 1
    assert max(built) <= report.degree


# Instances solved on fewer candidates than the frame at some degree; the
# small hypothesis ideals rarely get there.
CANDIDATE_CASES = (
    monomial_ideal_entry("cubes-3", CUBES_3, 3, 21),
    monomial_ideal_entry(
        "squares-cube-4",
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3)),
        4,
        22,
    ),
    LEC02,
)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", CANDIDATE_CASES, ids=lambda e: e.name)
def test_candidates_match_frame_wide_reference(entry, method, monkeypatch):
    shapes = record_shapes(monkeypatch)
    report = method(entry.system, entry.root)
    n = entry.system.nvars
    assert any(
        cols < comb(n + d, n) - 1 for d, (_, (_, cols)) in enumerate(shapes, start=1)
    )
    assert report.multiplicity == entry.multiplicity
    assert_matches_uncompressed(report, entry.system, entry.root, METHODS[method])


# -- a real system at a real root is solved in real arithmetic -------------

def times_1j(F: PolySystem) -> PolySystem:
    """F with its first generator times 1j: the same ideal, so the same dual
    space, but with shifted coefficients that are not all real."""
    return PolySystem(F.nvars, (F.polys[0] * 1j, *F.polys[1:]), F.var_names)


def assert_one_dual_space(method, F, x0):
    real, scaled = method(F, x0), method(times_1j(F), x0)
    assert real.per_degree_dims == scaled.per_degree_dims
    assert real.multiplicity == scaled.multiplicity
    assert real.initial_support == scaled.initial_support
    assert subspace_distance(real.coefficients, scaled.coefficients) <= 1e-10
    for C in (real.coefficients, scaled.coefficients):
        assert C.dtype == complex and not C.flags.writeable


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_real_and_complex_paths_give_one_dual_space(entry, method, monkeypatch):
    dtypes = record_shapes(monkeypatch, key=lambda M: M.dtype)
    assert_one_dual_space(method, entry.system, entry.root)
    # both calls take one SVD per degree, the real one first
    half = len(dtypes) // 2
    assert [t for _, t in dtypes] == [np.float64] * half + [np.complex128] * half


# Fixed draws, as under CI: on a random draw near the rank cut the spans can
# differ by up to 1e-8, and the complex path alone moves as much when a
# generator is multiplied by 1j.
@settings(max_examples=50, deadline=None, derandomize=True)
@given(monomial_ideals())
def test_real_and_complex_paths_give_one_dual_space_on_monomial_ideals(ideal):
    gens, n, seed = ideal
    entry = monomial_ideal_entry("random", gens, n, seed)
    for method in METHODS:
        assert_one_dual_space(method, entry.system, entry.root)


def test_per_degree_dims_monotone_and_stable():
    for entry in CORPUS:
        dims = dual_space_dz(entry.system, entry.root).per_degree_dims
        assert dims[0] == 1
        assert all(b >= a for a, b in zip(dims, dims[1:]))
        assert dims[-1] == dims[-2] == entry.multiplicity


def test_shift_invariance():
    # moving the root does not change the multiplicity structure
    c = np.array([0.75, -0.5])
    moved = PolySystem(2, tuple(p.shift(-c) for p in EX2.system.polys))
    a = dual_space_dz(EX2.system, [0, 0])
    b = dual_space_dz(moved, c)
    assert a.multiplicity == b.multiplicity
    assert a.per_degree_dims == b.per_degree_dims
    assert a.initial_support == b.initial_support


def test_non_isolated_root_detected():
    F = parse_system("vars: x y\nx*y;")  # positive-dimensional at the origin
    with pytest.raises(NonIsolatedSuspectError) as exc:
        dual_space_dz(F, [0, 0], max_d=5)
    assert len(exc.value.per_degree_dims) == 6
    with pytest.raises(NonIsolatedSuspectError):
        dual_space_st(F, [0, 0], max_d=5)


def test_regular_root_multiplicity_one():
    F = parse_system("vars: x y\nx - 1;\ny + 2;")
    r = dual_space_dz(F, [1, -2])
    assert r.multiplicity == 1
    assert r.initial_support == frozenset({(0, 0)})


# -- initial supports ------------------------------------------------------

def test_initial_support_ex2():
    init = dual_space_dz(EX2.system, EX2.root).initial_support
    # basis spans {D00, D10, D01, D20 + D02}: under graded lex the mixed
    # element leads with (2,0)
    assert init == {(0, 0), (1, 0), (0, 1), (2, 0)}


def test_initial_support_ex1_weighted():
    order = MonomialOrder.weighted((2, 1))
    report = dual_space_dz(EX1.system, EX1.root, order=order)
    init = report.initial_support
    expected = {
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    } - {(0, 3)} | {(4, 0)}
    assert init == expected
    assert len(init) == report.multiplicity == 10


def test_initial_support_rejects_degenerate_input():
    exponents, L = ((0,), (1,)), np.array([0, 1])
    for support in (initial_support_of_elements, initial_support_by_scan):
        with pytest.raises(DegenerateBasisError):
            support(np.zeros((2, 0)), exponents)  # empty
        with pytest.raises(DegenerateBasisError):
            support(np.zeros((2, 1)), exponents)  # the zero functional
        with pytest.raises(DegenerateBasisError):
            support(np.stack([L, L], axis=1), exponents)  # linearly dependent


def _orders(n):
    return (GRLEX, MonomialOrder.weighted(tuple(range(n, 0, -1))))


def _basis(entry, method, order=GRLEX):
    report = method(entry.system, entry.root, order=order)
    exponents = MonomialFrame.build(entry.system.nvars, report.degree).exponents
    return report, report.coefficients, exponents


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_initial_support_matches_scan_on_corpus(entry, method):
    _, C, exponents = _basis(entry, method)
    for order in _orders(entry.system.nvars):
        expected = initial_support_by_scan(C, exponents, order)
        assert initial_support_of_elements(C, exponents, order) == expected


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_initial_support_depends_only_on_the_span(entry, method):
    rng = np.random.default_rng(7)
    for order in _orders(entry.system.nvars):
        report, C, exponents = _basis(entry, method, order)
        mu = report.multiplicity
        G = rng.standard_normal((mu, mu)) + 1j * rng.standard_normal((mu, mu))
        U = np.linalg.qr(G)[0]
        mixed = initial_support_of_elements(C @ U, exponents, order)
        assert mixed == report.initial_support


# small integers and units, so that pivot candidates often tie in magnitude
_TIED_COEFFICIENTS = st.sampled_from([0, 0, 1, -1, 1j, -1j, 2, 1 + 1j, 0.5, 3e-9])


@st.composite
def functional_bases(draw):
    """A coefficient matrix over frame(d) of two variables, and its exponents."""
    frame = MonomialFrame.build(2, draw(st.integers(1, 3)))
    k = draw(st.integers(1, min(5, frame.size)))
    coefficients = st.lists(_TIED_COEFFICIENTS, min_size=frame.size, max_size=frame.size)
    if draw(st.booleans()):
        # subnormal pivots overflow the division on both sides alike
        floats = st.floats(-2, 2, allow_subnormal=False)
        coefficients = st.lists(
            st.builds(complex, floats, floats), min_size=frame.size, max_size=frame.size
        )
    columns = draw(st.lists(coefficients, min_size=k, max_size=k))
    return np.array(columns, dtype=complex).T, frame.exponents


@settings(max_examples=200, deadline=None)
@given(functional_bases(), st.sampled_from([GRLEX, MonomialOrder.weighted((1, 2))]))
def test_initial_support_matches_scan_on_random_bases(basis, order):
    try:
        expected = initial_support_by_scan(*basis, order)
    except DegenerateBasisError:
        with pytest.raises(DegenerateBasisError):
            initial_support_of_elements(*basis, order)
    else:
        assert initial_support_of_elements(*basis, order) == expected


def test_initial_support_pivot_keeps_the_first_of_tied_rows():
    # elements a and b, the first two columns, tie at (1, 0). Pivoting on a
    # leaves z with 1.2e-8 at (0, 1), above tol, so all three exponents lead.
    # Pivoting on b would leave 0.9e-8 and 0.75e-8 there, skip (0, 1), and
    # reduce an element to zero at (0, 0).
    exponents = ((0, 0), (0, 1), (1, 0))
    a, b, z = [0, 0, 1], [1, 0.9e-8, 1], [0, 1.2e-8, 0.5]
    C = np.array([a, b, z], dtype=complex).T
    expected = {(1, 0), (0, 1), (0, 0)}
    assert initial_support_by_scan(C, exponents) == expected
    assert initial_support_of_elements(C, exponents) == expected


def test_initial_support_staircase_systems():
    # for an unmixed monomial ideal the initial support is the staircase
    F = parse_system("vars: x y\nx^2;\ny^2;")
    report = dual_space_dz(F, [0, 0])
    assert report.initial_support == {(0, 0), (1, 0), (0, 1), (1, 1)}
