"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` from the
repository root to see the per-criterion lines.
"""

import contextlib
import json

import numpy as np
import pytest

from dualdeflate import (
    DriverConfig,
    MonomialFrame,
    MonomialOrder,
    NewtonOptions,
    Polynomial,
    deflate_first_order,
    deflate_higher_order,
    deflate_with_operator,
    deflation_driver,
    deflation_matrix,
    dual_space_dz,
    dual_space_st,
    gauss_newton,
    is_regular,
    kernel_basis,
    numerical_rank,
    predict_order,
)
from dualdeflate.cli import EXIT_OK, main
from dualdeflate.deflate import DeflationOperator

import oracles
from oracles import corank_drop_order, subspace_distance, symbolic_entry
from corpus import A2_EXAMPLE, CORPUS, EX1, EX2, LEC02, SEC61


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({description}): FAIL")
        raise
    print(f"\ncriterion {number} ({description}): PASS")


def span_matrix(functionals, exponents):
    """Coefficient matrix of exponent -> coefficient maps over a fixed
    exponent list, one column per functional."""
    return np.array(
        [[L.get(a, 0j) for L in functionals] for a in exponents],
        dtype=complex,
    )


def basis_functionals(report, nvars):
    """A report's dual basis as exponent -> coefficient maps."""
    frame = MonomialFrame.build(nvars, report.degree)
    return [dict(zip(frame.exponents, v)) for v in report.coefficients.T]


def functional_span_distance(basis_elements, reference_elements):
    exps = sorted(
        {a for L in list(basis_elements) + list(reference_elements) for a in L}
    )
    A = span_matrix(basis_elements, exps)
    B = span_matrix(reference_elements, exps)
    return subspace_distance(A, B)


def test_criterion_1_second_order_matrix_ground_truth():
    with criterion(1, "second-order deflation matrix ground truth"):
        F = A2_EXAMPLE.system
        A = deflation_matrix(F, 2)
        assert A.shape == (9, 5)

        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        # published top three rows, keyed by derivative exponent
        published_top = [
            {(1, 0): 2 * x, (0, 1): 0 * x, (2, 0): x ** 0 * 2,
             (1, 1): 0 * x, (0, 2): 0 * x},
            {(1, 0): 2 * x, (0, 1): -3 * y ** 2, (2, 0): x ** 0 * 2,
             (1, 1): 0 * x, (0, 2): -6 * y},
            {(1, 0): 0 * x, (0, 1): 4 * y ** 3, (2, 0): 0 * x,
             (1, 1): 0 * x, (0, 2): 12 * y ** 2},
        ]
        for j, row in enumerate(published_top):
            assert set(row) == set(A.col_labels)
            for beta, expected in row.items():
                assert symbolic_entry(A, (0, 0), j, beta) == expected

        # every entry against the independent term-by-term oracle
        for (alpha, j), row in zip(A.row_labels, A.entries):
            shifted = oracles.monomial_multiply(dict(F.polys[j].items()), alpha)
            for beta, entry in zip(A.col_labels, row):
                expected = oracles.brute_derivative(shifted, beta)
                assert dict(entry.items()) == expected

        # rows affected by print errata, pinned to the oracle-backed values
        errata = {
            ((1, 0), 1, (1, 0)): 3 * x ** 2 - y ** 3,
            ((1, 0), 1, (1, 1)): -3 * y ** 2,
            ((1, 0), 2, (1, 1)): 4 * y ** 3,
            ((1, 0), 2, (0, 2)): 12 * x * y ** 2,
            ((0, 1), 1, (0, 1)): x ** 2 - 4 * y ** 3,
        }
        for (alpha, j, beta), expected in errata.items():
            assert symbolic_entry(A, alpha, j, beta) == expected


def test_criterion_2_running_example_2_multiplicity():
    with criterion(2, "running example 2: mu = 4, basis span, ST growth"):
        F = EX2.system
        dz = dual_space_dz(F, [0, 0])
        st = dual_space_st(F, [0, 0])
        assert dz.multiplicity == 4
        assert st.multiplicity == 4

        reference = [{(0, 0): 1}, {(1, 0): 1}, {(0, 1): 1}, {(2, 0): 1, (0, 2): 1}]
        for report in (dz, st):
            dist = functional_span_distance(basis_functionals(report, 2), reference)
            assert dist < 1e-8

        # degree-by-degree dimensions: 1 at degree 0, 3 after step 1,
        # 4 at degree 2, and no growth at degree 3
        assert st.per_degree_dims[:2] == (1, 3)
        assert st.per_degree_dims[-2:] == (4, 4)
        assert st.degree <= 3


def test_criterion_3_running_example_1_multiplicity():
    with criterion(3, "running example 1: mu = 10, functionals, initial support"):
        F = EX1.system
        dz = dual_space_dz(F, [0, 0])
        st = dual_space_st(F, [0, 0])
        assert dz.multiplicity == 10
        assert st.multiplicity == 10

        reference = [
            {(4, 0): 1, (3, 1): -1},
            {(3, 0): 1},
            {(2, 1): 1},
            {(1, 2): 1},
            {(2, 0): 1},
            {(1, 1): 1},
            {(0, 2): 1},
            {(1, 0): 1},
            {(0, 1): 1},
            {(0, 0): 1},
        ]
        for report in (dz, st):
            dist = functional_span_distance(basis_functionals(report, 2), reference)
            assert dist < 1e-8

        expected_support = {
            (i, j) for i in range(4) for j in range(4 - i)
        } - {(0, 3)} | {(4, 0)}
        assert len(expected_support) == 10
        order = MonomialOrder.weighted((2, 1))
        weighted = dual_space_dz(F, [0, 0], order=order)
        assert weighted.initial_support == expected_support


def test_criterion_4_first_order_workflow():
    with criterion(4, "two-stage first-order run and order-2 shortcut"):
        F = SEC61.system
        assert dual_space_dz(F, [0, 0]).multiplicity == 7
        assert numerical_rank(F.jacobian_at([0.0, 0.0]), scale=F.jacobian_scale()).rank == 0

        first = deflation_driver(
            F, [0.0, 0.0], DriverConfig(order_policy="first", seed=1)
        )
        assert first.final_regular
        assert first.stage_count == 2
        assert first.per_stage_rank[1].rank == 1

        rng = np.random.default_rng(0)
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        start = 1e-5 * direction / np.linalg.norm(direction)
        pred = predict_order(F, start, 1e-8, 1e-4, np.random.default_rng(0))
        assert pred.d == 2

        auto = deflation_driver(F, start, DriverConfig(order_policy=2, seed=1))
        assert auto.final_regular
        assert auto.stage_count == 1
        assert auto.stages[0].order == 2
        assert float(np.linalg.norm(F.evaluate(auto.refined_point))) < 1e-12


def test_criterion_5_larger_example_operator():
    with criterion(5, "three-variable system: kernel operator regularizes"):
        F = LEC02.system
        root = np.array([0.0, 0.0, -1.0])
        assert dual_space_dz(F, root).multiplicity == 18

        Abar = deflation_matrix(F, 2, top=True)
        assert Abar.shape == (12, 6)
        M = Abar.evaluate(root)
        kern = kernel_basis(M, 1e-8)
        assert kern.shape[1] == 2

        published = {
            (2, 0, 0): (1, 0),
            (1, 1, 0): (6, 3),
            (1, 0, 1): (8, 3),
            (0, 2, 0): (-3, -1),
            (0, 1, 1): (0, 1),
            (0, 0, 2): (4, 2),
        }
        reference = np.array(
            [published[b] for b in Abar.col_labels], dtype=complex
        )
        assert subspace_distance(kern, reference) < 1e-6

        Q = DeflationOperator(
            {(2, 0, 0): 1, (1, 1, 0): 6, (1, 0, 1): 8, (0, 2, 0): -3, (0, 0, 2): 4}
        )
        aug = deflate_with_operator(F, Q)
        A = deflation_matrix(F, 2)
        N = F.nequations
        x1 = Polynomial.variable(3, 0)
        x2 = Polynomial.variable(3, 1)
        x3 = Polynomial.variable(3, 2)
        one = x1 ** 0
        expected = [
            8 * x1 + 24 * x2 + 16 * x3 + 16 * one,
            24 * x1 - 24 * x2,
            32 * x1 + 16 * x3 + 16 * one,
        ]
        # Q applied to x_i f_1: the appended row after F's own equations
        for i, want in enumerate(expected):
            alpha = tuple(1 if k == i else 0 for k in range(3))
            assert aug.system.polys[N + A.row_labels.index((alpha, 0))] == want

        regular, _ = is_regular(aug.system, root)
        assert regular


def test_criterion_6_method_equivalence_suite():
    with criterion(6, "DZ = ST = oracle multiplicity on the corpus"):
        assert len(CORPUS) >= 10
        for entry in CORPUS:
            mu_dz = dual_space_dz(entry.system, entry.root).multiplicity
            mu_st = dual_space_st(entry.system, entry.root).multiplicity
            assert mu_dz == entry.multiplicity, entry.name
            assert mu_st == entry.multiplicity, entry.name


def _unit_exponents(n):
    return [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]


def test_criterion_7_strict_multiplicity_decrease():
    with criterion(7, "every deflation strictly decreases the multiplicity"):
        rng = np.random.default_rng(11)
        for entry in CORPUS:
            F = entry.system
            root = np.asarray(entry.root, dtype=complex)
            before = entry.multiplicity

            # fixed operator from a Jacobian kernel vector, no new variables
            J = F.jacobian_at(root)
            kern = kernel_basis(J, 1e-8, scale=F.jacobian_scale())
            assert kern.shape[1] > 0, entry.name
            Q1 = DeflationOperator(dict(zip(_unit_exponents(F.nvars), kern[:, 0])))
            fixed = deflate_with_operator(F, Q1)
            mu_fixed = dual_space_dz(fixed.system, root).multiplicity
            assert mu_fixed < before, entry.name

            # first-order deflation with multiplier variables
            aug1 = deflate_first_order(F, root, 1e-8, rng)
            mu_first = dual_space_dz(
                aug1.system, aug1.extend_point(root)
            ).multiplicity
            assert mu_first < before, entry.name

            # higher-order deflation at the predicted order
            d = corank_drop_order(F, root, 1e-8)
            if d >= 2:
                aug_d = deflate_higher_order(F, d, root, 1e-8, rng)
            else:
                aug_d = deflate_first_order(F, root, 1e-8, rng)
            mu_high = dual_space_dz(
                aug_d.system, aug_d.extend_point(root)
            ).multiplicity
            assert mu_high < before, entry.name


LEC02_Q = DeflationOperator(
    {(2, 0, 0): 1, (1, 1, 0): 6, (1, 0, 1): 8, (0, 2, 0): -3, (0, 0, 2): 4}
)


def deflated_regular_system(entry):
    """A deflated system regular at the root, plus the extended root."""
    F = entry.system
    root = np.asarray(entry.root, dtype=complex)
    if F.nvars == 3 and entry.multiplicity == 18:
        # the indeterminate tower grows very large here; the known
        # second-order operator regularizes without new variables
        aug = deflate_with_operator(F, LEC02_Q)
        return aug.system, root
    result = deflation_driver(
        F, root, DriverConfig(seed=3, max_stages=max(entry.multiplicity - 1, 1))
    )
    assert result.final_regular, entry.name
    return result.final_system, result.extended_point


def test_criterion_8_convergence_rates():
    with criterion(8, "linear Newton tail before, quadratic after deflation"):
        rng = np.random.default_rng(19)
        for entry in CORPUS:
            F = entry.system
            root = np.asarray(entry.root, dtype=complex)
            n = F.nvars

            # plain Newton: a stretch of >= 5 steps shrinking by an almost
            # constant factor < 1 (before the roundoff floor takes over)
            direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            found_linear_tail = False
            for offset in (1e-3, 1e-2):
                trace = gauss_newton(
                    F, root + offset * direction, NewtonOptions(max_iters=60)
                )
                steps = [s for s in trace.step_norms[1:] if s > 1e-9]
                ratios = [b / a for a, b in zip(steps, steps[1:])]
                for k in range(len(ratios) - 4):
                    window = ratios[k : k + 5]
                    med = float(np.median(window))
                    if med < 0.97 and all(abs(r - med) < 0.05 for r in window):
                        found_linear_tail = True
                        break
                if found_linear_tail:
                    break
            assert found_linear_tail, entry.name

            # deflated system: error vs a high-accuracy reference is quadratic
            G, extended = deflated_regular_system(entry)
            ref = gauss_newton(
                G, extended, NewtonOptions(tol_step=1e-15, max_iters=80)
            ).final

            m = G.nvars
            dirz = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            dirz /= np.linalg.norm(dirz)
            trace = gauss_newton(G, ref + 1e-3 * dirz, NewtonOptions(max_iters=30))
            errors = [float(np.linalg.norm(z - ref)) for z in trace.iterates]
            assert min(errors) < 1e-12, entry.name
            pairs = [
                (a, b)
                for a, b in zip(errors, errors[1:])
                if 1e-7 < a < 1e-2 and b > 1e-13
            ]
            assert pairs, entry.name
            assert all(b <= 100.0 * a * a for a, b in pairs), entry.name


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "identical seeds give byte-identical reports"):
        system = tmp_path / "system.txt"
        point = tmp_path / "point.txt"
        system.write_text(
            "vars: x1 x2\n"
            "x1^3 + x1*x2^2;\n"
            "x1*x2^2 + x2^3;\n"
            "x1^2*x2 + x1*x2^2;\n"
        )
        point.write_text("x1 = 1e-6\nx2 = -1e-6\n")
        argv = [
            "solve",
            str(system),
            str(point),
            "--seed",
            "7",
            "--format",
            "json",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            del report["timings"]
            outputs.append(
                json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
            )
        assert outputs[0] == outputs[1]
