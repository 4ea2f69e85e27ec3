"""Gauss-Newton refinement and the deflate-until-regular driver."""

import dataclasses
import inspect

import numpy as np
import pytest

from dualdeflate import (
    DriverConfig,
    PolySystem,
    deflation_driver,
    gauss_newton,
    is_regular,
    parse_system,
)
from dualdeflate import linalg, solver
from dualdeflate.errors import NotARootError, OrderTooLowError

from corpus import CORPUS, EX2, LEC02, SEC61


def test_newton_options_validation():
    F = parse_system("vars: x\nx - 1;")
    for options in (
        {"tol_step": 0.0}, {"tol_step": 1.0}, {"tol_step": float("nan")}, {"max_iters": 0}
    ):
        with pytest.raises(ValueError):
            gauss_newton(F, [0.9], **options)
    with pytest.raises(ValueError):
        DriverConfig(order_policy="sometimes")
    with pytest.raises(ValueError):
        DriverConfig(order_policy=0)


@pytest.mark.parametrize(
    "setting",
    [
        {"tol_rank": -1.0}, {"tol_rank": 1.0}, {"tol_coeff": -1.0}, {"tol_coeff": 0.0},
        {"max_stages": -1}, {"order_policy": True}, {"order_policy": "first"},
    ],
    ids=str,
)
def test_driver_config_rejects_out_of_range_settings(setting):
    with pytest.raises(ValueError):
        DriverConfig(**setting)
    DriverConfig(max_stages=0)  # the edge that stays valid


def test_settings_are_the_ones_callers_set():
    # the CLI's five solve flags; Newton's rank cut is the driver's per stage
    assert [f.name for f in dataclasses.fields(DriverConfig)] == [
        "order_policy", "tol_rank", "tol_coeff", "max_stages", "seed",
    ]
    assert list(inspect.signature(gauss_newton).parameters) == [
        "F", "x0", "tol_step", "max_iters",
    ]


def test_newton_regular_root_quadratic():
    F = parse_system("vars: x\nx - 1;")
    trace = gauss_newton(F, [0.9])
    assert trace.converged
    assert len(trace.iterates) - 1 <= 3
    assert trace.residual_norms[-1] < 1e-14
    assert len(trace.iterates) == len(trace.residual_norms) == len(trace.step_norms)


def test_newton_double_root_linear_rate():
    F = parse_system("vars: x\nx^2;")
    trace = gauss_newton(F, [1e-3], max_iters=20)
    assert not trace.converged  # the step still exceeds tol_step after 20 halvings
    ratios = [
        b / a for a, b in zip(trace.step_norms[1:-1], trace.step_norms[2:])
    ]
    assert all(abs(r - 0.5) < 0.05 for r in ratios[2:])
    assert abs(trace.final[0]) > 1e-14


def test_newton_does_not_stop_on_tiny_residual_far_from_root():
    # residual of cubics at distance 1e-4 is ~1e-12; iteration must continue
    F = SEC61.system
    trace = gauss_newton(F, [1e-4, -1e-4], max_iters=30)
    assert len(trace.iterates) > 5
    assert abs(trace.final[0]) < 1e-5


def test_newton_evaluates_each_point_once(monkeypatch):
    # the residual of an accepted trial point is reused, not recomputed
    seen = []
    evaluate = PolySystem.evaluate

    def recording(self, pt):
        seen.append(np.asarray(pt, dtype=complex).tobytes())
        return evaluate(self, pt)

    monkeypatch.setattr(PolySystem, "evaluate", recording)
    trace = gauss_newton(SEC61.system, [1e-3, -2e-3], max_iters=30)
    assert len(trace.iterates) > 5
    assert len(seen) == len(set(seen))


def test_newton_overdetermined_consistent():
    F = parse_system("vars: x\nx - 1;\n2*x - 2;")
    trace = gauss_newton(F, [1.4])
    assert trace.converged
    assert abs(trace.final[0] - 1) < 1e-12


def test_is_regular():
    F = parse_system("vars: x\nx;")
    ok, report = is_regular(F, [0.0])
    assert ok and report.rank == 1
    ok, report = is_regular(SEC61.system, [0.0, 0.0])
    assert not ok
    assert report.rank == 0 and report.corank == 2
    # uniformly tiny Jacobian near a singular root must not read as regular
    ok, _ = is_regular(SEC61.system, [1e-6, 1e-6])
    assert not ok


@pytest.mark.parametrize("tol", [5.0, -1.0, 0.0, 1.0, float("nan")])
def test_is_regular_rejects_tolerance_outside_unit_interval(tol):
    # at this regular root 5.0 used to read singular and -1.0 regular
    F = parse_system("vars: x y\nx^2 + y - 1;\nx - y;")
    root = [(np.sqrt(5) - 1) / 2] * 2
    assert is_regular(F, root)[0]
    with pytest.raises(ValueError, match="tol_rank"):
        is_regular(F, root, tol)
    with pytest.raises(ValueError, match="tol_rank"):
        solver.refine(F, root, tol)


@pytest.mark.parametrize("order_policy", ["auto", 1])
def test_each_stage_factors_its_jacobian_once(monkeypatch, order_policy):
    # regularity, order prediction and the builder read one rank decision
    shapes = []
    factor = linalg._factor

    def recording(M, tol, scale):
        shapes.append(np.shape(M))
        return factor(M, tol, scale)

    monkeypatch.setattr(linalg, "_factor", recording)
    start = EX2.root + 1e-6 * (1 + 1j) / np.sqrt(2)
    config = DriverConfig(order_policy=order_policy)
    result = deflation_driver(EX2.system, start, config)
    assert result.final_regular and result.stage_count == 1
    assert shapes.count((3, 2)) == 1
    assert len(shapes) == len(set(shapes)) == 2


@pytest.mark.filterwarnings("ignore:order prediction inconclusive")
def test_driver_rejects_a_regular_end_that_is_not_a_root():
    # from 1e-6 off, seed 0 deflates to a regular point ~0.09 from the root
    start = LEC02.root + 1e-6 * (1 + 1j) / np.sqrt(2)
    message = r"after 3 stage\(s\) at relative residual 8\.\d+e-02"
    with pytest.raises(NotARootError, match=message):
        deflation_driver(LEC02.system, start, DriverConfig(seed=0))


def test_driver_rejects_non_roots():
    with pytest.raises(NotARootError):
        deflation_driver(EX2.system, [0.5, 0.5])


@pytest.mark.parametrize("start", [[np.nan, 0.0], [0.0, complex(0.0, np.nan)]])
def test_driver_rejects_nan_start(start):
    with pytest.raises(NotARootError):
        deflation_driver(EX2.system, start)


def test_driver_double_root():
    F = parse_system("vars: x\nx^2;")
    result = deflation_driver(F, [1e-3])
    assert result.final_regular
    assert result.stage_count == 1
    assert abs(result.refined_point[0]) < 1e-12
    assert result.per_stage_rank[-1].corank == 0


@pytest.mark.parametrize(
    "name",
    [
        "ex2-three-eqs-two-vars",
        "second-order-matrix-example",
        "stair-x2-y2",
        "stair-x2-xy-y3",
        "stair-x2-y2-z2",
    ],
)
def test_driver_regularizes_perturbed_starts(name):
    entry = next(e for e in CORPUS if e.name == name)
    rng = np.random.default_rng(17)
    start = entry.root + 1e-6 * (
        rng.standard_normal(len(entry.root))
        + 1j * rng.standard_normal(len(entry.root))
    )
    result = deflation_driver(
        entry.system,
        start,
        DriverConfig(seed=5, max_stages=max(entry.multiplicity - 1, 1)),
    )
    assert result.final_regular
    assert result.stage_count <= max(entry.multiplicity - 1, 1)
    assert np.linalg.norm(entry.system.evaluate(result.refined_point)) < 1e-10
    assert np.linalg.norm(result.refined_point - entry.root) < 1e-8
    # the extended point is the last Newton point, and projects back onto
    # the original variables
    assert result.extended_point is result.traces[-1].final
    assert np.allclose(
        result.extended_point[: len(entry.root)], result.refined_point
    )


def test_driver_fixed_order_policy():
    result = deflation_driver(
        SEC61.system, [0.0, 0.0], DriverConfig(order_policy=2, seed=1)
    )
    assert result.final_regular
    assert result.stage_count == 1
    assert result.stages[0].order == 2


# <x^3, y^3, z^2> moved to (-1, 1, -1) and mixed: the bench staircase
# stair-x1^3-x2^3-x3^2, whose corank goes from 3 to 4 after one order-2 stage
STAIR_332 = (
    "vars: x1 x2 x3\n"
    "x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3;\n"
    "-2*x1^3 - 3*x1^2*x2 - 3*x1*x2^2 - x2^3 - 3*x1^2 - 3*x1 - 1;\n"
    "x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3 + x2^2 + 2*x2*x3 + x3^2;\n"
)


def test_fixed_order_is_not_raised_after_a_corank_increase(monkeypatch):
    orders = []
    build = solver.deflate_higher_order

    def order_two_only(F, d, x0, jacobian, rng):
        orders.append(d)
        if d != 2:
            raise AssertionError(f"order {d} asked for under order_policy=2")
        return build(F, d, x0, jacobian, rng)

    monkeypatch.setattr(solver, "deflate_higher_order", order_two_only)
    root = np.array([-1.0, 1.0, -1.0])
    result = deflation_driver(
        parse_system(STAIR_332),
        root + 1e-6 * (1 + 1j) / np.sqrt(2),
        DriverConfig(order_policy=2, seed=12, max_stages=2),
    )
    assert orders == [2, 2]
    assert [r.corank for r in result.per_stage_rank] == [3, 4, 0]
    assert result.final_regular
    assert np.linalg.norm(result.refined_point - root) < 1e-8


def test_driver_stage_cap_reported_as_failure():
    # force a cap below what the root needs: two first-order stages required
    result = deflation_driver(
        SEC61.system,
        [0.0, 0.0],
        DriverConfig(order_policy=1, seed=1, max_stages=1),
    )
    assert not result.final_regular
    assert result.stage_count == 1
    assert result.per_stage_rank[-1].corank > 0
    free = deflation_driver(
        SEC61.system, [0.0, 0.0], DriverConfig(order_policy=1, seed=1)
    )
    assert free.stage_count == 2
    assert free.final_regular


def test_driver_retries_a_rejected_order_at_the_same_point(monkeypatch):
    # the builder rejects the first order once; the retry is one order up at
    # the same point and rank decision, with no second Newton run for the stage
    calls = []
    build = solver.deflate_higher_order

    def reject_once(F, d, x0, jacobian, rng):
        calls.append((d, np.array(x0), jacobian))
        if len(calls) == 1:
            raise OrderTooLowError("rejected for the test")
        return build(F, d, x0, jacobian, rng)

    monkeypatch.setattr(solver, "deflate_higher_order", reject_once)
    start = SEC61.root + 1e-6 * (1 + 1j) / np.sqrt(2)
    result = deflation_driver(
        SEC61.system, start, DriverConfig(seed=1, order_policy=2)
    )
    assert [d for d, _, _ in calls] == [2, 3]
    assert np.array_equal(calls[0][1], calls[1][1])
    assert calls[0][2] is calls[1][2]
    assert result.stage_count == 1 and result.stages[0].order == 3
    assert len(result.per_stage_rank) == len(result.traces) == 2
    assert result.final_regular


def test_driver_fourth_rejection_ends_the_run(monkeypatch):
    orders = []

    def reject(F, d, x0, jacobian, rng):
        orders.append(d)
        raise OrderTooLowError("rejected for the test")

    monkeypatch.setattr(solver, "deflate_higher_order", reject)
    result = deflation_driver(
        SEC61.system, [0.0, 0.0], DriverConfig(seed=1, order_policy=2)
    )
    assert orders == [2, 3, 4, 5]
    assert result.stage_count == 0 and not result.final_regular
    assert result.extended_point is result.traces[-1].final
    assert len(result.per_stage_rank) == len(result.traces) == 1


def test_driver_falls_back_to_first_order_on_inconclusive_prediction():
    # after the order-2 stage the predicted support is empty: no usable order
    entry = next(e for e in CORPUS if e.name == "stair-x3-y3")
    start = entry.root + 1e-6 * (1 + 1j) / np.sqrt(2)
    with pytest.warns(RuntimeWarning, match="falling back to first-order"):
        result = deflation_driver(
            entry.system, start, DriverConfig(seed=0, max_stages=2)
        )
    assert [s.order for s in result.stages] == [2, 1]
    assert result.stages[1].kind == "first-order-B"


def test_driver_determinism():
    start = np.array([1e-6, -2e-6])
    runs = [
        deflation_driver(EX2.system, start, DriverConfig(seed=42)) for _ in range(2)
    ]
    a, b = runs
    assert a.stage_count == b.stage_count
    assert [len(t.iterates) for t in a.traces] == [len(t.iterates) for t in b.traces]
    assert np.array_equal(a.extended_point, b.extended_point)
    for sa, sb in zip(a.stages, b.stages):
        assert sa.kind == sb.kind and sa.order == sb.order
        assert sa.system.polys == sb.system.polys
