"""Gauss-Newton refinement and the deflate-until-regular driver, whose
settings (``DriverConfig``) are the five ``solve`` flags."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deflate import (
    DEFAULT_COEFF_TOL,
    AugmentedSystem,
    deflate_first_order,
    deflate_higher_order,
    predict_order,
)
from .errors import (
    AlreadyRegularError,
    InconclusivePredictionError,
    NotARootError,
    OrderTooLowError,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    RankReport,
    _check_unit_interval,
    least_squares,
    numerical_rank,
)
from .poly import PolySystem, _as_vector


@dataclass(frozen=True)
class NewtonOptions:
    """Settings for the least-squares Newton iteration (see gauss_newton)."""

    tol_step: float = 1e-14
    max_iters: int = 60

    def __post_init__(self):
        _check_unit_interval(tol_step=self.tol_step)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class NewtonTrace:
    iterates: tuple[np.ndarray, ...]
    residual_norms: tuple[float, ...]
    step_norms: tuple[float, ...]
    converged: bool

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def gauss_newton(
    F: PolySystem, x0: Sequence[complex], opts: NewtonOptions = NewtonOptions()
) -> NewtonTrace:
    """Least-squares Newton iteration x += argmin ||J dx + F(x)||.

    Convergence is judged by the step size only. Near a multiple root the
    residual of a degree-k equation scales like the k-th power of the
    distance to the root, so any residual threshold is met long before the
    point itself is accurate; the step size has no such blind spot.
    """
    x = _as_vector(x0, F.nvars).copy()
    r = F.evaluate(x)
    iterates = [x.copy()]
    residuals = [float(np.linalg.norm(r))]
    steps = [0.0]
    converged = False
    for _ in range(opts.max_iters):
        # r = F(x), kept from the accepted trial: each point is evaluated once
        J = F.jacobian_at(x)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
            raise ValueError("non-finite evaluation during Newton iteration")
        r_norm = residuals[-1]
        if r_norm == 0.0:
            converged = True
            break
        dx = least_squares(J, -r)
        threshold = opts.tol_step * max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(dx)) <= threshold:
            # a vanishing correction is convergence regardless of whether it
            # nudges the residual
            x = x + dx
            iterates.append(x.copy())
            residuals.append(float(np.linalg.norm(F.evaluate(x))))
            steps.append(float(np.linalg.norm(dx)))
            converged = True
            break
        # Accept only steps that reduce the residual, backtracking by
        # halving. At a singular root the least-squares solve amplifies
        # roundoff in a ~1e-16 residual through near-zero singular values
        # into an O(1e-3) step; without this guard the iterate walks away
        # from a root it has already found.
        scale = 1.0
        while scale >= 2.0 ** -16:
            trial = x + scale * dx
            r_trial = F.evaluate(trial)
            trial_norm = float(np.linalg.norm(r_trial))
            if trial_norm < r_norm:
                break
            scale *= 0.5
        else:
            break
        x, r = trial, r_trial
        iterates.append(x.copy())
        residuals.append(trial_norm)
        steps.append(float(np.linalg.norm(scale * dx)))
        if steps[-1] <= opts.tol_step * max(1.0, float(np.linalg.norm(x))):
            converged = True
            break
    return NewtonTrace(tuple(iterates), tuple(residuals), tuple(steps), converged)


def is_regular(
    F: PolySystem, x: Sequence[complex], tol_rank: float = DEFAULT_RANK_TOL
) -> tuple[bool, RankReport]:
    """Whether the Jacobian at x has full column rank."""
    _check_unit_interval(tol_rank=tol_rank)
    report = numerical_rank(F.jacobian_at(x), tol_rank, scale=F.jacobian_scale())
    return report.corank == 0, report


def refine(
    F: PolySystem, x0: Sequence[complex], tol_rank: float
) -> tuple[NewtonTrace, float]:
    """Gauss-Newton from x0, and the rank tolerance its final point supports.

    A rank decision at a point known only to accuracy e cannot trust
    singular values below ~e times the Jacobian scale (roots away from the
    origin stall at the cancellation-noise floor ~sqrt(eps)), so tol_rank is
    widened to 10 times the last Newton step, and capped at 1e-2; a stalled
    iteration (no step satisfied the step criterion) is assumed to be no
    better than the double-precision floor ~1e-8 however small its last
    accepted step was.
    """
    _check_unit_interval(tol_rank=tol_rank)
    trace = gauss_newton(F, x0)
    stall_floor = 0.0 if trace.converged else 1e-8
    step = max(trace.step_norms[-1], stall_floor)
    return trace, min(max(tol_rank, 10.0 * step), 1e-2)


# the largest relative residual at which the driver accepts a start point
ROOT_TOL = 1e-4


@dataclass(frozen=True)
class DriverConfig:
    order_policy: str | int = "auto"  # "auto", "first", or a fixed integer order
    tol_rank: float = DEFAULT_RANK_TOL
    tol_coeff: float = DEFAULT_COEFF_TOL
    max_stages: int = 10
    seed: int = 0

    def __post_init__(self):
        if type(self.order_policy) is int:  # a bool is not an order
            if self.order_policy < 1:
                raise ValueError("fixed deflation order must be >= 1")
        elif self.order_policy not in ("auto", "first"):
            raise ValueError(f"unknown order policy {self.order_policy!r}")
        _check_unit_interval(tol_rank=self.tol_rank, tol_coeff=self.tol_coeff)
        if self.max_stages < 0:
            raise ValueError(f"max_stages must be >= 0, got {self.max_stages}")


@dataclass(frozen=True)
class DriverResult:
    stages: tuple[AugmentedSystem, ...]
    per_stage_rank: tuple[RankReport, ...]  # one per Newton run, the last decides
    traces: tuple[NewtonTrace, ...]
    final_system: PolySystem

    @property
    def extended_point(self) -> np.ndarray:
        """The original variables, then each stage's multipliers."""
        return self.traces[-1].final

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def refined_point(self) -> np.ndarray:
        """The extended point in the original variables only."""
        added = sum(s.multiplier_count for s in self.stages)
        return self.extended_point[: len(self.extended_point) - added]

    @property
    def final_regular(self) -> bool:
        return self.per_stage_rank[-1].corank == 0


def deflation_driver(
    F: PolySystem,
    x0: Sequence[complex],
    config: DriverConfig = DriverConfig(),
) -> DriverResult:
    """Deflate until the root is regular, refining with Gauss-Newton throughout.

    Each stage refines the current point, checks regularity, and if singular
    appends one deflation (order chosen by the configured policy) and extends
    the point with the least-squares multiplier estimate. When a stage fails
    to reduce the corank the order is escalated by one instead of aborting;
    an order the builder rejects as too low is retried one higher at the same
    point and tolerance, and the fourth rejection in a run ends it.
    """
    x = _as_vector(x0, F.nvars)
    residual = F.residual(x)
    if not residual <= ROOT_TOL:  # also true for a NaN residual
        raise NotARootError(f"relative residual {residual:.3e} exceeds {ROOT_TOL:.1e}")
    rng = np.random.default_rng(config.seed)

    current: PolySystem = F
    point = x.copy()
    stages: list[AugmentedSystem] = []
    ranks: list[RankReport] = []
    traces: list[NewtonTrace] = []
    prev_corank: int | None = None
    escalate = 0
    rejections = 0

    while True:
        trace, tol_eff = refine(current, point, config.tol_rank)
        traces.append(trace)
        point = trace.final
        regular, report = is_regular(current, point, tol_eff)
        ranks.append(report)
        if regular or len(stages) >= config.max_stages:
            break
        # Corank counts are only comparable within the growing tower loosely:
        # a strict increase signals a failed stage and escalates the order.
        if (
            prev_corank is not None
            and report.corank > prev_corank
            and config.order_policy != "first"
        ):
            escalate += 1
        prev_corank = report.corank

        d = _choose_order(current, point, config, rng, tol_eff)
        if config.order_policy != "first":
            d += escalate
        while rejections < 4:
            try:
                if d <= 1:
                    aug = deflate_first_order(current, point, tol_eff, rng)
                else:
                    aug = deflate_higher_order(current, d, point, tol_eff, rng)
                break
            except OrderTooLowError:
                rejections += 1
                escalate += 1
                d += 1
        else:
            break
        stages.append(aug)
        point = aug.extend_point(point)
        current = aug.system

    return DriverResult(tuple(stages), tuple(ranks), tuple(traces), current)


def _choose_order(
    system: PolySystem, point: np.ndarray, config: DriverConfig, rng, tol_rank: float
) -> int:
    if config.order_policy == "first":
        return 1
    if isinstance(config.order_policy, int):
        return config.order_policy
    try:
        return predict_order(
            system, point, tol_rank, config.tol_coeff, rng
        ).d
    except (InconclusivePredictionError, AlreadyRegularError):
        warnings.warn(
            "order prediction inconclusive; falling back to first-order deflation",
            RuntimeWarning,
        )
        return 1
