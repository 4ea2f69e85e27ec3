"""Per-layer spans and counts, recorded by wrapping the program's functions.

Nothing under ``src/`` is edited: while a :class:`Tracer` is installed, the
public functions of each module are replaced, in every module namespace that
calls them, by wrappers that time the call and update counters. ``solver``
and ``deflate`` import ``least_squares``, ``numerical_rank`` and friends by
name, so those bindings are wrapped where they are looked up, not only in
``linalg``. Spans close in ``finally``, so when an operation is stopped by
the time limit its time lands in the layer that was running.

A span's busy time counts only its outermost call, so recursion is not
counted twice. A layer's self time is the operation span's duration minus
the time covered by the spans it directly contains.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

# Per-layer metrics, in the order they are reported, with their units. The
# ``.s`` entries are busy seconds, the ``.calls`` entries call counts.
LAYER_METRICS = {
    "parsing.parse_system.s": "s",
    "parsing.terms": "count",
    "poly.PolySystem.evaluate.calls": "count",
    "poly.PolySystem.evaluate.s": "s",
    "poly.PolySystem.jacobian_at.calls": "count",
    "poly.PolySystem.jacobian_at.s": "s",
    "poly.PolySystem.jacobian_scale.s": "s",
    "poly.Polynomial.shift.s": "s",
    "poly.Polynomial.init.count": "count",
    "dual.dual_space_dz.s": "s",
    "dual.dual_space_st.s": "s",
    "dual.self_s": "s",
    "dual.degrees": "count",
    "dual.initial_support_of_elements.s": "s",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.s": "s",
    "linalg.prune_rows.calls": "count",
    "linalg.prune_rows.s": "s",
    "linalg.cells": "count",
    "linalg.numerical_rank.calls": "count",
    "linalg.numerical_rank.s": "s",
    "linalg.least_squares.calls": "count",
    "linalg.least_squares.s": "s",
    "deflate.predict_order.calls": "count",
    "deflate.predict_order.s": "s",
    "deflate.deflate_first_order.calls": "count",
    "deflate.deflate_first_order.s": "s",
    "deflate.deflate_higher_order.calls": "count",
    "deflate.deflate_higher_order.s": "s",
    "deflate.deflation_matrix.s": "s",
    "deflate.final_nvars": "count",
    "deflate.final_terms": "count",
    "solver.deflation_driver.s": "s",
    "solver.self_s": "s",
    "solver.gauss_newton.calls": "count",
    "solver.gauss_newton.s": "s",
    "solver.newton_iters": "count",
    "solver.is_regular.s": "s",
    "solver.stages": "count",
}


def _system_terms(F) -> int:
    return sum(len(p.items()) for p in F.polys)


class Tracer:
    """Install wrappers with :meth:`install`, remove them with :meth:`uninstall`."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [start, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, float]:
        """The values recorded since the last call, and reset them."""
        out = {name: self.values.get(name, 0.0) for name in LAYER_METRICS}
        self.values.clear()
        return out

    # -- spans ---------------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Callable | None = None,
        on_result: Callable | None = None,
        on_exit: Callable | None = None,
        self_key: str | None = None,
    ) -> Callable:
        values, stack, depth = self.values, self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[name + ".calls"] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                depth[name] -= 1
                if depth[name] == 0:
                    values[name + ".s"] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if self_key is not None:
                    values[self_key] += elapsed - frame[1]
                if on_exit is not None:
                    on_exit()

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.pkg
        dual, deflate, linalg, parsing, poly, solver = (
            pkg.dual, pkg.deflate, pkg.linalg, pkg.parsing, pkg.poly, pkg.solver
        )
        values = self.values

        def count_terms(F):
            values["parsing.terms"] += _system_terms(F)

        def count_cells(M, *args, **kwargs):
            shape = getattr(M, "shape", ())
            if len(shape) == 2:
                values["linalg.cells"] += shape[0] * shape[1]

        def count_degree(M, *args, **kwargs):
            values["dual.degrees"] += 1
            count_cells(M)

        def count_iters(trace):
            values["solver.newton_iters"] += len(trace.iterates) - 1

        # the system a driver run ends with, or had built when it was stopped
        last_system = []

        def start_driver(F, *args, **kwargs):
            last_system[:] = [F]

        def count_stage(aug):
            values["solver.stages"] += 1
            last_system[:] = [aug.system]

        def finish_driver():
            values["deflate.final_nvars"] += last_system[0].nvars
            values["deflate.final_terms"] += _system_terms(last_system[0])

        self._patch(parsing, "parse_system", self._wrap(
            parsing.parse_system, "parsing.parse_system", on_result=count_terms))

        for attr in ("evaluate", "jacobian_at", "jacobian_scale"):
            self._patch(poly.PolySystem, attr, self._wrap(
                getattr(poly.PolySystem, attr), f"poly.PolySystem.{attr}"))
        self._patch(poly.Polynomial, "shift", self._wrap(
            poly.Polynomial.shift, "poly.Polynomial.shift"))
        init = poly.Polynomial.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            values["poly.Polynomial.init.count"] += 1
            init(obj, *args, **kwargs)

        self._patch(poly.Polynomial, "__init__", counting_init)

        for attr in ("dual_space_dz", "dual_space_st"):
            self._patch(dual, attr, self._wrap(
                getattr(dual, attr), f"dual.{attr}", self_key="dual.self_s"))
        self._patch(dual, "initial_support_of_elements", self._wrap(
            dual.initial_support_of_elements, "dual.initial_support_of_elements"))
        self._patch(dual, "kernel_basis", self._wrap(
            linalg.kernel_basis, "linalg.kernel_basis", on_call=count_degree))
        self._patch(dual, "prune_rows", self._wrap(
            linalg.prune_rows, "linalg.prune_rows", on_call=count_cells))

        self._patch(deflate, "kernel_basis", self._wrap(
            linalg.kernel_basis, "linalg.kernel_basis", on_call=count_cells))
        for owner in (deflate, solver):
            for attr in ("numerical_rank", "least_squares"):
                self._patch(owner, attr, self._wrap(getattr(linalg, attr), f"linalg.{attr}"))
        self._patch(deflate, "deflation_matrix", self._wrap(
            deflate.deflation_matrix, "deflate.deflation_matrix"))

        self._patch(solver, "predict_order", self._wrap(
            deflate.predict_order, "deflate.predict_order"))
        for attr in ("deflate_first_order", "deflate_higher_order"):
            self._patch(solver, attr, self._wrap(
                getattr(deflate, attr), f"deflate.{attr}", on_result=count_stage))
        self._patch(solver, "gauss_newton", self._wrap(
            solver.gauss_newton, "solver.gauss_newton", on_result=count_iters))
        self._patch(solver, "is_regular", self._wrap(
            solver.is_regular, "solver.is_regular"))
        self._patch(solver, "deflation_driver", self._wrap(
            solver.deflation_driver, "solver.deflation_driver",
            on_call=start_driver, on_exit=finish_driver, self_key="solver.self_s"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self._depth.clear()
