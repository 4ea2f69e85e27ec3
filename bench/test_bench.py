"""Tests of the benchmark itself: its inputs, its tracer and its output."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import dualdeflate
from dualdeflate import dual, dual_space_st, parse_system, solver
from instances import instance_set
from tracer import LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_instance_set_is_fixed():
    a, b = instance_set(), instance_set()
    assert [i.text for i in a] == [i.text for i in b]
    assert len({i.name for i in a}) == len(a)


@pytest.mark.parametrize("inst", instance_set(), ids=lambda i: i.name)
def test_instances_have_the_stated_multiplicity(inst):
    F = parse_system(inst.text)
    assert F.nvars == inst.nvars
    assert sum(len(p.items()) for p in F.polys) == inst.terms
    root = [complex(r) for r in inst.root]
    assert dual_space_st(F, root).multiplicity == inst.mu


def test_tracer_restores_what_it_wraps():
    before = (dual.kernel_basis, solver.least_squares, dualdeflate.poly.Polynomial.__init__)
    tracer = Tracer(dualdeflate)
    tracer.install()
    assert dual.kernel_basis is not before[0]
    tracer.uninstall()
    after = (dual.kernel_basis, solver.least_squares, dualdeflate.poly.Polynomial.__init__)
    assert after == before


def test_tracer_counts_a_dual_operation():
    inst = instance_set()[0]
    F = parse_system(inst.text)
    tracer = Tracer(dualdeflate)
    tracer.install()
    try:
        dual.dual_space_dz(F, [0, 0])
    finally:
        tracer.uninstall()
    values = tracer.take()
    assert values["dual.degrees"] == values["linalg.kernel_basis.calls"] >= 2
    assert 0 < values["dual.self_s"] < values["dual.dual_space_dz.s"]
    assert values["solver.deflation_driver.s"] == 0


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(trace, key):
    result = _run("dual-st", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert set(LAYER_METRICS) <= set(expected)
        assert result["metrics"]["dual.dual_space_st.s"]["value"] > 0
