"""The dualdeflate benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dual-dz --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one operation at a time):

* ``dual-dz``: ``dual_space_dz(F, root)``; correct when the multiplicity is
  the known one. Matrix assembly in ``dual`` and the SVD in ``linalg`` do
  the work.
* ``dual-st``: ``dual_space_st(F, root)`` on the same instances with the same
  check. The same layers used differently: sigma-block products and the
  ``prune_rows`` SVD dominate, assembly is small.
* ``solve``: ``deflation_driver(F, root + 1e-6(1+i)/sqrt(2))``; correct when
  the result is regular and within ``SOLVE_TOL`` of the root. Evaluation and
  Jacobians in ``poly``, building deflated systems in ``deflate`` and the
  Newton work in ``solver`` do the work.

A run measures set-up in fresh processes, then makes passes over the
instances, each pass in an order drawn from ``--seed``, until ``--seconds``
have passed and at least ``MIN_OPS`` operations are counted. An operation
fails if it raises, gives a wrong answer or runs past ``LIMIT_S``. The
instances and the driver's seeds do not depend on ``--seed``: which solves
hang depends on them (see :mod:`instances`).

The first pass runs in a probe process. An instance that times out there is
counted as a timeout in every pass and not run again, so timeouts cost their
limit once per run, and what a cut-off operation leaves in memory does not
reach the measuring process, whose peak memory is reported.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` passes alternate between traced and untraced, and the last
line carries the per-layer metrics of :mod:`tracer` for one pass, plus the
tracing overhead. The line before it is a report: environment, instance
manifest (name, variables, multiplicity, terms, text hash, outcome) and
every failure with its kind.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, here and in the child processes.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from instances import instance_set  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("dual-dz", "dual-st", "solve")
# Per-operation limit. Successful operations take under 0.6 s on every
# workload; the driver's hangs run for more than 20 s (on the multiplicity-18
# system for minutes), so no operation is near the limit.
LIMIT_S = 5.0
MIN_OPS = 100
SETUP_SAMPLES = 7
# Distance of the refined point from the root for a correct solve. The
# driver reaches 1e-13 or better on every instance it solves.
SOLVE_TOL = 1e-8
START_OFFSET = 1e-6 * (1 + 1j) / 2**0.5
SKIPPED = "timeout (repeat skipped)"

SETUP_CHILD = """
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
import dualdeflate
for text in texts:
    dualdeflate.parse_system(text)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class OperationTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler swallows it."""


def _on_alarm(signum, frame):
    raise OperationTimeout


def load_program():
    """Import dualdeflate from the checkout's sources; returns it and numpy."""
    if not (SRC / "dualdeflate" / "__init__.py").is_file():
        raise SystemExit(f"no dualdeflate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dualdeflate as pkg
    import dualdeflate.deflate  # noqa: F401  (the modules the tracer patches)
    import dualdeflate.dual  # noqa: F401
    import dualdeflate.linalg  # noqa: F401
    import dualdeflate.parsing  # noqa: F401
    import dualdeflate.poly  # noqa: F401
    import dualdeflate.solver  # noqa: F401

    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, _on_alarm)
    return pkg, np


def measure_setup(texts: list[str]) -> list[float]:
    """Seconds to import dualdeflate and parse every text, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def make_operation(workload: str, pkg, np):
    """A function (system, instance, instance index) -> None or a failure kind.

    The driver's seed is the instance's index, the same in every run: with
    it drawn per run, the time of one solve varied by up to 1.7x from draw
    to draw, and the multiplicity-18 system ran past 40 s on some draws and
    stopped at a wrong point after 25 s on another.
    """

    def root_of(inst):
        return np.array([complex(r) for r in inst.root])

    if workload in ("dual-dz", "dual-st"):
        attr = "dual_space_dz" if workload == "dual-dz" else "dual_space_st"

        def op(F, inst, index):
            report = getattr(pkg.dual, attr)(F, root_of(inst))
            if report.multiplicity != inst.mu:
                return f"wrong: multiplicity {report.multiplicity} != {inst.mu}"
            return None

        return op

    def op(F, inst, index):
        root = root_of(inst)
        config = pkg.solver.DriverConfig(seed=index)
        result = pkg.solver.deflation_driver(F, root + START_OFFSET, config)
        error = float(np.linalg.norm(result.refined_point - root))
        if not result.final_regular:
            return "wrong: final system not regular"
        if not error <= SOLVE_TOL:
            return f"wrong: refined point {error:.3e} from the root"
        return None

    return op


class Runner:
    """The parsed instances of one workload, and one operation at a time on them."""

    def __init__(self, workload: str, trace: bool):
        self.instances = instance_set()
        self.pkg, self.np = load_program()
        self.tracer = Tracer(self.pkg)
        if trace:
            self.tracer.install()
        try:
            self.systems = [self.pkg.parsing.parse_system(i.text) for i in self.instances]
        finally:
            self.tracer.uninstall()
        self.parse_values = self.tracer.take()
        self.op = make_operation(workload, self.pkg, self.np)

    def run(self, i: int, traced: bool) -> tuple[float, str | None, dict | None]:
        """Wall seconds, failure kind (None if correct) and traced values."""
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                failure = self.op(self.systems[i], self.instances[i], i)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OperationTimeout:
            failure = "timeout"
        except Exception as exc:  # any exception is a failed operation, reported by kind
            failure = f"exception: {type(exc).__name__}: {exc}"[:200]
        finally:
            elapsed = time.perf_counter() - t0
            self.tracer.uninstall()
        gc.collect()  # garbage of one operation is not collected in the next
        return elapsed, failure, self.tracer.take() if traced else None


def probe(args) -> None:
    """Print the first pass, run in this process in instance order."""
    runner = Runner(args.workload, bool(args.trace))
    print(json.dumps([runner.run(i, bool(args.trace)) for i in range(len(runner.instances))]))


def run_probe(args) -> list:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", str(args.trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    runner = Runner(args.workload, bool(args.trace))
    instances = runner.instances
    n = len(instances)
    setup_samples = measure_setup([i.text for i in instances])

    # per instance: untraced times, traced times, traced layer values
    times: list[list[float]] = [[] for _ in instances]
    traced_times: list[list[float]] = [[] for _ in instances]
    layer_values: list[list[dict]] = [[] for _ in instances]
    samples: list[tuple[int, float, str | None]] = []  # (instance, seconds, failure)

    start = time.perf_counter()
    timed_out = {}
    for i, (elapsed, failure, values) in enumerate(run_probe(args)):
        if failure == "timeout":
            timed_out[i] = elapsed
            if args.trace:
                traced_times[i].append(elapsed)
                layer_values[i].append(values)

    rng = random.Random(args.seed)
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds or len(samples) < MIN_OPS:
        # In a traced run the even passes are traced, and each odd pass repeats
        # the pass before it untraced and in the same order, so the difference
        # between the two is the tracing overhead.
        traced = bool(args.trace) and passes % 2 == 0
        if traced or not args.trace:
            order = rng.sample(range(n), n)
        for i in order:
            if i in timed_out:
                samples.append((i, timed_out[i], "timeout" if passes == 0 else SKIPPED))
                continue
            elapsed, failure, values = runner.run(i, traced)
            samples.append((i, elapsed, failure))
            if traced:
                traced_times[i].append(elapsed)
                layer_values[i].append(values)
            else:
                times[i].append(elapsed)
        passes += 1
    run_seconds = time.perf_counter() - start

    attempted = len(samples)
    failed = sum(kind is not None for _, _, kind in samples)
    by_instance = [[(t, kind) for j, t, kind in samples if j == i] for i in range(n)]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(runner.np),
        "limit_s": LIMIT_S,
        "passes": passes,
        "run_seconds": round(run_seconds, 3),
        "instances": [
            dict(inst.manifest(), **outcome(mine)) for inst, mine in zip(instances, by_instance)
        ],
        "failures": [
            {"instance": instances[i].name, "seconds": round(t, 4), "kind": kind}
            for i, t, kind in samples
            if kind not in (None, SKIPPED)
        ],
        "skipped_repeats_of_timeouts": sum(kind == SKIPPED for _, _, kind in samples),
        "fail_frac": failed / attempted,
        "not_exercised": ["cli"],
        "setup_samples_s": setup_samples,
    }
    if args.trace:
        metrics = layer_metrics(runner.parse_values, layer_values, times, traced_times)
    else:
        metrics = end_to_end_metrics(by_instance, setup_samples)
    wrong = any(kind.startswith("wrong") for _, _, kind in samples if kind is not None)
    return report, {"correct": not wrong, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def outcome(mine: list[tuple[float, str | None]]) -> dict:
    good = [t for t, kind in mine if kind is None]
    return {
        "ops": len(mine),
        "ok": len(good),
        "best_ms": round(1e3 * min(good), 3) if good else None,
        "median_ms": round(1e3 * statistics.median(t for t, _ in mine), 3),
    }


def end_to_end_metrics(by_instance, setup_samples) -> dict:
    """Times are per instance: its fastest correct operation in the run, or,
    if it has none, the time its failure took but at least the limit.

    The machine's speed drifts: on a shared 2-core host, the median dual-dz
    pass moved by 14% between 20 s windows of one process, while the fastest
    pass moved by 5%. So each instance's best time stands for its cost, and
    the percentiles and the rate are taken over instances, a timed-out
    instance counting at the limit in the rate.
    """
    best, ok_share = [], []
    for mine in by_instance:
        good = [t for t, kind in mine if kind is None]
        best.append(min(good) if good else max(LIMIT_S, max(t for t, _ in mine)))
        ok_share.append(len(good) / len(mine))
    ops = [kind for mine in by_instance for _, kind in mine]
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_p90_ms": 1e3 * statistics.quantiles(best, n=10)[8],
        "ok_ops_per_s": sum(ok_share) / sum(min(t, LIMIT_S) for t in best),
        "ok_frac": ops.count(None) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(parse_values, layer_values, times, traced_times) -> dict:
    """Per-layer values for one pass: per instance the median over its traced
    operations, summed over instances; parsing is one parse of every text."""
    values = {}
    for name in LAYER_METRICS:
        if name.startswith("parsing."):
            values[name] = parse_values[name]
        else:
            values[name] = sum(
                statistics.median(v[name] for v in per_op) for per_op in layer_values if per_op
            )
    paired = [(u, t) for u, t in zip(times, traced_times) if u and t]
    overhead = sum(statistics.median(t) - statistics.median(u) for u, t in paired)
    out = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in values.items()}
    out["trace.overhead_ms"] = {"value": 1e3 * overhead / max(len(paired), 1), "unit": "ms"}
    return out


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="run the first pass only")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    report, result = run(args)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
