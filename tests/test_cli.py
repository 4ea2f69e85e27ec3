"""Command-line interface: exit codes, report contents, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualdeflate
from dualdeflate import DriverConfig, cli, parse_system, solver
from dualdeflate.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    SCHEMA_VERSION,
    main,
)
from dualdeflate.errors import OrderTooLowError

EX2_TEXT = "vars: x1 x2\nx1*x2;\nx1^2 - x2^2;\nx2^4;\n"
SEC61_TEXT = (
    "vars: x1 x2\n"
    "x1^3 + x1*x2^2;\n"
    "x1*x2^2 + x2^3;\n"
    "x1^2*x2 + x1*x2^2;\n"
)
ORIGIN2 = "x1 = 0\nx2 = 0\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_multiplicity_text(files, capsys):
    code = main(["multiplicity", files("s.txt", EX2_TEXT), files("p.txt", ORIGIN2)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "multiplicity: 4" in out


@pytest.mark.parametrize("method", ["dz", "st"])
def test_multiplicity_json(files, capsys, method):
    code, report = run_json(
        capsys,
        [
            "multiplicity",
            files("s.txt", EX2_TEXT),
            files("p.txt", ORIGIN2),
            "--method",
            method,
        ],
    )
    assert code == EXIT_OK
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["multiplicity"] == 4
    assert report["method"] == method.upper()
    assert [0, 0] in report["initial_support"]
    assert report["standard_monomials"] == report["initial_support"]
    assert "timings" in report


def test_predict_order(files, capsys):
    point = "x1 = 1e-5\nx2 = -1e-5\n"
    code, report = run_json(
        capsys,
        ["predict-order", files("s.txt", SEC61_TEXT), files("p.txt", point)],
    )
    assert code == EXIT_OK
    assert report["order"] == 2


def test_deflate_emits_reparsable_system(files, capsys):
    code, report = run_json(
        capsys,
        [
            "deflate",
            files("s.txt", SEC61_TEXT),
            files("p.txt", ORIGIN2),
            "--order",
            "first",
        ],
    )
    assert code == EXIT_OK
    assert report["kind"].startswith("first-order")
    G = parse_system(report["system"])
    assert G.nvars == report["variables"]
    assert G.nequations == report["equations"]
    assert len(report["lambda_estimate"]) == report["multiplier_count"]


# 1e-6 off EX2's root: at 1e-8 the unrefined Jacobian reads full rank
NEAR_EX2 = "x1 = 1e-6\nx2 = -1e-6\n"


def test_deflate_near_the_root_is_the_first_solve_stage(files, capsys):
    inputs = [files("s.txt", EX2_TEXT), files("p.txt", NEAR_EX2)]
    code, report = run_json(capsys, ["deflate", *inputs])
    assert code == EXIT_OK
    assert report["kind"] == "first-order-B"
    code, solved = run_json(capsys, ["solve", *inputs])
    assert code == EXIT_OK
    assert solved["stages"][0] == {k: report[k] for k in solved["stages"][0]}


@pytest.mark.parametrize("command", ["deflate", "solve"])
def test_order_first_is_order_one(files, capsys, command):
    inputs = [files("s.txt", EX2_TEXT), files("p.txt", NEAR_EX2)]
    reports = []
    for order in ("first", "1"):
        code, report = run_json(capsys, [command, *inputs, "--order", order])
        assert code == EXIT_OK
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_deflate_without_a_stage_exit_code(files, capsys, monkeypatch):
    # a regular root: the driver builds no stage
    regular = [files("s.txt", "vars: x y\nx;\ny;\n"), files("p.txt", "x = 0\ny = 0\n")]
    assert main(["deflate", *regular]) == EXIT_NUMERICAL
    assert "full rank at the refined point" in capsys.readouterr().err

    # a singular root where the builder rejects every order it is given
    def reject(*args, **kwargs):
        raise OrderTooLowError("full rank")

    monkeypatch.setattr(solver, "deflate_higher_order", reject)
    argv = ["deflate", files("s.txt", EX2_TEXT), files("p.txt", ORIGIN2), "--order", "2"]
    assert main(argv) == EXIT_NUMERICAL
    assert "every order tried" in capsys.readouterr().err


def test_predict_order_near_the_root_refines_first(files, capsys):
    code, report = run_json(
        capsys, ["predict-order", files("s.txt", EX2_TEXT), files("p.txt", NEAR_EX2)]
    )
    assert code == EXIT_OK
    assert (report["order"], report["support_degrees"]) == (1, [2, 4])


@pytest.mark.parametrize("order", ["0", "-3"])
def test_deflate_rejects_order_below_one(files, capsys, order):
    argv = ["deflate", files("s.txt", SEC61_TEXT), files("p.txt", ORIGIN2)]
    assert main(argv + ["--order", order]) == EXIT_NUMERICAL
    assert "order must be >= 1" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["deflate", "solve"])
def test_unparsable_order_is_a_usage_error(files, capsys, command):
    # argparse rejects a malformed option value with exit 2, as for --max-stages abc
    argv = [command, files("s.txt", SEC61_TEXT), files("p.txt", ORIGIN2)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", "abc"])
    assert exc.value.code == 2
    assert "invalid --order value 'abc'" in capsys.readouterr().err

def test_solve_success(files, capsys):
    point = "x1 = 1e-6\nx2 = -2e-6\n"
    code, report = run_json(
        capsys,
        ["solve", files("s.txt", SEC61_TEXT), files("p.txt", point)],
    )
    assert code == EXIT_OK
    assert report["final_regular"] is True
    assert report["residual"] < 1e-10
    assert all(abs(c) < 1e-10 for pair in report["refined_point"] for c in pair)
    assert report["per_stage_rank"][-1]["corank"] == 0


LEC02_TEXT = (
    "vars: x1 x2 x3\n"
    "2*x1 + 2*x1^2 + 2*x2 + 2*x2^2 + x3^2 - 1;\n"
    "(x1 + x2 - x3 - 1)^3 - x1^3;\n"
    "(2*x1^3 + 2*x2^2 + 10*x3 + 5*x3^2 + 5)^3 - 1000*x1^5;\n"
)


@pytest.mark.filterwarnings("ignore:order prediction inconclusive")
def test_solve_that_ends_regular_off_the_root_is_an_error(files, capsys):
    # seed 0 from 1e-6 off (0, 0, -1) deflates to a regular point ~0.09 away
    start = np.array([0, 0, -1]) + 1e-6 * (1 + 1j) / np.sqrt(2)
    point = "".join(
        f"x{i} = ({z.real:.17g},{z.imag:.17g})\n" for i, z in enumerate(start, 1)
    )
    argv = ["solve", files("s.txt", LEC02_TEXT), files("p.txt", point)]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: regular after 3 stage(s) at relative residual"
    assert captured.err.startswith(message)


def test_solve_failure_exit_code(files, capsys):
    code, report = run_json(
        capsys,
        [
            "solve",
            files("s.txt", SEC61_TEXT),
            files("p.txt", ORIGIN2),
            "--order",
            "first",
            "--max-stages",
            "1",
        ],
    )
    assert code == EXIT_NUMERICAL
    assert report["final_regular"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--max-stages", "-1"], "max_stages must be >= 0"),
        (["solve", "--tol-coeff", "-1"], "tol_coeff must lie in (0, 1)"),
        (["multiplicity", "--tol-rank", "-1"], "tol must lie in (0, 1)"),
    ],
)
def test_out_of_range_setting_exit_code(files, capsys, argv, message):
    command, *flags = argv
    point = files("p.txt", ORIGIN2)
    assert main([command, files("s.txt", SEC61_TEXT), point, *flags]) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["deflate", "--tol-rank", "5"], "tol_rank must lie in (0, 1)"),
        (["deflate", "--tol-rank", "-1"], "tol_rank must lie in (0, 1)"),
        (["deflate", "--order", "2", "--tol-rank", "0"], "tol_rank must lie in (0, 1)"),
        (["deflate", "--order", "2", "--tol-coeff", "5"], "tol_coeff must lie in (0, 1)"),
        (["deflate", "--order", "first", "--tol-coeff", "-1"], "tol_coeff must lie in (0, 1)"),
        (["predict-order", "--tol-coeff", "-1"], "tol_coeff must lie in (0, 1)"),
        (["predict-order", "--tol-rank", "2"], "tol_rank must lie in (0, 1)"),
    ],
)
def test_out_of_range_tolerance_exit_code_at_the_root(files, capsys, argv, message):
    command, *flags = argv
    point = files("p.txt", ORIGIN2)
    assert main([command, files("s.txt", EX2_TEXT), point, *flags]) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err


def test_solve_determinism(files, capsys):
    argv = [
        "solve",
        files("s.txt", EX2_TEXT),
        files("p.txt", ORIGIN2),
        "--seed",
        "7",
        "--format",
        "json",
    ]
    reports = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        del report["timings"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("system", [SEC61_TEXT, EX2_TEXT], ids=["sec61", "ex2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["multiplicity", "--method", "dz"],
        ["multiplicity", "--method", "st"],
        ["predict-order", "--seed", "0"],
        ["deflate", "--order", "auto", "--seed", "0"],
        ["deflate", "--order", "first", "--seed", "0"],
        ["deflate", "--order", "2", "--seed", "0"],
        ["matrix", "--order", "2"],
    ],
    ids=" ".join,
)
def test_reports_are_deterministic_apart_from_timings(files, capsys, system, argv):
    command, *flags = argv
    inputs = [files("s.txt", system)]
    if command != "matrix":
        inputs.append(files("p.txt", ORIGIN2))
    reports = []
    for _ in range(2):
        code, report = run_json(capsys, [command, *inputs, *flags])
        assert code == EXIT_OK
        del report["timings"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_matrix(files, capsys):
    system = "vars: x1 x2\nx1^2;\nx1^2 - x2^3;\nx2^4;\n"
    code, report = run_json(
        capsys, ["matrix", files("s.txt", system), "--order", "2"]
    )
    assert code == EXIT_OK
    assert (report["rows"], report["cols"]) == (9, 5)
    assert len(report["entries"]) == 9
    assert all(len(row) == 5 for row in report["entries"])
    assert report["row_labels"][0] == [[0, 0], 0]


def test_matrix_takes_no_rank_tolerance(files, capsys):
    # no decision of the symbolic dump reads a tolerance
    system = files("s.txt", EX2_TEXT)
    code, report = run_json(capsys, ["matrix", system, "--order", "1"])
    assert code == EXIT_OK
    assert "tolerances" not in report
    with pytest.raises(SystemExit) as exc:
        main(["matrix", system, "--order", "1", "--tol-rank", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-rank 5" in capsys.readouterr().err


def test_closed_pipe_exits_quietly(files):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE whatever the scheduling
    src = str(Path(dualdeflate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["matrix", files("s.txt", EX2_TEXT), "--order", "2", "--format", "json"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dualdeflate.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_OK


def test_matrix_truncated(files, capsys):
    code, report = run_json(
        capsys,
        [
            "matrix",
            files("s.txt", SEC61_TEXT),
            "--order",
            "2",
            "--truncated",
            "--rows",
            "multiples",
        ],
    )
    assert code == EXIT_OK
    assert all(len(label) == 2 for label in report["col_labels"])


@pytest.mark.parametrize("rows", ["original", "multiples"])
def test_matrix_rows_needs_truncated(files, capsys, rows):
    argv = ["matrix", files("s.txt", EX2_TEXT), "--order", "2", "--rows", rows]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --rows needs --truncated\n"


def test_stdin_system(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(EX2_TEXT))
    code, report = run_json(
        capsys, ["multiplicity", "-", files("p.txt", ORIGIN2)]
    )
    assert code == EXIT_OK
    assert report["multiplicity"] == 4


def test_parse_error_exit_code(files, capsys):
    code = main(["multiplicity", files("s.txt", "x;\n"), files("p.txt", ORIGIN2)])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_non_finite_coefficient_exit_code(files, capsys):
    code = main(["matrix", files("s.txt", "vars: x\n1e400*x;\n"), "--order", "1"])
    assert code == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_overflowing_matrix_entry_exit_code(files, capsys):
    # d/dx of 1e308*x^2 is 2e308 = inf: printing it used to raise a bare
    # OverflowError
    code = main(["matrix", files("s.txt", "vars: x\n1e308*x^2;\n"), "--order", "1"])
    assert code == EXIT_NUMERICAL
    assert "(inf+0j) of the monomial (1,) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "deflate", "predict-order"])
def test_flag_defaults_are_the_library_defaults(command):
    args = cli.build_parser().parse_args([command, "s.txt", "p.txt"])
    config = DriverConfig()
    assert (args.tol_rank, args.tol_coeff, args.seed) == (
        config.tol_rank, config.tol_coeff, config.seed
    )
    if command == "solve":
        assert (args.order, args.max_stages) == (config.order_policy, config.max_stages)



@pytest.mark.parametrize("command", ["multiplicity", "solve"])
def test_exponent_beyond_int64_exit_code(files, capsys, command):
    system = files("s.txt", "vars: x\nx^99999999999999999999;\n")
    assert main([command, system, files("p.txt", "x = 0\n")]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["dz", "st"])
def test_multiplicity_at_a_root_of_a_high_degree_equation(files, capsys, method):
    # the binomial coefficients of x^2000 at x = 1 pass the float range
    system = files("s.txt", "vars: x\nx^2000 - 1;\n")
    code, report = run_json(
        capsys, ["multiplicity", system, files("p.txt", "x = 1\n"), "--method", method]
    )
    assert code == EXIT_OK
    assert report["multiplicity"] == 1


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(
        ["multiplicity", str(tmp_path / "nope.txt"), str(tmp_path / "also-nope.txt")]
    )
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_bad_point_exit_code(files, capsys):
    code = main(
        ["multiplicity", files("s.txt", EX2_TEXT), files("p.txt", "x1 = 0\n")]
    )
    assert code == EXIT_PARSE


def test_non_finite_point_exit_code(files, capsys):
    point = files("p.txt", "x1 = nan\nx2 = 0\n")
    assert main(["multiplicity", files("s.txt", EX2_TEXT), point]) == EXIT_PARSE


@pytest.mark.parametrize(
    "system, point",
    [
        ("vars: x\nx - \u0661;\n", "x = 1\n"),
        ("vars: x\nx^2;\n", "x = \u0662\n"),
        ("vars: x\nx^2;\n", "x = (\u0661,\u0662)\n"),
    ],
)
def test_non_ascii_digit_exit_code(files, capsys, system, point):
    code = main(["multiplicity", files("s.txt", system), files("p.txt", point)])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_out_of_memory_exit_code(files, capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "deflation_driver", exhaust)
    code = main(["solve", files("s.txt", EX2_TEXT), files("p.txt", ORIGIN2)])
    assert code == EXIT_NUMERICAL
    assert "error: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["dz", "st"])
def test_frame_past_int64_exit_code(files, capsys, method):
    # 66 linear equations: grlex ranks from a binomial table would overflow int64
    names = [f"x{i}" for i in range(66)]
    system = files("s.txt", f"vars: {' '.join(names)}\n" + "".join(f"{v};\n" for v in names))
    point = files("p.txt", "".join(f"{v} = 0\n" for v in names))
    code, report = run_json(capsys, ["multiplicity", system, point, "--method", method])
    assert code == EXIT_OK
    assert report["multiplicity"] == 1


def test_non_root_point_exit_code(files, capsys):
    # deflation at a point that is far from any root is a numerical failure
    code = main(
        [
            "solve",
            files("s.txt", EX2_TEXT),
            files("p.txt", "x1 = 0.5\nx2 = 0.5\n"),
        ]
    )
    assert code == EXIT_NUMERICAL


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
