"""Text formats: system grammar, point files, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeflate import (
    Polynomial,
    PolySystem,
    parse_point,
    parse_system,
    serialize_system,
)
from dualdeflate.errors import ParseError


def test_basic_system():
    F = parse_system("vars: x y\nx^2 + y;\nx*y - 3;")
    assert F.nvars == 2
    assert F.var_names == ("x", "y")
    assert F.polys[0] == Polynomial(2, {(2, 0): 1, (0, 1): 1})
    assert F.polys[1] == Polynomial(2, {(1, 1): 1, (0, 0): -3})


def test_header_name_can_repeat_in_body():
    # the first body statement may start with any declared variable
    F = parse_system("vars: x1 x2\nx1*x2;")
    assert F.polys[0] == Polynomial(2, {(1, 1): 1})


def test_complex_literals_and_parentheses():
    F = parse_system("vars: x\n(1,-2)*x + (3,0.5);\n(x + 1)^2;")
    assert F.polys[0].terms.get((1,), 0) == 1 - 2j
    assert F.polys[0].terms.get((0,), 0) == 3 + 0.5j
    assert F.polys[1] == Polynomial(1, {(2,): 1, (1,): 2, (0,): 1})


def test_unary_minus_and_precedence():
    F = parse_system("vars: x y\n-x^2 - -y;\n2*x^3*y^2;")
    assert F.polys[0] == Polynomial(2, {(2, 0): -1, (0, 1): 1})
    assert F.polys[1] == Polynomial(2, {(3, 2): 2})


def test_scientific_notation():
    F = parse_system("vars: x\n1.5e-3*x + 2E2;")
    assert F.polys[0].terms.get((1,), 0) == pytest.approx(1.5e-3)
    assert F.polys[0].terms.get((0,), 0) == pytest.approx(200.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x + 1;", "vars"),
        ("vars:\nx;", "at least one"),
        ("vars: x x\nx;", "duplicate"),
        ("vars: x 2y\nx;", "invalid"),
        ("vars: x\n", "empty system"),
        ("vars: x\ny + 1;", "undeclared"),
        ("vars: x\nx^y;", "expected"),
        ("vars: x\nx^-2;", "expected"),
        ("vars: x\nx + @;", "unexpected character"),
        ("vars: x\nx + 1", "expected"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("vars: x\n1e400*x;", 2),
        ("vars: x\nx;\n(1,-1e999)*x;", 3),
        ("vars: x\nx;\n1e300*1e300*x;", 3),
        ("vars: x\nx;\n\n1e200^2 - x;", 4),
    ],
)
def test_non_finite_coefficients_rejected(text, line):
    with pytest.raises(ParseError, match="out of range") as exc:
        parse_system(text)
    assert exc.value.line == line



@pytest.mark.parametrize(
    "text,line",
    [
        ("vars: x\nx^99999999999999999999;", 2),
        ("vars: x\nx;\nx^9223372036854775808 + 1;", 3),
        ("vars: x y\nx;\n\ny*x^4611686018427387904*x^4611686018427387904;", 4),
    ],
)
def test_exponents_beyond_int64_rejected(text, line):
    # evaluation stores exponents as int64, so a larger one is a parse error
    with pytest.raises(ParseError, match="exponent of 2\\^63 or more") as exc:
        parse_system(text)
    assert exc.value.line == line


def test_largest_int64_exponent_accepted():
    F = parse_system("vars: x\nx^4611686018427387904*x^4611686018427387903;")
    assert F.polys[0].terms == {(2**63 - 1,): 1}

def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_system("vars: x\nx;\nx + $;")
    assert exc.value.line == 3


@pytest.mark.parametrize("text", ["vars: x\nx - \u0661;", "vars: x\nx^\u0662;"])
def test_non_ascii_digits_rejected(text):
    # decimal digits of other scripts (here Arabic-Indic) are not numbers
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_system(text)
    assert exc.value.line == 2


def coefficient_st():
    ints = st.integers(-9, 9)
    return st.builds(complex, ints, ints).filter(lambda z: z != 0)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
            coefficient_st(),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_serialize_parse_roundtrip(nvars, term_maps):
    polys = tuple(
        Polynomial(nvars, {k[:nvars]: v for k, v in m.items()}) for m in term_maps
    )
    if any(not p.terms for p in polys):
        polys = tuple(
            p + Polynomial.constant(nvars, 1) if not p.terms else p for p in polys
        )
    F = PolySystem(nvars, polys)
    G = parse_system(serialize_system(F))
    assert G.nvars == F.nvars
    assert G.polys == F.polys


def test_point_parsing():
    F = parse_system("vars: x y\nx;\ny;")
    pt = parse_point("# a comment\nx = (1.5,-2)\ny = 3\n", F)
    assert np.allclose(pt, [1.5 - 2j, 3.0])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x = 1\n", "missing"),
        ("x = 1\ny = 2\nz = 3\n", "unknown"),
        ("x = 1\nx = 2\ny = 0\n", "duplicate"),
        ("x\ny = 0\n", "expected"),
        ("x = foo\ny = 0\n", "cannot parse"),
        ("x = nan\ny = 0\n", "not finite"),
        ("x = 0\ny = -inf\n", "not finite"),
        ("x = 1e400\ny = 0\n", "not finite"),
        ("x = 0\ny = (1,1e400)\n", "not finite"),
        ("x = 1_0\ny = 0\n", "cannot parse value '1_0' at line 1"),
        ("x = 0\ny = 1_0e-9\n", "cannot parse value '1_0e-9' at line 2"),
        ("x = 0\ny = -1_0\n", "cannot parse value '-1_0' at line 2"),
        # Arabic-Indic digits two, and one and two
        ("x = \u0662\ny = 0\n", "cannot parse value '\u0662' at line 1"),
        (
            "x = 0\ny = (\u0661,\u0662)\n",
            "cannot parse value '(\u0661,\u0662)' at line 2",
        ),
    ],
)
def test_point_errors(text, fragment):
    F = parse_system("vars: x y\nx;\ny;")
    with pytest.raises(ParseError) as exc:
        parse_point(text, F)
    assert fragment in str(exc.value)
