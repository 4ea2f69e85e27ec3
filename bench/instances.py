"""The benchmark's instance set, built without the code under test.

Every instance is handed to the program as system text, so a change to the
program's polynomial arithmetic cannot change what is measured. Two parts:

* the six published systems of the test corpus, copied as text, each with
  the multiplicity stated for it;
* staircase systems: a zero-dimensional monomial ideal put through a
  unimodular integer change of variables, moved to a dyadic root and mixed
  by unit-triangular combinations of its equations, all drawn from a fixed
  seed. None of these steps
  changes the local multiplicity, so the number of standard monomials of the
  ideal is the exact multiplicity. All arithmetic here is exact
  (``fractions.Fraction``); dyadic coefficients print as exact decimals.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]


@dataclass(frozen=True)
class Instance:
    name: str
    nvars: int
    text: str
    root: tuple[Fraction, ...]
    mu: int
    terms: int  # monomials summed over the equations, after expansion

    @property
    def text_hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "nvars": self.nvars,
            "mu": self.mu,
            "terms": self.terms,
            "sha256_16": self.text_hash,
        }


# (name, text, root, multiplicity, expanded term count)
PUBLISHED = (
    ("ex2-three-eqs-two-vars", "vars: x1 x2\nx1*x2;\nx1^2 - x2^2;\nx2^4;\n", (0, 0), 4, 4),
    ("second-order-matrix-example", "vars: x1 x2\nx1^2;\nx1^2 - x2^3;\nx2^4;\n", (0, 0), 6, 4),
    ("ex1-high-multiplicity", "vars: x1 x2\nx2^3;\nx1^2*x2^2;\nx1^4 + x1^3*x2;\n", (0, 0), 10, 4),
    (
        "cyclic-cubics-two-vars",
        "vars: x1 x2\nx1^3 + x1*x2^2;\nx1*x2^2 + x2^3;\nx1^2*x2 + x1*x2^2;\n",
        (0, 0),
        7,
        6,
    ),
    (
        "three-vars-multiplicity-18",
        "vars: x1 x2 x3\n"
        "2*x1 + 2*x1^2 + 2*x2 + 2*x2^2 + x3^2 - 1;\n"
        "(x1 + x2 - x3 - 1)^3 - x1^3;\n"
        "(2*x1^3 + 2*x2^2 + 10*x3 + 5*x3^2 + 5)^3 - 1000*x1^5;\n",
        (0, 0, -1),
        18,
        56,
    ),
    ("univariate-double-root", "vars: x\nx^2;\n", (0,), 2, 1),
)

# Pure-power ideals <x_1^a_1, ..., x_n^a_n>; the staircase count, and so the
# multiplicity, is prod(a_i).
STAIRCASE_SHAPES = (
    (2, 2),
    (3, 2),
    (3, 3),
    (4, 3),
    (4, 4),
    (2, 2, 2),
    (3, 3, 2),
    (3, 3, 3),
    (2, 2, 2, 3),
)


# The changes of variables, roots and mixings are drawn once, from this seed,
# and not from the benchmark's --seed. Whether the driver hangs on a
# staircase system depends on those draws (even swapping two variables can
# turn a hang into a 7 ms solve), so a set drawn per run would change which
# operations time out from run to run, and with them every solve metric.
BANK_SEED = 0


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, c in p.items():
        for b, d in q.items():
            e = tuple(x + y for x, y in zip(a, b))
            out[e] = out.get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _add(p: Poly, q: Poly, k: int = 1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + k * c
    return {e: c for e, c in out.items() if c}


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Integer matrix L @ U with unit-triangular L, U, so det = 1."""
    L = [[int(i == j) for j in range(n)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            L[i][j] = rng.randint(-1, 1)
            U[j][i] = rng.randint(-1, 1)
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _decimal(c: Fraction) -> str:
    """Exact decimal text of a dyadic rational (no sign)."""
    c = abs(c)
    den = c.denominator
    m = den.bit_length() - 1
    if den != 1 << m:
        raise ValueError(f"{c} is not dyadic")
    if m == 0:
        return str(c.numerator)
    digits = str(c.numerator * 5**m).rjust(m + 1, "0")
    return (digits[:-m] + "." + digits[-m:]).rstrip("0").rstrip(".")


def _poly_text(p: Poly, names: list[str]) -> str:
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-a for a in e))):
        c = p[e]
        factors = [n if a == 1 else f"{n}^{a}" for n, a in zip(names, e) if a]
        mag = _decimal(c)
        if mag != "1" or not factors:
            factors.insert(0, mag)
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def system_text(polys: list[Poly], nvars: int) -> str:
    names = [f"x{i + 1}" for i in range(nvars)]
    lines = ["vars: " + " ".join(names)]
    lines += [_poly_text(p, names) + ";" for p in polys]
    return "\n".join(lines) + "\n"


def staircase_instance(shape: tuple[int, ...], rng: random.Random, name: str) -> Instance:
    """f_k(x) = l_k(x)^a_k with l = A (x - p), then unit-triangular mixing."""
    n = len(shape)
    A = _unimodular(rng, n)
    p = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(n))
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    zero = (0,) * n
    linear = []
    for i in range(n):
        form: Poly = {}
        for j in range(n):
            if A[i][j]:
                form = _add(form, {unit[j]: Fraction(A[i][j]), zero: -A[i][j] * p[j]})
        linear.append(form)
    polys = []
    for i, a in enumerate(shape):
        f: Poly = {zero: Fraction(1)}
        for _ in range(a):
            f = _mul(f, linear[i])
        polys.append(f)
    for k in range(1, n):
        for j in range(k):
            c = rng.randint(-1, 1)
            if c:
                polys[k] = _add(polys[k], polys[j], c)
    text = system_text(polys, n)
    return Instance(name, n, text, p, math.prod(shape), sum(map(len, polys)))


def instance_set() -> list[Instance]:
    """The published systems followed by the staircase systems."""
    out = [
        Instance(name, len(root), text, tuple(map(Fraction, root)), mu, terms)
        for name, text, root, mu, terms in PUBLISHED
    ]
    rng = random.Random(BANK_SEED)
    for shape in STAIRCASE_SHAPES:
        label = "stair-" + "-".join(f"x{i + 1}^{a}" for i, a in enumerate(shape))
        out.append(staircase_instance(shape, rng, label))
    return out
