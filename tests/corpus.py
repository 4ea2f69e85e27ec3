"""Shared corpus of singular systems with independently known multiplicities.

Two kinds of entries:

* published: systems taken verbatim from the literature together with their
  stated multiplicity;
* staircase: systems manufactured from a zero-dimensional monomial ideal by
  an invertible linear change of variables, a translation of the root, and
  unit-triangular mixing of the equations. None of those operations changes
  the local multiplicity, so the staircase count of the monomial ideal
  (tests/oracles.py) is an exact oracle for the constructed system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from dualdeflate import Polynomial, PolySystem, parse_system

from oracles import compose, staircase_count


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    system: PolySystem
    root: np.ndarray
    multiplicity: int
    mu_source: str  # "published" or "staircase"
    generators: tuple | None = None


def _published(name: str, text: str, root, mu: int) -> CorpusEntry:
    return CorpusEntry(
        name=name,
        system=parse_system(text),
        root=np.asarray(root, dtype=complex),
        multiplicity=mu,
        mu_source="published",
    )


EX2 = _published(
    "ex2-three-eqs-two-vars",
    "vars: x1 x2\nx1*x2;\nx1^2 - x2^2;\nx2^4;",
    [0, 0],
    4,
)

A2_EXAMPLE = CorpusEntry(
    name="second-order-matrix-example",
    system=parse_system("vars: x1 x2\nx1^2;\nx1^2 - x2^3;\nx2^4;"),
    root=np.zeros(2, dtype=complex),
    # the ideal equals <x1^2, x2^3>, so the staircase count applies
    multiplicity=staircase_count(((2, 0), (0, 3)), 2),
    mu_source="staircase",
    generators=((2, 0), (0, 3)),
)

EX1 = _published(
    "ex1-high-multiplicity",
    "vars: x1 x2\nx2^3;\nx1^2*x2^2;\nx1^4 + x1^3*x2;",
    [0, 0],
    10,
)

SEC61 = _published(
    "cyclic-cubics-two-vars",
    "vars: x1 x2\nx1^3 + x1*x2^2;\nx1*x2^2 + x2^3;\nx1^2*x2 + x1*x2^2;",
    [0, 0],
    7,
)

LEC02 = _published(
    "three-vars-multiplicity-18",
    "vars: x1 x2 x3\n"
    "2*x1 + 2*x1^2 + 2*x2 + 2*x2^2 + x3^2 - 1;\n"
    "(x1 + x2 - x3 - 1)^3 - x1^3;\n"
    "(2*x1^3 + 2*x2^2 + 10*x3 + 5*x3^2 + 5)^3 - 1000*x1^5;",
    [0, 0, -1],
    18,
)

DOUBLE_ROOT = CorpusEntry(
    name="univariate-double-root",
    system=parse_system("vars: x\nx^2;"),
    root=np.zeros(1, dtype=complex),
    multiplicity=staircase_count(((2,),), 1),
    mu_source="staircase",
    generators=((2,),),
)


def _unimodular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random integer matrix with determinant +-1 (product of unit triangulars)."""
    L = np.eye(n, dtype=int)
    U = np.eye(n, dtype=int)
    for i in range(n):
        for j in range(i):
            L[i, j] = rng.integers(-1, 2)
            U[j, i] = rng.integers(-1, 2)
    return L @ U


def monomial_ideal_entry(
    name: str, generators: tuple, nvars: int, seed: int
) -> CorpusEntry:
    """System with the multiplicity of the given monomial ideal at a moved root.

    f_k(x) = m_k(A (x - p)) plus unit-triangular constant mixing, with A a
    random unimodular integer matrix and p a random dyadic-rational point.
    """
    rng = np.random.default_rng(seed)
    A = _unimodular(rng, nvars)
    p = rng.integers(-2, 3, size=nvars) / 2.0
    subs = []
    for i in range(nvars):
        s = Polynomial.constant(nvars, 0)
        for j in range(nvars):
            if A[i, j]:
                s = s + A[i, j] * (
                    Polynomial.variable(nvars, j)
                    - Polynomial.constant(nvars, p[j])
                )
        subs.append(s)
    polys = [
        compose(Polynomial(nvars, {g: 1}), subs) for g in generators
    ]
    for k in range(1, len(polys)):
        for j in range(k):
            c = int(rng.integers(-1, 2))
            if c:
                polys[k] = polys[k] + c * polys[j]
    return CorpusEntry(
        name=name,
        system=PolySystem(nvars, tuple(polys)),
        root=np.asarray(p, dtype=complex),
        multiplicity=staircase_count(generators, nvars),
        mu_source="staircase",
        generators=tuple(generators),
    )


@st.composite
def monomial_ideals(draw):
    """A zero-dimensional monomial ideal: a pure power of every variable,
    plus up to two mixed monomials; with its variable count and a seed."""
    n = draw(st.integers(1, 3))
    powers = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(powers)]
    if n > 1:
        mixed = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
            lambda e: sum(x > 0 for x in e) >= 2
        )
        gens += draw(st.lists(mixed.map(tuple), max_size=2))
    return tuple(gens), n, draw(st.integers(0, 2**16))


RANDOMIZED = (
    monomial_ideal_entry("stair-x2-y2", ((2, 0), (0, 2)), 2, 11),
    monomial_ideal_entry("stair-x3-y2", ((3, 0), (0, 2)), 2, 12),
    monomial_ideal_entry("stair-x2-xy-y3", ((2, 0), (1, 1), (0, 3)), 2, 13),
    monomial_ideal_entry("stair-x3-y3", ((3, 0), (0, 3)), 2, 14),
    monomial_ideal_entry("stair-x2-y2-z2", ((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3, 15),
    monomial_ideal_entry(
        "stair-x2-y2-z3-xy", ((2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0)), 3, 16
    ),
)

CORPUS: tuple[CorpusEntry, ...] = (
    EX2,
    A2_EXAMPLE,
    EX1,
    SEC61,
    LEC02,
    DOUBLE_ROOT,
) + RANDOMIZED
