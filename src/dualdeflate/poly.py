"""Sparse multivariate polynomials over complex coefficients.

Exponents are plain tuples of non-negative ints; a polynomial is a map
exponent -> coefficient with no explicitly stored zeros, so equal term maps
mean equal polynomials. All values are immutable after construction and
every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError

Exponent = tuple[int, ...]


def total_degree(alpha: Exponent) -> int:
    return sum(alpha)


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: graded lex, or weighted with grlex tie-break."""

    weights: tuple[float, ...] | None = None

    @classmethod
    def weighted(cls, w: Sequence[float]) -> "MonomialOrder":
        return cls(tuple(float(x) for x in w))

    def key(self, alpha: Exponent):
        """Sort key; ascending sort by this key is ascending in the order."""
        if self.weights is None:
            return (total_degree(alpha), alpha)
        if len(self.weights) != len(alpha):
            raise DimensionMismatchError(
                f"weight vector has length {len(self.weights)}, exponent {len(alpha)}"
            )
        w = sum(wi * ai for wi, ai in zip(self.weights, alpha))
        return (w, total_degree(alpha), alpha)


GRLEX = MonomialOrder()


def _as_vector(pt: Sequence[complex], nvars: int, what: str = "point") -> np.ndarray:
    v = np.asarray(pt, dtype=complex).reshape(-1)
    if v.shape[0] != nvars:
        raise DimensionMismatchError(f"{what} has length {v.shape[0]}, expected {nvars}")
    return v


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, complex] | None = None):
        clean: dict[Exponent, complex] = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars:
                raise DimensionMismatchError(
                    f"exponent {alpha} has length {len(alpha)}, expected {nvars}"
                )
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent entry in {alpha}")
            c = complex(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
                if clean[alpha] == 0:
                    del clean[alpha]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, complex]) -> "Polynomial":
        """Build from complex coefficients keyed by valid exponent tuples.

        For term maps the package builds itself: skips the exponent checks
        of __init__ but drops zeros and adds to 0 as it does, which turns a
        -0.0 part into +0.0, so both constructors store the same bits.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        clean = {a: 0 + c for a, c in terms.items() if c != 0}
        object.__setattr__(out, "_terms", clean)
        return out

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, complex]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self._terms!r})"

    def __str__(self):
        return self.to_string()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise DimensionMismatchError(
                    f"polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self._terms)
        for a, c in other._terms.items():
            out[a] = out.get(a, 0) + c
        return Polynomial._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.nvars, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = complex(other)
            return Polynomial._trusted(
                self.nvars, {a: c * v for a, v in self._terms.items()}
            )
        other = self._coerce(other)
        out: dict[Exponent, complex] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- translation -------------------------------------------------------

    def shift(self, basepoint: Sequence[complex]) -> "Polynomial":
        """Return q(y) = p(y + basepoint).

        Each term c x^alpha expands binomially into c prod_i sum_k
        C(alpha_i, k) v_i^(alpha_i - k) y_i^k, and the expansions of all
        terms are collected into one coefficient map.
        """
        v = _as_vector(basepoint, self.nvars, "basepoint").tolist()
        rows: dict[tuple[int, int], list[tuple[int, complex]]] = {}
        out: dict[Exponent, complex] = {}
        for alpha, c in self._terms.items():
            for i, a in enumerate(alpha):
                if (i, a) not in rows:
                    rows[i, a] = [
                        (k, w)
                        for k in range(a + 1)
                        if (w := math.comb(a, k) * v[i] ** (a - k)) != 0
                    ]
            for picks in product(*(rows[i, a] for i, a in enumerate(alpha))):
                coef = c
                for _, w in picks:
                    coef *= w
                key = tuple(k for k, _ in picks)
                out[key] = out.get(key, 0) + coef
        return Polynomial._trusted(self.nvars, out)

    # -- formatting --------------------------------------------------------

    def to_string(self, var_names: Sequence[str] | None = None) -> str:
        if not self._terms:
            return "0"
        names = var_names or [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for alpha in sorted(self._terms, key=GRLEX.key):
            c = self._terms[alpha]
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"coefficient {c} of the monomial {alpha} is not finite")
            factors = []
            if c.imag == 0:
                re = c.real
                coeff = "" if re == 1 and any(alpha) else f"{_fmt_real(re)}"
                if re == -1 and any(alpha):
                    coeff = "-"
            else:
                coeff = f"({_fmt_real(c.real)},{_fmt_real(c.imag)})"
            if coeff and coeff not in ("-",):
                factors.append(coeff)
            for name, a in zip(names, alpha):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            body = "*".join(f for f in factors if f) or "1"
            if coeff == "-":
                body = "-" + body
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


# A complex number b = (br, bi) as the 2x2 block [[br, -bi], [bi, br]]: the
# product of a = (ar, ai) with it, summed along the last axis, is
# (ar*br - ai*bi, ar*bi + ai*br), the scalar complex multiply, in the same
# float64 operations. numpy's complex-array multiply may fuse them.
_AS_BLOCK = np.array([[0, 1], [1, 0]])
_BLOCK_SIGNS = np.array([[1.0, -1.0], [1.0, 1.0]])


def _complex_multiply(a: np.ndarray, b_blocks: np.ndarray, out: np.ndarray) -> None:
    """out = a * b for (re, im) rows a and 2x2 blocks of b (see _AS_BLOCK)."""
    prod = a[:, None, :] * b_blocks
    np.add(prod[..., 0], prod[..., 1], out=out)


class _CompiledRows:
    """Polynomials laid out as flat arrays, built once for many evaluations.

    ``evaluate(v)`` gives the same bits as the term-by-term reference
    evaluation of the tests (``tests/oracles.py``), because it performs the
    same float operations in the same order: a
    monomial is the product of its factors x_i**a_i with a_i != 0, in
    variable order, starting from 1; a term is its coefficient times its
    monomial; each row adds its terms one at a time in grlex order, starting
    from 0 (``np.add.at`` adds in index order, where ``np.sum`` would add
    pairwise).

    Storage is proportional to the number of terms. Terms are stored row
    after row, each as its coefficient and the index of its monomial. Each
    distinct monomial is a list of indices into a table of the distinct
    (variable, exponent) powers; monomials are sorted by factor count, most
    first, so those that have a j-th factor are a prefix.

    ``of`` compiles polynomials; ``partials`` compiles the first partials
    of the rows from their own terms, without building a polynomial.
    """

    def __init__(self, rows: list[list[tuple[Exponent, complex]]]):
        """Compile rows of (exponent, coefficient) terms in grlex order."""
        self.rows = rows
        self.nrows = len(rows)
        self.scales = [max((abs(c) for _, c in row), default=0.0) for row in rows]
        terms = [(r, alpha, c) for r, row in enumerate(rows) for alpha, c in row]
        powers = sorted(
            {(i, a) for _, alpha, _ in terms for i, a in enumerate(alpha) if a}
        )
        power_index = {pw: k for k, pw in enumerate(powers)}
        self._pow_var = np.array([i for i, _ in powers], dtype=np.intp)
        self._pow_exp = np.array([a for _, a in powers], dtype=np.int64)

        monomials = sorted(
            {alpha for _, alpha, _ in terms}, key=lambda m: -sum(map(bool, m))
        )
        mono_index = {m: k for k, m in enumerate(monomials)}
        factors = [
            [power_index[(i, a)] for i, a in enumerate(m) if a] for m in monomials
        ]
        self._levels = []
        for j in range(len(factors[0]) if factors else 0):
            have = [f[j] for f in factors if len(f) > j]
            self._levels.append((len(have), np.array(have, dtype=np.intp)))
        self._unit = np.zeros((len(monomials), 2))
        self._unit[:, 0] = 1.0

        self._term_mono = np.array(
            [mono_index[alpha] for _, alpha, _ in terms], dtype=np.intp
        )
        coeffs = np.array([(c.real, c.imag) for _, _, c in terms]).reshape(-1, 2)
        self._coeff_blocks = coeffs[:, _AS_BLOCK] * _BLOCK_SIGNS
        # a term of row r adds its real part to slot 2r of the output, which
        # is (re, im) pairs, and its imaginary part to slot 2r + 1
        slots = 2 * np.array([r for r, _, _ in terms], dtype=np.intp)
        self._slots = np.stack([slots, slots + 1], axis=1).reshape(-1)

    @classmethod
    def of(cls, polys: Sequence[Polynomial]) -> "_CompiledRows":
        return cls([sorted(p.items(), key=lambda t: GRLEX.key(t[0])) for p in polys])

    def partials(self, nvars: int) -> "_CompiledRows":
        """The first partials, d/dx_j of row r as row r * nvars + j.

        A term c x^alpha with alpha_j > 0 gives alpha_j c x^(alpha - e_j);
        taking e_j off keeps grlex order, so each new row comes out sorted.
        """
        rows = [[] for _ in range(self.nrows * nvars)]
        for r, row in enumerate(self.rows):
            for alpha, c in row:
                for j, a in enumerate(alpha):
                    if a:
                        b = alpha[:j] + (a - 1,) + alpha[j + 1:]
                        rows[r * nvars + j].append((b, c * a))
        return _CompiledRows(rows)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """Values of the rows at the complex vector v."""
        table = np.power(v[self._pow_var], self._pow_exp)
        table = table.view(np.float64).reshape(-1, 2)[:, _AS_BLOCK] * _BLOCK_SIGNS
        mono = self._unit.copy()
        for count, factors in self._levels:
            part = mono[:count]
            _complex_multiply(part, table[factors], part)
        vals = np.empty((len(self._term_mono), 2))
        _complex_multiply(mono[self._term_mono], self._coeff_blocks, vals)
        out = np.zeros(2 * self.nrows)
        np.add.at(out, self._slots, vals.reshape(-1))
        return out.view(complex)


@dataclass(frozen=True)
class PolySystem:
    """An ordered system F = (f_1, ..., f_N) sharing one variable set."""

    nvars: int
    polys: tuple[Polynomial, ...]
    var_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.polys) < 1:
            raise ValueError("a system needs at least one polynomial")
        object.__setattr__(self, "polys", tuple(self.polys))
        for p in self.polys:
            if p.nvars != self.nvars:
                raise DimensionMismatchError(
                    f"system over {self.nvars} variables contains a polynomial "
                    f"in {p.nvars}"
                )
        names = tuple(self.var_names) or tuple(
            f"x{i + 1}" for i in range(self.nvars)
        )
        if len(names) != self.nvars:
            raise DimensionMismatchError("var_names length does not match nvars")
        object.__setattr__(self, "var_names", names)

    @property
    def nequations(self) -> int:
        return len(self.polys)

    @cached_property
    def _compiled(self) -> "_CompiledRows":
        return _CompiledRows.of(self.polys)

    @cached_property
    def _compiled_jacobian(self) -> "_CompiledRows":
        return self._compiled.partials(self.nvars)

    def evaluate(self, pt: Sequence[complex]) -> np.ndarray:
        return self._compiled.evaluate(_as_vector(pt, self.nvars))

    def jacobian_at(self, pt: Sequence[complex]) -> np.ndarray:
        v = _as_vector(pt, self.nvars)
        return self._compiled_jacobian.evaluate(v).reshape(self.nequations, self.nvars)

    def jacobian_scale(self) -> float:
        """Max coefficient magnitude across all first partials (at least 1).

        Reference magnitude for rank decisions on evaluated Jacobians: near a
        singular root the evaluated matrix is uniformly tiny, so comparing
        its singular values only against each other would declare full rank.
        """
        return max([1.0, *self._compiled_jacobian.scales])

    def coeff_scales(self) -> np.ndarray:
        """Per-equation max coefficient magnitude (for relative residuals)."""
        return np.maximum(self._compiled.scales, 1.0)

    def residual(self, pt: Sequence[complex]) -> float:
        """Max relative residual |f_j(pt)| / max(1, coeff scale of f_j)."""
        vals = np.abs(self.evaluate(pt)) / self.coeff_scales()
        return float(vals.max())
