"""Exact polynomials in q with arbitrary-precision integer coefficients.

Backs the q-binomials, the box generating function of plane partitions,
the hook-content Schur values and the path-nest partition functions, with
one `q_product_ratio` and a fraction-free (Bareiss) determinant.  All
arithmetic is exact; division raises on a nonzero remainder.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod
from typing import Iterable


class QPolynomial:
    """Sparse polynomial in q; keys are non-negative exponents, values are ints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    if e < 0:
                        raise ValueError(f"negative exponent {e}")
                    self.coeffs[int(e)] = int(c)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def one_minus_q_pow(cls, m: int) -> "QPolynomial":
        """1 - q^m."""
        if m == 0:
            return cls.zero()
        return cls({0: 1, m: -1})

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QPolynomial({0: other})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return QPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "QPolynomial":
        """Multiply by q^k.  Negative k demands exact divisibility by q^{-k}:
        the constructor raises on the negative exponent otherwise."""
        return QPolynomial({e + k: c for e, c in self.coeffs.items()})

    def divide_exact(self, other: "QPolynomial") -> "QPolynomial":
        """Synthetic division; raises if the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.coeffs)
        deg_o = other.degree()
        lead = other.coeffs[deg_o]
        quot: dict[int, int] = {}
        while rem:
            deg_r = max(rem)
            qc, r = divmod(rem[deg_r], lead)
            if deg_r < deg_o or r:
                raise ValueError("nonzero remainder in exact division")
            qe = deg_r - deg_o
            quot[qe] = qc
            for e, c in other.coeffs.items():
                nc = rem.pop(e + qe, 0) - qc * c
                if nc:
                    rem[e + qe] = nc
        return QPolynomial(quot)

    def __call__(self, q) :
        """Evaluate at a numeric point (int, float or complex)."""
        return sum(c * q ** e for e, c in self.coeffs.items())

    def at_one(self) -> int:
        return sum(self.coeffs.values())

    def to_json(self) -> dict[str, str]:
        """Exponent -> decimal-string coefficient; lossless for big ints."""
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                terms.append(str(c))
            else:
                qp = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    terms.append(qp)
                elif c == -1:
                    terms.append(f"-{qp}")
                else:
                    terms.append(f"{c}*{qp}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPolynomial({self.coeffs!r})"


def q_product_ratio(nums: Iterable[int], dens: Iterable[int]) -> QPolynomial:
    """prod_a (1 - q^a) / prod_b (1 - q^b) for b > 0: equal exponents cancel,
    then one `divide_exact`, which raises if the ratio is no polynomial."""
    nums, dens = Counter(nums), Counter(dens)
    num = den = QPolynomial.one()
    for a in (nums - dens).elements():
        num = num * QPolynomial.one_minus_q_pow(a)
    for b in (dens - nums).elements():
        den = den * QPolynomial.one_minus_q_pow(b)
    return num.divide_exact(den)


def q_binomial(big: int, small: int) -> QPolynomial:
    """Gaussian binomial coefficient [big choose small]."""
    if small < 0 or small > big:
        raise ValueError(f"need 0 <= {small} <= {big}")
    out = q_product_ratio(range(big - small + 1, big + 1), range(1, small + 1))
    assert out.at_one() == comb(big, small)
    return out


def q_binomial_extended(big: int, small: int) -> QPolynomial:
    """Gaussian binomial with the usual zero convention outside 0 <= small <= big."""
    if small < 0 or small > big:
        return QPolynomial.zero()
    return q_binomial(big, small)


def macmahon_z(n: int, k: int) -> QPolynomial:
    """Generating function of plane partitions in an n x n x k box."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    hooks = [j + l - 1 for j in range(1, n + 1) for l in range(1, n + 1)]
    return q_product_ratio([k + h for h in hooks], hooks)


def macmahon_count(n: int, k: int) -> int:
    """Number of plane partitions in an n x n x k box, by the product formula."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    hooks = [j + l - 1 for j in range(1, n + 1) for l in range(1, n + 1)]
    num, den = prod(k + h for h in hooks), prod(hooks)
    assert num % den == 0
    return num // den


def qpoly_matrix_det(mat: list[list[QPolynomial]]) -> QPolynomial:
    """Exact determinant by fraction-free (Bareiss) elimination: each step
    divides exactly by the previous pivot, and a zero pivot swaps in a lower
    row with a nonzero entry in its column, flipping the sign."""
    a = [list(row) for row in mat]
    sign, prev = 1, QPolynomial.one()
    for k in range(len(a) - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, len(a)) if not a[i][k].is_zero()), None)
            if swap is None:
                return QPolynomial.zero()
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divide_exact(prev)
        prev = a[k][k]
    return a[-1][-1] * sign if a else QPolynomial.one()
