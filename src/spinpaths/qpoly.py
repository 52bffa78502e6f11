"""Exact polynomials in q with arbitrary-precision integer coefficients.

Backs the q-binomials, the box generating function of plane partitions,
and the path-nest partition functions.  All arithmetic is exact; division
asserts a zero remainder so silent truncation is impossible.
"""

from __future__ import annotations

from math import comb


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

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({e: -c for e, c in self.coeffs.items()})

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
        """Multiply by q^k.  Negative k demands exact divisibility by q^{-k}."""
        if k >= 0:
            return QPolynomial({e + k: c for e, c in self.coeffs.items()})
        if any(e + k < 0 for e in self.coeffs):
            raise ValueError(f"not divisible by q^{-k}")
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
            if deg_r < deg_o:
                raise ValueError("nonzero remainder in exact division")
            head = rem[deg_r]
            if head % lead:
                raise ValueError("nonzero remainder in exact division")
            qc = head // lead
            qe = deg_r - deg_o
            quot[qe] = qc
            for e, c in other.coeffs.items():
                e2 = e + qe
                nc = rem.get(e2, 0) - qc * c
                if nc:
                    rem[e2] = nc
                else:
                    rem.pop(e2, None)
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


def q_integer(n: int) -> QPolynomial:
    """[n] = 1 + q + ... + q^{n-1}."""
    return QPolynomial({e: 1 for e in range(n)})


def q_binomial(big: int, small: int) -> QPolynomial:
    """Gaussian binomial coefficient [big choose small]."""
    if small < 0 or small > big:
        raise ValueError(f"need 0 <= {small} <= {big}")
    num = QPolynomial.one()
    den = QPolynomial.one()
    for k in range(small):
        num = num * q_integer(big - k)
        den = den * q_integer(k + 1)
    out = num.divide_exact(den)
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
    num = QPolynomial.one()
    den = QPolynomial.one()
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            num = num * QPolynomial.one_minus_q_pow(k + j + l - 1)
            den = den * QPolynomial.one_minus_q_pow(j + l - 1)
    return num.divide_exact(den)


def macmahon_count(n: int, k: int) -> int:
    """Number of plane partitions in an n x n x k box, by the product formula."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    num = den = 1
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            num *= k + j + l - 1
            den *= j + l - 1
    assert num % den == 0
    return num // den


def qpoly_matrix_det(mat: list[list[QPolynomial]]) -> QPolynomial:
    """Exact determinant of a small matrix of polynomials, by cofactor expansion."""
    n = len(mat)
    if n == 0:
        return QPolynomial.one()
    if n == 1:
        return mat[0][0]
    out = QPolynomial.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * qpoly_matrix_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out
