"""Schur polynomials two ways, plus the boxed Cauchy-Binet kernels.

The determinant (ratio-of-alternants) route needs pairwise distinct
arguments; the tableau route is exact everywhere but enumerative.  Both
are kept and cross-checked; `schur_values` picks the valid one per point.
The Jacobi-Trudi rows hold every s_lam(x) as a minor at any x, so the
spectral routes take each boxed sum as one determinant (Cauchy-Binet).
Hook-content gives s_lam(1, q, .., q^{n-1}) with no tableaux.  Every
entry point drops a shape's zero parts.  Only the numeric functions import
numpy, and only the q-functions `qpoly`, so `schur --at-ones` starts
without either.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import DEFAULT_ENUM_CAP, CoincidentArgumentsError, EnumerationCapError
from .partitions import (
    Partition,
    check_partition,
    lambda_to_mu,
    mu_to_lambda,
    shifted_boxed_partitions,
)

if TYPE_CHECKING:
    import numpy as np
    from .qpoly import QPolynomial

SEPARATION_TOL = 1e-9


def _shape(lam: Partition) -> Partition:
    """The shape rule of every Schur entry point: zero parts are dropped."""
    return tuple(p for p in check_partition(lam) if p)


def vandermonde(x: Sequence[complex]) -> complex:
    """Product of (x_l - x_m) over m < l."""
    x = list(x)
    out = 1.0 + 0.0j
    for l in range(len(x)):
        for m in range(l):
            out *= x[l] - x[m]
    return out


def _check_distinct(x: Sequence[complex]) -> None:
    for i in range(len(x)):
        for j in range(i):
            scale = max(1.0, abs(x[i]), abs(x[j]))
            if abs(x[i] - x[j]) / scale <= SEPARATION_TOL:
                raise CoincidentArgumentsError(
                    f"arguments {x[i]} and {x[j]} too close for the determinant route"
                )


def schur_values(x: Sequence[complex], mus: Sequence[Sequence[int]]) -> np.ndarray:
    """(R,) Schur values at x, one per row mu = lam + staircase of the (R, N)
    `mus`: one batched alternant det(x_j^{mu_k}) / (sign V(x)) at distinct
    x, else the count at 1^N or tableau enumeration, row by row."""
    import numpy as np
    from .kernels import power_stacks, stacked_dets
    n = len(x)
    mus = np.asarray(mus, dtype=float).reshape(len(mus), n)
    try:
        _check_distinct(x)
    except CoincidentArgumentsError:
        ones = all(abs(xi - 1.0) < 1e-15 for xi in x)
        return np.array([schur_count_at_one(lam, n) if ones else
                         schur_from_monomials(schur_monomials(lam, n), x)
                         for lam in map(mu_to_lambda, mus)], dtype=complex)
    # each distinct exponent once: entry (j, k) is x_j ** mu_k
    exponents, inverse = np.unique(mus, return_inverse=True)
    inverse = inverse.reshape(mus.shape)
    build = power_stacks(exponents, np.asarray(x, dtype=complex), inverse,
                         lambda mu, xj: xj ** mu)
    dets = stacked_dets(inverse, build)
    # the staircase alternant det(x_j^{n-k}) carries the sign (-1)^{n(n-1)/2}
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return dets / (sign * vandermonde(x))


def schur_determinant(lam: Partition, x: Sequence[complex]) -> complex:
    """det(x_j^{lam_k + N - k}) / Vandermonde(x); requires distinct x."""
    _check_distinct(x)
    return schur_evaluate(lam, x)


def ssyt(lam: Partition, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All semi-standard tableaux of shape lam with entries in 1..n.

    Rows weakly increase, columns strictly increase.
    """
    lam = _shape(lam)
    if len(lam) > n:
        return

    def rows(i: int, prev: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(lam):
            yield ()
            return
        width = lam[i]

        def fill(j: int, row: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if j == width:
                yield row
                return
            lo = row[-1] if row else 1
            if j < len(prev):
                lo = max(lo, prev[j] + 1)
            for v in range(lo, n + 1):
                yield from fill(j + 1, row + (v,))

        for row in fill(0, ()):
            for rest in rows(i + 1, row):
                yield (row,) + rest

    yield from rows(0, ())


def tableau_step_counts(tab: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """(l_1, ..., l_n): multiplicity of each letter in the tableau."""
    counts = [0] * n
    for row in tab:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def schur_monomials(lam: Partition, n: int) -> Counter:
    """Exponent-vector multiset of the Schur polynomial in n variables."""
    bound = schur_count_at_one(lam, n)
    if bound > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(f"{bound} tableaux exceeds cap {DEFAULT_ENUM_CAP}")
    out: Counter = Counter()
    for tab in ssyt(lam, n):
        out[tableau_step_counts(tab, n)] += 1
    return out


def schur_from_monomials(monomials: Counter, x: Sequence[complex]) -> complex:
    out = 0.0 + 0.0j
    for expo, mult in monomials.items():
        term = complex(mult)
        for xi, e in zip(x, expo):
            term *= xi ** e
        out += term
    return out


def schur_count_at_one(lam: Partition, n: int) -> int:
    """Number of SSYT of shape lam with entries in 1..n, by the product formula."""
    if n < 0:
        raise ValueError(f"need n >= 0 variables, got {n}")
    lam = _shape(lam)
    if len(lam) > n:
        return 0
    mu = lambda_to_mu(lam, n)
    num = den = 1
    for j in range(n):
        for k in range(j + 1, n):
            num *= mu[j] - mu[k]
            den *= k - j
    assert num % den == 0
    return num // den


def schur_evaluate(lam: Partition, x: Sequence[complex]) -> complex:
    """Schur value at x; falls back to tableau enumeration at degenerate points."""
    lam = _shape(lam)
    if len(lam) > len(x):
        return 0j
    return complex(schur_values(x, [lambda_to_mu(lam, len(x))])[0])


def jacobi_trudi_rows(x: Sequence[complex], width: int) -> np.ndarray:
    """Flagged Jacobi-Trudi rows: entry (a, m) is h_{m-N+1+a}(x_1..x_{N-a}).

    Unit-triangular row operations take the plain rows h_{m-N+1+a}(x) to
    these, so the minor on the columns mu = lam + staircase, in that order,
    is s_lam(x) at any x.  They cancel far less: at x = 1^N, C(m, N-1-a).
    """
    import numpy as np
    out = np.zeros((len(x), width), dtype=complex)
    h = np.eye(1, width, dtype=complex)[0]
    for j, xj in enumerate(x):
        # h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j h_{k-1}(x_1..x_j)
        for k in range(1, width):
            h[k] += xj * h[k - 1]
        out[-1 - j, j:] = h[:max(width - j, 0)]
    return out


def schur_q_polynomial(lam: Partition, n: int) -> QPolynomial:
    """Exact s_lam(1, q, .., q^{n-1}) by the hook-content formula (Stanley,
    EC2 §7.21): q^{sum_i (i-1) lam_i} prod_boxes (1 - q^{n+c}) / (1 - q^{hook})."""
    from .qpoly import QPolynomial, q_product_ratio
    lam = _shape(lam)
    if len(lam) > n:
        return QPolynomial.zero()
    boxes = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    cols = [sum(row > j for row in lam) for j in range(max(lam, default=0))]
    ratio = q_product_ratio((n + j - i for i, j in boxes),
                            (lam[i] - j + cols[j] - i - 1 for i, j in boxes))
    return ratio.shifted(sum(i * row for i, row in enumerate(lam)))


def cauchy_binet_closed(x: Sequence[complex], y: Sequence[complex],
                        length: int, n: int) -> complex:
    """Closed form of the boxed sum of Schur products:

    (prod x_l^n y_l^n) * det(T) / (V(x) V(y)),
    T_kj = (1 - (x_k y_j)^{length-n+N}) / (1 - x_k y_j),
    with the removable singularity at x_k y_j = 1 replaced by length-n+N.
    """
    import numpy as np
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if length - n < 0:
        raise ValueError("need length >= n")
    _check_distinct(x)
    _check_distinct(y)
    power = length - n + len(x)
    p = np.outer(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    near = np.abs(p - 1.0) < 1e-12
    t = np.where(near, power, (1.0 - p ** power) / np.where(near, 1.0, 1.0 - p))
    pref = 1.0 + 0.0j
    for xl, yl in zip(x, y):
        pref *= (xl * yl) ** n
    return complex(pref * np.linalg.det(t) / (vandermonde(x) * vandermonde(y)))


def cauchy_binet_enum(x: Sequence[complex], y: Sequence[complex],
                      length: int, n: int) -> complex:
    """The same boxed sum by direct enumeration of partitions, refused past
    `DEFAULT_ENUM_CAP` shapes before any is built."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if length - n < 0:
        raise ValueError("need length >= n")
    shapes = comb(length - n + len(x), len(x))
    if shapes > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(f"{shapes} boxed shapes exceeds cap {DEFAULT_ENUM_CAP}")
    from .kernels import subset_rows
    # mu = lam + staircase over the boxed shapes, in their order
    mus = n + subset_rows(length - n + len(x) - 1, len(x))
    # multiplied as Python complexes: a numpy product can round differently
    sx, sy = schur_values(x, mus).tolist(), schur_values(y, mus).tolist()
    return sum((a * b for a, b in zip(sx, sy)), 0j)


def projection_average_q(n_vars: int, m_sites: int, n_string: int) -> QPolynomial:
    """Exact q-weighted boxed sum S_lam(q,..,q^N) S_lam(1,..,q^{N-1}), where
    the first factor is q^{|lam|} times the second.

    Equals q^{n*N^2} * macmahon_z(N, K - n) with K = M - N + 1.
    """
    from .qpoly import QPolynomial
    k_cap = m_sites - n_vars + 1
    if not 0 <= n_string <= k_cap:
        raise ValueError(f"need 0 <= n <= {k_cap}")
    out = QPolynomial.zero()
    for lam in shifted_boxed_partitions(n_vars, k_cap - n_string, n_string):
        s = schur_q_polynomial(lam, n_vars)
        out = out + (s * s).shifted(sum(lam))
    return out
