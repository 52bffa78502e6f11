"""Schur polynomials two ways, plus the Jacobi-Trudi rows of boxed sums.

The determinant (ratio-of-alternants) route needs pairwise distinct
arguments; the monomials, by the branching rule, are exact everywhere.
Both are kept and cross-checked; `schur_values` picks the valid one per point.
The Jacobi-Trudi rows, plain lists, hold every s_lam(x) as a minor at
any x, so the amplitude takes its boxed sums as one determinant
(Cauchy-Binet).  Hook-content gives s_lam(1, q, .., q^{n-1}) with no
tableaux.  Every entry point drops a shape's zero parts.  Only the
alternants (`schur_values`) import numpy, and only the q-functions
`qpoly`, so `schur --at-ones` starts without either.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import TYPE_CHECKING, Sequence

from . import core
from .core import CoincidentArgumentsError, EnumerationCapError  # the cap error's old path
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
    `mus`: at distinct x, det(x_j^{mu_k}) / (sign V(x)), each alternant a
    minor of the one table x_j^m over the distinct exponents m of `mus`;
    else the count at 1^N or the monomials, row by row."""
    import numpy as np
    from .kernels import stacked_dets
    n = len(x)
    mus = np.asarray(mus, dtype=float).reshape(len(mus), n)
    try:
        _check_distinct(x)
    except CoincidentArgumentsError:
        ones = all(abs(xi - 1.0) < 1e-15 for xi in x)
        return np.array([schur_count_at_one(lam, n) if ones else
                         schur_from_monomials(schur_monomials(lam, n), x)
                         for lam in map(mu_to_lambda, mus)], dtype=complex)
    exps, cols = np.unique(mus, return_inverse=True)
    powers = np.asarray(x, dtype=complex)[:, None] ** exps
    dets = stacked_dets(cols.reshape(mus.shape), lambda r: powers[:, r].transpose(1, 0, 2))
    # the staircase alternant det(x_j^{n-k}) carries the sign (-1)^{n(n-1)/2}
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return dets / (sign * vandermonde(x))


def schur_determinant(lam: Partition, x: Sequence[complex]) -> complex:
    """det(x_j^{lam_k + N - k}) / Vandermonde(x); requires distinct x."""
    _check_distinct(x)
    return schur_evaluate(lam, x)


def schur_monomials(lam: Partition, n: int) -> Counter:
    """Exponent multiset (l_1..l_n) of s_lam in n variables, one count per
    tableau (priced first), by the branching rule (Macdonald I.(5.11)): the
    letters <= k of a tableau fill a shape interlacing that of the letters
    <= k+1.  Level k maps each such shape to a Counter of tails (l_{k+1}..l_n);
    a step down prepends |nu/nu'|, and two levels are held at once."""
    lam = _shape(lam)
    core.admit(schur_count_at_one(lam, n), core.DEFAULT_ENUM_CAP, "tableaux")
    if len(lam) > n:
        return Counter()
    level = {lam + (0,) * (n - len(lam)): Counter({(): 1})}
    for k in range(n, 0, -1):
        below: dict[Partition, Counter] = {}
        for nu, tails in level.items():
            for sub in product(*(range(nu[i], nu[i + 1] - 1, -1) for i in range(k - 1))):
                out, step = below.setdefault(sub, Counter()), sum(nu) - sum(sub)
                for tail, mult in tails.items():
                    out[(step,) + tail] += mult
        level = below
    return level[()]


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
    """Schur value at x; falls back to the monomials at degenerate points."""
    lam = _shape(lam)
    if len(lam) > len(x):
        return 0j
    return complex(schur_values(x, [lambda_to_mu(lam, len(x))])[0])


def jacobi_trudi_rows(x: Sequence[complex], width: int) -> list[list[complex]]:
    """Flagged Jacobi-Trudi rows: entry (a, m) is h_{m-N+1+a}(x_1..x_{N-a}).

    Unit-triangular row operations take the plain rows h_{m-N+1+a}(x) to
    these, so the minor on the columns mu = lam + staircase, in that order,
    is s_lam(x) at any x.  They cancel far less: at x = 1^N, C(m, N-1-a).
    """
    out = [[0j] * width for _ in x]
    h = [1 + 0j] + [0j] * (width - 1)
    for j, xj in enumerate(x):
        # h_k(x_1..x_j) = h_k(x_1..x_{j-1}) + x_j h_{k-1}(x_1..x_j)
        for k in range(1, width):
            h[k] += xj * h[k - 1]
        out[-1 - j][j:] = h[:max(width - j, 0)]
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
