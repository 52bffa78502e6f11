"""The boxed Cauchy-Binet sum in floats, two ways, as test references.

`verify cauchy-binet` checks the identity exactly, at integer points; these
float routes take it at complex points, where the spectral routes' Schur
sums live.  Both raise `ValueError` on vectors of unequal length or a
length below the shift.
"""

from math import comb
from typing import Sequence

import numpy as np

from spinpaths import core
from spinpaths.kernels import subset_rows
from spinpaths.schur import _check_distinct, schur_values, vandermonde


def cauchy_binet_closed(x: Sequence[complex], y: Sequence[complex],
                        length: int, n: int) -> complex:
    """Closed form of the boxed sum of Schur products:

    (prod x_l^n y_l^n) * det(T) / (V(x) V(y)),
    T_kj = (1 - (x_k y_j)^{length-n+N}) / (1 - x_k y_j),
    with the removable singularity at x_k y_j = 1 replaced by length-n+N.
    """
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
    `core.DEFAULT_ENUM_CAP` shapes before any is built."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if length - n < 0:
        raise ValueError("need length >= n")
    core.admit(comb(length - n + len(x), len(x)), core.DEFAULT_ENUM_CAP, "boxed shapes")
    # mu = lam + staircase over the boxed shapes, in their order
    mus = n + subset_rows(length - n + len(x) - 1, len(x))
    # multiplied as Python complexes: a numpy product can round differently
    sx, sy = schur_values(x, mus).tolist(), schur_values(y, mus).tolist()
    return sum((a * b for a, b in zip(sx, sy)), 0j)
