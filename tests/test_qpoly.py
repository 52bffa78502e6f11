import random
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from spinpaths.qpoly import (
    QPolynomial,
    macmahon_count,
    macmahon_z,
    q_binomial,
    q_binomial_extended,
    qpoly_matrix_det,
)


def brute_force_plane_partitions(n, k):
    """All n x n arrays with entries 0..k, weakly decreasing along rows and columns."""
    out = []
    for flat in product(range(k + 1), repeat=n * n):
        arr = [flat[i * n:(i + 1) * n] for i in range(n)]
        rows_ok = all(arr[i][j] >= arr[i][j + 1]
                      for i in range(n) for j in range(n - 1))
        cols_ok = all(arr[i][j] >= arr[i + 1][j]
                      for i in range(n - 1) for j in range(n))
        if rows_ok and cols_ok:
            out.append(arr)
    return out


def test_arithmetic_basics():
    p = QPolynomial({0: 1, 1: 1})
    assert str(p * p) == "1 + 2*q + q^2"
    assert (p - p).is_zero()
    assert p(2) == 3
    assert p.at_one() == 2
    assert QPolynomial({2: 0}).is_zero()


def test_exact_division():
    num = QPolynomial({0: 1, 3: -1})          # 1 - q^3
    den = QPolynomial({0: 1, 1: -1})          # 1 - q
    assert num.divide_exact(den) == QPolynomial({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        QPolynomial({0: 1, 1: 1}).divide_exact(QPolynomial({0: 1, 1: -1}))


def test_shift_negative_requires_divisibility():
    p = QPolynomial({2: 3, 4: 1})
    assert p.shifted(-2) == QPolynomial({0: 3, 2: 1})
    with pytest.raises(ValueError):
        p.shifted(-3)


def test_q_binomial_frozen_values():
    assert q_binomial(2, 1) == QPolynomial({0: 1, 1: 1})
    assert q_binomial(5, 0) == QPolynomial.one()
    assert q_binomial(4, 2) == QPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    with pytest.raises(ValueError):
        q_binomial(2, 3)
    assert q_binomial_extended(2, 3).is_zero()


def gaussian_recursion(big, small):
    # [R r] = [R-1 r-1] + q^r [R-1 r]
    if small in (0, big):
        return QPolynomial.one()
    return gaussian_recursion(big - 1, small - 1) + \
        QPolynomial({small: 1}) * gaussian_recursion(big - 1, small)


@pytest.mark.parametrize("big", range(1, 8))
def test_q_binomial_vs_recursion(big):
    for small in range(big + 1):
        assert q_binomial(big, small) == gaussian_recursion(big, small)


@given(st.integers(min_value=0, max_value=9))
def test_q_binomial_symmetry(big):
    for small in range(big + 1):
        assert q_binomial(big, small) == q_binomial(big, big - small)
        assert q_binomial(big, small).at_one() == comb(big, small)


def test_macmahon_trivial():
    for n in range(1, 4):
        assert macmahon_z(n, 0) == QPolynomial.one()
        assert macmahon_count(n, 0) == 1
    assert macmahon_z(1, 1) == QPolynomial({0: 1, 1: 1})


@pytest.mark.parametrize("n,k", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_macmahon_vs_brute_force(n, k):
    pps = brute_force_plane_partitions(n, k)
    assert macmahon_count(n, k) == len(pps)
    weights = {}
    for arr in pps:
        w = sum(sum(row) for row in arr)
        weights[w] = weights.get(w, 0) + 1
    assert macmahon_z(n, k) == QPolynomial(weights)


@pytest.mark.parametrize("fn", [macmahon_z, macmahon_count])
@pytest.mark.parametrize("n,k", [(0, 2), (-1, 0), (2, -1)])
def test_macmahon_rejects_an_empty_box_side(fn, n, k):
    with pytest.raises(ValueError, match="need n >= 1, k >= 0"):
        fn(n, k)


def test_macmahon_a22_is_20():
    assert macmahon_count(2, 2) == 20
    assert macmahon_z(2, 2).at_one() == 20


def test_q_one_collapse():
    for n in range(1, 5):
        for k in range(0, 5):
            assert macmahon_z(n, k).at_one() == macmahon_count(n, k)


def test_matrix_det():
    one = QPolynomial.one()
    q = QPolynomial({1: 1})
    assert qpoly_matrix_det([]) == one
    assert qpoly_matrix_det([[q]]) == q
    assert qpoly_matrix_det([[one, q], [q, one]]) == one - q * q


def leibniz_det(mat):
    """Sum over permutations of the signed products, the independent reference."""
    out = QPolynomial.zero()
    for perm in permutations(range(len(mat))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = QPolynomial.one()
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        out = out + term * (-1) ** inversions
    return out


@pytest.mark.parametrize("seed", range(40))
def test_matrix_det_matches_leibniz_with_row_swaps(seed):
    rng = random.Random(seed)
    n = 2 + seed % 4

    def entry():
        if rng.random() < 0.3:
            return QPolynomial.zero()
        return QPolynomial({rng.randrange(4): rng.randint(-3, 3) for _ in range(3)})

    mat = [[entry() for _ in range(n)] for _ in range(n)]
    # a zero pivot in the first column forces the elimination to swap rows
    mat[0][0] = QPolynomial.zero()
    mat[1][0] = QPolynomial({0: 1, 2: -1})
    if seed % 10 == 4:
        mat[-1] = list(mat[0])  # a repeated row
    if seed % 10 == 9:
        for row in mat:  # a zero column: no row to swap in
            row[0] = QPolynomial.zero()
    det = qpoly_matrix_det(mat)
    assert det == leibniz_det(mat)
    if seed % 10 in (4, 9):
        assert det.is_zero()
