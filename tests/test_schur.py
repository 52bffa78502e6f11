from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from spinpaths.kernels import SUBSET_BLOCK
from spinpaths.partitions import (
    boxed_partitions,
    lambda_to_mu,
    shifted_boxed_partitions,
)
from spinpaths.qpoly import QPolynomial, macmahon_z
from spinpaths.schur import (
    CoincidentArgumentsError,
    jacobi_trudi_rows,
    projection_average_q,
    schur_count_at_one,
    schur_determinant,
    schur_evaluate,
    schur_from_monomials,
    schur_monomials,
    schur_q_polynomial,
    schur_values,
    vandermonde,
)
from cauchy_binet_float import cauchy_binet_closed, cauchy_binet_enum

RNG = np.random.default_rng(20260826)


def random_point(n):
    return RNG.normal(size=n) + 1j * RNG.normal(size=n)


def test_vandermonde_examples():
    assert vandermonde([2.0]) == 1
    assert vandermonde([1.0, 1.0]) == 0
    assert vandermonde([2.0, 5.0, 7.0]) == pytest.approx(30.0)


def test_vandermonde_matches_alternant_up_to_parity_sign():
    for n in range(1, 6):
        x = random_point(n)
        mat = x[:, None] ** np.arange(n - 1, -1, -1)[None, :]
        sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
        assert np.linalg.det(mat) == pytest.approx(sign * vandermonde(x), rel=1e-10)


def test_schur_trivial_cases():
    x = random_point(3)
    assert schur_determinant((0, 0, 0), x) == pytest.approx(1.0, rel=1e-10)
    a, b = random_point(2)
    assert schur_determinant((1, 0), [a, b]) == pytest.approx(a + b, rel=1e-10)


def test_schur_rejects_coincident_points():
    with pytest.raises(CoincidentArgumentsError):
        schur_determinant((1,), [1.0, 1.0 + 1e-12])


def test_schur_dual_oracle_spot():
    for lam, n in [((5, 3, 2, 2), 4), ((2, 1), 3), ((3,), 2)]:
        monomials = schur_monomials(lam, n)
        for _ in range(5):
            x = random_point(n)
            d = schur_determinant(lam, x)
            e = schur_from_monomials(monomials, x)
            assert abs(d - e) <= 1e-10 * max(1.0, abs(e))


def test_schur_symmetric_under_permutation():
    lam = (3, 1)
    x = random_point(3)
    base = schur_determinant(lam, x)
    for _ in range(5):
        perm = RNG.permutation(3)
        assert schur_determinant(lam, x[perm]) == pytest.approx(base, rel=1e-10)


def brute_force_monomials(lam, n):
    """Letter counts of every tableau of shape lam in 1..n, the tableaux
    taken row by row: each row a weakly increasing word, each column
    strictly increasing down the rows."""
    def tableaux(rows, above):
        if not rows:
            yield ()
            return
        for row in combinations_with_replacement(range(1, n + 1), rows[0]):
            if all(a < b for a, b in zip(above, row)):
                yield from ((row,) + rest for rest in tableaux(rows[1:], row))

    return Counter(tuple(sum(row.count(v) for row in tab) for v in range(1, n + 1))
                   for tab in tableaux(lam, ()))


def test_schur_monomials_single_box():
    assert schur_monomials((1,), 2) == Counter({(1, 0): 1, (0, 1): 1})


def test_schur_monomials_match_brute_force_tableaux():
    # every shape in a 4 x 4 box, zero parts dropped, in 0 to 5 variables
    for box_shape in boxed_partitions(4, 4):
        lam = tuple(p for p in box_shape if p)
        for n in range(6):
            monomials = schur_monomials(lam, n)
            assert monomials == brute_force_monomials(lam, n), (lam, n)
            assert sum(monomials.values()) == schur_count_at_one(lam, n)


def test_kostka_number():
    # the two standard tableaux of shape (2, 1): K_{(2,1),(1,1,1)} = 2
    assert schur_monomials((2, 1), 3)[(1, 1, 1)] == 2


def test_schur_count_values():
    assert schur_count_at_one((0, 0, 0), 3) == 1
    assert schur_count_at_one((1, 0), 2) == 2
    assert schur_count_at_one((2, 1), 3) == 8


def test_figure_weight_occurs():
    # shape (6,3,3,1) in 4 letters contains a tableau with letter counts (4,3,3,3)
    monomials = schur_monomials((6, 3, 3, 1), 4)
    assert monomials[(4, 3, 3, 3)] >= 1


def test_schur_evaluate_at_ones():
    assert schur_evaluate((2, 1), [1.0, 1.0, 1.0]) == pytest.approx(8.0)


@pytest.mark.parametrize("x,box", [
    ((0.9 + 0.3j, -0.4 + 1.1j, 1.2 - 0.5j), 3),     # distinct
    ((0.7 - 0.2j, 1.3 + 0.4j, 0.7 - 0.2j), 3),      # partly coincident
    ((1.0,) * 4, 3),                                # all ones
    ((0.6 - 0.8j,), 5),                             # N = 1
    ((0.9 + 0.3j, -0.4 + 1.1j, 1.2 - 0.5j), 0),     # width-0 box
])
def test_jacobi_trudi_minors_match_tableaux(x, box):
    nvar = len(x)
    rows = jacobi_trudi_rows(x, nvar + box)
    assert rows.shape == (nvar, nvar + box)
    for lam in boxed_partitions(nvar, box):
        want = schur_from_monomials(schur_monomials(lam, nvar), x)
        got = np.linalg.det(rows[:, list(lambda_to_mu(lam, nvar))])
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("x,tol", [
    ((0.9 + 0.3j, -0.4 + 1.1j, 1.2 - 0.5j, 0.3 - 0.8j), 1e-10),  # distinct
    ((0.7 - 0.2j, 1.3 + 0.4j, 0.7 - 0.2j, -0.5 + 0.1j), 0.0),    # partly coincident
    ((1.0,) * 4, 0.0),                                          # all ones
], ids=["distinct", "partly-coincident", "all-ones"])
def test_schur_values_match_tableaux(x, tol):
    # the 210 shapes of the 4 x 6 box fill more than one block of alternants
    shapes = list(boxed_partitions(4, 6))
    assert len(shapes) > SUBSET_BLOCK
    got = schur_values(x, [lambda_to_mu(lam, 4) for lam in shapes])
    assert got.shape == (len(shapes),)
    for lam, value in zip(shapes, got):
        want = schur_from_monomials(schur_monomials(lam, 4), x)
        assert abs(value - want) <= tol * max(1.0, abs(want)), lam


def test_schur_values_without_variables():
    want = schur_from_monomials(schur_monomials((), 0), ())
    assert schur_values((), [()]).tolist() == [want] == [1.0]


def test_cauchy_binet_single_variable():
    x, y = random_point(1), random_point(1)
    for n in (0, 1, 2):
        got = cauchy_binet_closed(x, y, n + 1, n)
        want = (x[0] * y[0]) ** n * (1 + x[0] * y[0])
        assert got == pytest.approx(want, rel=1e-9)


def test_cauchy_binet_full_box_single_term():
    # length == shift: only the rectangular shape survives
    n = 3
    x, y = random_point(n), random_point(n)
    got = cauchy_binet_closed(x, y, 2, 2)
    want = np.prod([(xl * yl) ** 2 for xl, yl in zip(x, y)])
    assert got == pytest.approx(complex(want), rel=1e-9)


@pytest.mark.parametrize("nvar,length,shift", [(1, 3, 1), (2, 3, 0), (2, 4, 2),
                                               (3, 4, 1), (4, 5, 0)])
def test_cauchy_binet_enum_vs_closed(nvar, length, shift):
    for _ in range(5):
        x, y = random_point(nvar), random_point(nvar)
        a = cauchy_binet_enum(x, y, length, shift)
        b = cauchy_binet_closed(x, y, length, shift)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_cauchy_binet_singular_entry():
    x = np.array([2.0 + 0j, 0.5j])
    y = np.array([0.5 + 0j, 1.3 + 0j])      # x_0 * y_0 == 1 exactly
    a = cauchy_binet_enum(x, y, 3, 1)
    b = cauchy_binet_closed(x, y, 3, 1)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@pytest.mark.parametrize("route", [cauchy_binet_closed, cauchy_binet_enum])
@pytest.mark.parametrize("y,length,shift,detail", [
    ((0.2,), 3, 0, "x and y must have equal length"),
    ((0.2, 0.7), 1, 2, "need length >= n"),
])
def test_cauchy_binet_rejects_bad_sizes(route, y, length, shift, detail):
    with pytest.raises(ValueError, match=detail):
        route((0.5, 0.3), y, length, shift)


def test_schur_q_polynomial_known():
    # s_lam(1, q, .., q^{n-1}); the zero parts of a shape are dropped
    assert schur_q_polynomial((1,), 2) == QPolynomial({0: 1, 1: 1})
    assert schur_q_polynomial((1, 0, 0), 2) == QPolynomial({0: 1, 1: 1})
    assert schur_q_polynomial((2, 1), 3) == QPolynomial({1: 1, 2: 2, 3: 2, 4: 2, 5: 1})
    assert schur_q_polynomial((1, 1, 1), 2).is_zero()
    assert schur_q_polynomial((), 0) == QPolynomial.one()


@pytest.mark.parametrize("nvar,m,shift", [(1, 1, 0), (1, 3, 2), (2, 3, 0),
                                          (2, 3, 1), (3, 4, 1), (3, 5, 0)])
def test_projection_average_matches_box_generating_function(nvar, m, shift):
    k_cap = m - nvar + 1
    lhs = projection_average_q(nvar, m, shift)
    rhs = macmahon_z(nvar, k_cap - shift).shifted(shift * nvar * nvar)
    assert lhs == rhs


def test_projection_average_full_string():
    # shift == width bound: only the rectangle contributes q^{shift * nvar^2}
    lhs = projection_average_q(2, 3, 2)
    assert lhs == QPolynomial({2 * 4: 1})


def test_projection_average_rejects_large_shift():
    with pytest.raises(ValueError):
        projection_average_q(2, 3, 3)
