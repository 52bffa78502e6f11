from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from spinpaths.partitions import (
    boxed_partitions,
    check_partition,
    lambda_to_mu,
    mu_to_lambda,
    pad,
    shifted_boxed_partitions,
    staircase,
)


def test_staircase():
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)
    assert staircase(2) == (1, 0)
    with pytest.raises(ValueError):
        staircase(0)


def test_coordinate_dictionary():
    # the worked example: coordinates (8,5,3,2) on 9 sites, shape (5,3,2,2)
    assert mu_to_lambda((8, 5, 3, 2)) == (5, 3, 2, 2)
    assert lambda_to_mu((5, 3, 2, 2), 4) == (8, 5, 3, 2)
    assert mu_to_lambda((3, 2, 1, 0)) == (0, 0, 0, 0)
    assert mu_to_lambda((2, 0)) == (1, 0)
    assert lambda_to_mu((1,), 2) == (2, 0)
    assert lambda_to_mu((0, 0, 0), 3) == staircase(3)


@given(st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
def test_round_trip(positions):
    mu = tuple(sorted(positions, reverse=True))
    assert lambda_to_mu(mu_to_lambda(mu), len(mu)) == mu


def test_invalid_inputs():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        mu_to_lambda((2, 2))
    with pytest.raises(ValueError):
        lambda_to_mu((3, 2, 1), 2)
    with pytest.raises(ValueError):
        pad((1, 1, 1), 2)


@pytest.mark.parametrize("n,w", [(1, 2), (2, 1), (2, 2), (3, 3), (4, 2)])
def test_boxed_count(n, w):
    got = list(boxed_partitions(n, w))
    assert len(got) == comb(n + w, n)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("n,w", [(0, 2), (-1, 0), (2, -1)])
def test_boxed_rejects_an_empty_box(n, w):
    with pytest.raises(ValueError, match="need n >= 1, w >= 0"):
        boxed_partitions(n, w)


def test_boxed_small_cases():
    assert set(boxed_partitions(1, 2)) == {(0,), (1,), (2,)}
    assert set(boxed_partitions(2, 1)) == {(0, 0), (1, 0), (1, 1)}
    assert len(list(boxed_partitions(2, 2))) == 6


def test_boxed_against_naive_filter():
    for n, w in product(range(1, 5), range(0, 5)):
        naive = {
            tup for tup in product(range(w + 1), repeat=n)
            if all(tup[i] >= tup[i + 1] for i in range(n - 1))
        }
        assert set(boxed_partitions(n, w)) == naive


def test_boxed_order_descending_lex():
    got = list(boxed_partitions(2, 2))
    assert got == sorted(got, reverse=True)
    assert got[0] == (2, 2)


def test_shifted_box():
    got = list(shifted_boxed_partitions(2, 1, 3))
    assert set(got) == {(3, 3), (4, 3), (4, 4)}
