"""Batched momentum-subset sums against per-subset reference loops.

The reference loops below walk the momentum subsets one at a time with
scalar determinants, as the spectral routes did before they were batched
over the cached momentum table.  They quantise the momenta themselves,
so they do not read the table.  Their Cauchy-Binet sums enumerate boxed
shapes, so they share no code with the Jacobi-Trudi kernel the batched
routes use.
"""

from itertools import combinations

import numpy as np
import pytest

from spinpaths import chain, correlators
from spinpaths.chain import (
    ChainGeometry,
    SectorCapError,
    momentum_table,
)
from spinpaths.correlators import (
    equality_of_sums_report,
    persistence_spectral,
    trig_path_count,
)
from spinpaths.schur import vandermonde
from cauchy_binet_float import cauchy_binet_enum
from det_product_spectral import det_product_spectral

RNG = np.random.default_rng(2024)
# the batched sums accumulate in another order than the loops
REL_TOL = 1e-12
TIMES = (0.4, 0.3 + 0.9j)


def close(got, want):
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def grid_thetas(geom, subset):
    """theta_s = 2 pi/(M+1) (s - (N-1)/2) at the grid indices `subset`."""
    s = np.array(subset, dtype=float)
    return 2.0 * np.pi / geom.sites * (s - (geom.n - 1) / 2.0)


def ref_momenta(geom):
    """The thetas of every momentum subset, descending grid indices in
    lexicographic order."""
    for subset in combinations(range(geom.m, -1, -1), geom.n):
        yield grid_thetas(geom, subset)


def ref_persistence(geom, n, t):
    ground = grid_thetas(geom, range(geom.n - 1, -1, -1))
    gphases = np.exp(1j * ground)
    total = 0.0 + 0.0j
    for thetas in ref_momenta(geom):
        phases = np.exp(1j * thetas)
        p = cauchy_binet_enum(np.conj(phases), gphases, geom.k_cap, n)
        total += np.exp(-t * (np.sum(np.cos(ground)) - np.sum(np.cos(thetas)))) * \
            abs(vandermonde(phases) * p) ** 2
    # the ground norm (M+1)^N / |V|^2
    return total * abs(vandermonde(gphases)) ** 2 / geom.sites ** (2 * geom.n)


def ref_det_product_sum(geom, j, l, weight):
    acc = 0.0 + 0.0j
    for thetas in ref_momenta(geom):
        a = np.exp(1j * np.outer(thetas, j))
        b = np.exp(-1j * np.outer(thetas, l))
        w = weight(np.sum(np.cos(thetas)))
        acc += w * np.linalg.det(a) * np.linalg.det(b)
    return acc / geom.sites ** geom.n


def ref_transition(geom, u_sq, v_inv_sq, n, t):
    acc = 0.0 + 0.0j
    for thetas in ref_momenta(geom):
        phases = np.exp(1j * thetas)
        p_left = cauchy_binet_enum(v_inv_sq, phases, geom.k_cap, n)
        p_right = cauchy_binet_enum(np.conj(phases), u_sq, geom.k_cap, n)
        acc += np.exp(t * np.sum(np.cos(thetas))) * \
            abs(vandermonde(phases)) ** 2 * p_left * p_right
    return acc / geom.sites ** geom.n


def ref_equality_lhs(geom, n, steps):
    ones = (1.0,) * geom.n
    acc = 0.0
    for thetas in ref_momenta(geom):
        phases = np.exp(1j * thetas)
        p = cauchy_binet_enum(ones, phases, geom.k_cap, n)
        acc += (2.0 * np.sum(np.cos(thetas))) ** steps * \
            abs(vandermonde(phases) * p) ** 2
    return acc / geom.sites ** geom.n


def random_subset(m, n):
    return tuple(int(v) for v in
                 sorted(RNG.choice(m + 1, size=n, replace=False), reverse=True))


def random_params(n):
    return tuple(complex(a, b) for a, b in
                 zip(RNG.uniform(0.4, 1.4, n), RNG.uniform(-0.4, 0.4, n)))


# N = 1, N = M and a middle case; every string length from 0 to k_cap
GEOMETRIES = [(5, 1), (4, 4), (7, 3)]
# 210 subsets, more than one SUBSET_BLOCK; and N = 0
DET_GEOMETRIES = GEOMETRIES + [(9, 4), (3, 0)]


def string_lengths(geom):
    return sorted({0, 1, geom.k_cap})


@pytest.mark.parametrize("m,n", GEOMETRIES)
def test_persistence_matches_loop(m, n):
    geom = ChainGeometry(m, n)
    for shift in string_lengths(geom):
        for t in TIMES:
            assert close(persistence_spectral(geom, shift, t),
                         ref_persistence(geom, shift, t))


def test_persistence_cached_equals_cold():
    geom = ChainGeometry(6, 3)
    warm = [persistence_spectral(geom, 1, t) for t in TIMES]
    again = [persistence_spectral(geom, 1, t) for t in TIMES]
    correlators._persistence_overlaps.cache_clear()
    cold = [persistence_spectral(geom, 1, t) for t in TIMES]
    assert warm == again == cold


@pytest.mark.parametrize("m,n", DET_GEOMETRIES)
def test_multi_particle_spectral_matches_loop(m, n):
    # the momentum route's one N x N determinant against the subset sum it
    # collapses, batched and one subset at a time
    geom = ChainGeometry(m, n)
    for t in TIMES:
        j, l = random_subset(m, n), random_subset(m, n)

        def weight(c):
            return np.exp(t * c)

        got = correlators._momentum_minor(geom, j, l, t)
        assert close(got, det_product_spectral(m, j, l, t))
        assert close(got, ref_det_product_sum(geom, j, l, weight))
        assert got == correlators._momentum_minor(geom, j, l, t)


@pytest.mark.parametrize("m,n", DET_GEOMETRIES)
def test_trig_count_matches_loop(m, n):
    geom = ChainGeometry(m, n)
    for steps in (0, 3, 8):
        j, l = random_subset(m, n), random_subset(m, n)
        want = ref_det_product_sum(geom, j, l, lambda c: (2.0 * c) ** steps)
        assert trig_path_count(geom, j, l, steps) == round(want.real)


@pytest.mark.parametrize("m,n", GEOMETRIES)
def test_transition_spectral_matches_loop(m, n):
    geom = ChainGeometry(m, n)
    for shift in string_lengths(geom):
        for t in TIMES:
            u, v = random_params(n), random_params(n)
            got = correlators._transition_spectral(geom, u, v, shift, t)
            assert close(got, ref_transition(geom, u, v, shift, t))


@pytest.mark.parametrize("m,n,shift", [(4, 2, 0), (5, 3, 1), (4, 4, 1)])
def test_transition_spectral_coincident_parameters(m, n, shift):
    """Equal parameters have no Cauchy closed form; one side or both."""
    geom = ChainGeometry(m, n)
    u, v = (1.0,) * n, random_params(n)
    for t in TIMES:
        for left, right in ((u, v), (v, u), (u, u)):
            got = correlators._transition_spectral(geom, left, right, shift, t)
            assert close(got, ref_transition(geom, left, right, shift, t))


@pytest.mark.parametrize("m,n", GEOMETRIES)
def test_equality_of_sums_lhs_matches_loop(m, n):
    geom = ChainGeometry(m, n)
    for shift in string_lengths(geom):
        report = equality_of_sums_report(geom, shift, 5)
        assert close(report["lhs"], ref_equality_lhs(geom, shift, 5))
        assert report["pass"]


@pytest.mark.parametrize("m,n", [(4, 0), (5, 1), (4, 4), (6, 3), (3, 4)])
def test_table_rows_follow_enumeration(m, n):
    geom = ChainGeometry(m, n)
    table = momentum_table(geom)
    subsets = list(combinations(range(m, -1, -1), n))
    assert table.indices.shape == (len(subsets), n)
    for row, subset in enumerate(subsets):
        thetas = grid_thetas(geom, subset)
        assert tuple(table.indices[row]) == subset
        assert np.array_equal(table.thetas[row], thetas)
        assert abs(table.energies[row] - (n - np.sum(np.cos(thetas)))) <= 1e-13
    assert momentum_table(geom) is table
    with pytest.raises(ValueError):
        table.thetas[0, ...] = 0.0


def test_table_cap_checked_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("subsets enumerated past the cap")

    monkeypatch.setattr(chain, "descending_subsets", refuse)
    momentum_table.cache_clear()
    with pytest.raises(SectorCapError):
        momentum_table(ChainGeometry(40, 20))
    assert momentum_table.cache_info().currsize == 0
