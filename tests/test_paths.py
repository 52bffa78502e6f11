import tracemalloc
from itertools import islice
from math import comb
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpaths.chain import ChainGeometry, sector_basis
from spinpaths import kernels, paths, sector
from spinpaths.core import DEFAULT_ENUM_CAP, EnumerationCapError
from spinpaths.partitions import boxed_partitions, descending_subsets
from spinpaths.paths import (
    PathNest,
    conjugate_nest_partition_function,
    count_random_turns_paths,
    enumerate_nests,
    nest_partition_function,
    random_turns_counts,
    ring_power_rows,
    walker_counts,
)
from spinpaths.qpoly import QPolynomial
from spinpaths.schur import schur_count_at_one, schur_determinant, schur_q_polynomial


def test_empty_shape_single_nest():
    nests = list(enumerate_nests((0, 0), 2))
    assert len(nests) == 1
    assert nests[0].volume == 0


def test_single_box_nests():
    vectors = {n.step_counts for n in enumerate_nests((1, 0), 2)}
    assert vectors == {(1, 0), (0, 1)}


def test_figure_nest_present():
    vectors = {n.step_counts for n in enumerate_nests((6, 3, 3, 1), 4)}
    assert (4, 3, 3, 3) in vectors


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((3, 1), 2), ((2, 2, 1), 4),
                                   ((4,), 3)])
def test_nest_count_matches_schur_count(lam, n):
    assert len(list(enumerate_nests(lam, n))) == schur_count_at_one(lam, n)


def test_nest_order_is_step_counts_descending():
    # the two nests of step counts (2, 2, 1) and of (2, 1, 2) come in a row
    assert [nest.step_counts for nest in enumerate_nests((3, 2), 3)] == [
        (3, 2, 0), (3, 1, 1), (3, 0, 2), (2, 3, 0), (2, 2, 1), (2, 2, 1), (2, 1, 2),
        (2, 1, 2), (2, 0, 3), (1, 3, 1), (1, 2, 2), (1, 2, 2), (1, 1, 3), (0, 3, 2),
        (0, 2, 3)]


def test_volume_definition():
    nest = PathNest("C", (2, 1), (2, 1, 0))
    assert nest.volume == 2 * 2 + 1 * 1
    with pytest.raises(ValueError):
        PathNest("C", (2, 1), (1, 1, 0))


def test_nest_is_an_immutable_value():
    nest = PathNest("C", (2, 1), (2, 1, 0))
    assert nest == PathNest(kind="C", shape=(2, 1), step_counts=(2, 1, 0))
    assert nest != PathNest("C", (2, 1), (1, 2, 0))
    assert nest != PathNest("B", (2, 1), (2, 1, 0))
    assert hash(nest) == hash(PathNest("C", (2, 1), (2, 1, 0)))
    # 8 tableaux, two of them with the step counts (1, 1, 1)
    assert len(set(enumerate_nests((2, 1), 3))) == 7
    assert repr(nest) == \
        "PathNest(kind='C', shape=(2, 1), step_counts=(2, 1, 0), volume=5)"
    for field in ("kind", "shape", "step_counts", "volume"):
        with pytest.raises(AttributeError):
            setattr(nest, field, None)
        with pytest.raises(AttributeError):
            delattr(nest, field)
    assert nest.volume == 5


def test_nest_partition_function_examples():
    assert nest_partition_function((0,), 1) == QPolynomial.one()
    assert nest_partition_function((1,), 2) == QPolynomial({1: 1, 2: 1})


@pytest.mark.parametrize("lam,n", [((2, 1), 3), ((3, 2), 2), ((2, 2), 3)])
def test_nest_partition_function_is_schur_at_q_powers(lam, n):
    poly = nest_partition_function(lam, n)
    assert poly == schur_q_polynomial(lam, n).shifted(sum(lam))
    q = 0.7
    point = [q ** j for j in range(1, n + 1)]
    assert poly(q) == pytest.approx(schur_determinant(lam, point).real, rel=1e-10)


def test_conjugate_partition_function_examples():
    assert conjugate_nest_partition_function((0, 0), 2, 3) == QPolynomial.one()
    assert conjugate_nest_partition_function((1,), 2, 3) == QPolynomial({0: 1, 1: 1})


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2, 1), 3), ((2, 2), 3)])
def test_conjugate_partition_function_is_schur_at_shifted_powers(lam, n):
    got = conjugate_nest_partition_function(lam, n, m=n + lam[0])
    assert got == schur_q_polynomial(lam, n)


@pytest.mark.parametrize("n", range(6))
def test_nests_match_hook_content_over_a_box(n):
    # the nests walk tableaux; schur_q_polynomial never does
    for lam in boxed_partitions(4, 4):
        hook_content = schur_q_polynomial(lam, n)
        assert nest_partition_function(lam, n) == hook_content.shifted(sum(lam))
        m = n + lam[0]
        assert conjugate_nest_partition_function(lam, n, m) == hook_content
        assert hook_content.at_one() == schur_count_at_one(lam, n)


def test_conjugate_rejects_too_wide_shape():
    with pytest.raises(ValueError):
        conjugate_nest_partition_function((4,), 2, 3)


def test_walk_count_zero_steps():
    assert count_random_turns_paths((1, 0), (1, 0), 0, 3) == 1
    assert count_random_turns_paths((1, 0), (2, 0), 0, 3) == 0


def test_single_walker_round_trips():
    assert count_random_turns_paths((0,), (0,), 2, 3) == 2


def test_two_site_ring_doubled_bond():
    # both moves lead to the other site, counted separately
    assert count_random_turns_paths((0,), (1,), 1, 1) == 2
    assert count_random_turns_paths((0,), (0,), 2, 1) == 4


def test_walker_count_mismatch():
    with pytest.raises(ValueError):
        count_random_turns_paths((1, 0), (2,), 1, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_single_walker_matches_hop_matrix_power(m):
    for j in range(m + 1):
        for k, row in zip(range(8), paths.ring_power_rows(j, m)):
            for l in range(m + 1):
                assert row[l] == count_random_turns_paths((l,), (j,), k, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=10))
def test_reversal_symmetry(m, steps, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(3, m + 1) + 1))
    sites = list(range(m + 1))
    a = tuple(sorted(rng.choice(sites, size=n, replace=False).tolist(), reverse=True))
    b = tuple(sorted(rng.choice(sites, size=n, replace=False).tolist(), reverse=True))
    assert count_random_turns_paths(a, b, steps, m) == \
        count_random_turns_paths(b, a, steps, m)


def _sector_walk(m, starts, steps):
    """Reference walker counts: the weighted start vector times powers of the
    sector adjacency, taken from `sector_basis` in Python ints (object dtype).

    Returns the basis and one count vector per tick 0..steps.
    """
    nwalk = len(next(iter(starts)))
    basis = sector_basis(ChainGeometry(m, nwalk))
    index = {config: i for i, config in enumerate(basis)}
    # sparse adjacency: the basis index of every one-move neighbour, with
    # multiplicity (the 2-site ring reaches the other site both ways)
    neighbours = []
    for config in basis:
        hops = []
        for pos in config:
            for target in ((pos + 1) % (m + 1), (pos - 1) % (m + 1)):
                if target not in config:
                    moved = set(config) - {pos} | {target}
                    hops.append(index[tuple(sorted(moved, reverse=True))])
        neighbours.append(hops)
    vec = np.zeros(len(basis), dtype=object)
    for config, w in starts.items():
        vec[index[config]] = w
    out = [vec]
    for _ in range(steps):
        nxt = np.zeros(len(basis), dtype=object)
        for i in np.flatnonzero(vec):
            for j in neighbours[i]:
                nxt[j] += vec[i]
        vec = nxt
        out.append(vec)
    return basis, out


def _check_frontiers(m, starts, steps):
    """The DP's counts after 0..steps ticks, read at every sector state,
    against `_sector_walk`; returns the last counts."""
    basis, ref = _sector_walk(m, starts, steps)
    walk = random_turns_counts(starts, basis, m)
    for k, counts in zip(range(steps + 1), walk):
        assert counts == ref[k].tolist()
        assert all(type(c) is int for c in counts)
    return counts


@pytest.mark.parametrize("m,start,steps", [
    (1, (0,), 5),             # doubled bond, one walker
    (1, (1, 0), 3),           # doubled bond, full ring: nothing moves
    (2, (), 3),               # no walkers: empty after the first tick
    (3, (3, 2, 1, 0), 3),     # N = M + 1: empty after the first tick
    (4, (3, 1), 8),
    (5, (4, 2, 0), 7),
    (6, (5, 3, 2, 0), 6),
    (9, (9, 5, 4), 9),
    (70, (62, 61, 0), 6),     # walkers cross the int64 word boundary and the seam
])
def test_dp_matches_sector_adjacency_powers(m, start, steps):
    _check_frontiers(m, {start: 1}, steps)


def test_dp_count_past_two_to_the_64():
    assert max(_check_frontiers(7, {(7, 3): 1}, 60)) > 2 ** 64


@pytest.mark.parametrize("m,starts,steps", [
    (5, {(4, 2, 0): 3, (5, 1, 0): 7, (3, 2, 1): 2 ** 70}, 6),
    (1, {(1,): 5, (0,): 2}, 4),
    (63, {(62, 3): 11, (61, 60): 13}, 5),
])
def test_weighted_frontiers_match_sector_adjacency_powers(m, starts, steps):
    _check_frontiers(m, starts, steps)


def test_series_matches_single_counts():
    ks = [0, 2, 3, 7, 10]
    got = walker_counts((5, 2, 0), (4, 2, 1), ks, 6)
    assert got == [count_random_turns_paths((5, 2, 0), (4, 2, 1), k, 6) for k in ks]
    assert walker_counts((1, 0), (1, 0), [], 3) == []
    with pytest.raises(ValueError):
        walker_counts((1, 0), (1, 0), [2, -1], 3)
    with pytest.raises(ValueError):
        walker_counts((1, 0), (2,), [1], 3)
    with pytest.raises(ValueError):
        walker_counts((4, 0), (1, 0), [1], 3)


def _dp_series(start, ends, kmax, m):
    """The DP's count at each end, for k = 0..kmax: {end: [count_0, ..]}."""
    rows = list(islice(random_turns_counts({start: 1}, ends, m), kmax + 1))
    return {end: [row[i] for row in rows] for i, end in enumerate(ends)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lgv_equals_dp_on_every_pair(m):
    # every N from 0 to M + 1, every start and end, every K <= 10
    for n in range(m + 2):
        configs = list(descending_subsets(m, n))
        for start in configs:
            dp = _dp_series(start, configs, 10, m)
            for end in configs:
                assert paths._lgv_series(start, end, 10, m) == dp[end], (start, end)


def test_lgv_equals_dp_on_sampled_pairs():
    rng = Random(14)
    for _ in range(120):
        m = rng.randint(6, 11)
        n = rng.randint(0, m + 1)
        start, end = (tuple(sorted(rng.sample(range(m + 1), n), reverse=True))
                      for _ in range(2))
        kmax = rng.randint(0, 12)
        assert paths._lgv_series(start, end, kmax, m) == \
            _dp_series(start, [end], kmax, m)[end], (m, start, end, kmax)


@pytest.mark.parametrize("m,start,end,steps", [
    # the trigonometric sum is off here by 14, 491,520 and 13,811,084,768
    (11, (8, 4, 1), (9, 5, 1), 24),
    (11, (8, 4, 1), (9, 5, 1), 30),
    (19, (15, 11, 7, 3, 0), (16, 11, 7, 3, 0), 29),
    (15, (12, 8, 4, 0), (13, 9, 5, 1), 30),
    (11, (8, 4, 1), (9, 5, 2), 16),      # zero by parity on the even ring
    (1, (0,), (1,), 7),                  # the doubled bond
    (1, (1, 0), (1, 0), 4),              # the full 2-site ring never moves
    (3, (3, 2, 1, 0), (3, 2, 1, 0), 5),  # N = M + 1
    (4, (), (), 3),                      # no walkers
    (6, (5, 2, 0), (6, 3, 1), 0),
])
def test_lgv_equals_dp_at_the_named_inputs(m, start, end, steps):
    lgv = paths._lgv_series(start, end, steps, m)
    assert lgv == _dp_series(start, [end], steps, m)[end]
    assert walker_counts(start, end, [steps], m) == [lgv[-1]]


def test_lgv_holds_one_row_of_binomials():
    # the whole Pascal triangle to K = 400 takes about 5 MB of Python ints;
    # the minors, the series and one row of binomials about 0.2 MB
    tracemalloc.start()
    try:
        paths._lgv_series((200, 0), (201, 1), 400, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_twisted_power_rows_are_powers_of_the_twisted_adjacency():
    for m in (1, 2, 3, 6):
        for seam in (1, -1):
            adj = np.zeros((m + 1, m + 1), dtype=object)
            for p in range(m + 1):
                adj[p, (p + 1) % (m + 1)] += seam if p == m else 1
                adj[(p + 1) % (m + 1), p] += seam if p == m else 1
            for site in range(m + 1):
                want = np.identity(m + 1, dtype=object)[site]
                for row in islice(ring_power_rows(site, m, seam), 9):
                    assert row == want.tolist()
                    want = want @ adj


def test_route_choice_by_operation_count():
    assert paths._takes_lgv(5, 17, 26)       # 59k weighted terms against 2.2M moves
    assert paths._takes_lgv(3, 11, 24)
    assert not paths._takes_lgv(2, 5, 500)   # 24-word counts on a 6-site ring
    # 9.5M LGV terms against 15M DP moves, but each term multiplies 32-word
    # counts: LGV took 7.0 s and the DP 1.0 s on a 2-vCPU VM
    assert not paths._takes_lgv(5, 14, 500)
    assert not paths._takes_lgv(2, 5, 0)     # K = 0: the DP does nothing
    assert paths._takes_lgv(0, 9, 40)        # no walkers: neither route has work


def test_walker_counts_refuse_past_the_cap_before_allocating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a route ran past the cap")
    monkeypatch.setattr(paths, "_lgv_series", unreachable)
    monkeypatch.setattr(paths, "random_turns_counts", unreachable)
    sites = tuple(range(38, -1, -2))
    with pytest.raises(EnumerationCapError):
        walker_counts(sites, sites, [40], 39)


def test_dp_refuses_a_sector_past_the_cap_before_allocating(monkeypatch):
    # C(401, 3) states of 6 moves each are over the cap; tick 0 needs no sector
    def unreachable(*args):
        raise AssertionError("the DP built a sector past the cap")
    monkeypatch.setattr(kernels, "subset_rows", unreachable)
    monkeypatch.setattr(sector, "hop_moves", unreachable)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            count_random_turns_paths((3, 2, 1), (3, 2, 1), 1, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    assert count_random_turns_paths((3, 2, 1), (3, 2, 1), 0, 400) == 1


@pytest.mark.parametrize("starts,ends", [({(1, 0): 1, (2,): 1}, [(1, 0)]),
                                         ({(1, 0): 1}, [(2, 1), (3,)]),
                                         ({}, [(2, 1), (3,)])])
def test_dp_configurations_share_one_walker_count(starts, ends):
    with pytest.raises(ValueError):
        next(random_turns_counts(starts, ends, 3))


# the inputs of `test_route_choice_by_operation_count`: where the DP is the
# cheaper route, its whole sector is within the cap
@pytest.mark.parametrize("n,m,kmax", [(5, 17, 26), (3, 11, 24), (2, 5, 500),
                                      (5, 14, 500), (2, 5, 0), (0, 9, 40)])
def test_walker_counts_never_reach_the_dp_gate(n, m, kmax):
    if not paths._takes_lgv(n, m, kmax):
        assert comb(m + 1, n) * 2 * n <= DEFAULT_ENUM_CAP
    sites = tuple(range(2 * n - 2, -1, -2))
    assert type(walker_counts(sites, sites, [kmax], m)[0]) is int


def test_nest_json_and_render():
    nest = next(iter(enumerate_nests((2, 1), 2)))
    doc = nest.to_json()
    assert doc["shape"] == [2, 1]
    assert isinstance(doc["volume"], str)
