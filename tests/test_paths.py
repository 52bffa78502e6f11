import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpaths.chain import ChainGeometry, hopping_power, sector_basis
from spinpaths.partitions import boxed_partitions
from spinpaths.paths import (
    PathNest,
    conjugate_nest_partition_function,
    count_random_turns_paths,
    count_random_turns_series,
    enumerate_nests,
    frontier_counts,
    nest_partition_function,
    random_turns_counts_from,
    random_turns_frontiers,
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
    for k in range(0, 8):
        power = hopping_power(m, k)
        for j in range(m + 1):
            for l in range(m + 1):
                assert power[j, l] == count_random_turns_paths((l,), (j,), k, m)


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


def test_dp_layers_stay_vicious():
    layer = random_turns_counts_from((2, 0), 5, 4)
    for config in layer:
        assert len(set(config)) == len(config)
        assert config == tuple(sorted(config, reverse=True))


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


def _as_dict(basis, vec):
    return {config: vec[i] for i, config in enumerate(basis) if vec[i]}


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
    basis, ref = _sector_walk(m, {start: 1}, steps)
    for k in range(steps + 1):
        got = random_turns_counts_from(start, k, m)
        assert got == _as_dict(basis, ref[k])
        assert all(type(c) is int and c > 0 for c in got.values())


def test_dp_count_past_two_to_the_64():
    basis, ref = _sector_walk(7, {(7, 3): 1}, 60)
    got = random_turns_counts_from((7, 3), 60, 7)
    assert got == _as_dict(basis, ref[60])
    assert max(got.values()) > 2 ** 64


@pytest.mark.parametrize("m,starts,steps", [
    (5, {(4, 2, 0): 3, (5, 1, 0): 7, (3, 2, 1): 2 ** 70}, 6),
    (1, {(1,): 5, (0,): 2}, 4),
    (63, {(62, 3): 11, (61, 60): 13}, 5),
])
def test_weighted_frontiers_match_sector_adjacency_powers(m, starts, steps):
    basis, ref = _sector_walk(m, starts, steps)
    walk = random_turns_frontiers(starts, m)
    for k, frontier in zip(range(steps + 1), walk):
        assert frontier_counts(frontier, basis) == ref[k].tolist()
        assert len(frontier[0]) == np.count_nonzero(ref[k])


def test_series_matches_single_counts():
    ks = [0, 2, 3, 7, 10]
    got = count_random_turns_series((5, 2, 0), (4, 2, 1), ks, 6)
    assert got == [count_random_turns_paths((5, 2, 0), (4, 2, 1), k, 6) for k in ks]
    assert count_random_turns_series((1, 0), (1, 0), [], 3) == []
    with pytest.raises(ValueError):
        count_random_turns_series((1, 0), (1, 0), [2, -1], 3)
    with pytest.raises(ValueError):
        count_random_turns_series((1, 0), (2,), [1], 3)
    with pytest.raises(ValueError):
        count_random_turns_series((4, 0), (1, 0), [1], 3)


def test_nest_json_and_render():
    nest = next(iter(enumerate_nests((2, 1), 2)))
    doc = nest.to_json()
    assert doc["shape"] == [2, 1]
    assert isinstance(doc["volume"], str)
