"""Nests of self-avoiding lattice paths and the vicious-walker counts.

Each SSYT row maps to one path; the step count l_j on vertical line j is
the multiplicity of letter j in the tableau, and the nest volume is
sum_j (N - j) * l_j.  The nests of equal l are counted together (a Kostka number).

The random-turns walker count has two exact routes, and `walker_counts`
runs the one with the smaller a-priori operation count:
  - LGV (Lindstrom-Gessel-Viennot; Fisher's vicious walkers): the count
    is K! [t^K] det G(t), G holding the one-walker exponential generating
    functions of the ring with seam sign (-1)^(N-1), in plain Python ints.
    Its minor recursion also takes det(R G(t) R^T) for integer rows R
    (`weighted_lgv_series`), each end weighted by its minor of R;
  - the DP over the N-walker sector, one Python-int count per state,
    indexed by the rank that `sector` also gives the exact oracles, each
    tick moving every count at once in numpy along the sector's hop list
    (`random_turns_counts`).  It is the independent oracle for every
    path-counting formula in the package (`count_random_turns_paths`).
Only the nest functions import `schur`, only the DP numpy and `sector`,
and only the nest partition functions `qpoly`, so the nest verbs start
without numpy, and the walker verbs load `core` and `partitions` alone,
without numpy whenever LGV is the cheaper route.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, repeat
from math import comb
from operator import add, itemgetter, mul
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from . import core
from .core import EnumerationCapError, FrozenRecord  # the cap error's old path
from .partitions import (
    Partition,
    StrictPartition,
    check_partition,
    check_strict_partition,
    weight,
)

if TYPE_CHECKING:
    from .qpoly import QPolynomial

class PathNest(FrozenRecord):
    """One nest of mutually avoiding paths, encoded by its column step counts."""

    __slots__ = ("kind", "shape", "step_counts", "volume")

    def __init__(self, kind: str, shape: Partition, step_counts: tuple[int, ...]):
        # kind is "C", "B" or "watermelon"; step_counts is l_1 .. l_N
        n = len(step_counts)
        if kind == "C" and sum(step_counts) != weight(shape):
            raise ValueError("step counts do not add up to the shape weight")
        self.kind, self.shape, self.step_counts = kind, shape, step_counts
        self.volume = sum((n - j - 1) * step_counts[j] for j in range(n))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "shape": list(self.shape),
            "step_counts": list(self.step_counts),
            "volume": str(self.volume),
        }

def nest_multiplicities(lam: Partition, n: int) -> list[tuple[PathNest, int]]:
    """Each distinct nest of shape lam on n lines with its number of tableaux
    (a Kostka number), in nest order: step counts lexicographically descending."""
    from . import schur
    lam = check_partition(lam)
    return [(PathNest("C", lam, counts), mult)
            for counts, mult in sorted(schur.schur_monomials(lam, n).items(), reverse=True)]


def enumerate_nests(lam: Partition, n: int) -> Iterator[PathNest]:
    """One nest per SSYT of shape lam with entries <= n, in nest order."""
    for nest, mult in nest_multiplicities(lam, n):
        yield from repeat(nest, mult)


def _nest_polynomial(lam: Partition, n: int, slopes: Sequence[int]) -> QPolynomial:
    """Sum over the nests of q^{sum_j slopes_j l_j}, read off the multiplicities."""
    from . import schur
    from .qpoly import QPolynomial
    out = Counter()
    for counts, mult in schur.schur_monomials(lam, n).items():
        out[sum(map(mul, slopes, counts))] += mult
    return QPolynomial(out)


def nest_partition_function(lam: Partition, n: int) -> QPolynomial:
    """Sum of q^{|lam| + volume} over nests; equals the Schur value at (q,..,q^n)."""
    return _nest_polynomial(lam, n, range(n, 0, -1))  # |lam| + volume: n + 1 - j per l_j


def conjugate_nest_partition_function(lam: Partition, n: int, m: int) -> QPolynomial:
    """Partition function of the conjugate nests; equals Schur at (1, q, .., q^{n-1}).

    Weighted by q^{sum_j (j-1) l_j} over the same step-count data.
    """
    lam = check_partition(lam)
    if lam and lam[0] > m - n + 1:
        raise ValueError(f"shape {lam} does not fit the width bound {m - n + 1}")
    return _nest_polynomial(lam, n, range(n))


def count_random_turns_paths(start: StrictPartition, end: StrictPartition,
                             steps: int, m: int) -> int:
    """Exact number of `steps`-edge trajectories of vicious random-turns walkers.

    Walkers live on a ring of m+1 sites; per tick exactly one walker moves
    one site left or right (two distinct moves even when the targets
    coincide on the 2-site ring), and configurations with two walkers on a
    site are discarded.
    """
    start, end = _check_endpoints(start, end, m)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return _dp_counts(start, end, [steps], m)[0]


def walker_counts(start: StrictPartition, end: StrictPartition,
                  steps: Sequence[int], m: int) -> list[int]:
    """`count_random_turns_paths` at each step count in `steps`, from one pass.

    Runs the cheaper exact route (`_takes_lgv`), refusing before anything
    is allocated when both routes are over `core.DEFAULT_ENUM_CAP`.
    """
    start, end = _check_endpoints(start, end, m)
    if any(k < 0 for k in steps):
        raise ValueError("steps must be non-negative")
    if not steps:
        return []
    kmax = max(steps)
    if not _takes_lgv(len(start), m, kmax):
        return _dp_counts(start, end, steps, m)
    series = _lgv_series(start, end, kmax, m)
    return [series[k] for k in steps]


def _dp_counts(start: StrictPartition, end: StrictPartition,
               steps: Sequence[int], m: int) -> list[int]:
    """The DP's count at `end` after each of the (non-empty) `steps`, from one walk."""
    series = [count for count, in islice(random_turns_counts({start: 1}, [end], m),
                                         max(steps) + 1)]
    return [series[k] for k in steps]


def _takes_lgv(n: int, m: int, kmax: int) -> bool:
    """Whether LGV is the cheaper route for n walkers on m+1 sites up to kmax ticks.

    A-priori operation counts: LGV takes C(n,i)(n-i) EGF products from the
    i-column minors, (kmax+1)(kmax+2)/2 terms each, after n(m+1)(kmax+1)
    power-row entries; the DP takes 2n moves per sector state per tick, over
    exactly C(m+1,n) states.  Counts grow to `words` machine words, which a DP
    move adds but an LGV term multiplies, so a term weighs `words` moves.
    Raises EnumerationCapError when both counts are over the cap; the DP
    may run past it when LGV is within it but slower.
    """
    terms, rows = _lgv_terms(n, kmax), n * (m + 1) * (kmax + 1)
    dp = kmax * comb(m + 1, n) * 2 * n
    core.admit(min(terms + rows, dp), core.DEFAULT_ENUM_CAP, "walker operations")
    words = 1 + kmax * (2 * n).bit_length() // 64
    return terms * words + rows <= dp


def ring_power_rows(site: int, m: int, seam: int = 1) -> Iterator[list[int]]:
    """Row `site` of A^0, A^1, A^2, ... for the adjacency A of the (m+1)-site ring.

    The seam bond between sites m and 0 carries `seam`; on the 2-site ring
    it doubles the bond (1 + seam).  Needs m >= 1.
    """
    row = [0] * (m + 1)
    row[site] = 1
    return _ring_walk(row, seam)


def _ring_walk(row: list[int], seam: int) -> Iterator[list[int]]:
    """row A^k for k = 0, 1, 2, ..., A as in `ring_power_rows`."""
    while True:
        yield row
        row = list(map(add, [seam * row[-1]] + row[:-1],
                       row[1:] + [seam * row[0]]))


def _lgv_series(start: StrictPartition, end: StrictPartition, kmax: int,
                m: int) -> list[int]:
    """k! [t^k] det G(t) for k = 0..kmax, G[i][j] the EGF of start[i] -> end[j].

    Walkers that never meet keep their cyclic order, so a family that winds
    takes a cyclic shift of the ends, of sign (-1)^(N-1) per crossing of the
    seam; the seam sign (-1)^(N-1) cancels it.  An even ring is bipartite,
    so G[i][j] vanishes off k = start[i] - end[j] (mod 2).
    """
    seam, stride = 1 if len(start) % 2 else -1, 1 + m % 2
    return _egf_det([ring_power_rows(a, m, seam) for a in start],
                    [itemgetter(b) for b in end],
                    [[(a - b) % stride for b in end] for a in start], stride, kmax)


def weighted_lgv_series(rows: Sequence[list[int]], kmax: int, m: int) -> list[int]:
    """k! [t^k] det(R G(t) R^T) for k = 0..kmax, R the integer `rows` over the
    m+1 sites, G as in `_lgv_series`: by Cauchy-Binet, the sum over site sets
    mu, nu of det R[:, mu] det R[:, nu] times the walker count from mu to nu.
    Refused before any walk when its `_lgv_terms` and its n(n+1)(m+1)(kmax+1)
    walk and read-off entries pass `core.DEFAULT_ENUM_CAP`."""
    n, seam = len(rows), 1 if len(rows) % 2 else -1
    core.admit(_lgv_terms(n, kmax) + n * (n + 1) * (m + 1) * (kmax + 1),
               core.DEFAULT_ENUM_CAP, "weighted walker operations")
    return _egf_det([_ring_walk(row, seam) for row in rows],
                    [lambda walked, row=row: sum(map(mul, walked, row)) for row in rows],
                    [[0] * n] * n, 1, kmax)


def _lgv_terms(n: int, kmax: int) -> int:
    """The EGF terms `_egf_det` multiplies on n rows (`_takes_lgv`)."""
    return sum(comb(n, i) * (n - i) for i in range(1, n)) * (kmax + 1) * (kmax + 2) // 2


def _egf_det(walks: list[Iterator[list[int]]], reads: list, parity: list[list[int]],
             stride: int, kmax: int) -> list[int]:
    """k! [t^k] det g(t) for k = 0..kmax, g[i][j] the EGF whose k-th term is
    reads[j] of row k of walks[i], zero off k = parity[i][j] (mod stride).
    The minors of the first i rows are memoised by their column bitmask,
    each with its parity, and a product sums only the terms of matching
    parity.  It holds the N^2 series, the minors of two adjacent rows and
    one row of binomials."""
    grid = [list(zip(*([read(row) for read in reads] for row in islice(walk, kmax + 1))))
            for walk in walks]
    if not grid:
        return [1] + [0] * kmax
    minors = {1 << j: (p, g) for j, (p, g) in enumerate(zip(parity[0], grid[0]))}
    for pars, series in zip(parity[1:], grid[1:]):
        grown, products = {}, []
        for mask, (p, minor) in minors.items():
            for j, (par, g) in enumerate(zip(pars, series)):
                if not mask >> j & 1:
                    q = (p + par) % stride
                    acc = grown.setdefault(mask | 1 << j, (q, [0] * (kmax + 1)))[1]
                    sign = -1 if bin(mask >> j).count("1") % 2 else 1
                    products.append((acc, sign, p, q, minor[p::stride], g))
        # c_n = sum_k C(n,k) a_k b_{n-k}, the product of two EGFs, taken n by n
        # so that one row of Pascal's triangle is held at a time
        binom = [1]
        for n in range(kmax + 1):
            by_parity = [binom[p::stride] for p in range(stride)]
            for acc, sign, p, q, tail, g in products:
                if (n - q) % stride == 0:
                    acc[n] += sign * sum(map(mul, map(mul, by_parity[p], tail),
                                             g[n - p::-stride]))
            binom = list(map(add, [0] + binom, binom + [0]))
        minors = grown
    return list(minors[(1 << len(grid)) - 1][1])


def random_turns_counts(starts: Mapping[StrictPartition, int],
                        ends: Sequence[StrictPartition], m: int) -> Iterator[list[int]]:
    """The walker DP's counts at `ends` after 0, 1, 2, ... ticks, from weighted starts.

    The DP holds one Python-int count per state of the N-walker sector,
    indexed by its rank (`sector.ranker`), and a tick moves the counts
    along every hop of the sector (`sector.hop_moves`) with one
    `np.add.reduceat`.  Tick 0 is read off `starts`; the C(M+1, N) states
    of 2N moves each are checked against `core.DEFAULT_ENUM_CAP` before
    tick 1.
    """
    starts = {_check_config(c, m): int(w) for c, w in starts.items()}
    ends = [_check_config(c, m) for c in ends]
    n = len(next(iter(starts), next(iter(ends), ())))
    if any(len(c) != n for c in [*starts, *ends]):
        raise ValueError("walker counts differ between the configurations")
    yield [starts.get(c, 0) for c in ends]
    dim = comb(m + 1, n)
    core.admit(dim * 2 * n, core.DEFAULT_ENUM_CAP, "walker moves per tick")
    import numpy as np
    from .kernels import subset_rows
    from .sector import hop_moves, ranker
    rank = ranker(m, n)
    rows, moved = hop_moves(subset_rows(m, n)[::-1], m + 1)
    to = rank(moved)
    # the hops sorted by target, so that each target sums one run of them
    order = np.argsort(to)
    targets, heads = np.unique(to[order], return_index=True)
    rows = rows[order]
    at = rank(np.array([*starts, *ends], dtype=np.int64).reshape(len(starts) + len(ends), n))
    counts = np.zeros(dim, dtype=object)
    counts[at[:len(starts)]] = np.array(list(starts.values()), dtype=object)
    while True:
        sums = np.add.reduceat(counts[rows], heads)
        counts = np.zeros(dim, dtype=object)
        counts[targets] = sums
        yield counts[at[len(starts):]].tolist()


def _check_config(config: StrictPartition, m: int) -> StrictPartition:
    if m < 1:
        raise ValueError("need at least a 2-site ring (m >= 1)")
    config = check_strict_partition(config)
    if config and config[0] > m:
        raise ValueError(f"positions exceed the largest site index {m}")
    return config


def _check_endpoints(start: StrictPartition, end: StrictPartition,
                     m: int) -> tuple[StrictPartition, StrictPartition]:
    end = check_strict_partition(end)
    if len(start) != len(end):
        raise ValueError("walker counts differ between start and end")
    return _check_config(start, m), _check_config(end, m)
