"""Nests of self-avoiding lattice paths and the vicious-walker enumerator.

Each SSYT row maps to one path; the step count l_j on vertical line j is
the multiplicity of letter j in the tableau, and the nest volume is
sum_j (N - j) * l_j.  The random-turns walker count is an exact
big-integer dynamic program over ring configurations and serves as the
independent oracle for every path-counting formula in the package.  It
keeps only the frontier, the configurations reached so far, packed as
occupancy bits into int64 words (62 sites per word, so any ring size
takes the same path) beside an object array of Python-int counts; each
tick moves all rows at once in numpy.  One walk from weighted starts
serves every step count and, by linearity, every start at once.  Only
the DP imports numpy and only the nest partition functions `qpoly`, so
the nest verbs start without numpy and the walker verbs without `qpoly`.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from . import schur
from .core import EnumerationCapError, FrozenRecord
from .partitions import (
    Partition,
    StrictPartition,
    check_partition,
    check_strict_partition,
    weight,
)
from .schur import (
    schur_count_at_one,
    ssyt,
    tableau_step_counts,
)

if TYPE_CHECKING:
    import numpy as np
    from .qpoly import QPolynomial

_WORD_BITS = 62   # sites per int64 occupancy word; the sign bit is never set


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

def enumerate_nests(lam: Partition, n: int) -> Iterator[PathNest]:
    """One nest per SSYT of shape lam with entries <= n."""
    lam = check_partition(lam)
    if schur_count_at_one(lam, n) > schur.DEFAULT_ENUM_CAP:
        raise EnumerationCapError("nest enumeration exceeds cap")
    for tab in ssyt(lam, n):
        yield PathNest("C", lam, tableau_step_counts(tab, n))


def nest_partition_function(lam: Partition, n: int) -> QPolynomial:
    """Sum of q^{|lam| + volume} over nests; equals the Schur value at (q,..,q^n)."""
    from .qpoly import QPolynomial
    w = weight(check_partition(lam))
    return QPolynomial(Counter(w + nest.volume for nest in enumerate_nests(lam, n)))


def conjugate_nest_partition_function(lam: Partition, n: int, m: int) -> QPolynomial:
    """Partition function of the conjugate nests; equals Schur at (1, q, .., q^{n-1}).

    Weighted by q^{sum_j (j-1) l_j} over the same step-count data.
    """
    from .qpoly import QPolynomial
    lam = check_partition(lam)
    if lam and lam[0] > m - n + 1:
        raise ValueError(f"shape {lam} does not fit the width bound {m - n + 1}")
    return QPolynomial(Counter(sum(j * l for j, l in enumerate(nest.step_counts))
                               for nest in enumerate_nests(lam, n)))


def count_random_turns_paths(start: StrictPartition, end: StrictPartition,
                             steps: int, m: int) -> int:
    """Exact number of `steps`-edge trajectories of vicious random-turns walkers.

    Walkers live on a ring of m+1 sites; per tick exactly one walker moves
    one site left or right (two distinct moves even when the targets
    coincide on the 2-site ring), and configurations with two walkers on a
    site are discarded.
    """
    start, end = _check_endpoints(start, end, m)
    return random_turns_counts_from(start, steps, m).get(end, 0)


def count_random_turns_series(start: StrictPartition, end: StrictPartition,
                              steps: Sequence[int], m: int) -> list[int]:
    """`count_random_turns_paths` at each step count in `steps`, from one walk."""
    start, end = _check_endpoints(start, end, m)
    if any(k < 0 for k in steps):
        raise ValueError("steps must be non-negative")
    walk = random_turns_frontiers({start: 1}, m)
    series = [frontier_counts(frontier, [end])[0]
              for frontier in islice(walk, max(steps, default=-1) + 1)]
    return [series[k] for k in steps]


def random_turns_counts_from(start: StrictPartition, steps: int,
                             m: int) -> dict[tuple[int, ...], int]:
    """Counts to every reachable configuration after `steps` ticks."""
    start = _check_config(start, m)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    words, counts = next(islice(random_turns_frontiers({start: 1}, m), steps, None))
    return dict(zip(_configs(words, m + 1, len(start)), counts.tolist()))


def random_turns_frontiers(starts: Mapping[StrictPartition, int], m: int
                           ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The walker DP's frontier after 0, 1, 2, ... ticks, from weighted starts.

    A frontier is (words, counts): one row per reachable configuration, its
    occupancy packed into int64 words, and the weighted number of ways to
    reach it as a Python int.  One tick takes, for each site and direction,
    the rows that can move a walker from that site onto a free neighbour,
    and merges equal rows with one lexsort.  Rows are distinct, and no count
    is 0 while the weights are positive.
    """
    import numpy as np
    ring = m + 1
    width = -(-ring // _WORD_BITS)
    words = _pack([_check_config(c, m) for c in starts], width)
    counts = np.array([int(w) for w in starts.values()], dtype=object)
    moves = [(p, (p + d) % ring) for p in range(ring) for d in (1, -1)]
    # on the 2-site ring both directions flip the same pair: the doubled bond
    flip = _pack(moves, width)
    while True:
        yield words, counts
        occ = _occupancy(words, ring)
        free = ~occ
        picked = [(occ[p] & free[q]).nonzero()[0] for p, q in moves]
        rows = np.concatenate(picked)
        new = words[rows] ^ np.repeat(flip, [len(r) for r in picked], axis=0)
        order = np.lexsort(new.T)
        new, rows = new[order], rows[order]
        first = np.zeros(len(new), dtype=bool)
        first[:1] = True
        for col in new.T:
            first[1:] |= col[1:] != col[:-1]
        heads = np.flatnonzero(first)
        words, counts = new[heads], np.add.reduceat(counts[rows], heads)


def frontier_counts(frontier: tuple[np.ndarray, np.ndarray],
                    configs: Sequence[StrictPartition]) -> list[int]:
    """The frontier's count at each configuration, 0 where none is reached."""
    words, counts = frontier
    keys = _pack(configs, words.shape[1])
    return [int(counts[(words == key).all(axis=1)].sum()) for key in keys]


def _check_config(config: StrictPartition, m: int) -> StrictPartition:
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


def _pack(configs: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    """Occupancy words, one row per configuration: site p is bit p % 62 of word p // 62."""
    import numpy as np
    words = np.zeros((len(configs), width), dtype=np.int64)
    for row, config in zip(words, configs):
        for p in config:
            row[p // _WORD_BITS] |= 1 << (p % _WORD_BITS)
    return words


def _occupancy(words: np.ndarray, ring: int) -> np.ndarray:
    """(ring, rows) bool array, True where the row's configuration occupies the site."""
    import numpy as np
    occ = np.empty((ring, len(words)), dtype=bool)
    for p in range(ring):
        np.not_equal(words[:, p // _WORD_BITS] & (1 << (p % _WORD_BITS)), 0, out=occ[p])
    return occ


def _configs(words: np.ndarray, ring: int, nwalk: int) -> list[tuple[int, ...]]:
    """Decode occupancy words into strictly decreasing position tuples."""
    cols = _occupancy(words, ring)[::-1].T.nonzero()[1].reshape(len(words), nwalk)
    return list(map(tuple, (ring - 1 - cols).tolist()))
