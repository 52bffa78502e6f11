"""The periodic XX chain restricted to a fixed number of down spins.

Conventions pinned here and relied on everywhere else:
  - ring of M+1 sites, indices 0..M, periodic;
  - hopping matrix entries delta_{|n-m|,1} + delta_{|n-m|,M}, so the
    2-site ring carries a doubled bond;
  - sector basis states are the descending down-spin coordinate tuples,
    listed in ascending lexicographic order of those tuples;
  - momentum grid theta_s = 2*pi/(M+1) * (s - (N-1)/2) for s = 0..M, which
    satisfies exp(i(M+1)theta) = (-1)^(N-1) for every integer s; a Bethe
    state is one N-subset of the grid, a row of `momentum_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import pi, sin
from typing import Iterator

import numpy as np

from .core import ChainGeometry, SectorCapError
from .partitions import StrictPartition, descending_subsets
from .schur import schur_values

DEFAULT_SECTOR_CAP = 50_000
DENSE_BYTES_CAP = 2 ** 30  # bytes of one dense float sector matrix


def sector_basis(geom: ChainGeometry) -> list[StrictPartition]:
    """Descending coordinate tuples, ascending lexicographic order."""
    return list(descending_subsets(geom.m, geom.n))[::-1]


def hopping_matrix(m: int) -> np.ndarray:
    """Adjacency matrix of the ring, with the doubled bond at m = 1."""
    size = m + 1
    delta = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            d = abs(a - b)
            delta[a, b] = int(d == 1) + int(d == m)
    return delta


def hopping_power(m: int, k: int) -> np.ndarray:
    """Exact integer Delta^k, one `paths.ring_power_rows` row per site (object dtype)."""
    from .paths import ring_power_rows
    if k < 0:
        raise ValueError("k must be non-negative")
    if m < 1:
        raise ValueError("need at least a 2-site ring (m >= 1)")
    return np.array([next(islice(ring_power_rows(j, m), k, None))
                     for j in range(m + 1)], dtype=object)


def _hop_targets(config: StrictPartition, ring: int) -> Iterator[StrictPartition]:
    """Configurations one walker hop away from `config`.  On the 2-site
    ring both moves reach the same site, so the doubled bond yields its
    target twice."""
    occupied = set(config)
    for w, pos in enumerate(config):
        for move in (1, -1):
            target = (pos + move) % ring
            if target not in occupied:
                yield tuple(sorted(config[:w] + (target,) + config[w + 1:],
                                   reverse=True))


def build_sector_hamiltonian(geom: ChainGeometry) -> np.ndarray:
    """Dense real-symmetric XX Hamiltonian in the fixed down-spin sector.

    Diagonal is +N from the field term; each allowed one-walker hop
    contributes -1/2 per directed bond (so -1 across the doubled bond of
    the 2-site ring).  Its dim^2 * 8 bytes are checked against
    `DENSE_BYTES_CAP` before anything is enumerated or allocated.
    """
    nbytes = geom.sector_dim ** 2 * 8
    if nbytes > DENSE_BYTES_CAP:
        raise SectorCapError(
            f"dense sector matrix takes {nbytes} bytes, over {DENSE_BYTES_CAP}")
    basis = sector_basis(geom)
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    ham = np.zeros((dim, dim))
    np.fill_diagonal(ham, float(geom.n))
    for i, config in enumerate(basis):
        for new in _hop_targets(config, geom.sites):
            ham[index[new], i] -= 0.5
    assert np.array_equal(ham, ham.T)
    return ham


def build_sector_hopping(geom: ChainGeometry) -> np.ndarray:
    """The hopping part alone: twice (H_sector - N * identity)."""
    ham = build_sector_hamiltonian(geom)
    return 2.0 * (ham - geom.n * np.identity(ham.shape[0]))


@dataclass(frozen=True)
class SectorOrbits:
    """The sector basis split into orbits of the one-site translation T.

    `orbit[r, j]` is the basis index of T^j(rep_r) for j = 0..M, and
    `period[r]` is the orbit length p_r.  Basis state i is
    T^shift[i](rep_{rep[i]}).  `hops` lists the walker hops out of each
    representative as (orbit row, basis index of the target) pairs.
    """

    orbit: np.ndarray
    period: np.ndarray
    rep: np.ndarray
    shift: np.ndarray
    hops: np.ndarray

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Bloch coordinates of sector vectors x (..., d) as (..., R, M+1):
        entry [r, k] is <r, k|x>, with the orthonormal Bloch states
        |r, k> = sqrt(p_r)/(M+1) sum_j w^{jk} T^j|rep_r>, w = exp(2 pi i/(M+1)).
        Entries with k p_r != 0 mod M+1 are zero and belong to no block."""
        ring = self.orbit.shape[1]
        return np.fft.fft(x[..., self.orbit], axis=-1) * \
            (np.sqrt(self.period)[:, None] / ring)

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(k, rows, A_k) per momentum k = 0..(M+1)//2: the sector adjacency
        (the hop count between states) on the Bloch states |r, k> of the
        orbit rows `rows`, those with k p_r = 0 mod M+1.  A hop rep_r -> s
        adds w^{-k shift(s)} sqrt(p_r/p_rep(s)) at [rep(s), r].  The block
        of momentum -k has the same rows and is the complex conjugate."""
        ring = self.orbit.shape[1]
        src, dst = self.hops.T
        to = self.rep[dst]
        amp = np.sqrt(self.period[src] / self.period[to])
        pos = np.empty(len(self.period), dtype=np.int64)
        for k in range(ring // 2 + 1):
            allowed = k * self.period % ring == 0
            rows = np.flatnonzero(allowed)
            pos[rows] = np.arange(len(rows))
            keep = allowed[src] & allowed[to]
            block = np.zeros((len(rows), len(rows)), dtype=complex)
            np.add.at(block, (pos[to[keep]], pos[src[keep]]),
                      amp[keep] * np.exp(-2j * pi * k * self.shift[dst[keep]] / ring))
            yield k, rows, block


def sector_orbits(geom: ChainGeometry) -> SectorOrbits:
    """Translation orbits of `sector_basis(geom)`; each representative is
    the lowest basis index of its orbit.  The sector cap is checked first."""
    if geom.sector_dim > DEFAULT_SECTOR_CAP:
        raise SectorCapError(
            f"sector dimension {geom.sector_dim} exceeds {DEFAULT_SECTOR_CAP}")
    basis = sector_basis(geom)
    index = {b: i for i, b in enumerate(basis)}
    ring, dim = geom.sites, len(basis)
    step = np.array([index[tuple(sorted(((p + 1) % ring for p in b), reverse=True))]
                     for b in basis], dtype=np.int64)
    powers = np.empty((ring, dim), dtype=np.int64)  # powers[j, i]: T^j(state i)
    powers[0] = np.arange(dim)
    for j in range(1, ring):
        powers[j] = step[powers[j - 1]]
    lowest = powers.min(axis=0)
    reps = np.flatnonzero(lowest == powers[0])
    row = np.empty(dim, dtype=np.int64)
    row[reps] = np.arange(len(reps))
    orbit = np.ascontiguousarray(powers[:, reps].T)
    # T^j(i) = rep  <=>  i = T^(ring - j)(rep)
    shift = (ring - powers.argmin(axis=0)) % ring
    period = ring // np.count_nonzero(orbit == reps[:, None], axis=1)
    hops = np.array([(r, index[s]) for r, i in enumerate(reps)
                     for s in _hop_targets(basis[i], ring)],
                    dtype=np.int64).reshape(-1, 2)
    return SectorOrbits(orbit, period, row[lowest], shift, hops)


@dataclass(frozen=True)
class MomentumTable:
    """Every Bethe state of a geometry, one row per momentum subset: (S, N)
    grid indices s (descending, in the order of `descending_subsets`),
    thetas and phases exp(i theta), and (S,) energies N - sum cos theta.
    The ground state is the last row.  Read-only, because one cached table
    is shared."""

    indices: np.ndarray
    thetas: np.ndarray
    phases: np.ndarray
    energies: np.ndarray


@lru_cache(maxsize=8)
def momentum_table(geom: ChainGeometry) -> MomentumTable:
    """The subset table of `geom`, cached and shared; the cap is checked first."""
    if geom.sector_dim > DEFAULT_SECTOR_CAP:
        raise SectorCapError(
            f"momentum-subset count {geom.sector_dim} exceeds {DEFAULT_SECTOR_CAP}")
    count, n = geom.sector_dim, geom.n
    indices = np.fromiter((i for c in descending_subsets(geom.m, n) for i in c),
                          dtype=np.int64, count=count * n).reshape(count, n)
    thetas = 2.0 * pi / geom.sites * (indices - (n - 1) / 2.0)
    table = MomentumTable(indices, thetas, np.exp(1j * thetas),
                          n - np.sum(np.cos(thetas), axis=1))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def bethe_ground_state(geom: ChainGeometry) -> MomentumTable:
    """The lowest-energy row of `momentum_table(geom)`, grid indices
    N-1, ..., 1, 0: its last row, as (N,) arrays and a scalar energy."""
    if not 1 <= geom.n <= geom.m:
        raise ValueError("ground state defined for 1 <= N <= M")
    table = momentum_table(geom)
    return MomentumTable(table.indices[-1], table.thetas[-1],
                         table.phases[-1], table.energies[-1])


def ground_state_energy_closed_form(geom: ChainGeometry) -> float:
    return geom.n - sin(pi * geom.n / geom.sites) / sin(pi / geom.sites)


def bethe_vector(geom: ChainGeometry, phases: np.ndarray) -> np.ndarray:
    """Sector amplitudes of the Bethe state at the (N,) `phases` of one row."""
    return schur_values(phases, sector_basis(geom))
