"""The periodic XX chain restricted to a fixed number of down spins.

Conventions pinned here and relied on everywhere else:
  - ring of M+1 sites, indices 0..M, periodic;
  - hopping matrix entries delta_{|n-m|,1} + delta_{|n-m|,M}, so the
    2-site ring carries a doubled bond;
  - sector basis states are the descending down-spin coordinate tuples,
    listed in ascending lexicographic order of those tuples, so a state's
    index is the combinatorial-number-system rank of its sites;
  - momentum grid theta_s = 2*pi/(M+1) * (s - (N-1)/2) for s = 0..M, which
    satisfies exp(i(M+1)theta) = (-1)^(N-1) for every integer s; a Bethe
    state is one N-subset of the grid, a row of `momentum_table`;
  - the exact oracles diagonalize the sector adjacency one momentum block
    at a time, each real symmetric in the basis fixed by RK, R the
    reflection p -> -p and K complex conjugation (`SectorOrbits.blocks`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, pi, sin
from typing import Iterator

import numpy as np

from .core import ChainGeometry, FrozenRecord, SectorCapError
from .kernels import subset_rows
from .partitions import StrictPartition, descending_subsets
from .schur import schur_values

DEFAULT_SECTOR_CAP = 50_000
DENSE_BYTES_CAP = 2 ** 30  # bytes of one dense sector or one-walker matrix


def sector_basis(geom: ChainGeometry) -> list[StrictPartition]:
    """Descending coordinate tuples, ascending lexicographic order."""
    return list(descending_subsets(geom.m, geom.n))[::-1]


@lru_cache(maxsize=8)
def sector_sites(geom: ChainGeometry) -> np.ndarray:
    """`sector_basis(geom)` as one read-only (D, N) int64 array, cached and
    shared: row i holds the down-spin sites of basis state i, descending.
    The sector cap is checked first."""
    if geom.sector_dim > DEFAULT_SECTOR_CAP:
        raise SectorCapError(
            f"sector dimension {geom.sector_dim} exceeds {DEFAULT_SECTOR_CAP}")
    rows = subset_rows(geom.m, geom.n)
    rows.flags.writeable = False
    return rows[::-1]


def hopping_matrix(m: int) -> np.ndarray:
    """Adjacency matrix of the ring: one bond from each site s to s+1 mod
    M+1, so at m = 1 the two bonds double up."""
    sites = np.arange(m + 1)
    step = (sites + 1) % (m + 1)
    delta = np.zeros((m + 1, m + 1), dtype=np.int64)
    delta[sites, step] += 1
    delta[step, sites] += 1
    return delta


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


class SectorOrbits(FrozenRecord):
    """The sector basis split into orbits of the one-site translation T.

    `orbit[r, j]` is the basis index of T^j(rep_r) for j = 0..M, and
    `period[r]` is the orbit length p_r.  Basis state i is
    T^shift[i](rep_{rep[i]}), shift[i] < p_{rep[i]}.  `hops` lists the
    walker hops out of each representative as (orbit row, basis index of
    the target) pairs.  The reflection R (p -> -p mod M+1) maps rep_r to
    T^mirror_shift[r](rep_{mirror[r]}).
    """

    __slots__ = ("orbit", "period", "rep", "shift", "hops", "mirror",
                 "mirror_shift")

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of sector vectors x (..., d) as (..., R, M+1): entry
        [r, k] is <e|x> for the basis vector e of orbit row r at momentum k
        (`_basis`), over the Bloch states |r, k> = sqrt(p_r)/(M+1) sum_j
        w^{jk} T^j|rep_r>, w = exp(2 pi i/(M+1)).  Entries with
        k p_r != 0 mod M+1 are zero and belong to no block."""
        ring = self.orbit.shape[1]
        bloch = np.fft.fft(x[..., self.orbit], axis=-1) * \
            (np.sqrt(self.period)[:, None] / ring)
        coef = np.conj(self._basis())
        return coef[0] * bloch + coef[1] * bloch[..., self.mirror, :]

    def _basis(self) -> np.ndarray:
        """(2, R, M+1): the basis vector of orbit row r at momentum k is
        c[0, r, k]|r, k> + c[1, r, k]|r', k>, r' = mirror[r].  RK, K the
        complex conjugation, maps |r, k> to w^{-dk}|r', k>, d = mirror_shift[r],
        and squares to 1.  For k <= (M+1)//2, c is the phase exp(-i pi d k/(M+1))
        times (1, 0) if r' = r, (1, 1)/sqrt 2 if r < r' and (i, -i)/sqrt 2 if
        r > r', so each vector is fixed by RK; momentum -k takes the conjugate."""
        ring = self.orbit.shape[1]
        own = np.arange(len(self.period))
        g = np.select([self.mirror == own, own < self.mirror], [1, np.sqrt(0.5)],
                      1j * np.sqrt(0.5))
        k = np.arange(ring)
        upper = k > ring // 2
        k = np.where(upper, ring - k, k)
        coef = np.exp(-1j * pi * np.outer(self.mirror_shift, k) / ring) * \
            np.array([g, np.conj(g) * (self.mirror != own)])[:, :, None]
        return np.where(upper, np.conj(coef), coef)

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(k, rows, A_k) per momentum k = 0..(M+1)//2: the sector adjacency
        (the hop count between states) on the orbit rows `rows`, those with
        k p_r = 0 mod M+1, as a real symmetric matrix in the RK-fixed basis
        of `_basis`, which at momentum -k gives the same matrix.  A
        hop rep_r -> s adds w^{-k shift(s)} sqrt(p_r/p_rep(s)) at [rep(s), r]
        of the Bloch block, which is never formed: each hop goes through the
        two basis entries of its row and of its column."""
        ring = self.orbit.shape[1]
        coef = self._basis()
        ks = np.arange(ring // 2 + 1)
        allowed = ks[:, None] * self.period % ring == 0
        pos = np.cumsum(allowed, axis=1) - 1
        src, dst = self.hops.T
        to = self.rep[dst]
        k, h = np.nonzero(allowed[:, src] & allowed[:, to])
        hop = np.sqrt(self.period[src[h]] / self.period[to[h]]) * \
            np.exp(-2j * pi * k * self.shift[dst[h]] / ring)

        def entries(x):
            # row x of the basis matrix: coef[0, x] in column x, and
            # coef[1, x'] in column x' = mirror[x]
            cols = np.array([x, self.mirror[x]])
            return pos[k, cols], coef[[[0], [1]], cols, k]
        (left, lval), (right, rval) = entries(to[h]), entries(src[h])
        terms = (np.conj(lval)[:, None] * hop * rval[None]).real
        bounds = np.searchsorted(k, np.arange(len(ks) + 1))
        for q in ks:
            rows = np.flatnonzero(allowed[q])
            span = slice(bounds[q], bounds[q + 1])
            at = left[:, None, span] * len(rows) + right[None, :, span]
            block = np.bincount(at.ravel(), terms[..., span].ravel(), len(rows) ** 2)
            yield q, rows, block.reshape(len(rows), len(rows))


def _ranker(m: int, n: int):
    """rank(sites): the basis index of the state on the sites (..., N) mod
    M+1, in any order: sorted descending, sum_i C(c_i, N - i).  Column i only
    holds N-1-i .. M-i, where C(c, N - i) <= C(M+1, N) fits int64."""
    cols = np.arange(n)
    table = np.array([[comb(c + n - 1 - i, n - i) for c in range(m - n + 2)]
                      for i in range(n)], dtype=np.int64).reshape(n, m - n + 2)

    def rank(sites: np.ndarray) -> np.ndarray:
        desc = np.sort(sites % (m + 1), axis=-1)[..., ::-1]
        return table[cols, desc - (n - 1 - cols)].sum(axis=-1)
    return rank


def sector_orbits(geom: ChainGeometry) -> SectorOrbits:
    """Translation orbits of the sector basis, by rank arithmetic on
    `sector_sites(geom)`; each representative is the lowest basis index of
    its orbit.  The sector cap is checked first."""
    sites = sector_sites(geom)
    ring, dim = geom.sites, len(sites)
    rank = _ranker(geom.m, geom.n)
    # lowest[i] is the lowest index among T^j(i), j < span; jump is T^span
    lowest, jump, span = np.arange(dim), rank(sites + 1), 1
    while span < ring:
        lowest, jump, span = np.minimum(lowest, lowest[jump]), jump[jump], 2 * span
    reps = np.flatnonzero(lowest == np.arange(dim))
    rep_sites = sites[reps]
    orbit = rank(rep_sites[:, None, :] + np.arange(ring)[:, None])
    period = ring // np.count_nonzero(orbit == reps[:, None], axis=1)
    r, j = np.nonzero(np.arange(ring) < period[:, None])
    rep, shift = np.empty((2, dim), dtype=np.int64)
    rep[orbit[r, j]], shift[orbit[r, j]] = r, j
    # walker w of rep r moves by +1 then -1, in the order of `_hop_targets`
    target = (rep_sites[:, :, None] + np.array([1, -1])) % ring
    free = ~np.any(target[..., None] == rep_sites[:, None, None, :], axis=-1)
    moved = np.where(np.eye(geom.n, dtype=bool)[:, None, :], target[..., None],
                     rep_sites[:, None, None, :])
    hops = np.column_stack([np.nonzero(free)[0], rank(moved[free])])
    mirrored = rank(-rep_sites)
    return SectorOrbits(orbit, period, rep, shift, hops,
                        rep[mirrored], shift[mirrored])


class MomentumTable(FrozenRecord):
    """Every Bethe state of a geometry, one row per momentum subset: (S, N)
    grid indices s (descending, in the order of `descending_subsets`) and
    (S,) sums of cos theta, over the (M+1,) grid thetas and phases
    exp(i theta).  The per-subset `thetas` and `phases` are gathered from
    the grid, and the energies are N minus the cosine sums.  The ground
    state is the last row.  Read-only, because one cached table is
    shared."""

    __slots__ = ("indices", "grid_thetas", "grid_phases", "cos_sums")

    def _rows(self, grid: np.ndarray) -> np.ndarray:
        rows = grid[self.indices]
        rows.flags.writeable = False
        return rows

    @property
    def thetas(self) -> np.ndarray:
        return self._rows(self.grid_thetas)

    @property
    def phases(self) -> np.ndarray:
        return self._rows(self.grid_phases)

    @property
    def energies(self) -> np.ndarray:
        return self.indices.shape[-1] - self.cos_sums


@lru_cache(maxsize=8)
def momentum_table(geom: ChainGeometry) -> MomentumTable:
    """The subset table of `geom`, cached and shared; the cap is checked first."""
    # the N-subsets of the grid 0..M, in `descending_subsets` order
    indices = sector_sites(geom)[::-1]
    grid = 2.0 * pi / geom.sites * (np.arange(geom.sites) - (geom.n - 1) / 2.0)
    table = MomentumTable(indices, grid, np.exp(1j * grid),
                          np.sum(np.cos(grid)[indices], axis=1))
    for arr in table._values():
        arr.flags.writeable = False
    return table


def bethe_ground_state(geom: ChainGeometry) -> MomentumTable:
    """The lowest-energy row of `momentum_table(geom)`, grid indices
    N-1, ..., 1, 0: its last row, as (N,) indices and a scalar energy."""
    if not 1 <= geom.n <= geom.m:
        raise ValueError("ground state defined for 1 <= N <= M")
    table = momentum_table(geom)
    return MomentumTable(table.indices[-1], table.grid_thetas,
                         table.grid_phases, table.cos_sums[-1])


def ground_state_energy_closed_form(geom: ChainGeometry) -> float:
    return geom.n - sin(pi * geom.n / geom.sites) / sin(pi / geom.sites)


def bethe_vector(geom: ChainGeometry, phases: np.ndarray) -> np.ndarray:
    """Sector amplitudes of the Bethe state at the (N,) `phases` of one row."""
    return schur_values(phases, sector_sites(geom))
