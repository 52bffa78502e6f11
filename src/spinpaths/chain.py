"""The periodic XX chain restricted to a fixed number of down spins.

Conventions pinned here and relied on everywhere else:
  - ring of M+1 sites, indices 0..M, periodic;
  - hopping matrix entries delta_{|n-m|,1} + delta_{|n-m|,M}, so the
    2-site ring carries a doubled bond;
  - sector basis states are the descending down-spin coordinate tuples,
    listed in ascending lexicographic order of those tuples, so a state's
    index is the combinatorial-number-system rank of its sites;
  - momentum grid theta_s = pi/(M+1) * (2s - (N-1)) for s = 0..M, which
    satisfies exp(i(M+1)theta) = (-1)^(N-1) for every integer s; the
    integer exponents 2s - (N-1) are `momentum_exponents`, and a Bethe
    state is one N-subset of the grid, a row of `momentum_table`;
  - the exact oracles diagonalize the sector adjacency one momentum block
    at a time, each real symmetric in the basis fixed by RK, R the
    reflection p -> -p and K complex conjugation (`sector`).

The module body loads no numpy, so `ChainGeometry` and the exact trig
count reach `chain` without it; each function that builds an array
imports numpy itself, after the sector cap, so a job over the cap never
loads it.
"""

from __future__ import annotations

from functools import lru_cache
from math import pi, sin
from typing import TYPE_CHECKING, Iterator

from .core import ChainGeometry, FrozenRecord, SectorCapError
from .partitions import StrictPartition, descending_subsets

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SECTOR_CAP = 50_000
DENSE_BYTES_CAP = 2 ** 30  # bytes of one dense sector or one-walker matrix


def sector_basis(geom: ChainGeometry) -> list[StrictPartition]:
    """Descending coordinate tuples, ascending lexicographic order."""
    return list(descending_subsets(geom.m, geom.n))[::-1]


def check_sector_cap(geom: ChainGeometry) -> None:
    """Raise `SectorCapError` when the sector, or the momentum-subset
    count, which is the same C(M+1, N), is over `DEFAULT_SECTOR_CAP`."""
    if geom.sector_dim > DEFAULT_SECTOR_CAP:
        raise SectorCapError(
            f"sector dimension {geom.sector_dim} exceeds {DEFAULT_SECTOR_CAP}")


@lru_cache(maxsize=8)
def sector_sites(geom: ChainGeometry) -> np.ndarray:
    """`sector_basis(geom)` as one read-only (D, N) int64 array, cached and
    shared: row i holds the down-spin sites of basis state i, descending.
    The sector cap is checked first."""
    check_sector_cap(geom)
    from .kernels import subset_rows
    rows = subset_rows(geom.m, geom.n)
    rows.flags.writeable = False
    return rows[::-1]


def hopping_matrix(m: int) -> np.ndarray:
    """Adjacency matrix of the ring: one bond from each site s to s+1 mod
    M+1, so at m = 1 the two bonds double up."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    ham = build_sector_hamiltonian(geom)
    return 2.0 * (ham - geom.n * np.identity(ham.shape[0]))


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


def momentum_exponents(geom: ChainGeometry) -> list[int]:
    """The integers 2s - (N-1), s = 0..M: theta_s is pi/(M+1) times the
    s-th, so exp(i theta_s) is the same power of exp(i pi/(M+1))."""
    return [2 * s - (geom.n - 1) for s in range(geom.sites)]


@lru_cache(maxsize=8)
def momentum_table(geom: ChainGeometry) -> MomentumTable:
    """The subset table of `geom`, cached and shared; the cap is checked first."""
    # the N-subsets of the grid 0..M, in `descending_subsets` order
    indices = sector_sites(geom)[::-1]
    import numpy as np
    grid = pi / geom.sites * np.array(momentum_exponents(geom), dtype=float)
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
    from .schur import schur_values
    return schur_values(phases, sector_sites(geom))
