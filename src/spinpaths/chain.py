"""The periodic XX chain restricted to a fixed number of down spins.

Conventions pinned here and relied on everywhere else:
  - ring of M+1 sites, indices 0..M, periodic;
  - hopping matrix entries delta_{|n-m|,1} + delta_{|n-m|,M}, so the
    2-site ring carries a doubled bond;
  - sector basis states are the descending down-spin coordinate tuples,
    listed in ascending lexicographic order of those tuples;
  - momentum grid theta_s = 2*pi/(M+1) * (s - (N-1)/2) for s = 0..M, which
    satisfies exp(i(M+1)theta) = (-1)^(N-1) for every integer s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, pi, sin
from typing import Iterator, Sequence

import numpy as np

from .partitions import StrictPartition, descending_subsets, mu_to_lambda
from .schur import schur_determinant

DEFAULT_SECTOR_CAP = 50_000


class SectorCapError(RuntimeError):
    """Sector dimension exceeds the configured cap."""


@dataclass(frozen=True)
class ChainGeometry:
    """Ring of m+1 sites holding n down spins."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least a 2-site ring (m >= 1)")
        if not 0 <= self.n <= self.m + 1:
            raise ValueError(f"down-spin count {self.n} outside 0..{self.m + 1}")

    @property
    def sites(self) -> int:
        return self.m + 1

    @property
    def k_cap(self) -> int:
        """Width bound for shapes in this sector: M - N + 1."""
        return self.m - self.n + 1

    @property
    def sector_dim(self) -> int:
        return comb(self.sites, self.n)


def sector_basis(geom: ChainGeometry) -> list[StrictPartition]:
    """Descending coordinate tuples, ascending lexicographic order."""
    return sorted(
        tuple(sorted(c, reverse=True))
        for c in combinations(range(geom.sites), geom.n)
    )


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
    """Exact integer Delta^k (object dtype holds arbitrary precision)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    delta = hopping_matrix(m).astype(object)
    out = np.identity(m + 1, dtype=object)
    for _ in range(k):
        out = out @ delta
    return out


def build_sector_hamiltonian(geom: ChainGeometry,
                             cap: int = DEFAULT_SECTOR_CAP) -> np.ndarray:
    """Dense real-symmetric XX Hamiltonian in the fixed down-spin sector.

    Diagonal is +N from the field term; each allowed one-walker hop
    contributes -1/2 per directed bond (so -1 across the doubled bond of
    the 2-site ring).
    """
    if geom.sector_dim > cap:
        raise SectorCapError(f"sector dimension {geom.sector_dim} exceeds {cap}")
    basis = sector_basis(geom)
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    ham = np.zeros((dim, dim))
    np.fill_diagonal(ham, float(geom.n))
    ring = geom.sites
    for i, config in enumerate(basis):
        occupied = set(config)
        for w, pos in enumerate(config):
            for move in (1, -1):
                target = (pos + move) % ring
                if target in occupied:
                    continue
                new = tuple(sorted(config[:w] + (target,) + config[w + 1:],
                                   reverse=True))
                ham[index[new], i] -= 0.5
    assert np.array_equal(ham, ham.T)
    return ham


def build_sector_hopping(geom: ChainGeometry,
                         cap: int = DEFAULT_SECTOR_CAP) -> np.ndarray:
    """The hopping part alone: twice (H_sector - N * identity)."""
    ham = build_sector_hamiltonian(geom, cap=cap)
    return 2.0 * (ham - geom.n * np.identity(ham.shape[0]))


@dataclass(frozen=True)
class BetheMomenta:
    """One solution set of the momentum quantization on the ring.

    `grid_indices` are the descending integers s in 0..M selecting momenta
    theta_s = 2*pi/(M+1) * (s - (N-1)/2).
    """

    geometry: ChainGeometry
    grid_indices: tuple[int, ...]

    def __post_init__(self):
        g = self.geometry
        if len(self.grid_indices) != g.n:
            raise ValueError("grid index count must equal the down-spin count")
        if len(set(self.grid_indices)) != g.n:
            raise ValueError("grid indices must be distinct")
        if self.grid_indices and not (
            0 <= min(self.grid_indices) and max(self.grid_indices) <= g.m
        ):
            raise ValueError("grid indices outside 0..M")

    @property
    def thetas(self) -> np.ndarray:
        g = self.geometry
        s = np.asarray(self.grid_indices, dtype=float)
        return 2.0 * pi / g.sites * (s - (g.n - 1) / 2.0)

    @property
    def energy(self) -> float:
        return float(self.geometry.n - np.sum(np.cos(self.thetas)))

    def phases(self) -> np.ndarray:
        """exp(i theta_j)."""
        return np.exp(1j * self.thetas)

    def bethe_residuals(self) -> np.ndarray:
        """|exp(i(M+1)theta) - (-1)^(N-1)| per momentum."""
        g = self.geometry
        target = (-1.0) ** (g.n - 1)
        return np.abs(np.exp(1j * g.sites * self.thetas) - target)

    def to_json(self) -> dict:
        return {
            "I": list(self.grid_indices),
            "theta": [float(t) for t in self.thetas],
            "energy": self.energy,
        }


def _check_subset_cap(geom: ChainGeometry, cap: int) -> None:
    if geom.sector_dim > cap:
        raise SectorCapError(
            f"momentum-subset count {geom.sector_dim} exceeds {cap}")


def enumerate_bethe_sets(geom: ChainGeometry,
                         cap: int = DEFAULT_SECTOR_CAP) -> Iterator[BetheMomenta]:
    """All C(M+1, N) distinct momentum subsets, fixed order."""
    _check_subset_cap(geom, cap)
    for c in descending_subsets(geom.m, geom.n):
        yield BetheMomenta(geom, c)


@dataclass(frozen=True)
class MomentumTable:
    """Every momentum subset of a geometry, one row each in the order of
    `enumerate_bethe_sets`: (S, N) grid indices, thetas and phases, and (S,)
    energies.  Read-only, because one cached table is shared."""

    indices: np.ndarray
    thetas: np.ndarray
    phases: np.ndarray
    energies: np.ndarray


@lru_cache(maxsize=8)
def momentum_table(geom: ChainGeometry) -> MomentumTable:
    """The subset table of `geom`, cached and shared; the cap is checked first."""
    _check_subset_cap(geom, DEFAULT_SECTOR_CAP)
    count, n = geom.sector_dim, geom.n
    indices = np.fromiter((i for c in descending_subsets(geom.m, n) for i in c),
                          dtype=np.int64, count=count * n).reshape(count, n)
    thetas = 2.0 * pi / geom.sites * (indices - (n - 1) / 2.0)
    table = MomentumTable(indices, thetas, np.exp(1j * thetas),
                          n - np.sum(np.cos(thetas), axis=1))
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def bethe_ground_state(geom: ChainGeometry) -> BetheMomenta:
    """Grid indices N-1, ..., 1, 0; the lowest-energy momentum set."""
    if not 1 <= geom.n <= geom.m:
        raise ValueError("ground state defined for 1 <= N <= M")
    return BetheMomenta(geom, tuple(range(geom.n - 1, -1, -1)))


def ground_state_energy_closed_form(geom: ChainGeometry) -> float:
    return geom.n - sin(pi * geom.n / geom.sites) / sin(pi / geom.sites)


def bethe_vector(momenta: BetheMomenta) -> np.ndarray:
    """Sector amplitudes: Schur value of the shape of each basis state."""
    geom = momenta.geometry
    phases = momenta.phases()
    out = np.empty(geom.sector_dim, dtype=complex)
    for i, mu in enumerate(sector_basis(geom)):
        out[i] = schur_determinant(mu_to_lambda(mu) if mu else (), phases)
    return out


def norm_squared(momenta: BetheMomenta) -> float:
    """Squared norm of the state: (M+1)^N over the squared Vandermonde modulus.

    Equals the boxed sum of |Schur|^2 over the sector basis (the closed
    form of the completeness sum), which is what `bethe_vector` would give
    but without touching the full sector.
    """
    geom = momenta.geometry
    phases = momenta.phases()
    vand = 1.0
    for a in range(geom.n):
        for b in range(a + 1, geom.n):
            vand *= abs(phases[a] - phases[b]) ** 2
    return float(geom.sites ** geom.n / vand)
