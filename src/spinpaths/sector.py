"""The sector's one configuration index: the rank of a walker configuration
(`ranker`, the basis order of `chain`) and its hops (`hop_moves`), which
the walker DP of `paths` counts along, and the translation orbits and
momentum blocks built on both for the exact oracles (`sector_orbits`)."""

from __future__ import annotations

from math import comb, pi
from typing import Iterator

import numpy as np

from .chain import sector_sites
from .core import ChainGeometry, FrozenRecord


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


def ranker(m: int, n: int):
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


def hop_moves(sites: np.ndarray, ring: int) -> tuple[np.ndarray, np.ndarray]:
    """The walker hops out of each row of `sites` (R, N), each row
    descending: (rows, moved), hop h moving row rows[h] to the sites
    moved[h], listed by row, then walker, then +1 before -1, in the order
    of `chain._hop_targets`.  On the 2-site ring both moves of a walker
    reach the same free site, and both are listed."""
    target = (sites[:, :, None] + np.array([1, -1])) % ring
    # in a descending row walker w-1 is the next above walker w, cyclically
    beside = np.stack([np.roll(sites, 1, axis=1), np.roll(sites, -1, axis=1)], axis=-1)
    rows, walker, move = np.nonzero(target != beside)
    moved = sites[rows]
    moved[np.arange(len(rows)), walker] = target[rows, walker, move]
    return rows, moved


def sector_orbits(geom: ChainGeometry) -> SectorOrbits:
    """Translation orbits of the sector basis, by rank arithmetic on
    `sector_sites(geom)`; each representative is the lowest basis index of
    its orbit.  The sector cap is checked first."""
    sites = sector_sites(geom)
    ring, dim = geom.sites, len(sites)
    rank = ranker(geom.m, geom.n)
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
    rows, moved = hop_moves(rep_sites, ring)
    hops = np.column_stack([rows, rank(moved)])
    mirrored = rank(-rep_sites)
    return SectorOrbits(orbit, period, rep, shift, hops,
                        rep[mirrored], shift[mirrored])
