import json
from itertools import combinations, islice
from math import comb, pi, sin

import numpy as np
import pytest

from spinpaths import chain, correlators
from spinpaths.chain import (
    ChainGeometry,
    SectorCapError,
    bethe_ground_state,
    bethe_vector,
    build_sector_hamiltonian,
    build_sector_hopping,
    ground_state_energy_closed_form,
    hopping_matrix,
    momentum_table,
    sector_basis,
)
from spinpaths.cli import main
from spinpaths.partitions import mu_to_lambda
from spinpaths.paths import ring_power_rows
from spinpaths.schur import schur_determinant, vandermonde
from spinpaths.sector import sector_orbits


def test_geometry_validation():
    geom = ChainGeometry(4, 2)
    assert geom.sites == 5
    assert geom.k_cap == 3
    assert geom.sector_dim == comb(5, 2)
    with pytest.raises(ValueError):
        ChainGeometry(0, 1)
    with pytest.raises(ValueError):
        ChainGeometry(3, 5)


def test_geometry_is_an_immutable_value():
    geom = ChainGeometry(4, 2)
    assert geom == ChainGeometry(m=4, n=2)
    assert geom != ChainGeometry(4, 1)
    assert geom != (4, 2)
    assert hash(geom) == hash(ChainGeometry(4, 2))
    assert len({geom, ChainGeometry(4, 2), ChainGeometry(5, 2)}) == 2
    assert repr(geom) == "ChainGeometry(m=4, n=2)"
    with pytest.raises(AttributeError):
        geom.m = 5
    with pytest.raises(AttributeError):
        del geom.n
    with pytest.raises(AttributeError):
        geom.extra = 1
    assert (geom.m, geom.n) == (4, 2)
    # the momentum table is cached by geometry: an equal geometry hits it
    assert momentum_table(ChainGeometry(4, 2)) is momentum_table(geom)


def test_sector_basis():
    basis = sector_basis(ChainGeometry(3, 2))
    assert len(basis) == 6
    assert all(b == tuple(sorted(b, reverse=True)) for b in basis)
    assert len(set(basis)) == 6


@pytest.mark.parametrize("m,n", [(1, 0), (1, 2), (3, 2), (6, 3), (9, 4)])
def test_sector_basis_is_sorted_combinations(m, n):
    want = sorted(tuple(sorted(c, reverse=True))
                  for c in combinations(range(m + 1), n))
    assert sector_basis(ChainGeometry(m, n)) == want


def test_hopping_matrix_shapes():
    d = hopping_matrix(3)
    assert d.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert hopping_matrix(1).tolist() == [[0, 2], [2, 0]]


def test_hopping_matrix_is_the_ring_adjacency():
    # each site hops to its two neighbours; the 2-site ring's two bonds
    # join the same pair of sites
    for m in range(1, 8):
        want = [[int(abs(a - b) == 1) + int(abs(a - b) == m) for b in range(m + 1)]
                for a in range(m + 1)]
        got = hopping_matrix(m)
        assert got.dtype == np.int64 and got.tolist() == want


def ring_power(m, k):
    """Delta^k as exact integers, one `ring_power_rows` row per site."""
    return [next(islice(ring_power_rows(j, m), k, None)) for j in range(m + 1)]


def test_ring_power_rows_exact_integers():
    p = ring_power(4, 6)
    expected = np.linalg.matrix_power(hopping_matrix(4).astype(float), 6)
    assert np.array_equal(np.array(p, dtype=float), expected)
    assert isinstance(p[0][0], int)


def test_ring_power_rows_doubled_bond_and_zeroth_power():
    assert ring_power(1, 3) == [[0, 8], [8, 0]]   # the doubled bond
    assert ring_power(3, 0) == np.identity(4, dtype=int).tolist()


def test_hamiltonian_symmetric_and_row_structure():
    geom = ChainGeometry(4, 2)
    ham = build_sector_hamiltonian(geom)
    assert np.allclose(ham, ham.T)
    assert np.allclose(np.diag(ham), geom.n)
    offdiag = ham - np.diag(np.diag(ham))
    assert set(np.round(np.unique(offdiag), 12)) <= {-0.5, 0.0}


def test_hopping_part_relation():
    geom = ChainGeometry(3, 2)
    ham = build_sector_hamiltonian(geom)
    hop = build_sector_hopping(geom)
    assert np.allclose(hop, 2.0 * (ham - geom.n * np.identity(geom.sector_dim)))


def test_sector_cap():
    with pytest.raises(SectorCapError):
        build_sector_hamiltonian(ChainGeometry(40, 20))


def test_dense_builders_check_bytes_before_enumerating(monkeypatch):
    # C(18, 8) = 43,758 states is under the sector cap, but one dense matrix
    # of that dimension takes 15 GB; the budget must stop it before the basis
    def enumerate_basis(geom):
        raise AssertionError("the sector basis was enumerated")

    monkeypatch.setattr(chain, "sector_basis", enumerate_basis)
    for build in (build_sector_hamiltonian, build_sector_hopping):
        with pytest.raises(SectorCapError, match="bytes"):
            build(ChainGeometry(17, 8))


def test_single_particle_sector_is_half_hop():
    geom = ChainGeometry(4, 1)
    ham = build_sector_hamiltonian(geom)
    # basis is sites in descending order
    want = geom.n * np.identity(5) - 0.5 * hopping_matrix(4).astype(float)
    perm = [b[0] for b in sector_basis(geom)]
    assert np.allclose(ham, want[np.ix_(perm, perm)])


def test_momenta_quantization():
    # every table row solves exp(i(M+1)theta) = (-1)^(N-1) on the unit circle
    for m, n in [(1, 1), (1, 2), (4, 0), (4, 2), (7, 4), (8, 9), (12, 5)]:
        geom = ChainGeometry(m, n)
        table = momentum_table(geom)
        resid = np.abs(np.exp(1j * geom.sites * table.thetas) - (-1.0) ** (n - 1))
        assert np.all(resid < 1e-12), (m, n)
        assert np.allclose(np.abs(table.phases), 1.0)
        assert np.allclose(table.phases, np.exp(1j * table.thetas))


def test_momentum_grid_is_bit_identical_to_the_half_integer_form():
    # pi/L * (2s - (N-1)) equals 2 pi/L * (s - (N-1)/2), the form the
    # pinned spectral digests were taken with, to the last bit: the two
    # differ only by factors of 2
    # tables of at most L rows, both parities of N on every ring
    for sites in range(2, 400):
        for n in {0, 1, sites - 1, sites}:
            geom = ChainGeometry(sites - 1, n)
            old = 2.0 * pi / sites * (np.arange(sites) - (n - 1) / 2.0)
            assert momentum_table(geom).grid_thetas.tobytes() == old.tobytes(), geom


def test_enumeration_size():
    # C(M+1, N) distinct rows of descending grid indices in 0..M
    for m, n in [(5, 3), (4, 0), (4, 5), (9, 4)]:
        indices = momentum_table(ChainGeometry(m, n)).indices.tolist()
        assert len(indices) == comb(m + 1, n)
        assert len({tuple(row) for row in indices}) == len(indices)
        assert all(row == sorted(row, reverse=True) and
                   all(0 <= s <= m for s in row) for row in indices)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2), (5, 3)])
def test_spectrum_matches_dense_diagonalization(m, n):
    geom = ChainGeometry(m, n)
    ham = build_sector_hamiltonian(geom)
    dense = np.sort(np.linalg.eigvalsh(ham))
    bethe = np.sort(momentum_table(geom).energies)
    assert np.allclose(dense, bethe, atol=1e-10)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 3)])
def test_bethe_vector_is_eigenvector(m, n):
    geom = ChainGeometry(m, n)
    ham = build_sector_hamiltonian(geom)
    table = momentum_table(geom)
    for phases, energy in zip(table.phases, table.energies):
        vec = bethe_vector(geom, phases)
        resid = np.linalg.norm(ham @ vec - energy * vec)
        assert resid < 1e-9 * np.linalg.norm(vec)


@pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (7, 4), (13, 5)])
def test_bethe_vector_matches_per_state_schur(m, n):
    geom = ChainGeometry(m, n)
    phases = bethe_ground_state(geom).phases
    ref = [schur_determinant(mu_to_lambda(b), phases)
           for b in sector_basis(geom)]
    assert np.array_equal(bethe_vector(geom, phases), ref)


def translate(state, j, ring):
    return tuple(sorted(((p + j) % ring for p in state), reverse=True))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (3, 0), (3, 2), (5, 3),
                                 (6, 2), (7, 4)])
def test_sector_orbits_and_momentum_blocks(m, n):
    geom = ChainGeometry(m, n)
    basis = sector_basis(geom)
    ring = geom.sites
    orb = sector_orbits(geom)
    reps = [basis[i] for i in orb.orbit[:, 0]]
    for r, rep in enumerate(reps):
        assert [basis[i] for i in orb.orbit[r]] == \
            [translate(rep, j, ring) for j in range(ring)]
        assert orb.period[r] == min(p for p in range(1, ring + 1)
                                    if translate(rep, p, ring) == rep)
    for i, state in enumerate(basis):
        assert translate(reps[orb.rep[i]], orb.shift[i], ring) == state
    # the Bloch coordinates are unitary
    x = np.random.default_rng(11).normal(size=(2, len(basis)))
    bloch = orb.coordinates(x)
    assert np.allclose(np.sum(np.abs(bloch) ** 2, axis=(1, 2)),
                       np.sum(x ** 2, axis=1))
    # blocks k and -k together carry the spectrum of the adjacency
    spectrum = []
    for k, rows, block in orb.blocks():
        assert np.allclose(block, block.conj().T)
        w = np.linalg.eigvalsh(block)
        spectrum += list(w) * (1 if k == -k % ring else 2)
    dense = np.linalg.eigvalsh(-build_sector_hopping(geom))
    assert np.allclose(np.sort(spectrum), dense, atol=1e-10)


def tuple_orbits(geom):
    """The orbit table by tuples and an index dict, state by state."""
    basis = sector_basis(geom)
    index = {b: i for i, b in enumerate(basis)}
    ring = geom.sites
    rows = [[index[translate(b, j, ring)] for j in range(ring)]
            for b in basis]
    orbit = [row for i, row in enumerate(rows) if min(row) == i]
    period = [next(p for p in range(1, ring + 1) if row[p % ring] == row[0])
              for row in orbit]
    rep, shift = [0] * len(basis), [0] * len(basis)
    for r, row in enumerate(orbit):
        for j in range(period[r]):
            rep[row[j]], shift[row[j]] = r, j
    hops = [(r, index[s]) for r, row in enumerate(orbit)
            for s in chain._hop_targets(basis[row[0]], ring)]
    mirrored = [index[tuple(sorted(((-p) % ring for p in basis[row[0]]),
                                   reverse=True))] for row in orbit]
    return [orbit, period, rep, shift, hops,
            [rep[i] for i in mirrored], [shift[i] for i in mirrored]]


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (3, 0), (3, 4), (4, 2),
                                 (5, 2), (6, 3), (7, 4), (8, 3), (9, 4),
                                 (99, 2)])
def test_rank_built_orbits_equal_tuple_construction(m, n):
    # (99, 2) is a 100-site ring, past any 64-bit occupancy mask
    geom = ChainGeometry(m, n)
    orb = sector_orbits(geom)
    got = [orb.orbit, orb.period, orb.rep, orb.shift, orb.hops, orb.mirror,
           orb.mirror_shift]
    for field, (have, want) in enumerate(zip(got, tuple_orbits(geom))):
        assert have.tolist() == np.array(want).reshape(have.shape).tolist(), field


def complex_blocks(orb):
    """The Hermitian Bloch block of each momentum k = 0..(M+1)//2, entry by
    entry: a hop rep_r -> s adds w^{-k shift(s)} sqrt(p_r/p_rep(s))."""
    ring = orb.orbit.shape[1]
    for k in range(ring // 2 + 1):
        rows = [r for r, p in enumerate(orb.period) if k * p % ring == 0]
        pos = {r: i for i, r in enumerate(rows)}
        block = np.zeros((len(rows), len(rows)), dtype=complex)
        for src, dst in orb.hops:
            to = orb.rep[dst]
            if src in pos and to in pos:
                block[pos[to], pos[src]] += np.sqrt(orb.period[src] / orb.period[to]) \
                    * np.exp(-2j * pi * k * orb.shift[dst] / ring)
        yield k, rows, block


def complex_bilinear(orb, x, y, c):
    """x^H exp(cA) y through one complex `eigh` per block pair k, -k, on the
    Bloch coordinates sqrt(p_r)/(M+1) sum_j w^{-jk} <T^j rep_r|x>."""
    ring = orb.orbit.shape[1]
    bx, by = np.fft.fft(np.array([x, y])[:, orb.orbit], axis=-1) * \
        (np.sqrt(orb.period)[:, None] / ring)
    total = 0j
    for k, rows, block in complex_blocks(orb):
        w, vecs = np.linalg.eigh(block)
        for q, v in {k: vecs, -k % ring: vecs.conj()}.items():
            total += np.conj(bx[rows, q] @ v.conj()) * np.exp(c * w) @ (by[rows, q] @ v.conj())
    return total


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (3, 0), (3, 4), (4, 2),
                                 (5, 2), (6, 3), (7, 3), (7, 4), (9, 4)])
def test_real_blocks_match_complex_blocks(m, n):
    geom = ChainGeometry(m, n)
    orb = sector_orbits(geom)
    ring = geom.sites
    for (k, rows, block), (_, want_rows, want) in zip(orb.blocks(), complex_blocks(orb)):
        assert rows.tolist() == want_rows
        assert np.isrealobj(block) and np.allclose(block, block.T, atol=1e-14)
        assert np.allclose(np.linalg.eigvalsh(block), np.linalg.eigvalsh(want),
                           rtol=0, atol=1e-12), k
    rng = np.random.default_rng(m * 100 + n)
    for c in (0.7, -0.4 + 1.1j, 2.3j):
        x, y = rng.normal(size=(2, geom.sector_dim, 2)) @ np.array([1, 1j])
        w, (cx, cy) = correlators._adjacency_spectrum(orb, np.array([x, y]))
        got = (np.conj(cx) * np.exp(c * w)) @ cy
        want = complex_bilinear(orb, x, y, c)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (ring, c)


def test_orbits_cover_self_mirror_and_mirror_pairs():
    # on the 7-site ring {3, 1, 0} reflects to {6, 4, 0}, a translate of
    # {3, 2, 0} and not of itself; {2, 1, 0} reflects onto its own orbit
    orb = sector_orbits(ChainGeometry(6, 3))
    rows = np.arange(len(orb.period))
    assert np.any(orb.mirror == rows) and np.any(orb.mirror != rows)


# persistence_exact and transition_amplitude_exact as the complex-block
# oracle gave them: (m, n, string n, t, persistence, amplitude)
ORACLE_VALUES = [
    (9, 4, 1, 0.7, 0.4624371149837584 + 0j,
     -690.9615468678327 + 1633.9026554412098j),
    (11, 5, 2, 0.4 + 0.9j, 0.12699087785332475 - 0.08705425905178059j,
     811.0645504908471 + 69.13272371706782j),
    (13, 5, 1, 1.3, 0.46735565451004435 + 0j,
     -20508706.91133806 - 16412489.736329798j),
    (12, 4, 2, -0.6 + 0.3j, 0.5800993917832244 - 0.14166836474835673j,
     -17.069534552693653 - 7.820382975693362j),
]


@pytest.mark.parametrize("m,n,ns,t,persistence,amplitude", ORACLE_VALUES)
def test_oracles_keep_their_values(m, n, ns, t, persistence, amplitude):
    geom = ChainGeometry(m, n)
    u = tuple(0.3 + 0.2 * k + 0.1j * (k % 2) for k in range(n))
    v = tuple(1.1 - 0.15 * k + 0.05j * k for k in range(n))
    got = correlators.persistence_exact(geom, ns, t)
    assert abs(got - persistence) <= 1e-12 * abs(persistence)
    got = correlators.transition_amplitude_exact(geom, u, v, ns, t)
    assert abs(got - amplitude) <= 1e-12 * abs(amplitude)


def test_ground_state():
    # the last table row, grid indices N-1..0, at the closed-form energy
    for m in range(1, 10):
        for n in range(1, m + 1):
            geom = ChainGeometry(m, n)
            table = momentum_table(geom)
            ground = bethe_ground_state(geom)
            assert ground.indices.tolist() == list(range(n - 1, -1, -1))
            assert np.array_equal(ground.phases, table.phases[-1])
            assert ground.energies == table.energies[-1]
            assert ground.energies == pytest.approx(min(table.energies), abs=1e-12)
            closed = n - sin(pi * n / geom.sites) / sin(pi / geom.sites)
            assert ground_state_energy_closed_form(geom) == \
                pytest.approx(closed, abs=1e-12)
            assert ground.energies == pytest.approx(closed, abs=1e-12)
    for m, n in [(3, 0), (3, 4)]:
        with pytest.raises(ValueError):
            bethe_ground_state(ChainGeometry(m, n))


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2)])
def test_norm_squared_matches_vector_norm(m, n):
    # the closed form (M+1)^N / |V|^2 that the persistence weights rely on
    geom = ChainGeometry(m, n)
    for phases in momentum_table(geom).phases:
        vec = bethe_vector(geom, phases)
        assert geom.sites ** n / abs(vandermonde(phases)) ** 2 == pytest.approx(
            float(np.vdot(vec, vec).real), rel=1e-10)


def test_momenta_json(capsys):
    # `chain-spectrum` prints every table row; the ground row is the last
    assert main(["chain-spectrum", "--m", "4", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = momentum_table(ChainGeometry(4, 2))
    assert [s["I"] for s in doc["sets"]] == table.indices.tolist()
    assert [s["theta"] for s in doc["sets"]] == table.thetas.tolist()
    assert doc["ground"] == doc["sets"][-1]
    assert doc["ground"]["I"] == [1, 0]
    assert doc["ground"]["energy"] == pytest.approx(
        ground_state_energy_closed_form(ChainGeometry(4, 2)))
