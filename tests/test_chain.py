from itertools import combinations
from math import comb, pi, sin

import numpy as np
import pytest

from spinpaths import chain
from spinpaths.chain import (
    BetheMomenta,
    ChainGeometry,
    SectorCapError,
    bethe_ground_state,
    bethe_vector,
    build_sector_hamiltonian,
    build_sector_hopping,
    enumerate_bethe_sets,
    ground_state_energy_closed_form,
    hopping_matrix,
    hopping_power,
    norm_squared,
    sector_basis,
    sector_orbits,
)
from spinpaths.partitions import mu_to_lambda
from spinpaths.schur import schur_determinant


def test_geometry_validation():
    geom = ChainGeometry(4, 2)
    assert geom.sites == 5
    assert geom.k_cap == 3
    assert geom.sector_dim == comb(5, 2)
    with pytest.raises(ValueError):
        ChainGeometry(0, 1)
    with pytest.raises(ValueError):
        ChainGeometry(3, 5)


def test_sector_basis():
    basis = sector_basis(ChainGeometry(3, 2))
    assert len(basis) == 6
    assert all(b == tuple(sorted(b, reverse=True)) for b in basis)
    assert len(set(basis)) == 6


def test_hopping_matrix_shapes():
    d = hopping_matrix(3)
    assert d.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    assert hopping_matrix(1).tolist() == [[0, 2], [2, 0]]


def test_hopping_power_exact_integers():
    p = hopping_power(4, 6)
    expected = np.linalg.matrix_power(hopping_matrix(4).astype(float), 6)
    assert np.array_equal(np.array(p, dtype=float), expected)
    assert isinstance(p[0, 0], int)


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
    geom = ChainGeometry(4, 2)
    for mset in enumerate_bethe_sets(geom):
        assert np.max(mset.bethe_residuals()) < 1e-12
        # phases on the unit circle
        assert np.allclose(np.abs(mset.phases()), 1.0)


def test_momenta_validation():
    geom = ChainGeometry(4, 2)
    with pytest.raises(ValueError):
        BetheMomenta(geom, (1, 1))
    with pytest.raises(ValueError):
        BetheMomenta(geom, (5, 0))


def test_enumeration_size():
    geom = ChainGeometry(5, 3)
    sets = list(enumerate_bethe_sets(geom))
    assert len(sets) == comb(6, 3)
    assert len({s.grid_indices for s in sets}) == len(sets)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2), (5, 3)])
def test_spectrum_matches_dense_diagonalization(m, n):
    geom = ChainGeometry(m, n)
    ham = build_sector_hamiltonian(geom)
    dense = np.sort(np.linalg.eigvalsh(ham))
    bethe = np.sort([s.energy for s in enumerate_bethe_sets(geom)])
    assert np.allclose(dense, bethe, atol=1e-10)


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (5, 3)])
def test_bethe_vector_is_eigenvector(m, n):
    geom = ChainGeometry(m, n)
    ham = build_sector_hamiltonian(geom)
    for mset in enumerate_bethe_sets(geom):
        vec = bethe_vector(mset)
        resid = np.linalg.norm(ham @ vec - mset.energy * vec)
        assert resid < 1e-9 * np.linalg.norm(vec)


@pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (7, 4), (13, 5)])
def test_bethe_vector_matches_per_state_schur(m, n):
    geom = ChainGeometry(m, n)
    mset = bethe_ground_state(geom)
    ref = [schur_determinant(mu_to_lambda(b), mset.phases())
           for b in sector_basis(geom)]
    assert np.array_equal(bethe_vector(mset), ref)


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


def test_ground_state():
    geom = ChainGeometry(6, 3)
    ground = bethe_ground_state(geom)
    energies = [s.energy for s in enumerate_bethe_sets(geom)]
    assert ground.energy == pytest.approx(min(energies), abs=1e-12)
    closed = geom.n - sin(pi * geom.n / geom.sites) / sin(pi / geom.sites)
    assert ground_state_energy_closed_form(geom) == pytest.approx(closed, abs=1e-12)
    assert ground.energy == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2)])
def test_norm_squared_matches_vector_norm(m, n):
    geom = ChainGeometry(m, n)
    for mset in enumerate_bethe_sets(geom):
        vec = bethe_vector(mset)
        assert norm_squared(mset) == pytest.approx(
            float(np.vdot(vec, vec).real), rel=1e-10)


def test_norm_squared_frozen_ground_value():
    # (M+1)^N / |V|^2 at M=4, N=2 ground momenta
    geom = ChainGeometry(4, 2)
    assert norm_squared(bethe_ground_state(geom)) == pytest.approx(
        18.090169943749475, rel=1e-12)


def test_momenta_json():
    doc = bethe_ground_state(ChainGeometry(4, 2)).to_json()
    assert doc["I"] == [1, 0]
    assert len(doc["theta"]) == 2
    assert doc["energy"] == pytest.approx(
        ground_state_energy_closed_form(ChainGeometry(4, 2)))
