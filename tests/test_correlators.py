import tracemalloc
import warnings

import numpy as np
import pytest

from spinpaths.chain import (
    ChainGeometry,
    SectorCapError,
    bethe_ground_state,
    build_sector_hamiltonian,
    build_sector_hopping,
    hopping_matrix,
    sector_basis,
)
from spinpaths import correlators
from spinpaths.correlators import (
    FloatOverflowError,
    IntegerRoundingError,
    RouteMismatchError,
    equality_of_sums_report,
    laplace_generating_f,
    multi_particle_g,
    multi_particle_g_detailed,
    one_particle_g,
    one_particle_matrix,
    persistence_detailed,
    persistence_exact,
    persistence_spectral,
    transition_amplitude,
    transition_amplitude_detailed,
    transition_amplitude_exact,
    trig_path_count,
)
from spinpaths.partitions import lambda_to_mu, mu_to_lambda, shifted_boxed_partitions
from spinpaths.paths import count_random_turns_paths, random_turns_counts_from
from spinpaths.schur import schur_count_at_one, schur_determinant, schur_evaluate

RNG = np.random.default_rng(515)


# ---------------------------------------------------------------- one walker

@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_one_particle_matches_series_oracle(m):
    """Independent oracle: explicit truncated exponential series of the hop."""
    geom = ChainGeometry(m, 1)
    from spinpaths.chain import hopping_matrix

    t = 0.37
    delta = hopping_matrix(m).astype(float)
    acc = np.zeros_like(delta)
    term = np.identity(m + 1)
    for k in range(0, 60):
        acc = acc + term
        term = term @ delta * (t / 2.0) / (k + 1)
    got = one_particle_matrix(geom, t)
    assert np.allclose(got, acc, atol=1e-12)


def test_one_particle_time_derivative():
    """d/dt G(t) = (1/2) Delta G(t), checked by central finite difference."""
    geom = ChainGeometry(4, 1)
    from spinpaths.chain import hopping_matrix

    t, h = 0.6, 1e-5
    plus = one_particle_matrix(geom, t + h)
    minus = one_particle_matrix(geom, t - h)
    mid = one_particle_matrix(geom, t)
    deriv = (plus - minus) / (2 * h)
    assert np.allclose(deriv, 0.5 * hopping_matrix(geom.m) @ mid, atol=1e-8)


def twisted_hop(m: int, nvar: int) -> np.ndarray:
    """The ring hop matrix with its wrap-around bond signed (-1)^(nvar-1),
    written bond by bond; on the 2-site ring the two bonds join one pair."""
    delta = np.zeros((m + 1, m + 1))
    for a in range(m + 1):
        b = (a + 1) % (m + 1)
        hop = (-1.0) ** (nvar - 1) if b == 0 else 1.0
        delta[a, b] += hop
        delta[b, a] += hop
    return delta


@pytest.mark.parametrize("m", [1, 2, 5, 8, 15])
@pytest.mark.parametrize("nvar", [1, 2])
def test_one_particle_matrix_matches_expm_in_real_time(m, nvar):
    """Real time t = i tau, where a Taylor series would cancel to nothing."""
    expm = pytest.importorskip("scipy.linalg").expm
    geom = ChainGeometry(m, 1)
    for tau in (0.5, 10.0, 60.0, 300.0, 1000.0):
        want = expm(0.5j * tau * twisted_hop(m, nvar))
        got = one_particle_matrix(geom, 1j * tau, nvar)
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_one_particle_g_real_time_matches_expm():
    expm = pytest.importorskip("scipy.linalg").expm
    want = expm(30j * hopping_matrix(4))[0, 0]
    got = one_particle_g(ChainGeometry(4, 1), 0, 0, 60j)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_one_particle_raises_float_overflow():
    # the largest entry grows like exp(t): finite at t = 700, past the
    # float maximum exp(709.78) at t = 2000
    geom = ChainGeometry(4, 1)
    assert np.isfinite(one_particle_g(geom, 0, 0, 700.0))
    with pytest.raises(FloatOverflowError):
        one_particle_g(geom, 0, 0, 2000.0)


def test_one_particle_g_entry_and_validation():
    geom = ChainGeometry(3, 1)
    assert one_particle_g(geom, 2, 2, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        one_particle_g(geom, 5, 0, 0.1)


def test_laplace_generating_function_matches_power_series():
    geom = ChainGeometry(4, 1)
    from spinpaths.chain import hopping_power

    z = 0.21
    for j, l in [(0, 0), (2, 4), (3, 1)]:
        series = sum(z ** k * int(hopping_power(geom.m, k)[j, l])
                     for k in range(80))
        assert laplace_generating_f(geom, j, l, z) == pytest.approx(series,
                                                                    rel=1e-10)
    with pytest.raises(ValueError):
        laplace_generating_f(geom, 0, 0, 0.6)


# --------------------------------------------------------------- many walkers

@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (5, 3)])
def test_multi_particle_routes_agree(m, n):
    geom = ChainGeometry(m, n)
    basis = sector_basis(geom)
    for _ in range(3):
        j = basis[RNG.integers(len(basis))]
        l = basis[RNG.integers(len(basis))]
        t = float(RNG.uniform(0.1, 1.5))
        res = multi_particle_g_detailed(geom, j, l, t)
        assert res.route_residuals["det_vs_spectral"] <= 1e-9


def test_multi_particle_matches_dense_evolution():
    """Sector matrix element of exp((t/2) * hop), the strongest oracle."""
    geom = ChainGeometry(4, 2)
    basis = sector_basis(geom)
    hop = build_sector_hopping(geom)
    t = 0.8
    w, vecs = np.linalg.eigh(hop)
    evo = (vecs * np.exp(-t / 2.0 * w)) @ vecs.T
    for a, ja in enumerate(basis):
        for b, lb in enumerate(basis):
            got = multi_particle_g(geom, ja, lb, t)
            assert got == pytest.approx(evo[a, b], abs=1e-10)


@pytest.mark.parametrize("tau", [25.0, 100.0, 1000.0])
def test_multi_particle_real_time_routes_agree(tau):
    geom = ChainGeometry(9, 3)
    res = multi_particle_g_detailed(geom, (5, 3, 1), (6, 3, 0), 1j * tau)
    assert res.route_residuals["det_vs_spectral"] <= 1e-9
    # the sector matrix element of exp((i tau / 2) * adjacency)
    basis = sector_basis(geom)
    w, vecs = np.linalg.eigh(build_sector_hopping(geom))
    row, col = basis.index((5, 3, 1)), basis.index((6, 3, 0))
    want = (vecs[row] * np.exp(-0.5j * tau * w)) @ vecs[col]
    assert res.value == pytest.approx(want, abs=1e-9)


def test_multi_particle_large_t_raises_float_overflow():
    # the true value is about 1.6e339 = exp(780.8); the three largest
    # one-walker exponents sum to 785.4, past the float maximum exp(709.78)
    with pytest.raises(FloatOverflowError, match="785.4"):
        multi_particle_g_detailed(ChainGeometry(9, 3), (5, 3, 1), (6, 3, 0),
                                  300)


def test_multi_particle_nan_route_raises(monkeypatch):
    monkeypatch.setattr(correlators, "_det_product_spectral",
                        lambda *args: complex("nan"))
    with pytest.raises(RouteMismatchError):
        multi_particle_g_detailed(ChainGeometry(4, 2), (3, 1), (2, 0), 0.5)


def test_multi_particle_coincident_endpoints_vanish():
    geom = ChainGeometry(4, 2)
    assert multi_particle_g(geom, (2, 2), (3, 1), 0.5) == 0


def test_two_site_ring_even_walker_number():
    # both walkers frozen: the full sector is a single state with no moves
    geom = ChainGeometry(1, 2)
    assert multi_particle_g(geom, (1, 0), (1, 0), 0.9) == pytest.approx(1.0)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_trig_count_equals_walker_count(m, n):
    geom = ChainGeometry(m, n)
    basis = sector_basis(geom)
    for k in range(0, 7):
        j = basis[RNG.integers(len(basis))]
        l = basis[RNG.integers(len(basis))]
        assert trig_path_count(geom, j, l, k) == \
            count_random_turns_paths(j, l, k, m)


def test_trig_count_non_finite_sum_raises():
    # (2 sum cos)^1200 overflows and the subset sum becomes NaN; the error
    # is the only report, with no numpy warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegerRoundingError):
            trig_path_count(ChainGeometry(5, 2), (3, 1), (3, 1), 1200)


@pytest.mark.parametrize("steps", [16, 20])
def test_trig_count_parity_zero_is_exact(steps):
    # on the 12-site ring each tick flips the parity of the position sum, so
    # (8,4,1) -> (9,5,2), sums 13 and 16, has no path of even length; the
    # float sum there cancels only to roundoff
    geom = ChainGeometry(11, 3)
    assert count_random_turns_paths((8, 4, 1), (9, 5, 2), steps, 11) == 0
    assert trig_path_count(geom, (8, 4, 1), (9, 5, 2), steps) == 0


def test_trig_count_odd_ring_has_no_parity_rule():
    # on the 5-site ring a walker returns in 5 ticks, all left or all right
    assert trig_path_count(ChainGeometry(4, 1), (0,), (0,), 5) == 2
    assert count_random_turns_paths((0,), (0,), 5, 4) == 2


def test_trig_count_rejects_negative_steps():
    with pytest.raises(ValueError):
        trig_path_count(ChainGeometry(3, 1), (0,), (0,), -1)


# ----------------------------------------------------- projected amplitudes

def random_params(n):
    return tuple(complex(a, b) for a, b in
                 zip(RNG.uniform(0.4, 1.4, n), RNG.uniform(-0.4, 0.4, n)))


@pytest.mark.parametrize("m,n,shift", [(3, 1, 0), (3, 1, 2), (4, 2, 0),
                                       (4, 2, 1), (5, 2, 2)])
def test_transition_amplitude_routes_and_dense_oracle(m, n, shift):
    geom = ChainGeometry(m, n)
    u = random_params(n)
    v = random_params(n)
    t = float(RNG.uniform(0.1, 1.0))
    res = transition_amplitude_detailed(geom, u, v, shift, t)
    assert res.route_residuals["boxed_vs_spectral"] <= 1e-8
    exact = transition_amplitude_exact(geom, u, v, shift, t)
    assert abs(res.value - exact) <= 1e-8 * max(1.0, abs(exact))


def test_transition_amplitude_nan_route_raises(monkeypatch):
    monkeypatch.setattr(correlators, "_transition_spectral",
                        lambda *args: complex("nan"))
    with pytest.raises(RouteMismatchError):
        transition_amplitude_detailed(ChainGeometry(4, 2), random_params(2),
                                      random_params(2), 1, 0.5)


def test_transition_amplitude_large_t_raises_float_overflow():
    # two walkers on 5 sites: the two largest twisted one-walker exponents
    # sum to 2 cos(pi/5) t = 1618 at t = 1000
    with pytest.raises(FloatOverflowError):
        transition_amplitude_detailed(ChainGeometry(4, 2), (1.0, 0.5),
                                      (0.5, 1.0), 1, 1000.0)


def test_transition_amplitude_validation():
    geom = ChainGeometry(4, 2)
    with pytest.raises(ValueError):
        transition_amplitude(geom, (1.0,), (1.0, 1.0), 0, 0.1)
    with pytest.raises(ValueError):
        transition_amplitude(geom, (1.0, 1.0), (1.0, 1.0), 9, 0.1)


# ------------------------------------------------------- counting identity

@pytest.mark.parametrize("m,n,shift,steps", [(3, 1, 0, 4), (3, 1, 1, 3),
                                             (4, 2, 0, 4), (4, 2, 1, 5),
                                             (5, 2, 2, 6)])
def test_equality_of_sums(m, n, shift, steps):
    report = equality_of_sums_report(ChainGeometry(m, n), shift, steps)
    assert report["pass"], report
    assert report["residual"] <= 1e-6 * max(1, report["rhs"])


def _rhs_per_shape(geom, n, steps):
    """The right side as a double loop over boxed shapes, one walk per shape."""
    nvar = geom.n
    shapes = list(shifted_boxed_partitions(nvar, geom.k_cap - n, n)) if nvar \
        else [()]
    counts = {lam: schur_count_at_one(lam, nvar) for lam in shapes}
    mus = {lam: lambda_to_mu(lam, nvar) for lam in shapes}
    rhs = 0
    for lam_r in shapes:
        walks = random_turns_counts_from(mus[lam_r], steps, geom.m)
        for lam_l in shapes:
            rhs += counts[lam_l] * counts[lam_r] * walks.get(mus[lam_l], 0)
    return rhs


@pytest.mark.parametrize("m,n", [(6, 3), (9, 3), (4, 0)])
def test_equality_of_sums_rhs_is_one_weighted_walk(m, n):
    geom = ChainGeometry(m, n)
    for shift in sorted({0, 1, geom.k_cap}):
        for steps in (0, 3, 8):
            report = equality_of_sums_report(geom, shift, steps)
            assert report["rhs"] == _rhs_per_shape(geom, shift, steps)
            assert report["pass"]


def test_equality_of_sums_rejects_negative_steps():
    with pytest.raises(ValueError):
        equality_of_sums_report(ChainGeometry(4, 2), 0, -1)


def test_equality_of_sums_spot_value():
    report = equality_of_sums_report(ChainGeometry(6, 3), 1, 4)
    assert report["rhs"] == 204386
    assert report["pass"]


# ------------------------------------------------------------- persistence

@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (5, 2), (6, 2)])
def test_persistence_spectral_vs_dense(m, n):
    geom = ChainGeometry(m, n)
    for shift in range(0, min(3, geom.k_cap + 1)):
        for t in (0.0, 0.5, 1.0):
            res = persistence_detailed(geom, shift, t)
            assert res.route_residuals["spectral_vs_dense"] <= 1e-8


def test_persistence_nan_route_raises(monkeypatch):
    monkeypatch.setattr(correlators, "persistence_exact",
                        lambda *args: complex("nan"))
    with pytest.raises(RouteMismatchError):
        persistence_detailed(ChainGeometry(4, 2), 1, 0.5)


def test_persistence_no_exclusion_is_one():
    for m, n in [(4, 2), (5, 3)]:
        geom = ChainGeometry(m, n)
        for t in (0.0, 0.7, 2.0):
            assert persistence_spectral(geom, 0, t) == pytest.approx(1.0,
                                                                     abs=1e-10)


def test_persistence_zero_time_is_projection_weight():
    geom = ChainGeometry(5, 2)
    val = persistence_spectral(geom, 1, 0.0)
    assert 0.0 < val.real <= 1.0
    assert val == pytest.approx(persistence_exact(geom, 1, 0.0), abs=1e-10)


def test_persistence_monotone_window():
    # stronger exclusion can only reduce the equal-time weight
    geom = ChainGeometry(6, 2)
    vals = [persistence_spectral(geom, k, 0.3).real for k in range(0, 4)]
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


# ------------------------------------------ exact-diagonalization oracles
# References: numpy `eigh` of the dense sector matrices, and Schur vectors
# taken one basis state at a time.  (3,2), (5,3) and (7,4) have translation
# orbits shorter than the ring; M=1 has the doubled bond.

ORACLE_TIMES = (0.0, 0.8, 1.5j, 0.5 - 2j, 6.0)


def schur_vector(geom, x, evaluate=schur_evaluate):
    return np.array([evaluate(mu_to_lambda(b) if b else (), x)
                     for b in sector_basis(geom)])


def window(geom, n):
    return np.array([1.0 if (not b or min(b) >= n) else 0.0
                     for b in sector_basis(geom)])


def dense_evolution(matrix, scale):
    """exp(scale * matrix) for a real-symmetric matrix, by numpy eigh."""
    w, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(scale * w)) @ vecs.T


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (4, 2), (5, 3), (7, 4)])
def test_persistence_exact_matches_dense_eigh(m, n):
    geom = ChainGeometry(m, n)
    ham = build_sector_hamiltonian(geom)
    vec = schur_vector(geom, bethe_ground_state(geom).phases(),
                       schur_determinant)
    for shift in range(geom.k_cap + 1):
        part = vec * window(geom, shift)
        for t in ORACLE_TIMES:
            evo = dense_evolution(ham, -t)
            ref = (np.conj(part) @ evo @ part) / (np.conj(vec) @ evo @ vec)
            got = persistence_exact(geom, shift, t)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (shift, t)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 1), (1, 2), (3, 2), (4, 0),
                                 (4, 5), (5, 3), (7, 4)])
def test_transition_exact_matches_dense_eigh(m, n):
    geom = ChainGeometry(m, n)
    hop = build_sector_hopping(geom)
    u, v = random_params(n), random_params(n)
    left, right = schur_vector(geom, v), schur_vector(geom, u)
    for shift in range(geom.k_cap + 1):
        proj = window(geom, shift)
        for t in ORACLE_TIMES:
            ref = (left * proj) @ dense_evolution(hop, -t / 2.0) @ (right * proj)
            got = transition_amplitude_exact(geom, u, v, shift, t)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (shift, t)


@pytest.mark.parametrize("m,n", [(7, 4), (9, 4)])
def test_persistence_exact_large_real_time(m, n):
    # exp(-t E) underflows for every eigenvalue at t = 1000; the oracle
    # divides the common factor out before taking the exponential
    geom = ChainGeometry(m, n)
    for shift in range(geom.k_cap + 1):
        for t in (300.0, 1000.0, 1000.0 + 3j):
            ref = persistence_spectral(geom, shift, t)
            got = persistence_exact(geom, shift, t)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (shift, t)


def test_persistence_exact_memory_stays_below_sector_matrix():
    # d = C(16, 6) = 8008: a dense float sector matrix alone is 513 MB
    geom = ChainGeometry(15, 6)
    tracemalloc.start()
    try:
        got = persistence_exact(geom, 2, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    ref = persistence_spectral(geom, 2, 1.3)
    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_oracles_check_sector_cap_before_enumerating():
    # C(41, 20) ~ 2.7e11 states: enumerating the basis first would not return
    geom = ChainGeometry(40, 20)
    with pytest.raises(SectorCapError):
        persistence_exact(geom, 1, 0.5)
    with pytest.raises(SectorCapError):
        transition_amplitude_exact(geom, (1.0,) * 20, (1.0,) * 20, 1, 0.5)
