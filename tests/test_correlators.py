import json
import math
import sys
import tracemalloc
import warnings
from itertools import combinations, islice, permutations

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
from spinpaths import correlators, paths, schur
from spinpaths.cli import main
from spinpaths.core import EnumerationCapError, relative_residual, within_bound
from spinpaths.correlators import (
    FloatOverflowError,
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
from spinpaths.paths import (
    count_random_turns_paths,
    random_turns_counts,
)
from spinpaths.schur import (
    schur_count_at_one,
    schur_determinant,
    schur_evaluate,
    schur_values,
)

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


def test_transition_amplitude_keeps_its_digits_at_large_complex_t():
    # the Gram form det(JT(v)[:, S] G_SS JT(u)[:, S]^T), S = n..M, is 2.1e-8
    # off the spectral route here, past ROUTE_TOL_AMPLITUDE; the spectral
    # route is 1.1e-13 off the block oracle
    geom = ChainGeometry(9, 4)
    u = (1.3 + 0.2j, -0.7 + 1.1j, 0.4 - 1.5j, -1.2 - 0.3j)
    v = (0.9 - 0.8j, 1.4 + 0.6j, -0.5 + 0.9j, -1.1 - 1.0j)
    res = transition_amplitude_detailed(geom, u, v, 3, 29 + 24j)
    exact = transition_amplitude_exact(geom, u, v, 3, 29 + 24j)
    assert relative_residual(res.value, exact) <= 1e-9


def test_laplace_generating_function_matches_power_series():
    geom = ChainGeometry(4, 1)
    from spinpaths.paths import ring_power_rows

    z = 0.21
    for j, l in [(0, 0), (2, 4), (3, 1)]:
        series = sum(z ** k * row[l]
                     for k, row in zip(range(80), ring_power_rows(j, geom.m)))
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
    # the true value is about 1.6e339 = exp(780.8); the minors are bounded
    # by exp(3 * 300), past the float maximum exp(709.78)
    with pytest.raises(FloatOverflowError, match="900.0"):
        multi_particle_g_detailed(ChainGeometry(9, 3), (5, 3, 1), (6, 3, 0),
                                  300)


@pytest.mark.parametrize("nvar", range(1, 6))
def test_closed_form_minor_bound_matches_eigh(nvar):
    # Delta_tw built and diagonalized here; at m = 1 the twist of an even
    # walker count cancels the doubled bond
    for m in range(1, 41):
        delta = hopping_matrix(m).astype(float)
        if nvar % 2 == 0:
            delta[0, m] -= 2.0
            delta[m, 0] -= 2.0
        w = np.linalg.eigvalsh(delta)
        for t in (1.7 - 0.4j, -2.3 + 0.9j):
            want = nvar * (t / 2.0 * w).real.max()
            got = correlators._minor_log_bound(ChainGeometry(m, 1), t, nvar)
            assert got == pytest.approx(want, rel=0, abs=1e-12), (m, t)


def test_multi_particle_without_walkers_is_one_at_any_t():
    # the empty determinant: no propagator is built, so nothing overflows
    res = multi_particle_g_detailed(ChainGeometry(4, 0), (), (), 1000.0)
    assert res.value == 1.0


@pytest.mark.parametrize("route, args, bound", [
    # the largest exponent t sum cos plus the log of the summed |weights|
    (transition_amplitude_detailed,
     (ChainGeometry(6, 3), (1.0, 0.5, 0.7), (0.5, 1.0, 0.3), 1, 320.0), "719.9"),
    # the three largest one-walker exponents sum to less than 709.78, yet
    # a 3x3 minor overflows on its rounding noise in `det`
    (multi_particle_g_detailed,
     (ChainGeometry(9, 3), (5, 3, 1), (6, 3, 0), 270), "810.0"),
    # four walkers on four sites: `exp` overflows on the largest exponent
    (multi_particle_g_detailed,
     (ChainGeometry(3, 4), (3, 2, 1, 0), (3, 2, 1, 0), 1500), "4242.6"),
    # the largest gap 2.93 at t = -800; that subset's weight is rounding noise
    (persistence_spectral, (ChainGeometry(4, 2), 1, -800.0), "2341.6"),
], ids=["transition-6-3", "multi-9-3", "multi-3-4", "persistence-4-2"])
def test_float_overflow_raised_before_numpy_overflows(route, args, bound):
    # the suite turns numpy's overflow RuntimeWarning into an error, so the
    # bound must fire before `exp` or `det` is reached
    with pytest.raises(FloatOverflowError, match=bound):
        route(*args)


def test_residual_of_an_overflowing_modulus_fails_the_check():
    # abs() of this finite complex is past the float range
    resid = relative_residual(complex(1.7e308, 1.7e308), 0.77)
    assert resid == float("inf")
    assert not within_bound(resid, correlators.ROUTE_TOL_AMPLITUDE)


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


def test_trig_count_past_the_float_range_is_exact():
    # (2 sum cos)^1200 is past the float range, where a float subset sum
    # is NaN; the sum in Z/P takes no float, so no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trig_path_count(ChainGeometry(5, 2), (3, 1), (3, 1), 1200) == \
            count_random_turns_paths((3, 1), (3, 1), 1200, 5)


# counts past 2^53, where the rounded float sum landed on a wrong integer
# (off by 14, 491,520, 13,811,084,768 and 33,774) and nothing raised
@pytest.mark.parametrize("m, j, l, steps", [
    (11, (8, 4, 1), (9, 5, 1), 24),
    (11, (8, 4, 1), (9, 5, 1), 30),
    (19, (15, 11, 7, 3, 0), (16, 11, 7, 3, 0), 29),
    (16, (12, 9, 5, 2), (13, 8, 5, 3), 26),
])
def test_trig_count_is_exact_past_2_53(m, j, l, steps):
    assert trig_path_count(ChainGeometry(m, len(j)), j, l, steps) == \
        count_random_turns_paths(j, l, steps, m)


@pytest.mark.parametrize("m, n, steps", [
    (23, 20, 1),  # 10,626 subsets, but minors on every k <= 20 of 24 columns
    (11, 3, 3000),  # 299 minors, but residues of 128 primes
    (1, 1, 10 ** 9),
])
def test_trig_count_refuses_before_any_prime_search(monkeypatch, m, n, steps):
    monkeypatch.setattr(correlators, "_trig_ring", lambda *a: pytest.fail("searched"))
    j = tuple(range(n - 1, -1, -1))
    with pytest.raises(EnumerationCapError, match="word products"):
        trig_path_count(ChainGeometry(m, n), j, j, steps)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, exact for 37 < n < 3.18e23
    (Sorenson and Webster, Math. Comp. 86, 2017)."""
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, odd, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@pytest.mark.parametrize("m, steps", [
    (49998, 853),  # the largest odd part of 2(M+1) a walker ring admits, at 14 primes
    (1, 111324),  # the most primes the cap admits, 1825, at w = 1
])
def test_trig_ring_takes_primes_above_2_61(m, steps):
    geom, j = ChainGeometry(m, 1), (0,)
    # the largest K the cap admits on this ring
    with pytest.raises(EnumerationCapError):
        trig_path_count(geom, j, j, steps + 1)
    order, bound = 2 * geom.sites, 2 ** steps
    modulus, _ = correlators._trig_ring(order, bound)
    assert modulus > bound
    # no more primes than the cap priced: K log2(2N) // 61 + 1 at N = 1
    primes = steps // 61 + 1
    # divide out the p = k 2^31 + 1 over 2^61 with w | k, k odd, from the
    # top, allowing 200 candidates a prime
    odd = order // (order & -order)
    rest, taken = modulus, []
    for k in islice(range((2 ** 31 - 1) // odd * odd, 2 ** 30, -odd), 200 * primes):
        p = k << 31 | 1
        if k % 2 and rest % p == 0:
            rest //= p
            taken.append(p)
        if rest == 1:
            break
    assert rest == 1 and len(taken) <= primes
    assert all(_is_prime(p) for p in taken)


def test_trig_count_on_a_walkerless_ring_keeps_the_one_walker_cap():
    # the M+1 grid momenta are tabulated at N = 0 too
    assert trig_path_count(ChainGeometry(49999, 0), (), (), 0) == 1
    with pytest.raises(SectorCapError):
        trig_path_count(ChainGeometry(50000, 0), (), (), 0)


def test_trig_count_keeps_the_sector_cap():
    with pytest.raises(SectorCapError):
        trig_path_count(ChainGeometry(29, 10), tuple(range(9, -1, -1)),
                        tuple(range(9, -1, -1)), 2)


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


ENDPOINT_ROUTES = {
    "multi_particle_g": lambda geom, j, l: multi_particle_g(geom, j, l, 0.5),
    "trig_path_count": lambda geom, j, l: trig_path_count(geom, j, l, 2),
}


@pytest.mark.parametrize("route", ENDPOINT_ROUTES)
@pytest.mark.parametrize("j,l,detail", [
    ((3, 1), (2,), "endpoint tuples must have equal length"),
    ((1, 3), (2, 0), r"endpoints \(1, 3\) not weakly decreasing"),
    ((3, 1), (0, 2), r"endpoints \(0, 2\) not weakly decreasing"),
])
def test_endpoints_checked_before_either_route(route, j, l, detail):
    with pytest.raises(ValueError, match=detail):
        ENDPOINT_ROUTES[route](ChainGeometry(4, 2), j, l)


def test_trig_count_rejects_negative_steps():
    with pytest.raises(ValueError):
        trig_path_count(ChainGeometry(3, 1), (0,), (0,), -1)


# ----------------------------------------------------- projected amplitudes

def random_params(n):
    return tuple(complex(a, b) for a, b in
                 zip(RNG.uniform(0.4, 1.4, n), RNG.uniform(-0.4, 0.4, n)))


def amplitude_params(kind, n):
    """(u, v): random, or with coincident entries, which send both Schur
    evaluations and the tableau side of the routes to their degenerate
    branch."""
    if kind == "u-ones":
        return (1.0,) * n, random_params(n)
    if kind == "u-repeated":
        u = random_params(n)
        return (u[0],) + u[:-1], random_params(n)
    if kind == "both-ones":
        return (1.0,) * n, (1.0,) * n
    return random_params(n), random_params(n)


@pytest.mark.parametrize("m,n,shift,kind", [
    pytest.param(m, n, shift, "random", id=f"{m}-{n}-{shift}")
    for m, n, shift in [(3, 1, 0), (3, 1, 2), (4, 2, 0), (4, 2, 1), (5, 2, 2)]
] + [
    pytest.param(m, n, shift, kind, id=f"{m}-{n}-{shift}-{kind}")
    for m, n, shift in [(4, 2, 1), (5, 3, 0), (6, 3, 1)]
    for kind in ("u-ones", "u-repeated", "both-ones")
])
def test_transition_amplitude_routes_and_dense_oracle(m, n, shift, kind):
    geom = ChainGeometry(m, n)
    u, v = amplitude_params(kind, n)
    t = float(RNG.uniform(0.1, 1.0))
    res = transition_amplitude_detailed(geom, u, v, shift, t)
    assert res.route_residuals["spectral_vs_dense"] <= 1e-8
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


def test_transition_amplitude_exact_large_t_raises_float_overflow():
    # the largest sector adjacency eigenvalue is 4 cos(pi/5), so at t = 1000
    # the oracle's terms reach exp(1618.0); it returned nan+nanj
    with pytest.raises(FloatOverflowError, match="1618.6"):
        transition_amplitude_exact(ChainGeometry(4, 2), (1.0, 0.5), (0.5, 1.0),
                                   1, 1000.0)


def test_transition_amplitude_finite_below_the_float_range():
    # 4.816e292 at t = 300: the amplitude sum's own bound, exp(674.9), is
    # what decides, not a three-walker Hadamard bound exp(900.0)
    geom, u, v = ChainGeometry(6, 3), (1.0, 0.5, 0.7), (0.5, 1.0, 0.3)
    res = transition_amplitude_detailed(geom, u, v, 1, 300.0)
    assert np.isfinite(res.value)
    exact = transition_amplitude_exact(geom, u, v, 1, 300.0)
    assert relative_residual(res.value, exact) <= 1e-12


def test_transition_oracle_evaluates_only_projected_rows(monkeypatch):
    # at (6,3), n = 1 the projected rows are the C(6,3) = 20 triples in
    # 1..6, of the C(7,3) = 35 sector rows
    rows = []

    def recording(x, mus):
        rows.append(len(mus))
        return schur_values(x, mus)

    # the oracle imports `schur_values` from `schur` when it runs
    monkeypatch.setattr(schur, "schur_values", recording)
    transition_amplitude_exact(ChainGeometry(6, 3), (1.0, 0.5, 0.7),
                               (0.5, 1.0, 0.3), 1, 0.4)
    assert rows == [20, 20]


def test_transition_amplitude_validation():
    geom = ChainGeometry(4, 2)
    with pytest.raises(ValueError):
        transition_amplitude(geom, (1.0,), (1.0, 1.0), 0, 0.1)
    with pytest.raises(ValueError):
        transition_amplitude(geom, (1.0, 1.0), (1.0, 1.0), 9, 0.1)


ONES = (1.0, 1.0, 1.0)
STRING_ROUTES = {
    "persistence_spectral": lambda geom, n: persistence_spectral(geom, n, 0.5),
    "persistence_exact": lambda geom, n: persistence_exact(geom, n, 0.5),
    "transition_amplitude": lambda geom, n: transition_amplitude(geom, ONES, ONES, n, 0.5),
    "transition_amplitude_exact":
        lambda geom, n: transition_amplitude_exact(geom, ONES, ONES, n, 0.5),
}


@pytest.mark.parametrize("route", STRING_ROUTES)
@pytest.mark.parametrize("n", [-1, 5])
def test_string_length_out_of_range_raises(route, n):
    # k_cap = 4 at (6, 3); the oracles returned 1 and 0 here instead
    with pytest.raises(ValueError, match="need 0 <= n <= 4"):
        STRING_ROUTES[route](ChainGeometry(6, 3), n)


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
        walk = random_turns_counts({mus[lam_r]: 1}, [mus[lam_l] for lam_l in shapes],
                                   geom.m)
        walks = next(islice(walk, steps, None))
        for lam_l, w in zip(shapes, walks):
            rhs += counts[lam_l] * counts[lam_r] * w
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


def _hook_weighted_walks(geom, n, steps):
    """The right side as the walker DP from the hook-content-weighted starts,
    at each step count in `steps`."""
    nvar = geom.n
    shapes = list(shifted_boxed_partitions(nvar, geom.k_cap - n, n)) if nvar \
        else [()]
    mus = [lambda_to_mu(lam, nvar) for lam in shapes]
    counts = [schur_count_at_one(lam, nvar) for lam in shapes]
    walk = list(islice(random_turns_counts(dict(zip(mus, counts)), mus, geom.m),
                       max(steps) + 1))
    return {k: sum(c * w for c, w in zip(counts, walk[k])) for k in steps}


def test_equality_of_sums_is_exact_on_the_grid():
    # every M <= 9, N <= 4 and string length n: both sides are the same
    # integer, and the right side is the DP's hook-content-weighted count
    steps = (0, 1, 2, 3, 5, 8)
    for m in range(1, 10):
        for nvar in range(min(4, m + 1) + 1):
            geom = ChainGeometry(m, nvar)
            for n in range(geom.k_cap + 1):
                witness = _hook_weighted_walks(geom, n, steps)
                for k in steps:
                    report = equality_of_sums_report(geom, n, k)
                    assert report["rhs"] == witness[k], (m, nvar, n, k)
                    assert report["lhs"] == float(witness[k])
                    assert report["residual"] == 0.0
                    assert report["pass"] is True
                    if nvar == 0:
                        assert report["rhs"] == int(k == 0)


def _integer_det(rows):
    # Leibniz, for the N <= 4 minors below
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(rows, perm))
    return total


@pytest.mark.parametrize("m, nvar", [(9, 3), (12, 4)])
def test_binomial_rows_minors_are_the_schur_counts(monkeypatch, m, nvar):
    # H[a][m] = C(m, N-1-a): its minor on the columns mu - n, in mu's order,
    # is s_lam(1^N) for every boxed shape, and det(H H^T) is the sum of their
    # squares (Parseval); both sides of the identity take their weights here
    geom = ChainGeometry(m, nvar)
    real = paths.weighted_lgv_series
    seen = []
    monkeypatch.setattr(paths, "weighted_lgv_series",
                        lambda rows, kmax, m: seen.append(rows) or real(rows, kmax, m))
    for n in range(geom.k_cap + 1):
        seen.clear()
        equality_of_sums_report(geom, n, 0)
        rows = [row[n:] for row in seen[0]]
        assert all(row[:n] == [0] * n for row in seen[0])
        counts = []
        for lam in shifted_boxed_partitions(nvar, geom.k_cap - n, n):
            mu = lambda_to_mu(lam, nvar)
            minor = _integer_det([[row[c - n] for c in mu] for row in rows])
            assert minor == schur_count_at_one(lam, nvar), (n, lam)
            counts.append(minor)
        assert real(seen[0], 0, m) == [sum(c * c for c in counts)]


@pytest.mark.parametrize("nvar, width", [(1, 7), (3, 9), (4, 12), (0, 5)])
def test_binomial_sums_follow_pascals_rule_mod_p(nvar, width):
    # S_j(y) = sum_(m < width) C(m, j) y^m, by the recurrence, against the
    # direct sum mod a prime, at y = 1 and at points off 1
    p = 2 ** 61 - 1
    ys = [1, 2, p - 1, 123456789, pow(3, 40, p)]
    got = correlators._binomial_sums(nvar, width, lambda k: [pow(y, k, p) for y in ys], 1, p)
    want = [[sum(math.comb(m, nvar - 1 - a) * pow(y, m, p) for m in range(width)) % p
             for y in ys] for a in range(nvar)]
    assert [list(row) for row in got] == want


@pytest.mark.parametrize("offset", [1, 1 << 1100], ids=["off-by-one", "past-float-range"])
def test_equality_of_sums_failure_is_one_report(monkeypatch, capsys, offset):
    # a left side forced off the right prints one report and exits 1, with
    # no traceback, even when the residue is past the float range
    real = correlators._trig_sum
    monkeypatch.setattr(correlators, "_trig_sum",
                        lambda *args: real(*args) + offset)
    assert main(["verify", "equality-of-sums", "--m", "9", "--n", "3",
                 "--string-n", "1", "--steps", "8"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    (check,) = json.loads(out.out)["checks"]
    assert check["pass"] is False and check["rhs"] == "13098222230"
    if offset == 1:
        assert (check["lhs"], check["residual"]) == (13098222231.0, 1.0)
    else:
        assert check["lhs"] == check["residual"] == sys.float_info.max


def test_equality_of_sums_prices_the_walker_side_before_any_sum(monkeypatch):
    # (10000,1), K=1000: the trig side is within the cap, the weighted walk
    # of 20M entries is not; only the K = 0 term, det(H H^T), runs first
    def unreachable(*args):
        raise AssertionError("the trig sum ran")
    monkeypatch.setattr(correlators, "_trig_ring", unreachable)
    with pytest.raises(EnumerationCapError, match="weighted walker operations"):
        equality_of_sums_report(ChainGeometry(10000, 1), 0, 1000)


def test_equality_of_sums_prices_the_trig_side_before_any_sum(monkeypatch):
    # (33,4), K=120: 52,956 column sets at 7 primes; the walker side is
    # within the cap, and it runs no further than its K = 0 term
    real, kmaxes = paths.weighted_lgv_series, []
    monkeypatch.setattr(paths, "weighted_lgv_series",
                        lambda rows, kmax, m: kmaxes.append(kmax) or real(rows, kmax, m))
    with pytest.raises(EnumerationCapError, match="exact trig sum"):
        equality_of_sums_report(ChainGeometry(33, 4), 0, 120)
    assert kmaxes == [0]


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
    vec = schur_vector(geom, bethe_ground_state(geom).phases,
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
