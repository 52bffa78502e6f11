"""Generating and correlation functions of the XX ring.

Time convention, pinned once: the hopping generating functions are series
in t/2 (they weight a K-step walk by (t/2)^K / K!), and the persistence
ratio uses Euclidean evolution exp(-t * H) with the full sector
Hamiltonian.  t may be complex; real time is t = i tau.  Every spectral
formula here has a second route and the detailed variants report the
cross-route residuals: a determinant of the one-walker propagator (one
`eigh` of the twisted hop matrix, sharing nothing with the analytic
momenta), a walker count, or, for persistence and the transition
amplitude, exact diagonalization in the spin-configuration basis.  The
diagonalization oracles never form the sector matrix: they split it into
translation-momentum blocks, each real symmetric in the basis fixed by RK
(reflection times complex conjugation), and take one real `eigh` per pair
of momenta k, -k.  The spectral persistence sum and both amplitude sums
share one overflow guard, `_exp_sum`.  Only the functions that use `schur`
and `sector` import them, so the determinant routes load neither.

The module body loads no numpy.  `trig_path_count` is exact integer
arithmetic and never loads it; every other public function works in
floats and loads numpy when it runs, in each function that uses numpy or
`kernels`, after its argument checks, size caps and a-priori float bound.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import combinations, count, islice
from typing import TYPE_CHECKING

from .chain import (
    DENSE_BYTES_CAP,
    bethe_ground_state,
    bethe_vector,
    check_sector_cap,
    hopping_matrix,
    momentum_exponents,
    momentum_table,
    sector_sites,
)
from .core import (
    DEFAULT_ENUM_CAP,
    ChainGeometry,
    EnumerationCapError,
    FloatOverflowError,
    FrozenRecord,
    RouteMismatchError,
    SectorCapError,
    route_check,
    within_bound,
)
from .partitions import StrictPartition, mu_to_lambda

if TYPE_CHECKING:
    import numpy as np

FLOAT_LOG_MAX = math.log(sys.float_info.max)
ROUTE_TOL_DET_SPECTRAL = 1e-9
ROUTE_TOL_AMPLITUDE = 1e-8
INTEGER_ROUNDING_TOL = 1e-6


class CorrelatorResult(FrozenRecord):
    """A correlator value and the residual of each route check behind it."""

    __slots__ = ("value", "route_residuals")

    def __init__(self, value: complex, route_residuals: dict[str, float] | None = None):
        super().__init__(value, route_residuals or {})


def _check_string_length(geom: ChainGeometry, n: int) -> None:
    if not 0 <= n <= geom.k_cap:
        raise ValueError(f"need 0 <= n <= {geom.k_cap}")


def _check_ring_size(geom: ChainGeometry) -> None:
    """Raise `SectorCapError` when the complex (M+1)^2 one-walker matrix is
    over `DENSE_BYTES_CAP`."""
    nbytes = geom.sites ** 2 * 16
    if nbytes > DENSE_BYTES_CAP:
        raise SectorCapError(
            f"dense one-walker matrix takes {nbytes} bytes, over {DENSE_BYTES_CAP}")


def _minor_log_bound(geom: ChainGeometry, t: complex, nvar: int) -> float:
    """max(nvar, 1) max Re(t w / 2) over the spectrum w = 2 cos(pi (2s +
    phi)/(M+1)) of Delta_tw, phi = 1 - nvar % 2 (Davis, Circulant Matrices,
    1979): it bounds every entry as well as every minor."""
    phi, sites = 1 - nvar % 2, geom.sites
    return max(nvar, 1) * max(complex(t).real * math.cos(math.pi * (2 * s + phi) / sites)
                              for s in range(sites))


def _check_float_range(log_max: float, what: str) -> None:
    if log_max > FLOAT_LOG_MAX:
        raise FloatOverflowError(
            f"{what} can reach exp({log_max:.1f}), "
            f"past the float maximum exp({FLOAT_LOG_MAX:.2f})")


def one_particle_matrix(geom: ChainGeometry, t: complex,
                        nvar: int = 1) -> np.ndarray:
    """exp((t/2) Delta_tw), the one-walker generating functions in t/2.

    Delta_tw is the ring hop matrix with the wrap-around hop signed
    (-1)^(nvar-1): products of walker moves around the ring pick up the
    exchange sign of the resulting cyclic permutation, so with this twist
    an nvar-walker determinant reproduces the sector matrix element
    exactly.  One `eigh` of the real symmetric Delta_tw serves every
    complex t, real time t = i tau included.  Each row of the result has
    2-norm at most exp(max Re(t) w / 2), so by Hadamard's inequality every
    entry and every nvar x nvar minor is bounded by exp(max(nvar, 1) max
    Re(t) w / 2), `_minor_log_bound`, read off the closed-form spectrum.
    Before numpy loads, `SectorCapError` is raised when the matrix is over
    `DENSE_BYTES_CAP`, and then `FloatOverflowError` when the bound leaves
    the float range, so neither `exp` nor `det` can overflow.
    """
    _check_ring_size(geom)
    _check_float_range(_minor_log_bound(geom, t, nvar),
                       f"the {nvar}-walker minors at t={t}")
    import numpy as np
    # sign the wrap-around bond; on the 2-site ring it is the second copy
    # of the doubled bond
    delta = hopping_matrix(geom.m).astype(float)
    if nvar % 2 == 0:
        delta[0, geom.m] = delta[geom.m, 0] = delta[0, geom.m] - 2.0
    w, vecs = np.linalg.eigh(delta)
    return (vecs * np.exp(t / 2.0 * w)) @ vecs.T


def one_particle_g(geom: ChainGeometry, j: int, m: int, t: complex) -> complex:
    """Exponential generating function of single-walker ring walks: the
    one-walker case of `multi_particle_g`, checked against its spectral sum."""
    return multi_particle_g(ChainGeometry(geom.m, 1), (j,), (m,), t)


def laplace_generating_f(geom: ChainGeometry, j: int, m: int, z: complex) -> complex:
    """Ordinary generating function sum_K z^K (Delta^K)_{jm}, via a linear solve."""
    _check_endpoints(geom, (j,), (m,))
    if abs(z) >= 0.5:
        raise ValueError("need |z| < 1/2 (spectral radius of the hop matrix is 2)")
    _check_ring_size(geom)
    import numpy as np
    size = geom.sites
    delta = hopping_matrix(geom.m).astype(float)
    rhs = np.zeros(size, dtype=complex)
    rhs[m] = 1.0
    sol = np.linalg.solve(np.identity(size) - z * delta, rhs)
    return complex(sol[j])


def _subset_weights(geom: ChainGeometry, weight) -> np.ndarray:
    """weight(sum_a cos theta_{s,a}) / (M+1)^N per momentum subset s."""
    return weight(momentum_table(geom).cos_sums) / geom.sites ** geom.n


def _det_product_spectral(m: int, j, l, weight) -> complex:
    """sum_s weight(sum cos) det(e^{i theta_s j}) det(e^{-i theta_s l}) / (M+1)^N."""
    geom = ChainGeometry(m, len(j))
    table = momentum_table(geom)
    import numpy as np
    from .kernels import power_stacks, stacked_dets

    def alternants(mu):
        # not phases ** mu: conj(phases) ** l turns (8,4,1)->(9,5,1) at M=11, K=22 wrong
        build = power_stacks(table.grid_thetas, mu, table.indices,
                             lambda theta, k: np.exp(1j * theta * k))
        return stacked_dets(table.indices, lambda rows: build(rows).swapaxes(1, 2))

    return complex(_subset_weights(geom, weight) @
                   (alternants(np.array(j)) * alternants(-np.array(l))))


def _check_endpoints(geom: ChainGeometry, j, l) -> tuple[tuple[int, ...], tuple[int, ...]]:
    j = tuple(int(v) for v in j)
    l = tuple(int(v) for v in l)
    if len(j) != len(l):
        raise ValueError("endpoint tuples must have equal length")
    for tup in (j, l):
        if any(not 0 <= v <= geom.m for v in tup):
            raise ValueError(f"endpoints {tup} outside 0..{geom.m}")
        if any(tup[i] < tup[i + 1] for i in range(len(tup) - 1)):
            raise ValueError(f"endpoints {tup} not weakly decreasing")
    return j, l


def multi_particle_g_detailed(geom: ChainGeometry, j: StrictPartition,
                              l: StrictPartition, t: complex) -> CorrelatorResult:
    """Many-walker generating function, by determinant and by spectral sum.

    Coincident endpoints give an exact zero (the determinant has equal
    rows or columns), skipping the spectral route.  Both routes' caps and
    the float bound run before numpy loads.
    """
    j, l = _check_endpoints(geom, j, l)
    if len(set(j)) != len(j) or len(set(l)) != len(l):
        return CorrelatorResult(0.0 + 0.0j)
    nvar = len(j)
    check_sector_cap(ChainGeometry(geom.m, nvar))
    # no walkers: the empty determinant, and no propagator to overflow
    gmat = one_particle_matrix(geom, t, nvar) if nvar else None
    import numpy as np
    det_route = complex(np.linalg.det(gmat[np.ix_(j, l)])) if nvar else 1.0 + 0.0j

    spectral = _det_product_spectral(geom.m, j, l, lambda c: np.exp(t * c))

    resid = route_check(spectral, det_route, ROUTE_TOL_DET_SPECTRAL,
                        RouteMismatchError)
    return CorrelatorResult(det_route, {"det_vs_spectral": resid})


def multi_particle_g(geom: ChainGeometry, j, l, t: complex) -> complex:
    return multi_particle_g_detailed(geom, j, l, t).value


def trig_path_count(geom: ChainGeometry, j, l, steps: int) -> int:
    """Walker count as the trigonometric sum over momentum subsets, taken
    exactly in Z/P.

    The terms lie in Z[zeta, 1/(M+1)], zeta = exp(i pi/(M+1)): exp(i theta_s)
    is zeta^e, e from `momentum_exponents`, and 2 cos theta_s is zeta^e +
    zeta^-e.  Sending zeta to an element of order 2(M+1) mod P is a ring
    map, so the sum mod P is the count mod P; P > (2N)^K, a bound on the
    count (each tick moves one of N walkers one of two ways), makes it the
    count.  Before any prime is searched, the sector cap applies (at N = 1
    if N = 0: the M+1 grid momenta are tabulated at any N), and
    `EnumerationCapError` refuses when the minors' N products per column
    set, each up to r^2 word products at r primes, pass `DEFAULT_ENUM_CAP`.
    """
    j, l = _check_endpoints(geom, j, l)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    sub = ChainGeometry(geom.m, len(j))
    check_sector_cap(ChainGeometry(geom.m, max(sub.n, 1)))
    nvar, width, order = sub.n, sub.sites, 2 * sub.sites
    # every prime taken is over 2^61
    primes = int(steps * math.log2(max(2 * nvar, 1))) // 61 + 1
    work = nvar * sum(math.comb(width, k) for k in range(nvar + 1)) * primes ** 2
    if work > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(
            f"the exact trig sum takes about {work} word products, "
            f"over {DEFAULT_ENUM_CAP}")
    bound = (2 * nvar) ** steps
    modulus, zeta = _trig_ring(order, bound)
    powers = [pow(zeta, r, modulus) for r in range(order)]
    exps = momentum_exponents(sub)
    alternants = _column_minors(
        [[powers[e * v % order] for e in exps] for v in j],
        [[powers[-e * v % order] for e in exps] for v in l], modulus)
    cos2 = [powers[e % order] + powers[-e % order] for e in exps]
    total = sum(pow(sum(cos2[c] for c in cols), steps, modulus) * a * b
                for cols, (a, b) in alternants.items())
    return total * pow(width, -nvar, modulus) % modulus


def _trig_ring(order: int, bound: int) -> tuple[int, int]:
    """A modulus P > `bound` and an element of order `order` mod P, by the
    Chinese remainder theorem over primes p = c w 2^31 + 1, w the odd part
    of `order` and c odd, c w < 2^31, from the largest c down (Knuth, TAOCP
    vol. 2, 4.3.2).  Proth's theorem (1878) proves p prime from one a with
    a^((p-1)/2) = -1 (mod p).  Under the caps, every p taken is over 2^61."""
    proper = [d for d in range(1, order) if order % d == 0]
    odd = order // (order & -order)
    modulus, zeta, c = 1, 0, ((2 ** 31 - 1) // odd - 1) | 1
    while modulus <= bound:
        p = c * odd << 31 | 1
        # a prime a that divides w is a square mod p; w < 50,000 has at most 5
        if pow(2, p - 1, p) == 1 and any(pow(a, p >> 1, p) == p - 1 for a in
                                         (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            root = next(z for z in (pow(g, (p - 1) // order, p) for g in count(2))
                        if all(pow(z, d, p) != 1 for d in proper))
            zeta += modulus * ((root - zeta) * pow(modulus, -1, p) % p)
            modulus *= p
        c -= 2
    return modulus, zeta


def _column_minors(left: list[list[int]], right: list[list[int]],
                   modulus: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The minors mod `modulus` of the two (N, W) matrices on every set of
    N columns, keyed by the ascending column tuple: those on the first k
    rows are expanded along row k into those on the first k-1, with no
    division, and each sub-minor is looked up once for both matrices."""
    minors = {(): (1, 1)}
    for k, (lrow, rrow) in enumerate(zip(left, right)):
        prev, minors = minors, {}
        for cols in combinations(range(len(lrow)), k + 1):
            a = b = 0
            # the signs alternate from + on the last column
            for i, c in enumerate(cols):
                pa, pb = prev[cols[:i] + cols[i + 1:]]
                a = lrow[c] * pa - a
                b = rrow[c] * pb - b
            minors[cols] = (a % modulus, b % modulus)
    return minors


def transition_amplitude_detailed(geom: ChainGeometry, u_sq, v_inv_sq,
                                  n: int, t: complex) -> CorrelatorResult:
    """Projected evolution amplitude between two Schur-parametrized states.

    `u_sq` and `v_inv_sq` are the spectral-parameter vectors the two
    states' Schur amplitudes are evaluated at.  The value is the
    momentum-subset spectral sum with two boxed Cauchy-Binet kernels,
    checked against the block-diagonalization oracle.
    """
    nvar = geom.n
    u_sq = tuple(complex(v) for v in u_sq)
    v_inv_sq = tuple(complex(v) for v in v_inv_sq)
    if len(u_sq) != nvar or len(v_inv_sq) != nvar:
        raise ValueError(f"parameter vectors must have length {nvar}")
    _check_string_length(geom, n)
    spectral = _transition_spectral(geom, u_sq, v_inv_sq, n, t)
    exact = transition_amplitude_exact(geom, u_sq, v_inv_sq, n, t)
    resid = route_check(spectral, exact, ROUTE_TOL_AMPLITUDE, RouteMismatchError)
    return CorrelatorResult(spectral, {"spectral_vs_dense": resid})


def _transition_spectral(geom: ChainGeometry, u_sq, v_inv_sq, n: int,
                         t: complex) -> complex:
    """Momentum-subset sum of exp(t sum cos) |V|^2 CB(v, p) CB(conj p, u).

    V(p) CB(v, p) is the boxed sum of s_lam(v) det(p^mu): one Jacobi-Trudi
    determinant per subset, at coincident parameters too.
    """
    table = momentum_table(geom)
    import numpy as np
    weights = (_boxed_dets(geom, v_inv_sq, table.grid_phases, n) *
               _boxed_dets(geom, u_sq, np.conj(table.grid_phases), n)) / geom.sites ** geom.n
    return _exp_sum(t * table.cos_sums, weights,
                    "amplitude sum", t)


def _exp_sum(exponent: np.ndarray, weights: np.ndarray, what: str,
             t: complex) -> complex:
    """exp(exponent) @ weights.  Each term is at most exp(max Re(exponent))
    times its |weight|, so `FloatOverflowError` is raised, before `exp`
    runs, when max Re(exponent) + log max(1, sum |weights|) leaves the
    float range."""
    import numpy as np
    _check_float_range(exponent.real.max() + np.log(max(1.0, np.abs(weights).sum())),
                       f"the {what} at t={t}")
    return complex(np.exp(exponent) @ weights)


def _boxed_dets(geom: ChainGeometry, x, grid: np.ndarray, n: int) -> np.ndarray:
    """sum_lam s_lam(x) det(p_s^mu) over the boxed shapes, per momentum
    subset s, p_s the points of the (M+1,) `grid` at its indices: by
    Cauchy-Binet, (prod x prod p_s)^n det(JT(x) P_s), P_s[m, c] = p_{s,c}^m
    for m < K-n+N.  Rows over m = n..K+N-1 instead would lose digits.
    """
    import numpy as np
    from .kernels import power_stacks, stacked_dets
    from .schur import jacobi_trudi_rows
    width = geom.k_cap - n + geom.n
    rows_jt = jacobi_trudi_rows(x, width)
    indices = momentum_table(geom).indices
    build = power_stacks(grid, np.arange(width), indices)
    dets = stacked_dets(indices, lambda rows: rows_jt @ build(rows))
    return (np.prod(x) * np.prod(grid[indices], axis=1)) ** n * dets


def transition_amplitude(geom: ChainGeometry, u_sq, v_inv_sq,
                         n: int, t: complex) -> complex:
    return transition_amplitude_detailed(geom, u_sq, v_inv_sq, n, t).value


def transition_amplitude_exact(geom: ChainGeometry, u_sq, v_inv_sq,
                               n: int, t: complex) -> complex:
    """Exact-diagonalization oracle: the bilinear form of the projected
    Schur vectors around exp(-(t/2) * hopping part) = exp((t/2) A), A the
    sector adjacency, taken one translation-momentum block at a time."""
    _check_string_length(geom, n)
    sites = sector_sites(geom)
    import numpy as np
    from .schur import schur_values
    from .sector import sector_orbits
    orbits = sector_orbits(geom)
    proj = np.all(sites >= n, axis=1)
    # at repeated parameters each row is a tableau enumeration: skip the rest
    left, right = np.zeros((2, len(sites)), dtype=complex)
    left[proj] = np.conj(schur_values(v_inv_sq, sites[proj]))
    right[proj] = schur_values(u_sq, sites[proj])
    w, (lhs, rhs) = _adjacency_spectrum(orbits, np.array([left, right]))
    return _exp_sum(t / 2.0 * w, np.conj(lhs) * rhs, "amplitude oracle", t)


def _adjacency_spectrum(orbits, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w of the sector adjacency A and the coordinates of each
    row of `vectors` in its eigenbasis, so that conj(a) @ exp(c A) @ b is
    sum(conj(a_w) exp(c w) b_w), from the `sector.SectorOrbits` of the
    sector.  A commutes with the ring translation, so
    each momentum block is diagonalized on its own and then dropped: no
    sector-sized matrix is formed.  Each block is real symmetric in its
    RK-fixed basis (`SectorOrbits.blocks`), and blocks k and -k share one
    real `eigh`.
    """
    import numpy as np
    block_coords = orbits.coordinates(vectors)
    spectrum, coords = [], []
    ring = orbits.orbit.shape[1]
    for k, rows, block in orbits.blocks():
        w, vecs = np.linalg.eigh(block)
        for q in {k, -k % ring}:
            x = block_coords[:, rows, q]
            spectrum.append(w)
            coords.append(x.real @ vecs + 1j * (x.imag @ vecs))
    return np.concatenate(spectrum), np.concatenate(coords, axis=1)


def equality_of_sums_report(geom: ChainGeometry, n: int, steps: int) -> dict:
    """Both sides of the trig-sum = weighted-walker-count identity.

    A failing comparison is reported, not raised.  A float left side that
    could pass the float maximum raises `FloatOverflowError` before the sum.
    """
    nvar = geom.n
    _check_string_length(geom, n)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    table = momentum_table(geom)
    import numpy as np
    from .kernels import subset_rows
    from .paths import frontier_counts, random_turns_frontiers
    from .schur import schur_count_at_one
    norms = np.abs(_boxed_dets(geom, (1.0,) * nvar, table.grid_phases, n)) ** 2
    # each term is at most (2N)^K |boxed|^2 / (M+1)^N
    _check_float_range(steps * math.log(max(2 * nvar, 1)) +
                       math.log(max(1.0, norms.sum() / geom.sites ** nvar)),
                       f"the trig sum of {steps} steps")
    lhs = _subset_weights(geom, lambda c: (2.0 * c) ** steps) @ norms

    mus = list(map(tuple, (n + subset_rows(geom.m - n, nvar)).tolist()))
    counts = [schur_count_at_one(mu_to_lambda(mu), nvar) for mu in mus]
    # sum_{l,r} s_l s_r walks(mu_r -> mu_l) is, by linearity, one walk from
    # the count-weighted starts read off at every mu_l
    walk = random_turns_frontiers(dict(zip(mus, counts)), geom.m)
    walks = frontier_counts(next(islice(walk, steps, None)), mus)
    rhs = sum(c * w for c, w in zip(counts, walks))

    residual = abs(lhs - rhs)
    return {
        "lhs": float(lhs),
        "rhs": rhs,
        "residual": float(residual),
        "pass": within_bound(residual, INTEGER_ROUNDING_TOL * max(1, rhs)),
    }


def persistence_spectral(geom: ChainGeometry, n: int, t: complex) -> complex:
    """Normalized projected-evolution ratio, by the momentum-subset sum."""
    _check_string_length(geom, n)
    gaps, weights = _persistence_terms(geom, n)
    return _exp_sum(-t * gaps, weights, "persistence sum", t)


@lru_cache(maxsize=32)
def _persistence_terms(geom: ChainGeometry,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """The t-independent factors of the persistence sum, per subset s.

    Returns (E_s - E_ground, |B_s V(g)|^2 / (M+1)^{2N}), B_s the boxed sum of
    s_lam(g) det(conj(phases_s)^mu) at the ground phases g: it absorbs the
    subset Vandermonde, and the ground norm (M+1)^N / |V(g)|^2 leaves V(g).
    """
    table = momentum_table(geom)
    ground = bethe_ground_state(geom)
    import numpy as np
    from .schur import vandermonde
    boxed = _boxed_dets(geom, ground.phases, np.conj(table.grid_phases), n)
    gaps = table.energies - ground.energies
    weights = np.abs(boxed * vandermonde(ground.phases)) ** 2 / float(geom.sites) ** (2 * geom.n)
    gaps.flags.writeable = weights.flags.writeable = False
    return gaps, weights


def persistence_exact(geom: ChainGeometry, n: int, t: complex) -> complex:
    """Exact-diagonalization oracle for the persistence ratio.

    exp(-tH) = exp(-tN) exp((t/2) A), A the sector adjacency; the factor
    exp(-tN) cancels in the ratio, and so does exp(-max Re(t w / 2)), which
    keeps both forms finite at large real t.  The Bethe vector and its
    projection are taken one translation-momentum block at a time.
    """
    _check_string_length(geom, n)
    ground = bethe_ground_state(geom)
    import numpy as np
    from .sector import sector_orbits
    orbits = sector_orbits(geom)
    proj = np.all(sector_sites(geom) >= n, axis=1)
    vec = bethe_vector(geom, ground.phases)
    w, coords = _adjacency_spectrum(orbits, np.array([vec * proj, vec]))
    exponent = t / 2.0 * w
    num, den = np.abs(coords) ** 2 @ np.exp(exponent - np.max(exponent.real))
    return complex(num / den)


def persistence_detailed(geom: ChainGeometry, n: int, t: complex) -> CorrelatorResult:
    spectral = persistence_spectral(geom, n, t)
    exact = persistence_exact(geom, n, t)
    resid = route_check(spectral, exact, ROUTE_TOL_AMPLITUDE, RouteMismatchError)
    return CorrelatorResult(spectral, {"spectral_vs_dense": resid})

