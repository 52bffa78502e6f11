"""Generating and correlation functions of the XX ring.

Time convention, pinned once: the hopping generating functions are series
in t/2 (they weight a K-step walk by (t/2)^K / K!), and the persistence
ratio uses Euclidean evolution exp(-t * H) with the full sector
Hamiltonian.  t may be complex; real time is t = i tau.  Every spectral
formula here has a second route and the detailed variants report the
cross-route residuals: the one-walker propagator in position space
(Jacobi-Anger images and Taylor steps, no momenta), a walker count, or,
for persistence and the transition amplitude, exact diagonalization in
the spin-configuration basis.  The diagonalization oracles never form the
sector matrix: they take one real `eigh` per pair of translation momenta
k, -k, each block real symmetric in the basis fixed by RK (reflection
times complex conjugation).  No route sums over momentum subsets: each
such sum is one N x N determinant by Cauchy-Binet (`_cauchy_binet_qr`).

The module body loads no numpy.  Only the two oracles load it, when they
run, after their argument checks and size caps; every other route is an
exact sum in Z/P (`_trig_sum`) or plain Python floats, and loads neither
`kernels` nor `sector`.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import accumulate, count
from operator import add, mul, sub
from typing import TYPE_CHECKING

from . import core
from .chain import (
    bethe_ground_state,
    bethe_vector,
    check_sector_cap,
    momentum_exponents,
    sector_sites,
)
from .core import (
    ChainGeometry,
    FloatOverflowError,
    FrozenRecord,
    RouteMismatchError,
    route_check,
)
from .partitions import StrictPartition, column_minors

if TYPE_CHECKING:
    import numpy as np

FLOAT_LOG_MAX = math.log(sys.float_info.max)
ROUTE_TOL_DET_SPECTRAL = 1e-9
ROUTE_TOL_AMPLITUDE = 1e-8
TAYLOR_NORM = 2.0  # of (t/2) Delta_tw over one Taylor substep
TAYLOR_TERMS = 26  # 2^27 / 27! e^2 < 1e-19


class CorrelatorResult(FrozenRecord):
    """A correlator value and the residual of each route check behind it."""

    __slots__ = ("value", "route_residuals")

    def __init__(self, value: complex, route_residuals: dict[str, float] | None = None):
        super().__init__(value, route_residuals or {})


def _check_string_length(geom: ChainGeometry, n: int) -> None:
    if not 0 <= n <= geom.k_cap:
        raise ValueError(f"need 0 <= n <= {geom.k_cap}")


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


def one_particle_diagonals(geom: ChainGeometry, t: complex, nvar: int = 1,
                           extra: int = 0) -> list[complex]:
    """G = exp((t/2) Delta_tw), the one-walker generating functions in t/2,
    by diagonal: G[x, y] = d[x - y + M].  Delta_tw = S + S^-1, S the shift
    with S^(M+1) = sigma = (-1)^(nvar-1), is the ring hop matrix with its
    wrap-around hop signed by the exchange sign of a cyclic move, so its
    nvar-walker minors are sector matrix elements; G commutes with S, so
    the column g = G e_0 gives every diagonal.  With t = a + ib, g = exp((a/2)
    Delta_tw) g_b: Taylor substeps of norm TAYLOR_NORM (real images cancel
    on a frustrated ring) applied to the Jacobi-Anger images g_b[x] = sum_w
    sigma^w i^n J_n(b), n = x + w(M+1) (Taylor would take O(|b|) steps).
    `_minor_log_bound` bounds every entry and nvar x nvar minor (Hadamard):
    past the float range it raises `FloatOverflowError`, and then
    `core.admit` prices the steps here plus the caller's `extra`.
    """
    _check_float_range(_minor_log_bound(geom, t, nvar), f"the {nvar}-walker minors at t={t}")
    sites, sigma, t = geom.sites, 1 if nvar % 2 else -1, complex(t)
    # J_n(b) < 1e-17 max J twelve Airy widths |b|^(1/3) past the turning point
    top = int(abs(t.imag) + 12 * abs(t.imag) ** (1 / 3)) + 20 if t.imag else 0
    steps = math.ceil(abs(t.real) / TAYLOR_NORM)
    core.admit(top + sites + sites * steps * TAYLOR_TERMS + extra, core.DEFAULT_ENUM_CAP,
               "steps of the one-walker propagator routes")
    # c_n = i^n J_n(b) = c_(-n), laid out from an even block w = lead
    c = [(1, 1j, -1, -1j)[n % 4] * v for n, v in enumerate(_bessel_j(t.imag, top))]
    lead = (-top // sites) & ~1
    line = [0j] * (-top - lead * sites) + c[:0:-1] + c
    col = [sum(line[x::2 * sites]) + sigma * sum(line[x + sites::2 * sites])
           for x in range(sites)]
    for _ in range(steps):
        term = col
        for k in range(1, TAYLOR_TERMS + 1):
            h = t.real / (2 * steps * k)
            term = [h * v for v in _twisted_hops(term, sigma)]
            col = list(map(add, col, term))
    return [sigma * v for v in col[1:]] + col


def _twisted_hops(v: list[complex], sigma: int) -> list[complex]:
    """Delta_tw v: each site's two ring neighbours, across the seam times sigma."""
    return list(map(add, [sigma * v[-1]] + v[:-1], v[1:] + [sigma * v[0]]))


def _bessel_j(b: float, top: int) -> list[float]:
    """J_0(b), ..., J_top(b) by Miller's backward recurrence J_(n-1) =
    (2n/b) J_n - J_(n+1) from J_(top+1) = 0, rescaled to |J_n| = |b| before
    a step could overflow (each step grows by up to 2n/|b|, past 1e300 at
    tiny b), and normalised by J_0 + 2 sum J_2k = 1 (Gautschi, SIAM Rev. 9,
    1967)."""
    vals = [0.0] * (top + 2)
    vals[top] = 1.0
    for n in range(top, 0, -1):
        if 2 * n * abs(vals[n]) > 1e300 * abs(b):
            big = abs(vals[n])
            vals[n:] = [v / big * abs(b) for v in vals[n:]]
        vals[n - 1] = 2 * n * vals[n] / b - vals[n + 1]
    norm = vals[0] + 2 * math.fsum(vals[2::2])
    return [v / norm for v in vals[:-1]]


def one_particle_g(geom: ChainGeometry, j: int, m: int, t: complex) -> complex:
    """Exponential generating function of single-walker ring walks: the
    one-walker case of `multi_particle_g`, checked against its spectral sum."""
    return multi_particle_g(ChainGeometry(geom.m, 1), (j,), (m,), t)


def laplace_generating_f(geom: ChainGeometry, j: int, m: int, z: complex) -> complex:
    """Ordinary generating function sum_K z^K (Delta^K)_{jm}: the line's r^|x|
    / s, s = sqrt(1 - 4z^2), r = 2z / (1 + s), summed over the ring's images
    x = (j - m) mod (M+1) + w(M+1), which at M = 1 double the bond."""
    _check_endpoints(geom, (j,), (m,))
    if abs(z) >= 0.5:
        raise ValueError("need |z| < 1/2 (spectral radius of the hop matrix is 2)")
    sites, s = geom.sites, cmath.sqrt(1 - 4 * z * z)
    r, d = 2 * z / (1 + s), (j - m) % sites
    return (r ** d + r ** (sites - d)) / ((1 - r ** sites) * s)


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
    """det G[j, l], G = exp((t/2) Delta_tw): `one_particle_diagonals` and
    `_lu_det` for the value, checked by `_momentum_minor`, which shares no
    code with them.  Coincident endpoints give an exact zero and no walkers
    1; the sector cap, the float bound and one price of both routes come
    first."""
    j, l = _check_endpoints(geom, j, l)
    if len(set(j)) != len(j) or len(set(l)) != len(l):
        return CorrelatorResult(0.0 + 0.0j)
    nvar, walkers = len(j), ChainGeometry(geom.m, len(j))
    check_sector_cap(walkers)
    if not nvar:
        return CorrelatorResult(1.0 + 0.0j, {"det_vs_spectral": 0.0})
    diag = one_particle_diagonals(geom, t, nvar, 3 * nvar ** 2 * geom.sites + nvar ** 3)
    det_route = _lu_det([[diag[x - y + geom.m] for y in l] for x in j])
    spectral = _momentum_minor(walkers, j, l, t)
    resid = route_check(spectral, det_route, ROUTE_TOL_DET_SPECTRAL, RouteMismatchError)
    return CorrelatorResult(det_route, {"det_vs_spectral": resid})


def _momentum_minor(geom: ChainGeometry, j, l, t: complex) -> complex:
    """det G[j, l] in momentum space, no entry of G formed: G[j, l] = Z^H D
    Y / (M+1), Z[k, a] = exp(-i theta_k j_a), Y[k, b] = exp(-i theta_k l_b)
    and D_k = exp(t cos theta_k) over the N-walker `momentum_exponents`."""
    sites, order, exps = geom.sites, 2 * geom.sites, momentum_exponents(geom)
    roots = [cmath.rect(1.0, math.pi * r / sites) for r in range(order)]
    return _cauchy_binet_qr([[roots[-e * x % order] for e in exps] for x in j],
                            [[roots[-e * y % order] for e in exps] for y in l],
                            [t * roots[e % order].real for e in exps], sites ** len(j))


def _cauchy_binet_qr(left: list[list[complex]], right: list[list[complex]],
                     logs: list[complex], scale: float) -> complex:
    """det(A^H diag(exp(logs)) B) / scale, A and B given by their N columns
    over the K rows of `logs`: the sum over N-sets of rows of Cauchy-Binet.
    Rows by descending Re(log), exp(Re(log) / 2) A = QR (`_householder`),
    it is conj(det R) det((Q^H B')[:N]), B' = exp(log - Re(log) / 2) B:
    each row at its own scale, so the heaviest cannot swamp the lighter."""
    nvar, perm = len(left), sorted(range(len(logs)), key=lambda k: -logs[k].real)
    cols = [[col[k] for k in perm] for col in left]
    cols += [[cmath.exp(1j * logs[k].imag) * col[k] for k in perm] for col in right]
    half = [logs[k].real / 2 for k in perm]
    det = _householder(cols, half, nvar).conjugate() / scale
    corner = _householder([col[:nvar] for col in cols[nvar:]], [0.0] * nvar, nvar)
    return (-1) ** nvar * det * corner * math.exp(math.fsum(half[:nvar]) * 2)


def _lu_det(rows: list[list[complex]]) -> complex:
    """det by LU with partial pivoting, in place."""
    det = 1.0 + 0.0j
    for c in range(len(rows)):
        pick = max(range(c, len(rows)), key=lambda r: abs(rows[r][c]))
        if pick != c:
            rows[c], rows[pick], det = rows[pick], rows[c], -det
        pivot = rows[c][c]
        if not pivot:
            return 0j
        det *= pivot
        for row in rows[c + 1:]:
            f = row[c] / pivot
            row[c:] = [a - f * b for a, b in zip(row[c:], rows[c][c:])]
    return det


def multi_particle_g(geom: ChainGeometry, j, l, t: complex) -> complex:
    return multi_particle_g_detailed(geom, j, l, t).value


def trig_path_count(geom: ChainGeometry, j, l, steps: int) -> int:
    """Walker count as `_trig_sum` with rows zeta^(e v) at the start sites v
    and zeta^(-e v) at the end sites; at most (2N)^K, one of 2N moves a tick."""
    j, l = _check_endpoints(geom, j, l)
    sub = ChainGeometry(geom.m, len(j))
    _check_trig_work(sub, steps, 1)
    return _trig_sum(sub, steps, 1, lambda power, _: (
        [power(v) for v in j], [power(-v) for v in l]))


def _check_trig_work(geom: ChainGeometry, steps: int, scale: int) -> None:
    """The caps of `_trig_sum`, before any prime is searched: the sector cap
    (at N = 1 if N = 0: the M+1 grid momenta are tabulated at any N), and
    its N products per column set, each up to r^2 word products at r primes."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    check_sector_cap(ChainGeometry(geom.m, max(geom.n, 1)))
    # every prime taken is over 2^61
    primes = int(steps * math.log2(max(2 * geom.n, 1)) + math.log2(scale)) // 61 + 1
    work = geom.n * sum(math.comb(geom.sites, k) for k in range(geom.n + 1)) * primes ** 2
    core.admit(work, core.DEFAULT_ENUM_CAP, "word products of the exact trig sum")


def _trig_sum(geom: ChainGeometry, steps: int, scale: int, rows) -> int:
    """sum_s (2 sum cos theta_s)^K a_s b_s / (M+1)^N over the momentum subsets
    s, a_s and b_s the minors on the columns s of rows(power, P), power(k) =
    zeta^(k e) over e in `momentum_exponents`: terms in Z[zeta, 1/(M+1)],
    zeta = exp(i pi/(M+1)), sent to Z/P, P > (2N)^K `scale`, by a ring map."""
    nvar, order = geom.n, 2 * geom.sites
    modulus, zeta = _trig_ring(order, (2 * nvar) ** steps * scale)
    powers = [pow(zeta, r, modulus) for r in range(order)]
    exps = momentum_exponents(geom)
    alternants = column_minors(*rows(
        lambda k: [powers[e * k % order] for e in exps], modulus), modulus)
    cos2 = [powers[e % order] + powers[-e % order] for e in exps]
    total = sum(pow(sum(cos2[c] for c in cols), steps, modulus) * a * b
                for cols, (a, b) in alternants.items())
    return total * pow(geom.sites, -nvar, modulus) % modulus


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


def transition_amplitude_detailed(geom: ChainGeometry, u_sq, v_inv_sq,
                                  n: int, t: complex) -> CorrelatorResult:
    """Projected evolution amplitude between two Schur-parametrized states,
    their Schur amplitudes taken at `u_sq` and `v_inv_sq`: the spectral
    sum, checked against the block-diagonalization oracle."""
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
    V(p) CB(v, p), the boxed sum of s_lam(v) det(p^mu), is (prod v prod
    p)^n det(T_v P), T_x the flagged Jacobi-Trudi rows (exact at coincident
    parameters too) and P[m, c] = p_c^m; by Cauchy-Binet the sum is (prod u
    prod v)^n det(T_v D T_u^T) / (M+1)^N, T_x by Horner at each grid point
    (conjugated for u) and D_k = exp(t cos theta_k).  By Cauchy-Schwarz its
    modulus is at most exp(the N largest Re(t cos theta_k)) times that
    prefactor and |det R| of each side's unweighted QR: the float bound."""
    check_sector_cap(geom)
    nvar, sites, width = geom.n, geom.sites, geom.k_cap - n + geom.n
    core.admit(2 * sites * nvar * (width + 2 * nvar), core.DEFAULT_ENUM_CAP,
               "multiply-adds of the amplitude's Jacobi-Trudi rows and QRs")
    from .schur import jacobi_trudi_rows
    points = [cmath.rect(1.0, -math.pi * e / sites) for e in momentum_exponents(geom)]
    left, right = [], []
    # conj(T_v(p)) is T_conj(v)(conj p)
    for side, x in ((left, [a.conjugate() for a in v_inv_sq]), (right, u_sq)):
        for row in jacobi_trudi_rows(x, width):
            vals = [0j] * sites
            for c in reversed(row):
                vals = [a * p + c for a, p in zip(vals, points)]
            side.append(vals)
    logs, prefactor = [t * p.real for p in points], (math.prod(u_sq) * math.prod(v_inv_sq)) ** n
    size = abs(prefactor) / sites ** nvar * math.prod(
        abs(_householder([c[:] for c in side], [0.0] * sites, nvar)) for side in (left, right))
    heaviest = math.fsum(sorted((log.real for log in logs), reverse=True)[:nvar])
    _check_float_range(heaviest + (math.log(size) if size else -math.inf),
                       f"the amplitude sum at t={t}")
    return complex(prefactor * _cauchy_binet_qr(left, right, logs, sites ** nvar))


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
    # at repeated parameters each row takes its Schur monomials: skip the rest
    left, right = np.zeros((2, len(sites)), dtype=complex)
    left[proj] = np.conj(schur_values(v_inv_sq, sites[proj]))
    right[proj] = schur_values(u_sq, sites[proj])
    w, (lhs, rhs) = _adjacency_spectrum(orbits, np.array([left, right]))
    exponent, weights = t / 2.0 * w, np.conj(lhs) * rhs
    # each term is at most exp(max Re(exponent)) times its |weight|
    _check_float_range(exponent.real.max() + np.log(max(1.0, np.abs(weights).sum())),
                       f"the amplitude oracle at t={t}")
    return complex(np.exp(exponent) @ weights)


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
    """Both sides of the trig-sum = weighted-walker-count identity, in exact
    integers, from the Jacobi-Trudi rows at 1^N, H[a][m] = C(m, N-1-a) for
    m < M+1-n: `_trig_sum` with rows Q[a][c] = sum_m H[a][m] zeta^(+-e_c m)
    (`_binomial_sums`), and K! [t^K] det(H G(t) H^T), G the seam-signed
    one-walker EGFs on the sites n..M.  By Parseval the left side is at most
    (2N)^K det(H H^T), the right side's zeroth term.  Both sides are priced,
    and a left side past the float range raises `FloatOverflowError`, before
    either sum; a failing check reports lhs and residual capped at the
    float maximum."""
    _check_string_length(geom, n)
    from . import paths
    nvar, width = geom.n, geom.sites - n
    check_sector_cap(ChainGeometry(geom.m, max(nvar, 1)))
    walk_rows = [[0] * n + [math.comb(m, nvar - 1 - a) for m in range(width)]
                 for a in range(nvar)]
    gram = paths.weighted_lgv_series(walk_rows, 0, geom.m)[0]
    _check_float_range(steps * math.log(max(2 * nvar, 1)) + math.log(gram),
                       f"the trig sum of {steps} steps")
    _check_trig_work(geom, steps, gram)
    rhs = paths.weighted_lgv_series(walk_rows, steps, geom.m)[steps]
    lhs = _trig_sum(geom, steps, gram, lambda power, modulus: [
        _binomial_sums(nvar, width, power, sign, modulus) for sign in (1, -1)])
    return {"lhs": float(min(lhs, sys.float_info.max)), "rhs": rhs,
            "residual": float(min(abs(lhs - rhs), sys.float_info.max)),
            "pass": lhs == rhs}


def _binomial_sums(nvar: int, width: int, power, sign: int, modulus: int) -> list[tuple]:
    """Rows S_(N-1)..S_0 mod P at each y = zeta^(sign e), S_j(y) = sum_(m <
    width) C(m, j) y^m, by Pascal's rule: (1-y) S_j = y S_(j-1) - C(width, j)
    y^width, y S_(-1) read as 1; S_j(1) = C(width, j+1).  Every 1/(1-y), 1 - y
    read as 1 at y = 1, takes one inverse in all (Montgomery, Math. Comp. 48,
    1987): 1/(1-y_i) = p_i / p_(i+1), p_i the product of the first i."""
    binom, cols, ys = [math.comb(width, j) for j in range(nvar + 1)], [], power(sign)
    diffs = [(1 - y) % modulus or 1 for y in ys]
    prefix = list(accumulate(diffs, lambda a, b: a * b % modulus, initial=1))
    inverses = list(accumulate(diffs[::-1], lambda a, b: a * b % modulus,
                               initial=pow(prefix[-1], -1, modulus)))[::-1]
    for y, top, head, inv_next in zip(ys, power(sign * width), prefix, inverses[1:]):
        inv, prev, col = head * inv_next % modulus, 1, []
        for c, up in zip(binom, binom[1:]):
            col.append(up if y == 1 else (prev - c * top) * inv % modulus)
            prev = y * col[-1]
        cols.append(col)
    return list(zip(*cols))[::-1]


def persistence_spectral(geom: ChainGeometry, n: int, t: complex) -> complex:
    """Normalized projected-evolution ratio, as one N x N Gram determinant.

    By Cauchy-Binet the sum over Bethe states s of exp(-t (E_s - E_g))
    |<s|P|g>|^2, P the projection on the sites n..M, is det(W^H D W): W the
    overlaps there of the grid and ground orbitals (`_persistence_overlaps`),
    D_k = exp(t (cos theta_k - c)), c the mean ground cosine; equal rows of
    W merge, their D summed.  With |D|^(1/2) W = QR (`_householder`) it is
    conj(det R) det(Q^H D |D|^(-1/2) W), in plain floats.  The weights sum
    to det(W^H W) <= 1, so the N largest Re(t) (cos theta_k - c) sum to the
    float bound.
    """
    _check_string_length(geom, n)
    check_sector_cap(geom)
    if not 1 <= geom.n <= geom.m:
        raise ValueError("ground state defined for 1 <= N <= M")
    nvar = geom.n
    core.admit(geom.sites * nvar ** 2, core.DEFAULT_ENUM_CAP,
               "multiply-adds of the persistence Gram determinant")
    cosines, groups = _persistence_overlaps(geom, n)
    # in fsum the ground rows' own exponents cancel exactly
    ground = [-t.real * c for c in cosines[:nvar]]
    heaviest = sorted((t.real * c for c in cosines), reverse=True)[:nvar]
    _check_float_range(math.fsum(heaviest + ground), f"the persistence determinant at t={t}")
    rows = []
    for row, ks in groups:
        top = max(t.real * cosines[k] for k in ks)
        total = sum(cmath.exp(t * cosines[k] - top) for k in ks)
        if total:
            rows.append((top + cmath.log(total), row))
    rows.sort(key=lambda r: -r[0].real)
    cols = [list(col) for col in zip(*(row for _, row in rows))]
    if t.imag:
        cols += [[cmath.exp(1j * log.imag) * a for (log, _), a in zip(rows, col)] for col in cols]
    det = _householder(cols, [log.real / 2 for log, _ in rows], nvar)
    # a merged row's weight may pass the bound, so exp takes half the sum
    half = math.exp(math.fsum([log.real for log, _ in rows[:nvar]] + ground) / 2)
    if not t.imag:
        return complex((half * abs(det)) ** 2)
    corner = _householder([col[:nvar] for col in cols[nvar:]], [0.0] * nvar, nvar)
    return ((-1) ** nvar * (half * det.conjugate()) * (half * corner)
            / cmath.exp(1j * t.imag * math.fsum(cosines[:nvar])))


@lru_cache(maxsize=32)
def _persistence_overlaps(geom: ChainGeometry, n: int) -> tuple[tuple, tuple]:
    """cos theta_k per grid momentum k, and each distinct row of W with the
    k where it occurs, ground rows first.  W[k, a] = sum over x = n..M of
    exp(2 pi i d x / (M+1)) / (M+1), d = a - k, is (M+1-n) / (M+1) at d = 0
    and else a Dirichlet kernel, exactly -1/(M+1) at n = 1: there the rows
    off the ground merge, so no rounding splits their rank-1 block.
    """
    sites, order = geom.sites, 2 * geom.sites
    roots = [cmath.rect(1.0, math.pi * r / sites) for r in range(order)]
    exps = momentum_exponents(geom)
    groups: dict[tuple, list[int]] = {}
    for k, e in enumerate(exps):
        groups.setdefault(tuple(
            -roots[d * (n - 1) % order] * roots[d * n % order].imag
            / roots[d % order].imag / sites if d else complex(sites - n) / sites
            for d in ((a - e) // 2 for a in exps[:geom.n])), []).append(k)
    return (tuple(roots[e % order].real for e in exps),
            tuple((row, tuple(ks)) for row, ks in groups.items()))


def _householder(cols: list[list[complex]], half: list[float], rank: int) -> complex:
    """Householder QR, in place, of the first `rank` columns of A, A[k, c] =
    exp(half[k]) cols[c][k], `half` descending, reflecting the later columns
    too.  Returns prod sigma_j nu_j, R[j, j] = -sigma_j nu_j exp(half[j]),
    times the sign of the column swaps: det A when A is square and `half`
    zero.  Step j weights row k by exp(half[k] - half[j]) <= 1, so nothing
    overflows; sorted rows, and the pivot column largest in row j, keep
    each row's error relative to that row (Powell and Reid, 1969).
    """
    det = 1.0
    for j in range(rank):
        pick = max(range(j, rank), key=lambda c: abs(cols[c][j]))
        if pick != j:
            cols[j], cols[pick], det = cols[pick], cols[j], -det
        weights = [math.exp(h - half[j]) for h in half[j:]]
        pivot = cols[j][j:]
        head = pivot[0]
        nu = math.hypot(*map(abs, map(mul, weights, pivot)))
        if not nu:
            return 0j
        sigma = head / abs(head) if head else 1.0
        # v = pivot + sigma nu e_j, weighted; each later b takes b - v (2 v^H b / v^H v)
        pivot[0] = head + sigma * nu
        dual = [w * w * z.conjugate() / (nu * (nu + abs(head))) for w, z in zip(weights, pivot)]
        for col in cols[j + 1:]:
            f = sum(map(mul, dual, col[j:]))
            col[j:] = map(sub, col[j:], map(f.__mul__, pivot))
        det *= sigma * nu
    return det


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

