"""Generating and correlation functions of the XX ring.

Time convention, pinned once: the hopping generating functions are series
in t/2 (they weight a K-step walk by (t/2)^K / K!), and the persistence
ratio uses Euclidean evolution exp(-t * H) with the full sector
Hamiltonian.  t may be complex; real time is t = i tau.  Every spectral
formula here has an independent second route (determinant, walker
count, or exact diagonalization in the spin-configuration basis) and the
detailed variants report the cross-route residuals.  The determinants
take the one-walker propagator from one `eigh` of the twisted hop
matrix, which shares nothing with the analytic momenta of the spectral
sums.  The diagonalization oracles never form the sector matrix: they
split it into translation-momentum blocks and take one `eigh` per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from .chain import (
    SectorOrbits,
    bethe_ground_state,
    bethe_vector,
    hopping_matrix,
    momentum_table,
    sector_basis,
    sector_orbits,
)
from .core import (
    ChainGeometry,
    FloatOverflowError,
    IntegerRoundingError,
    RouteMismatchError,
)
from .kernels import det_product_sum, stacked_dets
from .partitions import (
    StrictPartition,
    lambda_to_mu,
    mu_to_lambda,
    shifted_boxed_partitions,
)
from .paths import frontier_counts, random_turns_frontiers
from .schur import (
    jacobi_trudi_rows,
    schur_count_at_one,
    schur_evaluate,
    vandermonde,
)

FLOAT_LOG_MAX = float(np.log(np.finfo(float).max))
ROUTE_TOL_DET_SPECTRAL = 1e-9
ROUTE_TOL_AMPLITUDE = 1e-8
INTEGER_ROUNDING_TOL = 1e-6


@dataclass
class CorrelatorResult:
    value: complex
    route_residuals: dict[str, float] = field(default_factory=dict)


def relative_residual(value, reference) -> float:
    """|value - reference| / max(1, |reference|): the residual of every route check."""
    return abs(value - reference) / max(1.0, abs(reference))


def _validate_sites(geom: ChainGeometry, *indices: int) -> None:
    for i in indices:
        if not 0 <= i <= geom.m:
            raise ValueError(f"site index {i} outside 0..{geom.m}")


def one_particle_matrix(geom: ChainGeometry, t: complex,
                        nvar: int = 1) -> np.ndarray:
    """exp((t/2) Delta_tw), the one-walker generating functions in t/2.

    Delta_tw is the ring hop matrix with the wrap-around hop signed
    (-1)^(nvar-1): products of walker moves around the ring pick up the
    exchange sign of the resulting cyclic permutation, so with this twist
    an nvar-walker determinant reproduces the sector matrix element
    exactly.  One `eigh` of the real symmetric Delta_tw serves every
    complex t, real time t = i tau included.  Raises `FloatOverflowError`
    before the largest nvar-walker modulus, the exp of the sum of the nvar
    largest Re(t) w / 2, would leave the float range.
    """
    # sign the wrap-around bond; on the 2-site ring it is the second copy
    # of the doubled bond
    delta = hopping_matrix(geom.m).astype(float)
    if nvar % 2 == 0:
        delta[0, geom.m] = delta[geom.m, 0] = delta[0, geom.m] - 2.0
    w, vecs = np.linalg.eigh(delta)
    exponent = t / 2.0 * w
    log_max = np.sort(exponent.real)[geom.sites - nvar:].sum()
    if log_max > FLOAT_LOG_MAX:
        raise FloatOverflowError(
            f"the {nvar}-walker propagator at t={t} reaches exp({log_max:.1f}), "
            f"past the float maximum exp({FLOAT_LOG_MAX:.2f})")
    return (vecs * np.exp(exponent)) @ vecs.T


def one_particle_g(geom: ChainGeometry, j: int, m: int, t: complex) -> complex:
    """Exponential generating function of single-walker ring walks."""
    _validate_sites(geom, j, m)
    return complex(one_particle_matrix(geom, t)[j, m])


def laplace_generating_f(geom: ChainGeometry, j: int, m: int, z: complex) -> complex:
    """Ordinary generating function sum_K z^K (Delta^K)_{jm}, via a linear solve."""
    _validate_sites(geom, j, m)
    if abs(z) >= 0.5:
        raise ValueError("need |z| < 1/2 (spectral radius of the hop matrix is 2)")
    size = geom.sites
    delta = hopping_matrix(geom.m).astype(float)
    rhs = np.zeros(size, dtype=complex)
    rhs[m] = 1.0
    sol = np.linalg.solve(np.identity(size) - z * delta, rhs)
    return complex(sol[j])


def _subset_weights(geom: ChainGeometry, weight) -> np.ndarray:
    """weight(sum_a cos theta_{s,a}) / (M+1)^N per momentum subset s."""
    cos_sums = np.sum(np.cos(momentum_table(geom).thetas), axis=1)
    return weight(cos_sums) / geom.sites ** geom.n


def _det_product_spectral(m: int, j, l, weight) -> complex:
    """sum_s weight(sum cos) det(e^{i theta_s j}) det(e^{-i theta_s l}) / (M+1)^N."""
    geom = ChainGeometry(m, len(j))
    return det_product_sum(momentum_table(geom).thetas, np.array(j),
                           np.array(l), _subset_weights(geom, weight))


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
    rows or columns), skipping the spectral route.
    """
    j, l = _check_endpoints(geom, j, l)
    if len(set(j)) != len(j) or len(set(l)) != len(l):
        return CorrelatorResult(0.0 + 0.0j)
    nvar = len(j)
    gmat = one_particle_matrix(geom, t, nvar)
    det_route = complex(np.linalg.det(gmat[np.ix_(j, l)])) if nvar else 1.0 + 0.0j

    spectral = _det_product_spectral(geom.m, j, l, lambda c: np.exp(t * c))

    resid = relative_residual(spectral, det_route)
    if not resid <= ROUTE_TOL_DET_SPECTRAL:
        raise RouteMismatchError(
            f"determinant {det_route} vs spectral {spectral} (residual {resid:.3e})"
        )
    return CorrelatorResult(det_route, {"det_vs_spectral": resid})


def multi_particle_g(geom: ChainGeometry, j, l, t: complex) -> complex:
    return multi_particle_g_detailed(geom, j, l, t).value


def trig_path_count(geom: ChainGeometry, j, l, steps: int) -> int:
    """Walker count as a rounded trigonometric sum over momentum subsets."""
    j, l = _check_endpoints(geom, j, l)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    # on an even ring each tick changes the position sum by an odd amount
    # (+-1, or +-M across the seam), so the count is exactly 0 when the
    # parities disagree; the float sum would only cancel to roundoff
    if geom.sites % 2 == 0 and (sum(l) - sum(j) - steps) % 2:
        return 0
    # an overflowing sum is caught by the residual check below
    with np.errstate(over="ignore", invalid="ignore"):
        val = _det_product_spectral(geom.m, j, l, lambda c: (2.0 * c) ** steps)
    nearest = np.round(val.real)
    resid = relative_residual(val, nearest)
    if not resid <= INTEGER_ROUNDING_TOL:
        raise IntegerRoundingError(
            f"trig sum {val} is {resid:.3e} away from an integer; "
            "reduce the step count or chain size"
        )
    return int(nearest)


def transition_amplitude_detailed(geom: ChainGeometry, u_sq, v_inv_sq,
                                  n: int, t: complex) -> CorrelatorResult:
    """Projected evolution amplitude between two Schur-parametrized states.

    `u_sq` and `v_inv_sq` are the spectral-parameter vectors the two
    states' Schur amplitudes are evaluated at.  Route one sums boxed shape
    pairs against the walker generating function; route two is the
    momentum-subset spectral sum with two boxed Cauchy-Binet kernels.
    """
    nvar = geom.n
    u_sq = tuple(complex(v) for v in u_sq)
    v_inv_sq = tuple(complex(v) for v in v_inv_sq)
    if len(u_sq) != nvar or len(v_inv_sq) != nvar:
        raise ValueError(f"parameter vectors must have length {nvar}")
    if not 0 <= n <= geom.k_cap:
        raise ValueError(f"need 0 <= n <= {geom.k_cap}")

    gmat = one_particle_matrix(geom, t, nvar)
    shapes = list(shifted_boxed_partitions(nvar, geom.k_cap - n, n)) if nvar \
        else [()]
    count = len(shapes)
    mus = np.array([lambda_to_mu(lam, nvar) for lam in shapes],
                   dtype=np.int64).reshape(count, nvar)
    s_left = np.array([schur_evaluate(lam, v_inv_sq) for lam in shapes])
    s_right = np.array([schur_evaluate(lam, u_sq) for lam in shapes])

    def pair_minors(rows):
        left, right = divmod(np.arange(rows.start, rows.stop), count)
        return gmat[mus[left, :, None], mus[right, None, :]]

    dets = stacked_dets(count * count, pair_minors).reshape(count, count)
    direct = complex(s_left @ dets @ s_right)

    spectral = _transition_spectral(geom, u_sq, v_inv_sq, n, t)

    resid = relative_residual(spectral, direct)
    if not resid <= ROUTE_TOL_AMPLITUDE:
        raise RouteMismatchError(
            f"boxed sum {direct} vs spectral {spectral} (residual {resid:.3e})"
        )
    return CorrelatorResult(direct, {"boxed_vs_spectral": resid})


def _transition_spectral(geom: ChainGeometry, u_sq, v_inv_sq, n: int,
                         t: complex) -> complex:
    """Momentum-subset sum of exp(t sum cos) |V|^2 CB(v, p) CB(conj p, u).

    V(p) CB(v, p) is the boxed sum of s_lam(v) det(p^mu): one Jacobi-Trudi
    determinant per subset, at coincident parameters too.
    """
    phases = momentum_table(geom).phases
    weights = _subset_weights(geom, lambda c: np.exp(t * c))
    return complex(weights @ (_boxed_dets(geom, v_inv_sq, phases, n) *
                              _boxed_dets(geom, u_sq, np.conj(phases), n)))


def _boxed_dets(geom: ChainGeometry, x, phases: np.ndarray, n: int) -> np.ndarray:
    """sum_lam s_lam(x) det(p_s^mu) over the boxed shapes, per row p_s: by
    Cauchy-Binet, (prod x prod p_s)^n det(JT(x) P_s), P_s[m, c] = p_{s,c}^m
    for m < K-n+N.  Rows over m = n..K+N-1 instead would lose digits.
    """
    width = geom.k_cap - n + geom.n
    rows_jt = jacobi_trudi_rows(x, width)
    dets = stacked_dets(len(phases), lambda rows:
                        rows_jt @ phases[rows, None, :] ** np.arange(width)[:, None])
    return (np.prod(x) * np.prod(phases, axis=1)) ** n * dets


def transition_amplitude(geom: ChainGeometry, u_sq, v_inv_sq,
                         n: int, t: complex) -> complex:
    return transition_amplitude_detailed(geom, u_sq, v_inv_sq, n, t).value


def transition_amplitude_exact(geom: ChainGeometry, u_sq, v_inv_sq,
                               n: int, t: complex) -> complex:
    """Exact-diagonalization oracle: the bilinear form of the projected
    Schur vectors around exp(-(t/2) * hopping part) = exp((t/2) A), A the
    sector adjacency, taken one translation-momentum block at a time."""
    orbits = sector_orbits(geom)
    basis = sector_basis(geom)
    proj = np.array([1.0 if (not b or min(b) >= n) else 0.0 for b in basis])
    left = np.array([schur_evaluate(mu_to_lambda(b) if b else (), v_inv_sq)
                     for b in basis])
    right = np.array([schur_evaluate(mu_to_lambda(b) if b else (), u_sq)
                      for b in basis])
    w, (lhs, rhs) = _adjacency_spectrum(orbits, np.array([np.conj(left * proj),
                                                          right * proj]))
    return complex((np.conj(lhs) * np.exp(t / 2.0 * w)) @ rhs)


def _adjacency_spectrum(orbits: SectorOrbits,
                        vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w of the sector adjacency A and the coordinates of each
    row of `vectors` in its eigenbasis, so that conj(a) @ exp(c A) @ b is
    sum(conj(a_w) exp(c w) b_w).  A commutes with the ring translation, so
    each momentum block is diagonalized on its own and then dropped: no
    sector-sized matrix is formed.  Blocks k and -k share one `eigh`.
    """
    bloch = orbits.coordinates(vectors)
    spectrum, coords = [], []
    ring = orbits.orbit.shape[1]
    for k, rows, block in orbits.blocks():
        w, vecs = np.linalg.eigh(block)
        # block -k is conj(block k): same eigenvalues, conjugate eigenvectors;
        # the coordinates are V^H x = x @ conj(V)
        for q, conj_vecs in {k: vecs.conj(), -k % ring: vecs}.items():
            spectrum.append(w)
            coords.append(bloch[:, rows, q] @ conj_vecs)
    return np.concatenate(spectrum), np.concatenate(coords, axis=1)


def equality_of_sums_report(geom: ChainGeometry, n: int, steps: int) -> dict:
    """Both sides of the trig-sum = weighted-walker-count identity.

    A failing comparison is reported, not raised.
    """
    nvar = geom.n
    if not 0 <= n <= geom.k_cap:
        raise ValueError(f"need 0 <= n <= {geom.k_cap}")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    boxed = _boxed_dets(geom, (1.0,) * nvar, momentum_table(geom).phases, n)
    lhs = _subset_weights(geom, lambda c: (2.0 * c) ** steps) @ np.abs(boxed) ** 2

    shapes = list(shifted_boxed_partitions(nvar, geom.k_cap - n, n)) if nvar \
        else [()]
    counts = [schur_count_at_one(lam, nvar) for lam in shapes]
    mus = [lambda_to_mu(lam, nvar) for lam in shapes]
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
        "pass": bool(residual < INTEGER_ROUNDING_TOL * max(1, rhs)),
    }


def persistence_spectral(geom: ChainGeometry, n: int, t: complex) -> complex:
    """Normalized projected-evolution ratio, by the momentum-subset sum."""
    if not 1 <= geom.n <= geom.m:
        raise ValueError("need 1 <= N <= M")
    if not 0 <= n <= geom.k_cap:
        raise ValueError(f"need 0 <= n <= {geom.k_cap}")
    gaps, weights = _persistence_terms(geom, n)
    return complex(np.exp(-t * gaps) @ weights)


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
    gphases = ground.phases()
    boxed = _boxed_dets(geom, gphases, np.conj(table.phases), n)
    gaps = table.energies - ground.energy
    weights = np.abs(boxed * vandermonde(gphases)) ** 2 / float(geom.sites) ** (2 * geom.n)
    gaps.flags.writeable = weights.flags.writeable = False
    return gaps, weights


def persistence_exact(geom: ChainGeometry, n: int, t: complex) -> complex:
    """Exact-diagonalization oracle for the persistence ratio.

    exp(-tH) = exp(-tN) exp((t/2) A), A the sector adjacency; the factor
    exp(-tN) cancels in the ratio, and so does exp(-max Re(t w / 2)), which
    keeps both forms finite at large real t.  The Bethe vector and its
    projection are taken one translation-momentum block at a time.
    """
    if not 1 <= geom.n <= geom.m:
        raise ValueError("need 1 <= N <= M")
    orbits = sector_orbits(geom)
    proj = np.array([1.0 if min(b) >= n else 0.0 for b in sector_basis(geom)])
    vec = bethe_vector(bethe_ground_state(geom))
    w, coords = _adjacency_spectrum(orbits, np.array([vec * proj, vec]))
    exponent = t / 2.0 * w
    num, den = np.abs(coords) ** 2 @ np.exp(exponent - np.max(exponent.real))
    return complex(num / den)


def persistence_detailed(geom: ChainGeometry, n: int, t: complex) -> CorrelatorResult:
    spectral = persistence_spectral(geom, n, t)
    exact = persistence_exact(geom, n, t)
    resid = relative_residual(spectral, exact)
    if not resid <= ROUTE_TOL_AMPLITUDE:
        raise RouteMismatchError(
            f"spectral {spectral} vs dense {exact} (residual {resid:.3e})"
        )
    return CorrelatorResult(spectral, {"spectral_vs_dense": resid})

