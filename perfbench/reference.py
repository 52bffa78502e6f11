"""Reference values computed without the package under test.

Each reference takes a route the package does not use, so that a wrong
answer from the package cannot also be the expected value:

- walker counts: a dynamic program over occupation bitmasks (exact ints);
- sector correlators: free-fermion identities.  The sector evolution is
  the N-th exterior power of exp(t/2 * D), with D the ring adjacency whose
  wrap-around bond carries the sign (-1)^(N-1), so every sum over sector
  states collapses by Cauchy-Binet to one N x N determinant;
- Schur and plane-partition counts: the product, hook-content and
  MacMahon triple-product formulas, in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def walker_counts(starts: dict[tuple[int, ...], int], steps: int,
                  m: int) -> dict[tuple[int, ...], int]:
    """Weighted random-turns walker counts on the ring of m+1 sites.

    `starts` maps start configurations to integer weights; the result maps
    every configuration reached after `steps` ticks to its weighted count.
    Requires m >= 2 (no doubled bond).
    """
    ring = m + 1
    layer: dict[int, int] = {}
    for config, w in starts.items():
        mask = sum(1 << p for p in config)
        layer[mask] = layer.get(mask, 0) + w
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for mask, count in layer.items():
            for pos in range(ring):
                if not mask >> pos & 1:
                    continue
                for target in ((pos + 1) % ring, (pos - 1) % ring):
                    if mask >> target & 1:
                        continue
                    new = mask ^ (1 << pos) ^ (1 << target)
                    nxt[new] = nxt.get(new, 0) + count
        layer = nxt
    return {tuple(p for p in range(m, -1, -1) if mask >> p & 1): c
            for mask, c in layer.items()}


def walker_count(start, end, steps: int, m: int) -> int:
    return walker_counts({tuple(start): 1}, steps, m).get(tuple(end), 0)


def _twisted_adjacency(m: int, nvar: int) -> np.ndarray:
    size = m + 1
    delta = np.zeros((size, size))
    for a in range(size):
        delta[a, (a + 1) % size] = delta[(a + 1) % size, a] = 1.0
    sign = -1.0 if nvar % 2 == 0 else 1.0
    delta[0, m] = delta[m, 0] = sign
    return delta


def _evolution(m: int, nvar: int, t: complex) -> np.ndarray:
    """exp(t/2 * D) from the eigendecomposition of the twisted adjacency."""
    w, v = np.linalg.eigh(_twisted_adjacency(m, nvar))
    return (v * np.exp(t / 2.0 * w)) @ v.T


def multi_particle_g(m: int, j, l, t: complex) -> complex:
    nvar = len(j)
    g = _evolution(m, nvar, t)
    return complex(np.linalg.det(g[np.ix_(list(j), list(l))]))


def persistence(m: int, nvar: int, n: int, t: complex) -> complex:
    """Projected-evolution ratio of the sector ground state.

    The ground state is the Slater determinant of the N orbitals of the
    twisted adjacency with the largest eigenvalues; the projection keeps
    configurations on sites n..M.  The factor exp(-tN) cancels.
    """
    w, v = np.linalg.eigh(_twisted_adjacency(m, nvar))
    phi = v[:, -nvar:]
    g = (v * np.exp(t / 2.0 * w)) @ v.T
    keep = slice(n, m + 1)
    num = np.linalg.det(phi[keep].T @ g[keep, keep] @ phi[keep])
    den = np.prod(np.exp(t / 2.0 * w[-nvar:]))
    return complex(num / den)


def _alternant_rows(x, sites: int) -> np.ndarray:
    xa = np.asarray(x, dtype=complex)
    return xa[:, None] ** np.arange(sites, dtype=float)[None, :]


def _alternant_scale(x) -> complex:
    nvar = len(x)
    out = -1.0 + 0.0j if (nvar * (nvar - 1) // 2) % 2 else 1.0 + 0.0j
    for a in range(nvar):
        for b in range(a):
            out *= x[a] - x[b]
    return out


def transition_amplitude(m: int, u_sq, v_inv_sq, n: int, t: complex) -> complex:
    """Boxed Schur-pair sum around exp(t/2 * D), as one determinant."""
    nvar = len(u_sq)
    g = _evolution(m, nvar, t)
    keep = slice(n, m + 1)
    left = _alternant_rows(v_inv_sq, m + 1)[:, keep]
    right = _alternant_rows(u_sq, m + 1)[:, keep]
    det = np.linalg.det(left @ g[keep, keep] @ right.T)
    return complex(det / (_alternant_scale(v_inv_sq) * _alternant_scale(u_sq)))


def schur_count_at_one(mu: tuple[int, ...]) -> int:
    """SSYT count of the shape whose staircase-shifted parts are mu."""
    acc = Fraction(1)
    for a in range(len(mu)):
        for b in range(a + 1, len(mu)):
            acc *= Fraction(mu[a] - mu[b], b - a)
    return int(acc)


def equality_of_sums_rhs(m: int, nvar: int, n: int, steps: int) -> int:
    """Sum over boxed shape pairs of count * count * walker count.

    The shapes are the N-subsets mu of sites n..M; by linearity one
    dynamic program from the count-weighted start vector covers them all.
    """
    subsets = [tuple(sorted(c, reverse=True))
               for c in combinations(range(n, m + 1), nvar)]
    weights = {mu: schur_count_at_one(mu) for mu in subsets}
    reached = walker_counts(weights, steps, m)
    return sum(weights[mu] * reached.get(mu, 0) for mu in subsets)


def macmahon_count(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, by MacMahon's triple product."""
    acc = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                acc *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(acc)


def _poly_mul_one_minus(coeffs: list[int], h: int) -> list[int]:
    """coeffs * (1 - q^h)."""
    out = coeffs + [0] * h
    for e, c in enumerate(coeffs):
        out[e + h] -= c
    return out


def _poly_div_one_minus(coeffs: list[int], h: int) -> list[int]:
    """Exact quotient coeffs / (1 - q^h)."""
    out = list(coeffs)
    for e in range(h, len(out)):
        out[e] += out[e - h]
    if any(out[len(out) - h:]):
        raise ArithmeticError("inexact division")
    return out[:len(out) - h]


def principal_schur(lam: tuple[int, ...], nvar: int, shift: int) -> dict[int, int]:
    """s_lam(q^shift, ..., q^(shift + nvar - 1)) as exponent -> coefficient.

    Hook-content formula: q^(n(lam)) prod (1 - q^(nvar + c)) / (1 - q^h).
    """
    lam = [p for p in lam if p > 0]
    conj = [sum(1 for p in lam if p > col) for col in range(lam[0])] if lam else []
    coeffs = [1]
    hooks = []
    for i, row in enumerate(lam):
        for col in range(row):
            coeffs = _poly_mul_one_minus(coeffs, nvar + col - i)
            hooks.append(row - col + conj[col] - i - 1)
    for h in hooks:
        coeffs = _poly_div_one_minus(coeffs, h)
    low = sum(i * row for i, row in enumerate(lam)) + shift * sum(lam)
    return {e + low: c for e, c in enumerate(coeffs) if c}
