"""The identities `spinpaths verify` machine-checks, in one registry.

Every float check passes by `core.within_bound`, as the route checks do,
and every integer one only on equality; `cauchy-binet` and `schur-dual`
are two of these, taken at random integer points.  Each check imports what
it uses when it runs, numpy and `correlators` included, and prices its
trials before the first one runs.
"""

import math
import sys

from . import core

EXACT_TOL = 0.0  # an exact identity has residual 0 when it holds, else 1


def _check(residual: float, bound: float, **fields) -> dict:
    return {**fields, "residual": float(residual),
            "pass": core.within_bound(residual, bound)}


def _equality_of_sums(args) -> list[dict]:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    rep = correlators.equality_of_sums_report(geom, args.string_n, args.steps)
    return [{**rep, "rhs": str(rep["rhs"])}]


def _cauchy_binet(args) -> list[dict]:
    # both sides are integers at integer points, so the check is exact; a
    # wrong identity of degree D <= 2N(n+W-1) passes one trial with
    # probability at most D/1025 (Schwartz, JACM 1980; Zippel, 1979)
    nvar, n = args.n, args.string_n
    if not 0 <= n <= args.length:
        raise ValueError("need 0 <= string-n <= length")
    width = args.length - n + nvar
    # the minor recursion expands each minor on k rows along its last row
    core.admit(sum(k * math.comb(width, k) for k in range(nvar + 1)) * args.trials,
               core.DEFAULT_ENUM_CAP, "minor products")
    # one output row per trial, priced as the points of a sweep are
    core.admit(args.trials, core.FLOAT_GRID_CAP, "trials")
    import random
    rng, points, out = random.Random(args.seed), range(-512, 513), []
    for trial in range(args.trials):
        x, y = rng.sample(points, nvar), rng.sample(points, nvar)
        if trial == 0 and nvar:  # x_0 y_0 = 1, the removable singularity
            for v in (x, y):
                v[v.index(1) if 1 in v else 0] = v[0]
                v[0] = 1
        lhs, rhs = _schur_pair_sum(x, y, width, n), _schur_pair_closed(x, y, width, n)
        # V(x) V(y), each the alternant of the columns 0..N-1 in that order
        vand = math.prod(b - a for v in (x, y) for i, b in enumerate(v) for a in v[:i])
        out.append(_check(float(lhs != rhs), EXACT_TOL, trial=trial,
                          lhs=_capped_json(lhs // vand), rhs=_capped_json(rhs // vand)))
    return out


def _schur_pair_sum(x: list[int], y: list[int], width: int, n: int) -> int:
    """V(x) V(y) sum_lam s_lam(x) s_lam(y) over n <= lam_N, lam_1 <= n + width - N:
    the products of the minors of the rows v_k^(n+c), c < width, on each set
    of N columns, the set mu - n of the shape's mu = lam + staircase."""
    from .partitions import column_minors
    rows = [[[v ** (n + c) for c in range(width)] for v in side] for side in (x, y)]
    return sum(a * b for a, b in column_minors(*rows).values())


def _schur_pair_closed(x: list[int], y: list[int], width: int, n: int) -> int:
    """The same sum as prod (x_l y_l)^n det T, T_kj = (1 - p^width) / (1 - p)
    at p = x_k y_j, width at p = 1, by Bareiss elimination."""
    from .qpoly import QPolynomial, qpoly_matrix_det
    t = [[QPolynomial({0: width if p == 1 else (1 - p ** width) // (1 - p)})
          for p in (a * b for b in y)] for a in x]
    return math.prod(a * b for a, b in zip(x, y)) ** n * qpoly_matrix_det(t).at_one()


def _capped_json(value: int) -> dict:
    """An exact value as `core.complex_json`, clamped to the float range."""
    top = sys.float_info.max
    return core.complex_json(min(max(value, -top), top))


def _persistence(args) -> list[dict]:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    t = complex(args.t)
    sp = correlators.persistence_spectral(geom, args.string_n, t)
    ex = correlators.persistence_exact(geom, args.string_n, t)
    return [_check(core.relative_residual(sp, ex), correlators.ROUTE_TOL_AMPLITUDE,
                   lhs=core.complex_json(sp), rhs=core.complex_json(ex))]


def _macmahon(args) -> list[dict]:
    # each (n, k) priced as `_q_chain` prices its n^2 MacMahon factors, k = 0
    # included: the product formula multiplies n^2 integers there too
    work = 0
    for n in range(1, args.n + 1):
        for k in range(args.k + 1):
            work += n * n * _q_size(n, k) ** 2
            core.admit(work, core.Q_CHAIN_CAP, "coefficient products")
    from . import qpoly
    out = []
    for n in range(1, args.n + 1):
        for k in range(0, args.k + 1):
            lhs, rhs = qpoly.macmahon_z(n, k).at_one(), qpoly.macmahon_count(n, k)
            out.append(_check(float(lhs != rhs), EXACT_TOL, n=n, k=k,
                              lhs=str(lhs), rhs=str(rhs)))
    return out


def _schur_dual(args) -> list[dict]:
    # det(x_j^mu_k) = V(x) s_lam(x) in integers at integer points: exact, and
    # a wrong expansion passes a trial as rarely as in `_cauchy_binet`
    from . import partitions, schur
    nvar, shapes = args.n, math.comb(args.n + args.length, args.n)
    core.admit(shapes, core.DEFAULT_ENUM_CAP, "boxed shapes")
    tableaux = 0
    for lam in partitions.shifted_boxed_partitions(nvar, args.length, 0):
        tableaux += schur.schur_count_at_one(lam, nvar)
        core.admit(tableaux, core.DEFAULT_ENUM_CAP, "tableaux")
    # per trial, N 2^(N-1) minor products per shape and one per tableau
    core.admit((shapes * nvar * 2 ** (nvar - 1) + tableaux) * args.trials,
               core.DEFAULT_ENUM_CAP, "products of the trials")
    if args.trials < 1:
        return []
    import random
    rng, points, out = random.Random(args.seed), range(-512, 513), []
    for lam in partitions.shifted_boxed_partitions(nvar, args.length, 0):
        monomials, mu = schur.schur_monomials(lam, nvar), partitions.lambda_to_mu(lam, nvar)
        equal = True
        for x in (rng.sample(points, nvar) for _ in range(args.trials)):
            # the minor on the columns mu ascending, as V(x) is on 0..N-1
            rows = [[v ** m for m in reversed(mu)] for v in x]
            vand = math.prod(b - a for i, b in enumerate(x) for a in x[:i])
            equal &= partitions.column_minors(rows, rows)[tuple(range(nvar))][0] == vand * sum(
                mult * math.prod(map(pow, x, expo)) for expo, mult in monomials.items())
        out.append(_check(float(not equal), EXACT_TOL, shape=list(lam)))
    return out


def _q_size(n: int, k: int) -> int:
    """The coefficients of each polynomial product `verify q-chain` prices."""
    return n * n * (k + 1) + n * k * (k - 1) // 2


def _q_chain(args) -> list[dict]:
    n, k = args.n, args.k
    # an estimate from n and k alone: per box height d = 0..k, a square per
    # boxed shape, d^3 Bareiss updates and n^2 MacMahon factors, each priced
    # as a product of two polynomials of `size` coefficients; at k = 0 every
    # polynomial is a constant and every MacMahon factor cancels
    size = _q_size(n, k) if k else 1
    work = sum(math.comb(n + d, d) + d ** 3 + n * n for d in range(k + 1)) * size ** 2
    core.admit(work, core.Q_CHAIN_CAP, "coefficient products")
    from . import qpoly, schur
    out = []
    for n_str in range(0, k + 1):
        geom = core.ChainGeometry(n + k - 1, n)
        d = geom.k_cap - n_str
        mat = [[qpoly.q_binomial_extended(2 * n + i - 1, n + j - 1)
                for j in range(1, d + 1)] for i in range(1, d + 1)]
        shift = n_str * n ** 2 + (n * d * (1 - d)) // 2
        lhs = schur.projection_average_q(n, geom.m, n_str)
        mid = qpoly.qpoly_matrix_det(mat).shifted(shift)
        rhs = qpoly.macmahon_z(n, d).shifted(n_str * n ** 2)
        out.append(_check(float(not lhs == mid == rhs), EXACT_TOL,
                          n=n, string_n=n_str, box=d))
    return out


CHECKS = {
    "equality-of-sums": _equality_of_sums,
    "cauchy-binet": _cauchy_binet,
    "persistence": _persistence,
    "macmahon": _macmahon,
    "schur-dual": _schur_dual,
    "q-chain": _q_chain,
}


def run(identity: str, args) -> dict:
    """The checks of `identity`; a run that compares nothing is a ValueError."""
    found = [{"identity": identity, **c} for c in CHECKS[identity](args)]
    if not found:
        raise ValueError(f"verify {identity} compares nothing with these options")
    return {"identity": identity, "checks": found, "pass": all(c["pass"] for c in found)}
