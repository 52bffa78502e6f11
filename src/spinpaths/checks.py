"""The identities `spinpaths verify` machine-checks, in one registry.

Every check passes by `core.within_bound`, as the route checks do.  Each
check imports what it uses when it runs, numpy and `correlators` included.
"""

import math

from . import core

CAUCHY_BINET_TOL = 1e-9
SCHUR_DUAL_TOL = 1e-10
EXACT_TOL = 0.0  # an exact identity has residual 0 when it holds, else 1
Q_CHAIN_CAP = 10 ** 9  # coefficient products of one `verify q-chain`


def _check(residual: float, bound: float, **fields) -> dict:
    return {**fields, "residual": float(residual),
            "pass": core.within_bound(residual, bound)}


def _equality_of_sums(args) -> list[dict]:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    rep = correlators.equality_of_sums_report(geom, args.string_n, args.steps)
    return [{**rep, "rhs": str(rep["rhs"])}]


def _cauchy_binet(args) -> list[dict]:
    import numpy as np
    from . import schur
    rng = np.random.default_rng(args.seed)
    out = []
    for trial in range(args.trials):
        x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        y = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        if trial == 0 and args.n >= 1:
            y[0] = 1.0 / x[0]  # hit the removable singularity
        enum = schur.cauchy_binet_enum(x, y, args.length, args.string_n)
        closed = schur.cauchy_binet_closed(x, y, args.length, args.string_n)
        out.append(_check(core.relative_residual(closed, enum), CAUCHY_BINET_TOL,
                          trial=trial, lhs=core.complex_json(enum),
                          rhs=core.complex_json(closed)))
    return out


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
            if work > Q_CHAIN_CAP:
                raise core.EnumerationCapError(
                    f"verify macmahon takes at least {work} coefficient products, "
                    f"over {Q_CHAIN_CAP}")
    from . import qpoly
    out = []
    for n in range(1, args.n + 1):
        for k in range(0, args.k + 1):
            lhs, rhs = qpoly.macmahon_z(n, k).at_one(), qpoly.macmahon_count(n, k)
            out.append(_check(float(lhs != rhs), EXACT_TOL, n=n, k=k,
                              lhs=str(lhs), rhs=str(rhs)))
    return out


def _schur_dual(args) -> list[dict]:
    from . import partitions, schur
    cap = core.DEFAULT_ENUM_CAP
    shapes = math.comb(args.n + args.length, args.n)
    if shapes > cap:
        raise core.EnumerationCapError(f"{shapes} boxed shapes exceeds cap {cap}")
    tableaux = 0
    for lam in partitions.shifted_boxed_partitions(args.n, args.length, 0):
        tableaux += schur.schur_count_at_one(lam, args.n)
        if tableaux > cap:
            raise core.EnumerationCapError(f"at least {tableaux} tableaux, over the cap {cap}")
    import numpy as np
    rng = np.random.default_rng(args.seed)
    resids = {}  # per shape, one residual per trial
    for lam in partitions.shifted_boxed_partitions(args.n, args.length, 0):
        monomials = schur.schur_monomials(lam, args.n)
        for _ in range(args.trials):
            x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
            resids.setdefault(lam, []).append(core.relative_residual(
                schur.schur_determinant(lam, x),
                schur.schur_from_monomials(monomials, x)))
    # np.max keeps a NaN, so one NaN trial fails its shape
    return [_check(np.max(r), SCHUR_DUAL_TOL, shape=list(lam))
            for lam, r in resids.items()]


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
    if work > Q_CHAIN_CAP:
        raise core.EnumerationCapError(
            f"verify q-chain takes about {work} coefficient products, over {Q_CHAIN_CAP}")
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
