"""Command-line front end.

Verbs: schur, paths, chain-spectrum, correlator, verify, sweep.
Results go to stdout as JSON (CSV for sweep); errors go to stderr as a
JSON object.  Exit codes: 0 success, 1 verification failure, 2 bad
input, 3 resource cap exceeded; a result failing its own check (routes
disagree, no integer, a value past the float range) also exits 1.  Big
integers are emitted as decimal strings and complex values as
{"re": .., "im": ..} objects, so output round-trips losslessly.
Identical invocations produce byte-identical output.

Only numpy-free modules load here; a verb that needs numpy, `chain` or
`correlators` imports them inside the verb.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import core, partitions, paths, qpoly, schur

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


# failed library checks, by the error name written to stderr
CHECK_ERRORS = {
    core.RouteMismatchError: "route-mismatch",
    core.IntegerRoundingError: "integer-rounding",
    core.FloatOverflowError: "float-overflow",
}


def _parse_int_tuple(text: str | None, option: str) -> tuple[int, ...]:
    if text is None:
        raise ValueError(f"{option} is required")
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_complex_tuple(text: str) -> tuple[complex, ...]:
    return tuple(complex(p) for p in text.split(","))


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(c) for c in row) + "\n")


def cmd_schur(args) -> int:
    lam = _parse_int_tuple(args.shape, "--shape")
    nvar = args.vars
    if args.at_ones:
        _emit({"shape": list(lam), "vars": nvar,
               "count": str(schur.schur_count_at_one(lam, nvar))})
    elif args.q_symbolic is not None:
        if args.q_symbolic == "qvec":
            poly = paths.nest_partition_function(lam, nvar)
        elif args.q_symbolic == "qvec-over-q":
            poly = paths.conjugate_nest_partition_function(
                lam, nvar, args.m if args.m is not None else nvar + (lam[0] if lam else 0))
        else:
            raise ValueError("--q-symbolic must be qvec or qvec-over-q")
        _emit({"shape": list(lam), "vars": nvar, "point": args.q_symbolic,
               "polynomial": poly.to_json(), "pretty": str(poly)})
    elif args.at is not None:
        x = _parse_complex_tuple(args.at)
        if len(x) != nvar:
            raise ValueError(f"--at needs {nvar} values")
        _emit({"shape": list(lam), "vars": nvar,
               "value": _complex_json(schur.schur_evaluate(lam, x))})
    else:
        raise ValueError("choose one of --at-ones, --q-symbolic, --at")
    return EXIT_OK


def cmd_paths(args) -> int:
    if args.count:
        start = _parse_int_tuple(args.start, "--start")
        end = _parse_int_tuple(args.end, "--end")
        n = paths.count_random_turns_paths(start, end, args.steps, args.m)
        _emit({"start": list(start), "end": list(end), "steps": args.steps,
               "m": args.m, "count": str(n)})
    elif args.nests:
        lam = _parse_int_tuple(args.shape, "--shape")
        nests = [nest.to_json() for nest in paths.enumerate_nests(lam, args.vars)]
        _emit({"shape": list(lam), "vars": args.vars,
               "total": str(len(nests)), "nests": nests[:args.limit]})
    else:
        raise ValueError("choose one of --count, --nests")
    return EXIT_OK


def cmd_chain_spectrum(args) -> int:
    from . import chain
    geom = core.ChainGeometry(args.m, args.n)
    sets = [s.to_json() for s in chain.enumerate_bethe_sets(geom)]
    doc = {"m": args.m, "n": args.n, "sets": sets}
    if 1 <= args.n <= args.m:
        doc["ground"] = chain.bethe_ground_state(geom).to_json()
        doc["ground_closed_form"] = chain.ground_state_energy_closed_form(geom)
    _emit(doc)
    return EXIT_OK


def cmd_correlator(args) -> int:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    t = complex(args.t)
    if args.kind == "one-particle":
        j, l = args.j_site, args.l_site
        value = correlators.one_particle_g(geom, j, l, t)
        doc = {"kind": args.kind, "m": args.m, "j": j, "l": l,
               "t": _complex_json(t), "value": _complex_json(value),
               "route_residuals": {}}
    elif args.kind == "laplace":
        j, l = args.j_site, args.l_site
        z = complex(args.z)
        value = correlators.laplace_generating_f(geom, j, l, z)
        doc = {"kind": args.kind, "m": args.m, "j": j, "l": l,
               "z": _complex_json(z), "value": _complex_json(value),
               "route_residuals": {}}
    elif args.kind == "multi-particle":
        j = _parse_int_tuple(args.j, "--j")
        l = _parse_int_tuple(args.l, "--l")
        res = correlators.multi_particle_g_detailed(geom, j, l, t)
        doc = {"kind": args.kind, "m": args.m, "n": args.n,
               "j": list(j), "l": list(l), "t": _complex_json(t),
               "value": _complex_json(res.value),
               "route_residuals": {k: float(v)
                                   for k, v in res.route_residuals.items()}}
    elif args.kind == "persistence":
        res = correlators.persistence_detailed(geom, args.string_n, t)
        doc = {"kind": args.kind, "m": args.m, "n": args.n,
               "string_n": args.string_n, "t": _complex_json(t),
               "value": _complex_json(res.value),
               "route_residuals": {k: float(v)
                                   for k, v in res.route_residuals.items()}}
    else:
        raise ValueError(f"unknown correlator kind {args.kind}")
    _emit(doc)
    return EXIT_OK


def _verify_equality_of_sums(args) -> list[dict]:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    rep = correlators.equality_of_sums_report(geom, args.string_n, args.steps)
    return [{"identity": "equality-of-sums",
             "lhs": rep["lhs"], "rhs": str(rep["rhs"]),
             "residual": rep["residual"], "pass": rep["pass"]}]


def _verify_cauchy_binet(args) -> list[dict]:
    import numpy as np
    from . import correlators
    rng = np.random.default_rng(args.seed)
    out = []
    for trial in range(args.trials):
        x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        y = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
        if trial == 0 and args.n >= 1:
            y = np.array(y)
            y[0] = 1.0 / x[0]  # hit the removable singularity
        a = schur.cauchy_binet_enum(x, y, args.length, args.string_n)
        b = schur.cauchy_binet_closed(x, y, args.length, args.string_n)
        resid = correlators.relative_residual(b, a)
        out.append({"identity": "cauchy-binet", "trial": trial,
                    "lhs": _complex_json(a), "rhs": _complex_json(b),
                    "residual": float(resid), "pass": bool(resid < 1e-9)})
    return out


def _verify_persistence(args) -> list[dict]:
    from . import correlators
    geom = core.ChainGeometry(args.m, args.n)
    t = complex(args.t)
    sp = correlators.persistence_spectral(geom, args.string_n, t)
    ex = correlators.persistence_exact(geom, args.string_n, t)
    resid = correlators.relative_residual(sp, ex)
    return [{"identity": "persistence",
             "lhs": _complex_json(sp), "rhs": _complex_json(ex),
             "residual": float(resid),
             "pass": bool(resid < correlators.ROUTE_TOL_AMPLITUDE)}]


def _verify_macmahon(args) -> list[dict]:
    out = []
    for n in range(1, args.n + 1):
        for k in range(0, args.k + 1):
            z = qpoly.macmahon_z(n, k)
            count = qpoly.macmahon_count(n, k)
            ok = z.at_one() == count
            out.append({"identity": "macmahon", "n": n, "k": k,
                        "lhs": str(z.at_one()), "rhs": str(count),
                        "residual": 0.0 if ok else 1.0, "pass": ok})
    return out


def _verify_schur_dual(args) -> list[dict]:
    import numpy as np
    from . import correlators
    rng = np.random.default_rng(args.seed)
    out = []
    for lam in partitions.shifted_boxed_partitions(args.n, args.length, 0):
        monomials = schur.schur_monomials(lam, args.n)
        worst = 0.0
        for _ in range(args.trials):
            x = rng.normal(size=args.n) + 1j * rng.normal(size=args.n)
            d = schur.schur_determinant(lam, x)
            e = schur.schur_from_monomials(monomials, x)
            worst = max(worst, correlators.relative_residual(d, e))
        out.append({"identity": "schur-dual", "shape": list(lam),
                    "residual": float(worst), "pass": bool(worst < 1e-10)})
    return out


def _verify_q_chain(args) -> list[dict]:
    out = []
    for n_str in range(0, args.k + 1):
        geom = core.ChainGeometry(args.n + args.k - 1, args.n)
        d = geom.k_cap - n_str
        mat = [[qpoly.q_binomial_extended(2 * args.n + i - 1, args.n + j - 1)
                for j in range(1, d + 1)] for i in range(1, d + 1)]
        det = qpoly.qpoly_matrix_det(mat)
        shift = n_str * args.n ** 2 + (args.n * d * (1 - d)) // 2
        lhs = schur.projection_average_q(args.n, geom.m, n_str)
        mid = det.shifted(shift)
        rhs = qpoly.macmahon_z(args.n, d).shifted(n_str * args.n ** 2)
        ok = lhs == mid == rhs
        out.append({"identity": "q-chain", "n": args.n, "string_n": n_str,
                    "box": d, "residual": 0.0 if ok else 1.0, "pass": ok})
    return out


VERIFIERS = {
    "equality-of-sums": _verify_equality_of_sums,
    "cauchy-binet": _verify_cauchy_binet,
    "persistence": _verify_persistence,
    "macmahon": _verify_macmahon,
    "schur-dual": _verify_schur_dual,
    "q-chain": _verify_q_chain,
}


def cmd_verify(args) -> int:
    reports = VERIFIERS[args.identity](args)
    _emit({"identity": args.identity, "checks": reports,
           "pass": all(r["pass"] for r in reports)})
    if not all(r["pass"] for r in reports):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    """'a..b' inclusive, or a single integer."""
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(text)]


def _parse_float_range(text: str) -> list[float]:
    """'start:step:stop' inclusive-ish grid, or a single float."""
    if ":" in text:
        start, step, stop = (float(p) for p in text.split(":"))
        out = []
        v = start
        while v <= stop + 1e-12:
            out.append(round(v, 12))
            v += step
        return out
    return [float(text)]


def cmd_sweep(args) -> int:
    if args.subject == "persistence":
        from . import correlators
        geom = core.ChainGeometry(args.m, args.n)
        rows = []
        for n_str in _parse_range(args.string_n):
            for t in _parse_float_range(args.t):
                val = correlators.persistence_spectral(geom, n_str, t)
                rows.append([args.m, args.n, n_str, t, repr(val.real)])
        _emit_csv(["m", "n", "string_n", "t", "value"], rows)
    elif args.subject == "path-counts":
        start = _parse_int_tuple(args.start, "--start")
        end = _parse_int_tuple(args.end, "--end") if args.end else start
        ks = _parse_range(args.steps)
        # an empty range prints the header alone, whatever the endpoints
        counts = paths.count_random_turns_series(start, end, ks, args.m) if ks else []
        rows = [[args.m, "|".join(map(str, start)), "|".join(map(str, end)), k, c]
                for k, c in zip(ks, counts)]
        _emit_csv(["m", "start", "end", "steps", "count"], rows)
    elif args.subject == "macmahon":
        rows = []
        for n in _parse_range(args.box_n):
            for k in _parse_range(args.box_k):
                rows.append([n, k, qpoly.macmahon_count(n, k)])
        _emit_csv(["n", "k", "count"], rows)
    else:
        raise ValueError(f"unknown sweep subject {args.subject}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpaths",
        description="Exact XX-ring correlators and lattice-path combinatorics",
    )
    parser.add_argument("--config", help="JSON file holding {command, options}")
    parser.add_argument("--threads", type=int, default=1,
                        help="reserved; output is independent of its value")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("schur", help="evaluate a Schur polynomial")
    p.add_argument("--shape", required=True, help="comma-separated parts")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--at-ones", action="store_true")
    p.add_argument("--q-symbolic", choices=["qvec", "qvec-over-q"])
    p.add_argument("--at", help="comma-separated complex evaluation point")
    p.add_argument("--m", type=int, help="width-bound context for qvec-over-q")

    p = sub.add_parser("paths", help="walker counts and nest enumeration")
    p.add_argument("--count", action="store_true")
    p.add_argument("--nests", action="store_true")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--shape")
    p.add_argument("--vars", type=int, default=1)
    p.add_argument("--limit", type=int, default=50)

    p = sub.add_parser("chain-spectrum", help="momentum sets and energies")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("correlator", help="generating/correlation functions")
    p.add_argument("--kind", required=True,
                   choices=["one-particle", "laplace", "multi-particle",
                            "persistence"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--j-site", type=int, default=0)
    p.add_argument("--l-site", type=int, default=0)
    p.add_argument("--j")
    p.add_argument("--l")
    p.add_argument("--t", default="0")
    p.add_argument("--z", default="0")
    p.add_argument("--string-n", type=int, default=0)

    p = sub.add_parser("verify", help="machine-check the package identities")
    p.add_argument("identity", choices=sorted(VERIFIERS))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--string-n", type=int, default=0)
    p.add_argument("--t", default="0.5")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="parameter sweeps as CSV")
    p.add_argument("subject", choices=["persistence", "path-counts", "macmahon"])
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--string-n", default="0")
    p.add_argument("--t", default="0:0.1:1")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--steps", default="0..4")
    p.add_argument("--box-n", default="1..3")
    p.add_argument("--box-k", default="0..3")
    return parser


COMMANDS = {
    "schur": cmd_schur,
    "paths": cmd_paths,
    "chain-spectrum": cmd_chain_spectrum,
    "correlator": cmd_correlator,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        cfg_argv = [cfg["command"]]
        for key, val in sorted(cfg.get("options", {}).items()):
            if isinstance(val, bool):
                if val:
                    cfg_argv.append(f"--{key}")
            elif key == "identity" or key == "subject":
                cfg_argv.insert(1, str(val))
            else:
                cfg_argv.extend([f"--{key}", str(val)])
        args = parser.parse_args(cfg_argv + extra)
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")

    if not args.command:
        parser.error("a command is required (or --config)")

    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, json.JSONDecodeError,
            core.CoincidentArgumentsError) as exc:
        error, code, detail = "bad-input", EXIT_BAD_INPUT, str(exc)
    except (core.EnumerationCapError, core.SectorCapError) as exc:
        error, code, detail = "cap-exceeded", EXIT_CAP, str(exc)
    except tuple(CHECK_ERRORS) as exc:
        error, code, detail = CHECK_ERRORS[type(exc)], EXIT_VERIFY_FAILED, str(exc)
    sys.stderr.write(json.dumps({"error": error, "detail": detail},
                                sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
