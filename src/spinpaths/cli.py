"""Command-line front end.

Verbs: schur, paths, chain-spectrum, correlator, verify, sweep.
Results go to stdout as JSON (CSV for sweep); errors go to stderr as a
JSON object.  Exit codes: 0 success, 1 verification failure, 2 bad
input, 3 resource cap exceeded; a result failing its own check (routes
disagree, a value past the float range) also exits 1.  Big
integers are emitted as decimal strings and complex values as
{"re": .., "im": ..} objects, so output round-trips losslessly.
Identical invocations produce byte-identical output.

Each verb imports only what it runs: this module loads `core` alone, and
any other module, `checks` included, is imported inside the verb or branch
that calls it.  When the first argument names a verb, only that verb's
parser is built.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import core

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP_EXCEEDED = 3


# failed library checks, by the error name written to stderr
CHECK_ERRORS = {
    core.RouteMismatchError: "route-mismatch",
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


def _parse_finite_complex(text: str, option: str) -> complex:
    z = complex(text)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{option} {text!r} is not finite")
    return z


def _emit(doc) -> None:
    # a non-finite float goes out as the string "NaN", "Infinity" or
    # "-Infinity", never as a bare token, so stdout is RFC 8259 JSON; the
    # round trip that does it runs only then, as it doubles the encoding cost
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        doc = json.loads(json.dumps(doc), parse_constant=str)
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def _emit_csv(header: list[str], rows: list[list]) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(c) for c in row) + "\n")


def cmd_schur(args) -> int:
    from . import schur
    lam = _parse_int_tuple(args.shape, "--shape")
    nvar = args.vars
    if args.at_ones:
        _emit({"shape": list(lam), "vars": nvar,
               "count": str(schur.schur_count_at_one(lam, nvar))})
    elif args.q_symbolic is not None:
        from . import paths
        if args.q_symbolic == "qvec":
            poly = paths.nest_partition_function(lam, nvar)
        else:  # qvec-over-q
            poly = paths.conjugate_nest_partition_function(
                lam, nvar, args.m if args.m is not None else nvar + (lam[0] if lam else 0))
        _emit({"shape": list(lam), "vars": nvar, "point": args.q_symbolic,
               "polynomial": poly.to_json(), "pretty": str(poly)})
    elif args.at is not None:
        x = _parse_complex_tuple(args.at)
        if len(x) != nvar:
            raise ValueError(f"--at needs {nvar} values")
        _emit({"shape": list(lam), "vars": nvar,
               "value": core.complex_json(schur.schur_evaluate(lam, x))})
    else:
        raise ValueError("choose one of --at-ones, --q-symbolic, --at")
    return EXIT_OK


def cmd_paths(args) -> int:
    from . import paths
    if args.count:
        start = _parse_int_tuple(args.start, "--start")
        end = _parse_int_tuple(args.end, "--end")
        (n,) = paths.walker_counts(start, end, [args.steps], args.m)
        _emit({"start": list(start), "end": list(end), "steps": args.steps,
               "m": args.m, "count": str(n)})
    elif args.nests:
        if args.limit < 0:
            raise ValueError("--limit must be non-negative")
        from itertools import islice, repeat
        lam = _parse_int_tuple(args.shape, "--shape")
        table = paths.nest_multiplicities(lam, args.vars)
        nests = (doc for nest, mult in table for doc in repeat(nest.to_json(), mult))
        _emit({"shape": list(lam), "vars": args.vars, "total": str(sum(k for _, k in table)),
               "nests": list(islice(nests, args.limit))})
    else:
        raise ValueError("choose one of --count, --nests")
    return EXIT_OK


def cmd_chain_spectrum(args) -> int:
    from . import chain
    geom = core.ChainGeometry(args.m, args.n)
    table = chain.momentum_table(geom)
    sets = [{"I": i, "theta": theta, "energy": energy} for i, theta, energy
            in zip(table.indices.tolist(), table.thetas.tolist(),
                   table.energies.tolist())]
    doc = {"m": args.m, "n": args.n, "sets": sets}
    if 1 <= args.n <= args.m:
        doc["ground"] = sets[-1]  # `bethe_ground_state`, the table's last row
        doc["ground_closed_form"] = chain.ground_state_energy_closed_form(geom)
    _emit(doc)
    return EXIT_OK


def cmd_correlator(args) -> int:
    # one-particle and laplace are one-walker kinds: they read --j-site and
    # --l-site, and not --n
    one_walker = args.kind in ("one-particle", "laplace")
    if one_walker and (args.j is not None or args.l is not None):
        raise ValueError(f"--kind {args.kind} reads --j-site and --l-site, "
                         "not --j or --l")
    t = _parse_finite_complex(args.t, "--t")
    z = _parse_finite_complex(args.z, "--z")
    from . import correlators
    geom = core.ChainGeometry(args.m, 1 if one_walker else args.n)
    doc = {"kind": args.kind, "m": args.m}
    if args.kind == "one-particle":
        j, l = args.j_site, args.l_site
        res = correlators.multi_particle_g_detailed(geom, (j,), (l,), t)
        doc.update(j=j, l=l, t=core.complex_json(t))
    elif args.kind == "laplace":
        j, l = args.j_site, args.l_site
        res = correlators.CorrelatorResult(correlators.laplace_generating_f(geom, j, l, z))
        doc.update(j=j, l=l, z=core.complex_json(z))
    elif args.kind == "multi-particle":
        j = _parse_int_tuple(args.j, "--j")
        l = _parse_int_tuple(args.l, "--l")
        res = correlators.multi_particle_g_detailed(geom, j, l, t)
        doc.update(n=args.n, j=list(j), l=list(l), t=core.complex_json(t))
    else:  # persistence
        res = correlators.persistence_detailed(geom, args.string_n, t)
        doc.update(n=args.n, string_n=args.string_n, t=core.complex_json(t))
    doc["value"] = core.complex_json(res.value)
    doc["route_residuals"] = {k: float(v) for k, v in res.route_residuals.items()}
    _emit(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks
    report = checks.run(args.identity, args)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def _parse_range(text: str) -> list[int]:
    """'a..b' inclusive, of at most `core.FLOAT_GRID_CAP` points, or a single integer."""
    if ".." in text:
        a, b = map(int, text.split(".."))
        core.admit(b - a + 1, core.FLOAT_GRID_CAP, f"points in {text!r}")
        return list(range(a, b + 1))
    return [int(text)]


def _parse_float_range(text: str) -> list[float]:
    """'start:step:stop' inclusive grid, start + i*step rounded to 12
    decimals, or a single float; finite values only, and at most
    `core.FLOAT_GRID_CAP` points."""
    values = [float(p) for p in text.split(":")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{text!r} is not finite")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0:
        raise ValueError(f"step {step} in {text!r} must be positive")
    # the span may be inf; a step below half the float spacing at start
    # never moves the grid, so its points never end
    span = (stop + 1e-12 - start) / step if start + step != start else math.inf
    points = math.floor(span) + 1 if span < math.inf else span
    core.admit(points, core.FLOAT_GRID_CAP, f"points in {text!r}")
    return [round(start + i * step, 12) for i in range(points)]


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
        from . import paths
        start = _parse_int_tuple(args.start, "--start")
        end = _parse_int_tuple(args.end, "--end") if args.end else start
        ks = _parse_range(args.steps)
        # an empty range prints the header alone, once the ring and
        # endpoints pass
        counts = paths.walker_counts(start, end, ks, args.m)
        rows = [[args.m, "|".join(map(str, start)), "|".join(map(str, end)), k, c]
                for k, c in zip(ks, counts)]
        _emit_csv(["m", "start", "end", "steps", "count"], rows)
    else:  # macmahon
        from . import qpoly
        ns, ks = _parse_range(args.box_n), _parse_range(args.box_k)
        # each row's product formula takes n^2 hooks
        core.admit(sum(n * n for n in ns if n > 0) * len(ks), core.DEFAULT_ENUM_CAP, "hooks")
        # and multiplies them one by one into two products of up to B = n^2
        # log2(k + 2n) bits, then divides: about (n^2 B + B^2 / 64) / 64 words
        words = sum((n * n + b / 64) * b / 64 for n in ns if n > 0 for k in ks
                    for b in [n * n * math.log2(max(k, 0) + 2 * n)])
        core.admit(words, core.MACMAHON_WORD_CAP, "word steps")
        rows = [[n, k, qpoly.macmahon_count(n, k)] for n in ns for k in ks]
        _emit_csv(["n", "k", "count"], rows)
    return EXIT_OK


def _schur_args(p) -> None:
    p.add_argument("--shape", required=True, help="comma-separated parts")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--at-ones", action="store_true")
    p.add_argument("--q-symbolic", choices=["qvec", "qvec-over-q"])
    p.add_argument("--at", help="comma-separated complex evaluation point")
    p.add_argument("--m", type=int, help="width-bound context for qvec-over-q")


def _paths_args(p) -> None:
    p.add_argument("--count", action="store_true")
    p.add_argument("--nests", action="store_true")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--shape")
    p.add_argument("--vars", type=int, default=1)
    p.add_argument("--limit", type=int, default=50)


def _chain_spectrum_args(p) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)


def _correlator_args(p) -> None:
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


def _verify_args(p) -> None:
    from . import checks
    p.add_argument("identity", choices=sorted(checks.CHECKS))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--string-n", type=int, default=0)
    p.add_argument("--t", default="0.5")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _sweep_args(p) -> None:
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


# verb: (help, argument adder, command), in the order `--help` lists them
VERBS = {
    "schur": ("evaluate a Schur polynomial", _schur_args, cmd_schur),
    "paths": ("walker counts and nest enumeration", _paths_args, cmd_paths),
    "chain-spectrum": ("momentum sets and energies", _chain_spectrum_args, cmd_chain_spectrum),
    "correlator": ("generating/correlation functions", _correlator_args, cmd_correlator),
    "verify": ("machine-check the package identities", _verify_args, cmd_verify),
    "sweep": ("parameter sweeps as CSV", _sweep_args, cmd_sweep),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of `verb` alone, which parses that
    verb's arguments as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="spinpaths",
        description="Exact XX-ring correlators and lattice-path combinatorics",
    )
    parser.add_argument("--config", help="JSON file holding {command, options}")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, add_args, _) in VERBS.items():
        if verb in (None, name):
            add_args(sub.add_parser(name, help=help_text))
    return parser


def _config_argv(path: str) -> list[str]:
    """The argv that the JSON file {command, options} at `path` stands for."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # no such file, or not JSON
        raise ValueError(f"--config {path}: {exc}") from exc
    options = cfg.get("options", {}) if isinstance(cfg, dict) else None
    if not isinstance(options, dict) or "command" not in cfg:
        raise ValueError(f"--config {path} is not an object with a \"command\" "
                         "and, optionally, an \"options\" object")
    cfg_argv = [str(cfg["command"])]
    for key, val in sorted(options.items()):
        if isinstance(val, bool):
            if val:
                cfg_argv.append(f"--{key}")
        elif key == "identity" or key == "subject":
            cfg_argv.insert(1, str(val))
        else:
            cfg_argv.extend([f"--{key}", str(val)])
    return cfg_argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a job names its verb first, and only that verb's parser is built; the
    # errors that print the verb list build all six
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args, extra = parser.parse_known_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_config_argv(args.config) + extra)
        elif extra:
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        if not args.command:
            parser.error("a command is required (or --config)")
        return VERBS[args.command][2](args)
    except (ValueError, KeyError) as exc:  # CoincidentArgumentsError included
        error, code, detail = "bad-input", EXIT_BAD_INPUT, str(exc)
    except (core.EnumerationCapError, core.SectorCapError) as exc:
        error, code, detail = "cap-exceeded", EXIT_CAP_EXCEEDED, str(exc)
    except tuple(CHECK_ERRORS) as exc:
        error, code, detail = CHECK_ERRORS[type(exc)], EXIT_VERIFY_FAILED, str(exc)
    sys.stderr.write(json.dumps({"error": error, "detail": detail},
                                sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
