"""Run one benchmark job in this process, optionally traced.

    python3 perfbench/driver.py [--spans FILE --job ID] cli ARG...
    python3 perfbench/driver.py [--spans FILE --job ID] call FUNCTION JSON

`cli` runs `spinpaths.cli.main(ARG...)`, which prints exactly what
`python3 -m spinpaths.cli ARG...` prints.  `call` calls one public function
of `spinpaths.correlators` with the arguments in JSON and prints its result
as JSON.  With `--spans`, the package is imported inside a `cli.import`
span, its functions are wrapped (see tracer.py), the job runs inside a
`cli.main` or `call` span, and the spans are written to FILE when the job
ends, whether or not it raised.  The exit status is the job's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import tracer


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def call(function: str, spec: dict) -> dict:
    """Call `spinpaths.correlators.<function>` with the JSON spec's arguments."""
    from spinpaths.chain import ChainGeometry
    from spinpaths import correlators

    fn = getattr(correlators, function)
    geom = ChainGeometry(spec["m"], spec["n"])
    if function == "trig_path_count":
        return {"count": str(fn(geom, spec["j"], spec["l"], spec["steps"]))}
    out = fn(geom, [_complex(p) for p in spec["u_sq"]],
             [_complex(p) for p in spec["v_inv_sq"]], spec["string_n"],
             _complex(spec["t"]))
    if hasattr(out, "route_residuals"):
        return {"value": _complex_json(out.value),
                "route_residuals": {k: float(v)
                                    for k, v in out.route_residuals.items()}}
    return {"value": _complex_json(out)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the job's spans to this file")
    parser.add_argument("--job", default="", help="job id stored with the spans")
    parser.add_argument("mode", choices=["cli", "call"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    rec = tracer.Recorder() if opts.spans else None
    if rec is not None:
        idx = rec.open("cli.import")
    cli = importlib.import_module("spinpaths.cli")
    if rec is not None:
        rec.close(idx)
        tracer.install(rec)
        idx = rec.open("cli.main" if opts.mode == "cli" else "call")
    try:
        if opts.mode == "cli":
            return cli.main(opts.rest)
        function, spec = opts.rest
        doc = call(function, json.loads(spec))
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return 0
    finally:
        if rec is not None:
            rec.close(idx)
            rec.dump(opts.spans, opts.job)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
