"""The benchmark's workloads: job lists drawn from a seed, with output checks.

Geometry sizes and step counts are fixed per workload, so the work in a
pass is comparable across seeds.  The seed draws only what leaves the cost
unchanged: times t, walker endpoints, string lengths and evaluation
points.  Jobs that reproduce a known defect keep fixed inputs (see
`Job.defect`), so every seed shows the defect the same way.

A job's check takes its stdout and returns None when the output is right,
or the reason it is not.  Expected values come from reference.py, never
from the package.  Integers and q-coefficients must match exactly; floats
must agree with the reference to FLOAT_TOL relative to max(1, |reference|),
no looser than the package's own route tolerances (1e-9 and 1e-8).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref

FLOAT_TOL = 1e-9


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str], Optional[str]]
    defect: Optional[str] = None   # the known defect this job reproduces


def _nonfinite(doc) -> bool:
    if isinstance(doc, float):
        return not math.isfinite(doc)
    if isinstance(doc, dict):
        return any(_nonfinite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_nonfinite(v) for v in doc)
    return False


def _json_check(inner: Callable[[dict], Optional[str]]):
    """A check that parses JSON stdout and rejects any non-finite number."""
    def check(stdout: str) -> Optional[str]:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if _nonfinite(doc):
            return "non-finite value in output"
        return inner(doc)
    return check


def _far(value: complex, expected: complex) -> Optional[str]:
    err = abs(value - expected) / max(1.0, abs(expected))
    if not err <= FLOAT_TOL:
        return f"{value} differs from reference {expected} (relative {err:.2e})"
    return None


def _cplx(doc: dict) -> complex:
    return complex(doc["re"], doc["im"])


def _subset(rng, top: int, size: int) -> tuple[int, ...]:
    """A random strictly decreasing size-subset of 0..top."""
    return tuple(sorted(rng.choice(top + 1, size=size, replace=False).tolist(),
                        reverse=True))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _points(rng, size: int) -> list[list[float]]:
    """Well-separated complex points near the unit circle, as [re, im] pairs."""
    base = rng.uniform(0.0, 2.0 * np.pi)
    angles = base + 2.0 * np.pi * np.arange(size) / size + \
        rng.uniform(-0.3, 0.3, size)
    radii = rng.uniform(0.8, 1.2, size)
    z = radii * np.exp(1j * angles)
    return [[round(float(v.real), 6), round(float(v.imag), 6)] for v in z]


# ---------------------------------------------------------------- spectral_sweep

def _sweep_persistence(rng, m: int, n: int) -> Job:
    k_cap = m - n + 1
    lo = int(rng.integers(0, k_cap - 1))
    start = round(float(rng.uniform(0.1, 0.5)), 2)
    step = round(float(rng.uniform(0.15, 0.35)), 2)
    times = [round(start + i * step, 12) for i in range(5)]
    strings = [lo, lo + 1, lo + 2]
    argv = ["cli", "sweep", "persistence", "--m", str(m), "--n", str(n),
            "--string-n", f"{lo}..{lo + 2}",
            "--t", f"{start}:{step}:{round(start + 4 * step, 2)}"]

    def check(stdout: str) -> Optional[str]:
        lines = stdout.splitlines()
        if lines[:1] != ["m,n,string_n,t,value"]:
            return "missing CSV header"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(strings) * len(times):
            return f"{len(rows)} rows, expected {len(strings) * len(times)}"
        for row, (ns, t) in zip(rows, [(a, b) for a in strings for b in times]):
            if int(row[2]) != ns or abs(float(row[3]) - t) > 1e-9:
                return f"row {row} is not at string_n={ns}, t={t}"
            value = float(row[4])
            if not math.isfinite(value):
                return f"non-finite value in row {row}"
            why = _far(value, ref.persistence(m, n, ns, float(row[3])).real)
            if why:
                return why
        return None

    return Job(f"sweep-persistence-{m}-{n}", argv, check)


def _multi_particle(name: str, m: int, j, l, t: float,
                    defect: Optional[str] = None) -> Job:
    argv = ["cli", "correlator", "--kind", "multi-particle", "--m", str(m),
            "--n", str(len(j)), "--j", _csv(j), "--l", _csv(l), "--t", str(t)]

    def inner(doc: dict) -> Optional[str]:
        return _far(_cplx(doc["value"]), ref.multi_particle_g(m, j, l, t))

    return Job(name, argv, _json_check(inner), defect)


def spectral_sweep(rng) -> list[Job]:
    jobs = [_sweep_persistence(rng, 11, 5), _sweep_persistence(rng, 13, 4)]
    for m, n in ((13, 5), (15, 4)):
        jobs.append(_multi_particle(
            f"multi-particle-{m}-{n}", m, _subset(rng, m, n), _subset(rng, m, n),
            round(float(rng.uniform(0.3, 2.0)), 3)))
    jobs.append(_multi_particle(
        "multi-particle-large-t", 9, (5, 3, 1), (6, 3, 0), 300.0,
        defect="ROADMAP 3c: inf+nanj passes the route check at |t|=300"))
    return jobs


# ---------------------------------------------------------------- oracle_scan

def _persistence(rng, m: int, n: int) -> Job:
    ns = int(rng.integers(0, 3))
    t = round(float(rng.uniform(0.2, 2.0)), 3)
    argv = ["cli", "correlator", "--kind", "persistence", "--m", str(m),
            "--n", str(n), "--string-n", str(ns), "--t", str(t)]

    def inner(doc: dict) -> Optional[str]:
        return _far(_cplx(doc["value"]), ref.persistence(m, n, ns, t))

    return Job(f"persistence-{m}-{n}", argv, _json_check(inner))


def _cauchy_binet(rng) -> Job:
    trials = 10
    argv = ["cli", "verify", "cauchy-binet", "--n", "4", "--length", "6",
            "--string-n", "1", "--trials", str(trials),
            "--seed", str(int(rng.integers(0, 2 ** 31)))]

    def inner(doc: dict) -> Optional[str]:
        if len(doc["checks"]) != trials or not doc["pass"]:
            return "cauchy-binet checks missing or failed"
        for c in doc["checks"]:
            why = _far(_cplx(c["lhs"]), _cplx(c["rhs"]))
            if why:
                return why
        return None

    return Job("verify-cauchy-binet", argv, _json_check(inner))


def _amplitude(rng, function: str, m: int, n: int, string_n: int) -> Job:
    spec = {"m": m, "n": n, "string_n": string_n,
            "u_sq": _points(rng, n), "v_inv_sq": _points(rng, n),
            "t": [round(float(rng.uniform(0.2, 1.0)), 3), 0.0]}
    argv = ["call", function, json.dumps(spec, sort_keys=True)]
    u = [complex(*p) for p in spec["u_sq"]]
    v = [complex(*p) for p in spec["v_inv_sq"]]

    def inner(doc: dict) -> Optional[str]:
        expected = ref.transition_amplitude(m, u, v, string_n, complex(*spec["t"]))
        return _far(_cplx(doc["value"]), expected)

    return Job(f"{function}-{m}-{n}", argv, _json_check(inner))


def oracle_scan(rng) -> list[Job]:
    jobs = [_persistence(rng, m, n) for m, n in ((9, 4), (11, 5), (13, 5))]
    jobs.append(_cauchy_binet(rng))
    jobs.append(_amplitude(rng, "transition_amplitude_detailed", 10, 4, 2))
    jobs.append(_amplitude(rng, "transition_amplitude_exact", 12, 4, 2))
    return jobs


# ---------------------------------------------------------------- exact_counts

def _paths_count(rng, m: int, n: int, steps: int) -> Job:
    start = _subset(rng, m, n)
    while True:
        end = _subset(rng, m, n)
        # each tick changes the coordinate sum by an odd amount on an even ring
        if (sum(end) - sum(start) - steps) % 2 == 0:
            break
    argv = ["cli", "paths", "--count", "--start", _csv(start), "--end",
            _csv(end), "--steps", str(steps), "--m", str(m)]

    def inner(doc: dict) -> Optional[str]:
        expected = ref.walker_count(start, end, steps, m)
        if doc["count"] != str(expected):
            return f"count {doc['count']} != {expected}"
        return None

    return Job(f"paths-count-{m}-{n}", argv, _json_check(inner))


def _sweep_path_counts(rng, m: int, n: int, steps: int) -> Job:
    start = _subset(rng, m, n)
    argv = ["cli", "sweep", "path-counts", "--m", str(m), "--start",
            _csv(start), "--steps", f"0..{steps}"]

    def check(stdout: str) -> Optional[str]:
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        if len(rows) != steps + 1:
            return f"{len(rows)} rows, expected {steps + 1}"
        for k, row in enumerate(rows):
            expected = ref.walker_count(start, start, k, m)
            if row[3] != str(k) or row[4] != str(expected):
                return f"row {row}: expected {expected} returns at {k} steps"
        return None

    return Job(f"sweep-path-counts-{m}-{n}", argv, check)


def _trig(j, l, steps: int, defect: Optional[str] = None) -> Job:
    m = 11
    spec = {"m": m, "n": len(j), "j": list(j), "l": list(l), "steps": steps}
    argv = ["call", "trig_path_count", json.dumps(spec, sort_keys=True)]

    def inner(doc: dict) -> Optional[str]:
        expected = ref.walker_count(j, l, steps, m)
        if doc["count"] != str(expected):
            return f"count {doc['count']} != {expected}"
        return None

    return Job(f"trig-{_csv(l).replace(',', '')}-{steps}", argv,
               _json_check(inner), defect)


def _equality_of_sums(m: int, n: int, string_n: int, steps: int) -> Job:
    argv = ["cli", "verify", "equality-of-sums", "--m", str(m), "--n", str(n),
            "--string-n", str(string_n), "--steps", str(steps)]

    def inner(doc: dict) -> Optional[str]:
        expected = ref.equality_of_sums_rhs(m, n, string_n, steps)
        (c,) = doc["checks"]
        if c["rhs"] != str(expected) or not doc["pass"]:
            return f"rhs {c['rhs']} != {expected} or check failed"
        if not abs(c["lhs"] - expected) <= FLOAT_TOL * max(1, expected):
            return f"lhs {c['lhs']} differs from {expected}"
        return None

    return Job("verify-equality-of-sums", argv, _json_check(inner))


def _all_pass(identity: str, argv: list[str], count: int,
              exact: Callable[[dict], Optional[str]] = lambda c: None) -> Job:
    def inner(doc: dict) -> Optional[str]:
        if len(doc["checks"]) != count or not doc["pass"]:
            return f"{identity}: checks missing or failed"
        for c in doc["checks"]:
            why = exact(c)
            if why:
                return why
        return None

    return Job(f"verify-{identity}", ["cli", "verify", identity] + argv,
               _json_check(inner))


def _macmahon(c: dict) -> Optional[str]:
    expected = str(ref.macmahon_count(c["n"], c["n"], c["k"]))
    if c["lhs"] != expected or c["rhs"] != expected:
        return f"macmahon({c['n']},{c['k']}) = {c['lhs']}/{c['rhs']} != {expected}"
    return None


def _q_symbolic(lam: tuple[int, ...], nvar: int, point: str) -> Job:
    argv = ["cli", "schur", "--shape", _csv(lam), "--vars", str(nvar),
            "--q-symbolic", point]
    shift = 1 if point == "qvec" else 0

    def inner(doc: dict) -> Optional[str]:
        got = {int(e): int(c) for e, c in doc["polynomial"].items()}
        if got != ref.principal_schur(lam, nvar, shift):
            return "q-polynomial differs from the hook-content formula"
        return None

    return Job(f"schur-{point}", argv, _json_check(inner))


def exact_counts(rng) -> list[Job]:
    return [
        _paths_count(rng, 17, 5, 26),
        _sweep_path_counts(rng, 11, 3, 24),
        _trig((8, 4, 1), (9, 5, 1), 22),
        _trig((8, 4, 1), (9, 5, 1), 24,
              defect="ROADMAP 3a: trig count past 2^53 is wrong, nothing raised"),
        _trig((8, 4, 1), (9, 5, 2), 16,
              defect="ROADMAP 3b: zero count by parity raises IntegerRoundingError"),
        _equality_of_sums(9, 3, 1, 8),
        _all_pass("q-chain", ["--n", "2", "--k", "3"], 4),
        _all_pass("macmahon", ["--n", "3", "--k", "3"], 12, _macmahon),
        _q_symbolic((4, 3, 1), 5, "qvec"),
        _q_symbolic((3, 2, 2), 4, "qvec-over-q"),
    ]


WORKLOADS = {
    "spectral_sweep": spectral_sweep,
    "oracle_scan": oracle_scan,
    "exact_counts": exact_counts,
}

# Runs in a fresh interpreter to measure set-up time; prints count 8.
SETUP_JOB = Job("setup", ["cli", "schur", "--shape", "2,1", "--vars", "3",
                          "--at-ones"],
                _json_check(lambda d: None if d["count"] == "8" else "count != 8"))
