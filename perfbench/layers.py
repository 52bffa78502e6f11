"""Per-layer metrics from the spans of one traced pass.

Names are `<module>.<function>.<quantity>`.  `self_s` is a span's busy
time minus the busy time of its child spans, summed over the pass;
`calls` counts spans and `items` the values a generator yielded.  A
`cauchy_binet` span with a `cauchy_binet_enum` child, or a
`schur_evaluate` span with a `schur_monomials` child, fell back to
enumeration.  A ratio whose base is zero calls reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import ATTRS, BUSY, ITEMS, NAME, PARENT

# (name, unit, better); the order is the order of the report
METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("correlators.persistence_spectral.calls", "count", "lower"),
    ("correlators.persistence_spectral.self_s", "s", "lower"),
    ("correlators.multi_particle_g_detailed.self_s", "s", "lower"),
    ("correlators.one_particle_matrix.calls", "count", "lower"),
    ("correlators.one_particle_matrix.self_s", "s", "lower"),
    ("correlators.persistence_exact.self_s", "s", "lower"),
    ("correlators.transition_amplitude_detailed.self_s", "s", "lower"),
    ("correlators.transition_amplitude_exact.self_s", "s", "lower"),
    ("correlators.trig_path_count.self_s", "s", "lower"),
    ("correlators.equality_of_sums_report.self_s", "s", "lower"),
    ("correlators.route_residual_over_tol_max", "ratio", "lower"),
    ("correlators.route_residual_nonfinite", "count", "lower"),
    ("chain.enumerate_bethe_sets.calls", "count", "lower"),
    ("chain.enumerate_bethe_sets.items", "count", "lower"),
    ("chain.enumerate_bethe_sets.self_s", "s", "lower"),
    ("chain.build_sector_hamiltonian.calls", "count", "lower"),
    ("chain.build_sector_hamiltonian.self_s", "s", "lower"),
    ("chain.build_sector_hamiltonian.dim_max", "count", "lower"),
    ("chain.bethe_vector.self_s", "s", "lower"),
    ("schur.cauchy_binet.calls", "count", "lower"),
    ("schur.cauchy_binet.self_s", "s", "lower"),
    ("schur.cauchy_binet.closed_ratio", "ratio", "higher"),
    ("schur.vandermonde.calls", "count", "lower"),
    ("schur.schur_evaluate.calls", "count", "lower"),
    ("schur.schur_evaluate.self_s", "s", "lower"),
    ("schur.schur_evaluate.enum_ratio", "ratio", "lower"),
    ("schur.ssyt.items", "count", "lower"),
    ("schur.schur_q_polynomial.self_s", "s", "lower"),
    ("kernels.det_product_sum.calls", "count", "lower"),
    ("kernels.det_product_sum.subsets", "count", "lower"),
    ("kernels.det_product_sum.self_s", "s", "lower"),
    ("kernels.det_product_sum.flops_computed", "flop", "lower"),
    ("paths.random_turns_counts_from.calls", "count", "lower"),
    ("paths.random_turns_counts_from.self_s", "s", "lower"),
    ("paths.random_turns_counts_from.steps", "count", "lower"),
    ("paths.random_turns_counts_from.configs_out", "count", "lower"),
    ("partitions.shifted_boxed_partitions.items", "count", "lower"),
    ("qpoly.QPolynomial.__mul__.calls", "count", "lower"),
    ("qpoly.QPolynomial.__mul__.self_s", "s", "lower"),
    ("qpoly.QPolynomial.divide_exact.calls", "count", "lower"),
    ("qpoly.QPolynomial.divide_exact.self_s", "s", "lower"),
    ("qpoly.qpoly_matrix_det.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Route tolerances of the package, by residual key and by verify identity.
ROUTE_TOL = {"det_vs_spectral": 1e-9, "spectral_vs_dense": 1e-8,
             "boxed_vs_spectral": 1e-8}
VERIFY_TOL = {"cauchy-binet": 1e-9, "persistence": 1e-8, "schur-dual": 1e-10}
EQUALITY_OF_SUMS_REL_TOL = 1e-6

_FALLBACKS = {"schur.cauchy_binet_enum": "schur.cauchy_binet",
              "schur.schur_monomials": "schur.schur_evaluate"}


def verify_ratios(doc) -> list[float]:
    """Residual / tolerance of each float check in a `verify` JSON document."""
    if not isinstance(doc, dict) or "identity" not in doc or "checks" not in doc:
        return []
    identity = doc["identity"]
    out = []
    for check in doc["checks"]:
        if identity == "equality-of-sums":
            tol = EQUALITY_OF_SUMS_REL_TOL * max(1, int(check["rhs"]))
        elif identity in VERIFY_TOL:
            tol = VERIFY_TOL[identity]
        else:
            continue
        out.append(check["residual"] / tol)
    return out


def _dets_flops(nvar: int) -> float:
    """Real flops of LU on two nvar x nvar complex matrices (8 per complex fma)."""
    return 2 * (2.0 / 3.0) * nvar ** 3 * 8


def aggregate(jobs_spans: list[list[list]], extra_ratios: list[float]) -> dict:
    """Every metric of METRICS except trace.overhead_s, for one traced pass.

    `jobs_spans` holds the span list of each job; `extra_ratios` are the
    residual/tolerance ratios read from the jobs' verify output.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    items = defaultdict(int)
    fell_back = defaultdict(int)
    ratios = list(extra_ratios)
    dim_max = subsets = flops = steps = configs_out = 0
    for spans in jobs_spans:
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[BUSY]
        parents_fell_back = set()
        for i, span in enumerate(spans):
            name, attrs = span[NAME], span[ATTRS] or {}
            calls[name] += 1
            self_s[name] += span[BUSY] - child[i]
            items[name] += span[ITEMS]
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == _FALLBACKS.get(name):
                parents_fell_back.add(parent)
            dim_max = max(dim_max, attrs.get("dim", 0))
            subsets += attrs.get("subsets", 0)
            flops += attrs.get("subsets", 0) * _dets_flops(attrs.get("nvar", 0))
            steps += attrs.get("steps", 0)
            configs_out += attrs.get("configs_out", 0)
            for key, resid in attrs.get("route_residuals", {}).items():
                ratios.append(resid / ROUTE_TOL.get(key, 1e-9))
        for parent in parents_fell_back:
            fell_back[spans[parent][NAME]] += 1

    out = {}
    for name, unit, _ in METRICS:
        head, _, quantity = name.rpartition(".")
        if quantity == "self_s":
            out[name] = self_s[head]
        elif quantity in ("calls", "items"):
            out[name] = (calls if quantity == "calls" else items)[head]
    out["cli.import_s"] = self_s["cli.import"]
    cb, se = "schur.cauchy_binet", "schur.schur_evaluate"
    out[f"{cb}.closed_ratio"] = 1.0 - fell_back[cb] / calls[cb] if calls[cb] else 0.0
    out[f"{se}.enum_ratio"] = fell_back[se] / calls[se] if calls[se] else 0.0
    out["chain.build_sector_hamiltonian.dim_max"] = dim_max
    out["kernels.det_product_sum.subsets"] = subsets
    out["kernels.det_product_sum.flops_computed"] = flops
    out["paths.random_turns_counts_from.steps"] = steps
    out["paths.random_turns_counts_from.configs_out"] = configs_out
    finite = [r for r in ratios if math.isfinite(r)]
    out["correlators.route_residual_over_tol_max"] = max(finite, default=0.0)
    out["correlators.route_residual_nonfinite"] = len(ratios) - len(finite)
    return out
