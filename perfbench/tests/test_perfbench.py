"""Self-tests of the benchmark: tracing, layer metrics, references, inputs.

    python3 -m pytest perfbench/tests -q

Run from the root of a source checkout.  The module fixture runs every job
of every workload once plain and once traced (about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0

# Metrics each workload is built to exercise ...
NONZERO = {
    "spectral_sweep": [
        "cli.import_s", "cli.main.self_s",
        "correlators.persistence_spectral.calls",
        "correlators.persistence_spectral.self_s",
        "correlators.multi_particle_g_detailed.self_s",
        "correlators.one_particle_matrix.calls",
        "chain.enumerate_bethe_sets.calls", "chain.enumerate_bethe_sets.items",
        "chain.enumerate_bethe_sets.self_s",
        "schur.cauchy_binet.calls", "schur.cauchy_binet.self_s",
        "schur.cauchy_binet.closed_ratio", "schur.vandermonde.calls",
        "kernels.det_product_sum.calls", "kernels.det_product_sum.subsets",
        "kernels.det_product_sum.self_s",
        "kernels.det_product_sum.flops_computed",
        "correlators.route_residual_over_tol_max",
    ],
    "oracle_scan": [
        "cli.import_s", "cli.main.self_s",
        "correlators.persistence_exact.self_s",
        "correlators.transition_amplitude_detailed.self_s",
        "correlators.transition_amplitude_exact.self_s",
        "chain.build_sector_hamiltonian.calls",
        "chain.build_sector_hamiltonian.self_s",
        "chain.build_sector_hamiltonian.dim_max", "chain.bethe_vector.self_s",
        "schur.schur_evaluate.calls", "schur.schur_evaluate.self_s",
        "partitions.shifted_boxed_partitions.items",
        "correlators.route_residual_over_tol_max",
    ],
    "exact_counts": [
        "cli.import_s", "cli.main.self_s",
        "correlators.trig_path_count.self_s",
        "correlators.equality_of_sums_report.self_s",
        "paths.random_turns_counts_from.calls",
        "paths.random_turns_counts_from.self_s",
        "paths.random_turns_counts_from.steps",
        "paths.random_turns_counts_from.configs_out",
        "schur.ssyt.items", "schur.schur_q_polynomial.self_s",
        "schur.schur_evaluate.calls",
        "kernels.det_product_sum.calls",
        "partitions.shifted_boxed_partitions.items",
        "qpoly.QPolynomial.__mul__.calls", "qpoly.QPolynomial.__mul__.self_s",
        "qpoly.QPolynomial.divide_exact.calls", "qpoly.qpoly_matrix_det.self_s",
    ],
}

# ... and the metrics each is built to leave alone.
ZERO = {
    "spectral_sweep": [
        "chain.build_sector_hamiltonian.calls",
        "correlators.persistence_exact.self_s", "chain.bethe_vector.self_s",
        "paths.random_turns_counts_from.calls", "schur.ssyt.items",
        "schur.schur_evaluate.calls", "qpoly.QPolynomial.__mul__.calls",
    ],
    "oracle_scan": [
        "kernels.det_product_sum.calls", "paths.random_turns_counts_from.calls",
        "schur.ssyt.items", "qpoly.QPolynomial.__mul__.calls",
        "correlators.multi_particle_g_detailed.self_s",
    ],
    "exact_counts": [
        "chain.build_sector_hamiltonian.calls",
        "correlators.persistence_spectral.calls", "schur.cauchy_binet.calls",
        "correlators.persistence_exact.self_s",
    ],
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """workload -> list of (job, plain outcome, traced outcome, spans)."""
    run.WORK = tmp_path_factory.mktemp("work")
    env = run.job_env()
    out = {}
    for name, make in WORKLOADS.items():
        rows = []
        for job in make(np.random.default_rng([SEED, list(WORKLOADS).index(name)])):
            plain = run.spawn(run.command(job), env)
            spans_path = run.WORK / "spans.json"
            traced = run.spawn(run.command(job, spans_path), env)
            spans = json.loads(spans_path.read_text())["spans"]
            rows.append((job, plain, traced, spans))
        out[name] = rows
    return out


def _metrics(rows) -> dict:
    ratios = []
    for _, plain, _, _ in rows:
        try:
            ratios += layers.verify_ratios(json.loads(plain.stdout))
        except json.JSONDecodeError:
            pass
    return layers.aggregate([spans for *_, spans in rows], ratios)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_job_prints_same_stdout(traced_runs, workload):
    for job, plain, traced, _ in traced_runs[workload]:
        assert traced.stdout == plain.stdout, job.name
        assert traced.code == plain.code, job.name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_only_known_defects_fail(traced_runs, workload):
    for job, plain, _, _ in traced_runs[workload]:
        why = "non-zero exit" if plain.code else job.check(plain.stdout)
        if job.defect is None:
            assert why is None, (job.name, why, plain.stderr_tail)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics_nonzero_where_exercised(traced_runs, workload):
    metrics = _metrics(traced_runs[workload])
    assert not [m for m in NONZERO[workload] if not metrics[m] > 0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics_zero_where_bypassed(traced_runs, workload):
    metrics = _metrics(traced_runs[workload])
    assert not [m for m in ZERO[workload] if metrics[m] != 0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_bethe_sets_items_equal_subset_count(traced_runs, workload):
    seen = 0
    for *_, spans in traced_runs[workload]:
        for span in spans:
            if span[tracer.NAME] == "chain.enumerate_bethe_sets":
                geom = span[tracer.ATTRS]
                assert span[tracer.ITEMS] == comb(geom["m"] + 1, geom["n"])
                seen += 1
    assert seen > 0


def test_names_patched_where_bound():
    code = (
        "import sys; sys.path.insert(0, %r); import tracer;"
        "import spinpaths, spinpaths.correlators as c, spinpaths.qpoly as q;"
        "tracer.install(tracer.Recorder());"
        "names = [c.det_product_sum, c.cauchy_binet, spinpaths.cauchy_binet,"
        " q.QPolynomial.__mul__, q.QPolynomial.__rmul__];"
        "print(all(f.__code__.co_name.startswith('traced') for f in names))"
    ) % str(BENCH)
    out = subprocess.run([sys.executable, "-c", code], env=run.job_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def test_generator_span_covers_iteration_not_consumer():
    rec = tracer.Recorder()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    produce_traced = rec.wrap("gen", produce, None)
    outer = rec.open("consumer")
    gen = produce_traced()
    for _ in gen:
        time.sleep(0.03)
    rec.close(outer)
    consumer, span = rec.spans
    assert span[tracer.ITEMS] == 3
    assert span[tracer.PARENT] == 0
    assert 0.03 <= span[tracer.BUSY] < 0.06
    assert consumer[tracer.BUSY] - span[tracer.BUSY] >= 0.09


def test_seed_draws_inputs_not_sizes():
    for name, make in WORKLOADS.items():
        a = make(np.random.default_rng([1, 0]))
        b = make(np.random.default_rng([1, 0]))
        c = make(np.random.default_rng([2, 0]))
        assert [j.argv for j in a] == [j.argv for j in b]
        assert [j.name for j in a] == [j.name for j in c]


def test_benchmark_json_matches_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.METRICS)
