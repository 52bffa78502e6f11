import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from spinpaths import core, correlators, partitions, paths
from spinpaths.chain import ChainGeometry
from spinpaths.core import FLOAT_GRID_CAP, EnumerationCapError
from spinpaths.cli import VERBS, _parse_float_range, _parse_range, build_parser, main
from spinpaths.paths import count_random_turns_paths


def run_cli(argv):
    """Run in a subprocess so stdout/stderr and exit codes are the real thing."""
    return subprocess.run([sys.executable, "-m", "spinpaths.cli", *argv],
                          capture_output=True, text=True)


def test_schur_at_ones():
    out = run_cli(["schur", "--shape", "2,1", "--vars", "3", "--at-ones"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["count"] == "8"


def test_schur_at_point():
    out = run_cli(["schur", "--shape", "1", "--vars", "2", "--at", "1,2"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["value"]["re"] == pytest.approx(3.0)
    # the imaginary part comes out of the alternant as -0.0
    assert '"im": 0.0' in out.stdout


def test_complex_json_prints_negative_zero_as_zero():
    # the sign of a zero can follow the BLAS kernel, so stdout never shows it
    assert json.dumps(core.complex_json(complex(-0.0, -0.0))) == '{"re": 0.0, "im": 0.0}'
    assert json.dumps(core.complex_json(complex(-1.5, 2.0))) == '{"re": -1.5, "im": 2.0}'


# the power table has one column per distinct exponent, never max mu + 1;
# the last part does not fit an int64
@pytest.mark.parametrize("shape", ["1000000000", "100000000000000000000"])
def test_schur_at_point_of_a_large_shape(shape):
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "schur",
                          "--shape", shape, "--vars", "1", "--at", "0.5"],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == {"re": 0.0, "im": 0.0}


def test_schur_q_symbolic():
    out = run_cli(["schur", "--shape", "1", "--vars", "2",
                   "--q-symbolic", "qvec"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["polynomial"] == {"1": "1", "2": "1"}


@pytest.mark.parametrize("shape,count", [("1,0,0", 2), ("1,1,1", 0)])
def test_schur_modes_share_one_shape_rule(capsys, shape, count):
    # zero parts are dropped in every mode; s_lam(1, q) at q = 1 and q = 2
    def run(*mode):
        assert main(["schur", "--shape", shape, "--vars", "2", *mode]) == 0
        return json.loads(capsys.readouterr().out)
    poly = run("--q-symbolic", "qvec-over-q")["polynomial"]
    assert run("--at-ones")["count"] == str(count)
    assert sum(int(c) for c in poly.values()) == count
    value = sum(int(c) * 2 ** int(e) for e, c in poly.items())
    at = run("--at", "1,2")["value"]
    assert (at["re"], at["im"]) == (pytest.approx(value), pytest.approx(0.0, abs=1e-12))


def test_paths_count_big_integer_as_string():
    out = run_cli(["paths", "--count", "--start", "0", "--end", "0",
                   "--steps", "200", "--m", "6"])
    assert out.returncode == 0
    count = int(json.loads(out.stdout)["count"])
    assert count > 10 ** 50


def test_paths_nests():
    out = run_cli(["paths", "--nests", "--shape", "1", "--vars", "2"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["total"] == "2"


def test_paths_nests_builds_only_the_printed_nests(monkeypatch, capsys):
    built = []
    to_json = paths.PathNest.to_json
    monkeypatch.setattr(paths.PathNest, "to_json",
                        lambda nest: built.append(nest) or to_json(nest))
    assert main(["paths", "--nests", "--shape", "2,1", "--vars", "3", "--limit", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(built) == 2
    assert doc["total"] == "8"
    assert doc["nests"] == [to_json(nest) for nest in built]


def test_chain_spectrum():
    out = run_cli(["chain-spectrum", "--m", "4", "--n", "2"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["sets"]) == 10
    assert doc["ground"]["energy"] == pytest.approx(doc["ground_closed_form"])


def test_correlator_persistence():
    out = run_cli(["correlator", "--kind", "persistence", "--m", "4", "--n", "2",
                   "--string-n", "1", "--t", "0.5"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert 0.0 < doc["value"]["re"] < 1.0
    assert doc["route_residuals"]["spectral_vs_dense"] < 1e-8


# digests of the stdout printed when each kind built its own output dict;
# the one builder over `CorrelatorResult` must print the same bytes
CORRELATOR_DIGESTS = {
    "multi-particle": ("8aa0c90bc3a1633aa28e62f00532d202f8f3cc813d388f0b4c1aaf8cc692d9de",
                       ["--m", "9", "--n", "3", "--j", "5,3,1", "--l", "6,3,0",
                        "--t", "0.7"]),
    "persistence": ("c84ee48a59edcd4aa7bec479cf1d50b308b537580a4ea608c972177cbf4dc86a",
                    ["--m", "4", "--n", "2", "--string-n", "1", "--t", "0.5"]),
    "laplace": ("09f4070bab86fc9b175f1a7f52cdb040334458d04062a52880858dd83bbcfc3d",
                ["--m", "5", "--j-site", "0", "--l-site", "2", "--z", "0.2"]),
}


@pytest.mark.parametrize("kind", CORRELATOR_DIGESTS)
def test_correlator_stdout_pinned(kind):
    digest, extra = CORRELATOR_DIGESTS[kind]
    out = run_cli(["correlator", "--kind", kind, *extra])
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# the Gram determinant runs in plain floats, so no BLAS kernel can move its
# digits; the momentum-subset sum printed other bytes under the AVX2 kernel
SWEEP_DIGESTS = {
    "persistence": ("a94774766c10b39b0043f64ab3f895531ac80095875535309ca0a0cd46b93d28",
                    ["--m", "13", "--n", "5", "--string-n", "0..4", "--t", "0:0.5:10"]),
}


@pytest.mark.parametrize("subject", SWEEP_DIGESTS)
def test_sweep_stdout_pinned(subject):
    digest, extra = SWEEP_DIGESTS[subject]
    out = run_cli(["sweep", subject, *extra])
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# a near-full sector: the subset sum printed 0.03368209487234484, 1.2e-6 off,
# and the correlator failed its own route check (4.19e-8 > 1e-8); at (99, 98)
# the sweep ended in an OverflowError traceback.  The values are
# perfbench/reference.py's, a Gram determinant taken by numpy.
@pytest.mark.parametrize("verb, m, n, want", [
    (["sweep", "persistence"], 49, 47, 0.0336821368055935),
    (["correlator", "--kind", "persistence"], 49, 47, 0.0336821368055935),
    (["sweep", "persistence"], 99, 98, 0.01118997496670821),
], ids=["sweep-49-47", "correlator-49-47", "sweep-99-98"])
def test_persistence_near_full_sector(verb, m, n, want):
    out = run_cli([*verb, "--m", str(m), "--n", str(n), "--string-n", "1", "--t", "0.7"])
    assert out.returncode == 0, out.stderr
    if verb[0] == "sweep":
        value = float(out.stdout.splitlines()[1].split(",")[-1])
    else:
        value = json.loads(out.stdout)["value"]["re"]
    assert value == pytest.approx(want, rel=1e-12, abs=0)


ONE_PARTICLE = ["correlator", "--kind", "one-particle", "--m", "5",
                "--j-site", "0", "--l-site", "2", "--t", "0.7"]


@pytest.mark.parametrize("argv", [
    ONE_PARTICLE,
    ["correlator", "--kind", "laplace", *CORRELATOR_DIGESTS["laplace"][1]],
], ids=["one-particle", "laplace"])
def test_one_walker_kinds_ignore_n(argv):
    # neither kind reads --n; a down-spin count past the ring exited 2
    plain = run_cli(argv)
    with_n = run_cli(argv + ["--n", "9"])
    assert (plain.returncode, with_n.returncode) == (0, 0), with_n.stderr
    assert with_n.stdout == plain.stdout


def one_bad_input_line(out) -> str:
    """The detail of the one bad-input line of a run that printed nothing else."""
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    (line,) = out.stderr.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "bad-input"
    return doc["detail"]


# each ran a route: the first two printed numpy warnings and exited 1 with
# route-mismatch, the third printed NaN and exited 0
@pytest.mark.parametrize("argv", [
    ["--kind", "persistence", "--m", "4", "--n", "2", "--t=nan"],
    ["--kind", "multi-particle", "--m", "4", "--n", "2", "--j", "3,1",
     "--l", "2,0", "--t=inf"],
    ["--kind", "laplace", "--m", "4", "--z=nan"],
], ids=["persistence-t-nan", "multi-particle-t-inf", "laplace-z-nan"])
def test_correlator_non_finite_t_or_z_is_bad_input(argv):
    assert "is not finite" in one_bad_input_line(run_cli(["correlator", *argv]))


# the one-walker kinds read --j-site and --l-site; laplace answered for
# site 0 here and exited 0
@pytest.mark.parametrize("kind", ["laplace", "one-particle"])
def test_one_walker_kinds_refuse_j_and_l(kind):
    out = run_cli(["correlator", "--kind", kind, "--m", "4", "--j", "1", "--l", "0"])
    assert one_bad_input_line(out) == \
        f"--kind {kind} reads --j-site and --l-site, not --j or --l"


def test_one_particle_is_the_one_walker_determinant(capsys):
    # the 1 x 1 determinant may move the last bit of the entry G[0, 2]
    assert main(ONE_PARTICLE) == 0
    doc = json.loads(capsys.readouterr().out)
    want = correlators.one_particle_diagonals(ChainGeometry(5, 1), 0.7)[0 - 2 + 5]
    value = complex(doc["value"]["re"], doc["value"]["im"])
    assert value == pytest.approx(complex(want), rel=1e-15, abs=0)
    assert doc["route_residuals"]["det_vs_spectral"] < 1e-9


def test_one_particle_catches_a_dropped_wrap_bond(monkeypatch, capsys):
    # without the bond between sites M and 0 the Taylor steps walk an open
    # chain: the position route changes (0.06443 to 0.00064), the momentum
    # sums do not
    def open_chain(v, sigma):
        return [a + b for a, b in zip([0] + v[:-1], v[1:] + [0])]

    monkeypatch.setattr(correlators, "_twisted_hops", open_chain)
    assert main(ONE_PARTICLE) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "route-mismatch"


# digests of the stdout printed when each identity was coded inside the
# CLI; the registry must print the same bytes.  equality-of-sums is the
# exact report: lhs 4564.0 and residual 0.0, where the float left side
# printed 4563.999999999999 and 9.09e-13
VERIFY_DIGESTS = {
    "equality-of-sums": "dace4c3dfe6c8a8cf7f5b8d0888593c110f2f5a7f70da101391d238aadf8f4bb",
    "cauchy-binet": "1eb6db806084567446dfb42a485ef595cc739e48ecf828d39169dea750242270",
    "persistence": "0f7404c4be6f8ba2ebcea908fa41b1bdcb4ecb9efa2ac9d6c4df07ba2d82804f",
    "macmahon": "1fb9ff9aeae3e0eeb072bf82106bac49fe2dc8d894b593d42fcb42fd99bfddd6",
    # exact since the alternants became integer minors: residuals 0.0
    "schur-dual": "da1220a20bb0286c164744e30fc18702d4ce645cce7d78a5a7716dec2b42b081",
    "q-chain": "9ef9d4c8bb748f1fa392a583853bb730494be0c5ddab5d5c9a8954c50d3502d4",
}


VERIFY_ARGS = [
    ("equality-of-sums", ["--m", "4", "--n", "2", "--steps", "4"]),
    ("cauchy-binet", ["--n", "2", "--length", "4", "--trials", "5"]),
    ("persistence", ["--m", "4", "--n", "2", "--string-n", "1"]),
    ("macmahon", ["--n", "3", "--k", "3"]),
    ("schur-dual", ["--n", "3", "--length", "3", "--trials", "5"]),
    ("q-chain", ["--n", "2", "--k", "3"]),
]


@pytest.mark.parametrize("identity,extra", VERIFY_ARGS)
def test_verify_identities_pass(identity, extra):
    out = run_cli(["verify", identity, *extra])
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["pass"] is True
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == VERIFY_DIGESTS[identity]


def test_verify_q_chain_past_the_cofactor_sizes():
    # a 10 x 10 q-binomial determinant: only a polynomial-time route ends in time
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", "q-chain",
                          "--n", "2", "--k", "9"], capture_output=True, text=True,
                         timeout=20)
    assert out.returncode == 0
    assert json.loads(out.stdout)["pass"] is True


@pytest.mark.parametrize("n, code, k", [("10", 0, "3"), ("40", 3, "3"), ("40", 0, "0")],
                         ids=["10-0", "40-3", "40-0-k0"])
def test_verify_q_chain_is_capped_from_its_arguments(n, code, k):
    # --n 40 ran for over two minutes before the cap; --n 10 takes under 1 s;
    # at k = 0 every polynomial is a constant, and --n 40 takes milliseconds
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", "q-chain",
                          "--n", n, "--k", k], capture_output=True, text=True,
                         timeout=20)
    assert out.returncode == code, out.stderr
    if code:
        assert out.stdout == ""
        assert json.loads(out.stderr)["error"] == "cap-exceeded"
    else:
        assert json.loads(out.stdout)["pass"] is True


# each ran for over a minute, or for cauchy-binet ended in numpy's
# _ArrayMemoryError traceback, before its cap
@pytest.mark.parametrize("argv", [
    ["schur-dual", "--n", "10"],
    ["schur-dual", "--n", "3", "--length", "40"],
    ["macmahon", "--n", "16", "--k", "16"],
    ["macmahon", "--n", "300", "--k", "300"],
    ["cauchy-binet", "--n", "20", "--length", "20", "--trials", "1"],
], ids=" ".join)
def test_verify_identities_are_capped_before_they_enumerate(argv):
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", *argv],
                         capture_output=True, text=True, timeout=20,
                         preexec_fn=_limit_memory)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == "cap-exceeded"


def test_verify_cauchy_binet_is_priced_in_minor_products():
    # C(24, 12) = 2.7 M shapes passed the shape price; the float check then
    # ran for tens of seconds and failed an identity that holds (exit 1), or
    # under this memory limit ended in numpy's _ArrayMemoryError
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", "cauchy-binet",
                          "--n", "12", "--length", "12", "--trials", "1"],
                         capture_output=True, text=True, timeout=20,
                         preexec_fn=_limit_memory)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert json.loads(out.stderr) == {
        "error": "cap-exceeded",
        "detail": "100663296 minor products exceed cap 10000000"}


def test_verify_macmahon_runs_under_its_cap():
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", "macmahon",
                          "--n", "8", "--k", "8"], capture_output=True, text=True,
                         timeout=20)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"] is True


def test_verify_equality_of_sums_past_the_float_range_is_one_error_line():
    # numpy's overflow warnings and an OverflowError traceback, exit 1, before
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify",
                          "equality-of-sums", "--m", "40", "--n", "3", "--steps", "400"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert json.loads(out.stderr) == {
        "detail": "the trig sum of 400 steps can reach exp(741.1), "
                  "past the float maximum exp(709.78)",
        "error": "float-overflow"}


@pytest.mark.parametrize("argv", [
    ["cauchy-binet", "--trials", "0"],
    ["macmahon", "--n", "0"],
    ["q-chain", "--k", "-1"],
    ["schur-dual", "--trials", "0"],
], ids=" ".join)
def test_verify_comparing_nothing_is_bad_input(capsys, argv):
    assert main(["verify", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "bad-input"


def strict_json(text):
    """RFC 8259 JSON: the bare tokens NaN and Infinity are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_verify_schur_dual_nan_fails(monkeypatch, capsys):
    # the check is exact now: an alternant off by one fails every shape
    real = partitions.column_minors
    monkeypatch.setattr(partitions, "column_minors", lambda *args: {
        cols: (a + 1, b) for cols, (a, b) in real(*args).items()})
    assert main(["verify", "schur-dual", "--n", "2", "--length", "1",
                 "--trials", "2"]) == 1
    doc = strict_json(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["checks"] and not any(c["pass"] for c in doc["checks"])
    assert {c["residual"] for c in doc["checks"]} == {1.0}


# each was admitted: the first three were still running after 5 s, holding
# one output row per trial (--n 0 priced no minor products, and no trial
# priced its row), and schur-dual --n 8 answered in 15 s
@pytest.mark.parametrize("argv, detail", [
    (["schur-dual", "--n", "1", "--length", "0", "--trials", "100000000"],
     "200000000 products of the trials exceed cap 10000000"),
    (["cauchy-binet", "--n", "0", "--length", "3", "--trials", "100000000"],
     "100000000 trials exceed cap 1000000"),
    (["cauchy-binet", "--n", "1", "--length", "0", "--trials", "9000000"],
     "9000000 trials exceed cap 1000000"),
    # 1,244,672 tableaux and 165 alternants of 1,024 products, ten times
    (["schur-dual", "--n", "8"], "14136320 products of the trials exceed cap 10000000"),
], ids=" ".join)
def test_verify_trials_are_priced(argv, detail):
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "verify", *argv],
                         capture_output=True, text=True, timeout=2)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert json.loads(out.stderr) == {"error": "cap-exceeded", "detail": detail}


def test_sweep_csv():
    out = run_cli(["sweep", "path-counts", "--m", "3", "--start", "1,0",
                   "--steps", "0..3"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "m,start,end,steps,count"
    assert len(lines) == 5
    assert lines[1].split(",")[1] == "1|0"


@pytest.mark.parametrize("start,end,steps,ks", [
    ("3,1,0", None, "3..7", range(3, 8)),
    ("3,1,0", None, "5", [5]),
    ("3,1,0", "4,2,0", "3..7", range(3, 8)),
])
def test_sweep_path_counts_rows(capsys, start, end, steps, ks):
    argv = ["sweep", "path-counts", "--m", "5", "--start", start, "--steps", steps]
    if end:
        argv += ["--end", end]
    assert main(argv) == 0
    a = tuple(map(int, start.split(",")))
    b = tuple(map(int, (end or start).split(",")))
    want = [f"5,{start.replace(',', '|')},{(end or start).replace(',', '|')},{k},"
            f"{count_random_turns_paths(a, b, k, 5)}" for k in ks]
    assert capsys.readouterr().out.splitlines() == ["m,start,end,steps,count", *want]


def test_sweep_path_counts_empty_range_prints_header(capsys):
    assert main(["sweep", "path-counts", "--m", "3", "--start", "1,0",
                 "--steps", "4..2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["m,start,end,steps,count"]


def test_sweep_path_counts_negative_step_is_bad_input(capsys):
    assert main(["sweep", "path-counts", "--m", "3", "--start", "1,0",
                 "--steps=-1..2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "bad-input"


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


# the exit code of each --t grid: a non-finite value is bad input (2), and
# a grid of more than 10^6 times is over the cap (3); the last grid's step
# is below half the float spacing at 1e16, so it never moves its value
GRIDS = {"0:0:1": 2, "0:-0.1:1": 2, "0:nan:1": 2, "nan:0.1:1": 2,
         "0:0.1:nan": 2, "nan": 2, "inf": 2, "0:1e-9:1": 3,
         "1e16:0.5:1.000000000000001e16": 3}


@pytest.mark.parametrize("grid", GRIDS)
def test_sweep_persistence_nonpositive_step_is_bad_input(grid):
    # such a step never reaches the stop, so the grid grew without bound;
    # the memory cap and timeout make a regression fail instead of hang
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "sweep",
                          "persistence", "--m", "4", "--n", "2",
                          "--string-n", "0", "--t", grid],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert out.returncode == GRIDS[grid]
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == \
        {2: "bad-input", 3: "cap-exceeded"}[GRIDS[grid]]


# each built its whole grid first and, under the memory limit, ended in a
# MemoryError traceback with exit 1
@pytest.mark.parametrize("argv", [
    ["path-counts", "--m", "4", "--start", "1,0", "--steps", "0..10000000000"],
    ["persistence", "--m", "4", "--n", "2", "--string-n", "0..10000000000", "--t", "0.5"],
    ["macmahon", "--box-n", "20000", "--box-k", "1"],
], ids=lambda argv: argv[0])
def test_sweep_grids_are_capped_before_they_are_built(argv):
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "sweep", *argv],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == "cap-exceeded"


@pytest.mark.parametrize("n, code", [("1000", 3), ("300", 0)])
def test_sweep_macmahon_is_priced_by_its_bits(n, code):
    # --box-n 1000 --box-k 1 (10^6 hooks) ran for over 300 s before the
    # price in word steps; --box-n 300 takes about 3 s
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "sweep", "macmahon",
                          "--box-n", n, "--box-k", "1"], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == code, out.stderr
    if code:
        assert out.stdout == ""
        assert json.loads(out.stderr) == {
            "error": "cap-exceeded",
            "detail": "2.01e+11 word steps exceed cap 2000000000"}
    else:
        assert out.stdout.splitlines()[1].startswith("300,1,")


def test_integer_range_cap_counts_points():
    assert len(_parse_range(f"1..{FLOAT_GRID_CAP}")) == FLOAT_GRID_CAP
    with pytest.raises(EnumerationCapError):
        _parse_range(f"0..{FLOAT_GRID_CAP}")
    assert len(_parse_float_range(f"1:1:{FLOAT_GRID_CAP}")) == FLOAT_GRID_CAP
    with pytest.raises(EnumerationCapError):
        _parse_float_range(f"0:1:{FLOAT_GRID_CAP}")


def test_sweep_macmahon_is_priced_by_its_hooks(capsys):
    # 3,162^2 hooks are within the cap, and two such rows are not
    assert main(["sweep", "macmahon", "--box-n", "3162", "--box-k", "0..1"]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "cap-exceeded", "detail": "19996488 hooks exceed cap 10000000"}
    assert main(["sweep", "macmahon", "--box-n", "1..3", "--box-k", "0..1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "1,0,1", "1,1,2", "2,0,1", "2,1,6", "3,0,1", "3,1,20"]


def test_paths_count_at_zero_steps_builds_no_sector(capsys):
    # tick 0 is read off the start, so a ring past the DP's cap still counts
    assert main(["paths", "--count", "--m", "10000000", "--start", "3,2,1",
                 "--end", "3,2,1", "--steps", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == "1"


def test_float_grid_does_not_drift():
    # the grid was built by repeated addition: it ended at 99.999000000113,
    # 100,000 points, and 1.0 was never reached on a 1e-5 step
    grid = _parse_float_range("0:0.001:100")
    assert len(grid) == 100_001 and grid[-1] == 100.0
    assert grid == [round(i * 0.001, 12) for i in range(100_001)]
    assert _parse_float_range("0:0.00001:1")[-1] == 1.0


@pytest.mark.parametrize("argv, missing", [
    (["sweep", "path-counts", "--m", "3", "--end", "1,0"], "--start"),
    (["paths", "--count", "--end", "1,0", "--steps", "2", "--m", "3"], "--start"),
    (["paths", "--count", "--start", "1,0", "--steps", "2", "--m", "3"], "--end"),
    (["correlator", "--kind", "multi-particle", "--m", "4", "--n", "2",
      "--j", "1,0"], "--l"),
])
def test_missing_endpoint_is_bad_input(capsys, argv, missing):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "bad-input",
                                   "detail": f"{missing} is required"}


BAD_INPUTS = [
    (["schur", "--shape", "2,1", "--vars", "3", "--at", "1,2"], "--at needs 3 values"),
    (["schur", "--shape", "2,1", "--vars", "3"],
     "choose one of --at-ones, --q-symbolic, --at"),
    (["paths", "--shape", "2,1", "--vars", "3"], "choose one of --count, --nests"),
    # each of these printed a wrong answer and exited 0
    (["paths", "--nests", "--shape", "2,1", "--vars", "2", "--limit", "-1"],
     "--limit must be non-negative"),
    (["paths", "--nests", "--shape", "2,1", "--vars", "-1"],
     "need n >= 0 variables, got -1"),
    (["schur", "--shape", "2,1", "--vars", "-1", "--at-ones"],
     "need n >= 0 variables, got -1"),
    (["schur", "--shape", "2,1", "--vars", "-1", "--q-symbolic", "qvec"],
     "need n >= 0 variables, got -1"),
    (["schur", "--shape", "2,1", "--vars", "-1", "--q-symbolic", "qvec-over-q"],
     "need n >= 0 variables, got -1"),
]


@pytest.mark.parametrize("argv, detail", BAD_INPUTS,
                         ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_prints_its_detail(capsys, argv, detail):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "bad-input", "detail": detail}


def test_sweep_path_counts_stdout_pinned():
    # the benchmark's sweep-path-counts-11-3 input at seed 11; the digest is
    # of the stdout the earlier loop printed, one walk per step count, and
    # the single walk over all step counts must print the same bytes
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "sweep",
                          "path-counts", "--m", "11", "--start", "8,6,2",
                          "--steps", "0..24"], capture_output=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == \
        "9b27d1d254df9d6b8fd9f36c15859dcaccf9adb557d09948810e6fe924c759d4"


def test_paths_count_stdout_pinned():
    # the benchmark's paths-count-17-5 input at seed 11; the digest is of
    # the stdout the frontier DP printed, and the LGV route must print the
    # same bytes
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "paths", "--count",
                          "--start", "17,13,11,6,1", "--end", "16,14,4,3,1",
                          "--steps", "26", "--m", "17"], capture_output=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == \
        "ef7df74b3a30e94fa0b1070980dc8d0c21fa3442d52dfc02bd080ed5103fd675"


@pytest.mark.parametrize("verb", [
    ["paths", "--count", "--end", "38,36,34,32,30,28,26,24,22,20,18,16,14,12,10,8,6,4,2,0",
     "--steps", "40"],
    ["sweep", "path-counts", "--steps", "0..40"],
], ids=["paths-count", "sweep-path-counts"])
def test_walker_verbs_over_the_cap_exit_3(verb):
    # 20 walkers on 40 sites: the DP's frontier ran out of memory under a
    # 1 GB address-space limit, with a traceback; both routes are over the
    # cap, so the verb refuses before allocating
    sites = ",".join(map(str, range(38, -1, -2)))
    argv = [*verb[:2], "--m", "39", "--start", sites, *verb[2:]]
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", *argv],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert out.returncode == 3
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == "cap-exceeded"


def test_laplace_needs_no_dense_matrix():
    # the (M+1)^2 complex one-walker matrix at M = 20000 took 6.4 GB and was
    # refused (exit 3); the image sum takes a few powers of one number
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "correlator",
                          "--kind", "laplace", "--m", "20000", "--j-site", "0",
                          "--l-site", "2", "--z", "0.2"],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_memory)
    assert out.returncode == 0, out.stderr
    # the line's r^2 / s, r = 2z / (1 + s), s = sqrt(1 - 4z^2): the other
    # images are r^19999 and smaller
    s = (1 - 4 * 0.2 ** 2) ** 0.5
    assert json.loads(out.stdout)["value"]["re"] == pytest.approx(
        (0.4 / (1 + s)) ** 2 / s, rel=1e-15)


@pytest.mark.parametrize("m, kind", [
    ("8191", ["one-particle", "--j-site", "0", "--l-site", "2"]),
    ("20000", ["one-particle", "--j-site", "0", "--l-site", "2"]),
    ("20000", ["multi-particle", "--n", "1", "--j", "0", "--l", "2"]),
], ids=lambda arg: arg if isinstance(arg, str) else arg[0])
def test_one_walker_propagator_needs_no_dense_matrix(m, kind):
    # --m 8191 was priced at exactly 2^30 bytes of a dense matrix and never
    # finished its eigh; --m 20000 was refused.  The propagator's column
    # takes O(M) memory and, at t = 0.7, a few hundred thousand steps
    out = subprocess.run([sys.executable, "-m", "spinpaths.cli", "correlator",
                          "--kind", kind[0], "--m", m, *kind[1:], "--t", "0.7"],
                         capture_output=True, text=True, timeout=10,
                         preexec_fn=_limit_memory)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    # the line's I_2(0.7) = 0.063790: walks around so long a ring add nothing
    assert doc["value"]["re"] == pytest.approx(0.063790, abs=1e-6)
    assert doc["route_residuals"]["det_vs_spectral"] < 1e-12


@pytest.mark.parametrize("m,n,digest", [
    (9, 4, "3840d8b2cabe25f0c61a498a7d7453fea92d9b5981f39bcf25cb6cf3fa59392e"),
    (5, 0, "ef5a86532265dd1f46b8e51cf01f70604d2a4c4b31aab184522e3731483910bf"),
    (5, 6, "09363bde03a4efeba658c01dd7650f3ddf1d806c084767e06f2dccb00bdd94e6"),
], ids=["9-4", "5-0", "5-6"])
def test_chain_spectrum_stdout_pinned(m, n, digest):
    # digests of the stdout printed when each momentum subset was its own
    # object; the rows of the momentum table must print the same bytes, for
    # the empty subset (N = 0) and the full ring (N = M + 1) too
    out = run_cli(["chain-spectrum", "--m", str(m), "--n", str(n)])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_deterministic_output():
    argv = ["verify", "cauchy-binet", "--n", "3", "--trials", "5",
            "--seed", "11"]
    a = run_cli(argv)
    b = run_cli(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_exit_code_bad_input():
    out = run_cli(["schur", "--shape", "1,2", "--vars", "2", "--at-ones"])
    assert out.returncode == 2
    assert json.loads(out.stderr.strip())["error"] == "bad-input"


@pytest.mark.parametrize("argv", [
    ["paths", "--count", "--m", "0", "--steps", "1", "--start", "0", "--end", "0"],
    ["paths", "--count", "--m", "-1", "--steps", "1", "--start", "", "--end", ""],
    ["sweep", "path-counts", "--m", "0", "--start", "0", "--steps", "0..2"],
    ["sweep", "path-counts", "--m", "-1", "--start", "", "--steps", "1"],
    ["sweep", "path-counts", "--m", "0", "--start", "0", "--steps", "2..1"],
], ids=" ".join)
def test_walker_verbs_refuse_rings_under_two_sites(argv):
    # every other verb refuses m < 1 through ChainGeometry
    out = run_cli(argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert json.loads(out.stderr.strip())["error"] == "bad-input"


def test_exit_code_cap():
    out = run_cli(["chain-spectrum", "--m", "40", "--n", "20"])
    # enumerating C(41,20) momentum sets is capped, not attempted
    assert out.returncode == 3
    assert json.loads(out.stderr.strip())["error"] == "cap-exceeded"


def test_exit_code_cap_sector():
    out = run_cli(["correlator", "--kind", "persistence", "--m", "40",
                   "--n", "20", "--string-n", "0", "--t", "0.1"])
    assert out.returncode == 3
    assert json.loads(out.stderr.strip())["error"] == "cap-exceeded"


def test_exit_code_failed_check():
    # at t = 300 the three-walker minors can reach exp(900.0), past the
    # float maximum
    out = run_cli(["correlator", "--kind", "multi-particle", "--m", "9",
                   "--n", "3", "--j", "5,3,1", "--l", "6,3,0", "--t", "300"])
    assert out.returncode == 1
    assert out.stdout == ""
    doc = json.loads(out.stderr.strip())
    assert doc["error"] == "float-overflow"
    assert doc["detail"]


@pytest.mark.parametrize("argv", [
    ["correlator", "--kind", "persistence"],
    ["sweep", "persistence"],
], ids=" ".join)
def test_persistence_past_the_float_range_is_float_overflow(argv):
    # at t = -800 the largest gap, 2.93, gives exp(2341.6); the sweep printed
    # inf with exit 0, and the correlator's route check raised OverflowError
    out = run_cli(argv + ["--m", "4", "--n", "2", "--string-n", "1", "--t=-800"])
    assert out.returncode == 1
    assert out.stdout == ""
    doc = json.loads(out.stderr.strip())
    assert doc["error"] == "float-overflow"
    assert "2341.6" in doc["detail"]


def test_config_file_equivalent(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "schur",
        "options": {"shape": "2,1", "vars": 3, "at-ones": True},
    }))
    direct = run_cli(["schur", "--shape", "2,1", "--vars", "3", "--at-ones"])
    via_cfg = run_cli(["--config", str(cfg)])
    assert via_cfg.returncode == 0
    assert via_cfg.stdout == direct.stdout


# each ended in a traceback and exit 1
@pytest.mark.parametrize("text, detail", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    ('{"options": {"shape": "2,1"}}', 'is not an object with a "command"'),
], ids=["missing", "not-json", "no-command"])
def test_config_file_errors_are_bad_input(tmp_path, text, detail):
    cfg = tmp_path / "job.json"
    if text is not None:
        cfg.write_text(text)
    assert detail in one_bad_input_line(run_cli(["--config", str(cfg)]))


def test_main_callable_in_process(capsys):
    code = main(["schur", "--shape", "1", "--vars", "2", "--at-ones"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == "2"


# argument lists that the CLI tests run, at least one per verb
PINNED_ARGV = [
    ["schur", "--shape", "2,1", "--vars", "3", "--at-ones"],
    ["schur", "--shape", "1", "--vars", "2", "--at", "1,2"],
    ["schur", "--shape", "1", "--vars", "2", "--q-symbolic", "qvec"],
    ["paths", "--count", "--start", "17,13,11,6,1", "--end", "16,14,4,3,1",
     "--steps", "26", "--m", "17"],
    ["paths", "--nests", "--shape", "1", "--vars", "2"],
    *(["chain-spectrum", "--m", m, "--n", n] for m, n in [("9", "4"), ("5", "0"), ("5", "6")]),
    *(["correlator", "--kind", kind, *extra] for kind, (_, extra) in CORRELATOR_DIGESTS.items()),
    ONE_PARTICLE,
    *(["verify", identity, *extra] for identity, extra in VERIFY_ARGS),
    ["sweep", "path-counts", "--m", "11", "--start", "8,6,2", "--steps", "0..24"],
    ["sweep", "persistence", "--m", "4", "--n", "2", "--string-n", "1", "--t=-800"],
    ["sweep", "macmahon", "--box-n", "1..2", "--box-k", "0..2"],
]


@pytest.mark.parametrize("argv", PINNED_ARGV, ids=" ".join)
def test_verb_parser_parses_as_the_full_parser(argv):
    # `main` builds the subparser of the named verb alone
    parser = build_parser(argv[0])
    (verbs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(verbs.choices) == [argv[0]]
    assert parser.parse_args(argv) == build_parser().parse_args(argv)


def test_pinned_argv_cover_every_verb():
    assert {argv[0] for argv in PINNED_ARGV} == set(VERBS)


# (argv, exit code, stdout digest, stderr digest) of the runs that print
# the verb list or a verb's usage, as the parser of all six verbs printed
# them at 80 columns; the --config job names an unknown identity
EMPTY = hashlib.sha256(b"").hexdigest()
BAD_IDENTITY = "9995a929650f9e0cd95ea3164fa30a2e30033ccf7a1a2a82d9a097c3ed7bd2fa"
PARSER_EXITS = {
    "help": (["--help"], 0,
             "2d95c0f738be70fcd12e6b8359e8eace23b22e67daa2fa21461e2e6ce4f034e6", EMPTY),
    "unknown-verb": (["bogus"], 2, EMPTY,
                     "f67eb2a5972b98409a27c6df4dfd110d488f3f50e0e3bb711a94e06e347500da"),
    "unknown-option": (["correlator", "--kind", "multi-particle", "--m", "4",
                        "--bogus", "1"], 2, EMPTY,
                       "0f81ab74860f0d616b355899cd7c5af9f529ee2d79da210a5685c3699b6f5722"),
    "unknown-identity": (["verify", "nothing"], 2, EMPTY, BAD_IDENTITY),
    "config": (["--config"], 2, EMPTY, BAD_IDENTITY),
    "no-verb": ([], 2, EMPTY,
                "034b22cffa841ed30aeee73e01ef077bcc4fc46c3a11a9c53ecdac9004e4779e"),
}


@pytest.mark.parametrize("case", PARSER_EXITS)
def test_parser_exits_print_what_the_full_parser_printed(case, tmp_path, monkeypatch, capsys):
    argv, code, out_digest, err_digest = PARSER_EXITS[case]
    if argv == ["--config"]:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"command": "verify", "options": {"identity": "nothing"}}))
        argv = ["--config", str(cfg)]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    out = capsys.readouterr()
    assert hashlib.sha256(out.out.encode()).hexdigest() == out_digest, out.out
    assert hashlib.sha256(out.err.encode()).hexdigest() == err_digest, out.err
