import hashlib
import json
import subprocess
import sys

import pytest

from spinpaths.cli import main
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


def test_schur_q_symbolic():
    out = run_cli(["schur", "--shape", "1", "--vars", "2",
                   "--q-symbolic", "qvec"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["polynomial"] == {"1": "1", "2": "1"}


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


@pytest.mark.parametrize("identity,extra", [
    ("equality-of-sums", ["--m", "4", "--n", "2", "--steps", "4"]),
    ("cauchy-binet", ["--n", "2", "--length", "4", "--trials", "5"]),
    ("persistence", ["--m", "4", "--n", "2", "--string-n", "1"]),
    ("macmahon", ["--n", "3", "--k", "3"]),
    ("schur-dual", ["--n", "3", "--length", "3", "--trials", "5"]),
    ("q-chain", ["--n", "2", "--k", "3"]),
])
def test_verify_identities_pass(identity, extra):
    out = run_cli(["verify", identity, *extra])
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["pass"] is True


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


def test_deterministic_output():
    argv = ["verify", "cauchy-binet", "--n", "3", "--trials", "5",
            "--seed", "11"]
    a = run_cli(argv)
    b = run_cli(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_threads_flag_does_not_change_output():
    base = run_cli(["chain-spectrum", "--m", "4", "--n", "2"])
    alt = run_cli(["--threads", "4", "chain-spectrum", "--m", "4", "--n", "2"])
    assert base.stdout == alt.stdout


def test_exit_code_bad_input():
    out = run_cli(["schur", "--shape", "1,2", "--vars", "2", "--at-ones"])
    assert out.returncode == 2
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
    # at t = 300 the three-walker propagator reaches exp(785.4), past the
    # float maximum
    out = run_cli(["correlator", "--kind", "multi-particle", "--m", "9",
                   "--n", "3", "--j", "5,3,1", "--l", "6,3,0", "--t", "300"])
    assert out.returncode == 1
    assert out.stdout == ""
    doc = json.loads(out.stderr.strip())
    assert doc["error"] == "float-overflow"
    assert doc["detail"]


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


def test_main_callable_in_process(capsys):
    code = main(["schur", "--shape", "1", "--vars", "2", "--at-ones"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == "2"
