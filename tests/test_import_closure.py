"""Each CLI verb imports only the modules it runs.

Every case runs one verb in a fresh interpreter, because a module, once
imported by any test, stays in this process's `sys.modules`.  Only module
sets are checked, never timings.
"""

import json
import subprocess
import sys

import pytest

# standard-library modules that cost a start-up and that no integer verb needs
HEAVY_STDLIB = {"dataclasses", "fractions", "decimal"}

MULTI_PARTICLE = ["correlator", "--kind", "multi-particle", "--m", "5", "--n", "2",
                  "--j", "3,1", "--l", "4,2", "--t", "0.5"]
SWEEP_PERSISTENCE = ["sweep", "persistence", "--m", "4", "--n", "2",
                     "--string-n", "0..1", "--t", "0:0.5:1"]
PERSISTENCE = ["correlator", "--kind", "persistence", "--m", "4", "--n", "2",
               "--string-n", "1", "--t", "0.5"]


def loaded_modules(argv: list[str]) -> set[str]:
    """The modules in `sys.modules` after `spinpaths.cli.main(argv)` returns 0."""
    script = ("import json, sys\n"
              "from spinpaths.cli import main\n"
              f"code = main({argv!r})\n"
              "sys.stderr.write('\\n' + json.dumps([code, sorted(sys.modules)]) + '\\n')\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, modules = json.loads(out.stderr.strip().splitlines()[-1])
    assert code == 0, out.stderr
    return set(modules)


def test_schur_at_ones_loads_only_what_it_runs():
    modules = loaded_modules(["schur", "--shape", "2,1", "--vars", "3", "--at-ones"])
    package = {m for m in modules if m.startswith("spinpaths.")}
    # `checks` is the verify verb's alone, for its identities too
    assert package == {"spinpaths.cli", "spinpaths.core",
                       "spinpaths.partitions", "spinpaths.schur"}
    assert not modules & HEAVY_STDLIB


@pytest.mark.parametrize("argv", [
    ["verify", "macmahon", "--n", "3", "--k", "2"],
    ["schur", "--shape", "3,1", "--vars", "3", "--q-symbolic", "qvec"],
], ids=" ".join)
def test_integer_verbs_load_no_dataclasses_or_fractions(argv):
    assert not loaded_modules(argv) & {"dataclasses", "fractions"}


@pytest.mark.parametrize("argv", [
    MULTI_PARTICLE,
    SWEEP_PERSISTENCE,
], ids=["correlator-multi-particle", "sweep-persistence"])
def test_spectral_verbs_load_no_paths_or_qpoly(argv):
    modules = loaded_modules(argv)
    assert "spinpaths.correlators" in modules
    assert not modules & {"spinpaths.paths", "spinpaths.qpoly"}


@pytest.mark.parametrize("argv", [
    ["paths", "--count", "--start", "2,0", "--end", "3,1", "--steps", "2", "--m", "4"],
    ["sweep", "path-counts", "--m", "4", "--start", "2,0", "--steps", "0..3"],
], ids=["paths-count", "sweep-path-counts"])
def test_walker_verbs_load_no_qpoly(argv):
    # walker counts need `core` and `partitions` alone: no Schur code either
    modules = loaded_modules(argv)
    assert "spinpaths.paths" in modules
    assert not modules & {"spinpaths.qpoly", "spinpaths.schur"}


@pytest.mark.parametrize("argv", [
    MULTI_PARTICLE,
    PERSISTENCE,
    SWEEP_PERSISTENCE,
], ids=["correlator-multi-particle", "correlator-persistence", "sweep-persistence"])
def test_numeric_verbs_load_no_dataclasses(argv):
    # the records of `chain` and `correlators` are `core.FrozenRecord`s
    modules = loaded_modules(argv)
    assert "spinpaths.correlators" in modules
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv,absent", [
    (MULTI_PARTICLE, {"spinpaths.schur", "spinpaths.checks", "spinpaths.sector"}),
    (SWEEP_PERSISTENCE, {"spinpaths.checks", "spinpaths.sector"}),
], ids=["correlator-multi-particle", "sweep-persistence"])
def test_spectral_verbs_load_no_oracle_modules(argv, absent):
    # the determinant route takes no Schur values, and only the
    # diagonalisation oracles take the translation orbits of `sector`
    modules = loaded_modules(argv)
    assert "spinpaths.correlators" in modules
    assert not modules & absent


def test_persistence_oracle_loads_sector():
    modules = loaded_modules(PERSISTENCE)
    assert {"spinpaths.sector", "spinpaths.schur"} <= modules
    assert "spinpaths.checks" not in modules


def test_equality_of_sums_loads_no_float_modules():
    # the trig side is a sum in Z/P and the walker side a weighted LGV
    # determinant: neither takes Schur values, the subset kernels or the
    # sector DP
    modules = loaded_modules(["verify", "equality-of-sums", "--m", "9", "--n", "3",
                              "--string-n", "1", "--steps", "8"])
    assert {"spinpaths.correlators", "spinpaths.paths"} <= modules
    assert not modules & {"spinpaths.schur", "spinpaths.kernels", "spinpaths.sector",
                          "numpy"}


def test_cauchy_binet_loads_no_float_modules():
    # the minor recursion and a Bareiss determinant on integers: no Schur
    # values, subset kernels or spectral code
    modules = loaded_modules(["verify", "cauchy-binet", "--n", "4", "--length", "6",
                              "--string-n", "1", "--trials", "10", "--seed", "3"])
    assert {"spinpaths.checks", "spinpaths.partitions"} <= modules
    assert not modules & {"numpy", "spinpaths.correlators", "spinpaths.chain",
                          "spinpaths.kernels", "spinpaths.schur", "spinpaths.sector"}
    assert not modules & HEAVY_STDLIB
