"""The import boundary: the package and the integer verbs load no numpy.

Each boundary case runs in a fresh interpreter, because numpy, once
imported by any test, stays in this process's `sys.modules`.  Only module
sets are checked, never timings.
"""

import importlib
import importlib.util
import json
import subprocess
import sys

import pytest

import spinpaths

# The names `spinpaths` re-exports, by the module that defined each one
# when the package imported them all eagerly.
EXPORTS = {
    "chain": ["BetheMomenta", "ChainGeometry", "bethe_ground_state",
              "bethe_vector", "build_sector_hamiltonian", "enumerate_bethe_sets",
              "hopping_matrix", "hopping_power", "norm_squared", "sector_basis"],
    "correlators": ["equality_of_sums_report", "laplace_generating_f",
                    "multi_particle_g", "one_particle_g", "persistence_exact",
                    "persistence_spectral", "transition_amplitude",
                    "trig_path_count"],
    "partitions": ["boxed_partitions", "lambda_to_mu", "mu_to_lambda",
                   "staircase"],
    "paths": ["PathNest", "conjugate_nest_partition_function",
              "count_random_turns_paths", "enumerate_nests",
              "nest_partition_function", "watermelon_count"],
    "qpoly": ["QPolynomial", "macmahon_count", "macmahon_z", "q_binomial"],
    "schur": ["cauchy_binet", "projection_average_q", "schur_count_at_one",
              "schur_determinant", "schur_evaluate", "vandermonde"],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# Classes that now live in `core`, at the module paths they had before.
MOVED = [
    ("chain", "ChainGeometry"),
    ("chain", "SectorCapError"),
    ("correlators", "RouteMismatchError"),
    ("correlators", "IntegerRoundingError"),
    ("correlators", "FloatOverflowError"),
    ("schur", "CoincidentArgumentsError"),
    ("schur", "EnumerationCapError"),
    ("paths", "EnumerationCapError"),
]

NUMPY_FREE_VERBS = [
    ["schur", "--shape", "3,1", "--vars", "3", "--at-ones"],
    ["schur", "--shape", "3,1", "--vars", "3", "--q-symbolic", "qvec"],
    ["schur", "--shape", "3,1", "--vars", "3", "--q-symbolic", "qvec-over-q"],
    ["paths", "--nests", "--shape", "2,1", "--vars", "3"],
    ["verify", "macmahon", "--n", "2", "--k", "2"],
    ["verify", "q-chain", "--n", "2", "--k", "2"],
    ["sweep", "macmahon", "--box-n", "1..2", "--box-k", "0..2"],
]


def probe(body: str) -> dict:
    """Run `body` in a fresh interpreter; report whether numpy got loaded.

    `body` may set `code`; it is reported beside the module check on the
    last stderr line, after whatever the body itself wrote.
    """
    script = (f"import json, sys\ncode = None\n{body}\n"
              "sys.stderr.write('\\n' + json.dumps({'code': code, "
              "'numpy': 'numpy' in sys.modules}) + '\\n')\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("body", [
    "import spinpaths",
    "import spinpaths.cli",
    "import spinpaths\n"
    "spinpaths.ChainGeometry(4, 2), spinpaths.macmahon_count(2, 2)\n"
    "spinpaths.schur_count_at_one((2, 1), 3), spinpaths.enumerate_nests",
])
def test_imports_load_no_numpy(body):
    assert probe(body) == {"code": None, "numpy": False}


def _main(argv) -> str:
    return f"from spinpaths.cli import main\ncode = main({argv!r})"


@pytest.mark.parametrize("argv", NUMPY_FREE_VERBS, ids=" ".join)
def test_integer_verbs_load_no_numpy(argv):
    assert probe(_main(argv)) == {"code": 0, "numpy": False}


def test_bad_input_loads_no_numpy():
    argv = ["schur", "--shape", "1,2", "--vars", "2", "--at-ones"]
    assert probe(_main(argv)) == {"code": 2, "numpy": False}


def test_probe_sees_a_numeric_verb_load_numpy():
    argv = ["chain-spectrum", "--m", "3", "--n", "1"]
    assert probe(_main(argv)) == {"code": 0, "numpy": True}


@pytest.mark.parametrize("module, name", HOMES)
def test_reexport_is_the_defining_object(module, name):
    home = importlib.import_module(f"spinpaths.{module}")
    assert getattr(spinpaths, name) is getattr(home, name)


def test_dir_lists_every_reexport_before_first_use():
    # a fresh copy of the package module, so no earlier lookup has cached a name
    spec = importlib.util.find_spec("spinpaths")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert {name for _, name in HOMES} <= set(dir(fresh))
    assert fresh.macmahon_count is spinpaths.macmahon_count


def test_star_import_binds_every_reexport():
    namespace = {}
    exec("from spinpaths import *", namespace)
    for module, name in HOMES:
        assert namespace[name] is getattr(spinpaths, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spinpaths.no_such_name
    assert not hasattr(spinpaths, "no_such_name")


@pytest.mark.parametrize("module, name", MOVED)
def test_moved_class_keeps_its_old_path(module, name):
    old = importlib.import_module(f"spinpaths.{module}")
    core = importlib.import_module("spinpaths.core")
    assert getattr(old, name) is getattr(core, name)
