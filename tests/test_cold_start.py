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
    "chain": ["ChainGeometry", "bethe_ground_state", "bethe_vector",
              "build_sector_hamiltonian", "hopping_matrix", "momentum_table",
              "sector_basis"],
    "correlators": ["equality_of_sums_report", "laplace_generating_f",
                    "multi_particle_g", "one_particle_g", "persistence_exact",
                    "persistence_spectral", "transition_amplitude",
                    "trig_path_count"],
    "partitions": ["boxed_partitions", "lambda_to_mu", "mu_to_lambda",
                   "staircase"],
    "paths": ["PathNest", "conjugate_nest_partition_function",
              "count_random_turns_paths", "enumerate_nests",
              "nest_partition_function"],
    "qpoly": ["QPolynomial", "macmahon_count", "macmahon_z", "q_binomial"],
    "schur": ["projection_average_q", "schur_count_at_one",
              "schur_determinant", "schur_evaluate", "vandermonde"],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# Classes that now live in `core`, at the module paths they had before.
MOVED = [
    ("chain", "ChainGeometry"),
    ("chain", "SectorCapError"),
    ("correlators", "RouteMismatchError"),
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
    # walker counts where LGV is the cheaper route, the benchmark's sizes
    ["paths", "--count", "--start", "17,13,11,6,1", "--end", "16,14,4,3,1",
     "--steps", "26", "--m", "17"],
    ["sweep", "path-counts", "--m", "11", "--start", "8,6,2", "--steps", "0..24"],
    # both sides of the identity in exact integers, the benchmark's job
    ["verify", "equality-of-sums", "--m", "9", "--n", "3", "--string-n", "1",
     "--steps", "8"],
    # both sides of the boxed Cauchy-Binet sum at integer points, the
    # benchmark's job
    ["verify", "cauchy-binet", "--n", "4", "--length", "6", "--string-n", "1",
     "--trials", "10", "--seed", "3"],
    # alternants as integer minors against the tableau monomials
    ["verify", "schur-dual", "--n", "3", "--length", "3", "--trials", "5"],
    # the ring resolvent as an image sum
    ["correlator", "--kind", "laplace", "--m", "5", "--j-site", "0", "--l-site", "2",
     "--z", "0.2"],
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


def test_exact_trig_count_loads_no_numpy():
    # the benchmark driver's `call trig_path_count` path, at its sizes
    body = ("from spinpaths.chain import ChainGeometry\n"
            "from spinpaths import correlators\n"
            "code = correlators.trig_path_count(ChainGeometry(11, 3), (8, 4, 1),"
            " (9, 5, 1), 24)")
    assert probe(body) == {"code": 14736344506834944, "numpy": False}


def test_amplitude_spectral_route_loads_no_numpy():
    # the Jacobi-Trudi rows and the QR of `_cauchy_binet_qr` in plain floats
    body = ("from spinpaths.chain import ChainGeometry\n"
            "from spinpaths import correlators\n"
            "value = correlators._transition_spectral(ChainGeometry(10, 4),"
            " (0.7, 1.1, 0.4, 1.6), (1.2, 0.5, 0.9, 0.3), 2, 0.6)\n"
            "code = value == value and sys.modules.get('spinpaths.kernels') is None")
    assert probe(body) == {"code": True, "numpy": False}


# refusals that the arguments alone decide, with the exit code and the
# stderr line that each printed when numpy loaded before the refusal
REFUSALS = [
    (["correlator", "--kind", "multi-particle", "--m", "9", "--n", "3",
      "--j", "5,3,1", "--l", "6,3,0", "--t", "300"], 1,
     '{"detail": "the 3-walker minors at t=(300+0j) can reach exp(900.0), '
     'past the float maximum exp(709.78)", "error": "float-overflow"}'),
    (["correlator", "--kind", "persistence", "--m", "40", "--n", "20"], 3,
     '{"detail": "269128937220 sector states exceed cap 50000", '
     '"error": "cap-exceeded"}'),
    (["correlator", "--kind", "laplace", "--m", "4", "--z", "0.6"], 2,
     '{"detail": "need |z| < 1/2 (spectral radius of the hop matrix is 2)", '
     '"error": "bad-input"}'),
    (["correlator", "--kind", "multi-particle", "--m", "4", "--n", "2",
      "--j", "5,1", "--l", "3,1"], 2,
     '{"detail": "endpoints (5, 1) outside 0..4", "error": "bad-input"}'),
]


@pytest.mark.parametrize("argv, code, line", REFUSALS,
                         ids=["large-t", "persistence-cap", "laplace-z", "j-range"])
def test_refusals_load_no_numpy(argv, code, line):
    body = ("import contextlib, io\nfrom spinpaths.cli import main\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            f"    exit_code = main({argv!r})\n"
            "code = [exit_code, out.getvalue(), err.getvalue()]")
    assert probe(body) == {"code": [code, "", line + "\n"], "numpy": False}


@pytest.mark.parametrize("m, t, line", [
    (4, 1500.0, "exp(1213.5)"),
    # the twisted spectrum of an even walker count, 0 included, reaches
    # w = -2 on 3 sites, where the untwisted one stops at -1
    (2, -800.0, "exp(800.0)"),
])
def test_propagator_without_walkers_is_bounded_before_numpy(m, t, line):
    # with no walkers the bound read 0 at any t, yet every entry of the
    # matrix can reach exp(max Re(t w / 2))
    body = ("from spinpaths.chain import ChainGeometry\n"
            "from spinpaths import correlators\n"
            "try:\n"
            f"    correlators.one_particle_diagonals(ChainGeometry({m}, 1), {t!r}, 0)\n"
            "except correlators.FloatOverflowError as exc:\n"
            "    code = str(exc)")
    assert probe(body) == {
        "code": f"the 0-walker minors at t={t} can reach {line}, "
                "past the float maximum exp(709.78)",
        "numpy": False}


def test_probe_sees_a_numeric_verb_load_numpy():
    argv = ["chain-spectrum", "--m", "3", "--n", "1"]
    assert probe(_main(argv)) == {"code": 0, "numpy": True}


def test_walker_count_takes_the_dp_on_a_small_ring_at_long_times():
    # LGV would take about 250k multiplications of 24-word counts here,
    # against 30k DP moves, so the DP runs and loads numpy
    argv = ["paths", "--count", "--start", "3,0", "--end", "4,1", "--steps", "500",
            "--m", "5"]
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
