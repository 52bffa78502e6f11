"""The refusal policy: every size cap lives in `core`, and every refusal
goes through `core.admit`, which reads the cap there at call time."""

import ast
from argparse import Namespace
from pathlib import Path

import pytest

import spinpaths
from spinpaths import checks, cli, core
from spinpaths.chain import ChainGeometry, build_sector_hamiltonian
from spinpaths.core import EnumerationCapError, SectorCapError
from spinpaths.correlators import laplace_generating_f, trig_path_count
from spinpaths.paths import enumerate_nests
from spinpaths.schur import schur_monomials

CAPS = {"DEFAULT_ENUM_CAP", "DEFAULT_SECTOR_CAP", "DENSE_BYTES_CAP", "Q_CHAIN_CAP",
        "FLOAT_GRID_CAP", "MACMAHON_WORD_CAP"}

# per cap, a route and the exact price it takes, in the cap's unit; the
# FLOAT_GRID_CAP boundary is in test_cli.py::test_integer_range_cap_counts_points
BOUNDARIES = {
    # 20 tableaux of shape (2, 1) in 4 letters, priced once in `schur.ssyt`
    "tableaux-monomials": ("DEFAULT_ENUM_CAP", 20, EnumerationCapError,
                           lambda: schur_monomials((2, 1), 4)),
    "tableaux-nests": ("DEFAULT_ENUM_CAP", 20, EnumerationCapError,
                       lambda: list(enumerate_nests((2, 1), 4))),
    # C(6, 3) sector states
    "sector": ("DEFAULT_SECTOR_CAP", 20, SectorCapError,
               lambda: trig_path_count(ChainGeometry(5, 3), (4, 2, 0), (4, 2, 0), 2)),
    # a 4 x 4 real sector matrix, and a 4 x 4 complex one-walker matrix
    "dense-sector": ("DENSE_BYTES_CAP", 128, SectorCapError,
                     lambda: build_sector_hamiltonian(ChainGeometry(3, 1))),
    "dense-one-walker": ("DENSE_BYTES_CAP", 256, SectorCapError,
                         lambda: laplace_generating_f(ChainGeometry(3, 1), 0, 1, 0.1)),
    # (5 + 8 + 18) squares of 14 coefficients, and 1^2 (1 + 4 + 16) + 2^2 (16
    # + 64 + 196) MacMahon products
    "q-chain": ("Q_CHAIN_CAP", 6076, EnumerationCapError,
                lambda: checks.run("q-chain", Namespace(n=2, k=2))),
    "macmahon": ("Q_CHAIN_CAP", 1125, EnumerationCapError,
                 lambda: checks.run("macmahon", Namespace(n=2, k=2))),
    # n = 4, k = 8: B = 16 log2(16) = 64 bits, (16 + 1) 64 / 64 = 17.0 word steps
    "macmahon-words": ("MACMAHON_WORD_CAP", 17, EnumerationCapError,
                       lambda: cli.cmd_sweep(Namespace(subject="macmahon", box_n="4",
                                                       box_k="8"))),
}


@pytest.mark.parametrize("cap, cost, error, route", BOUNDARIES.values(), ids=list(BOUNDARIES))
def test_cap_admits_its_own_value_and_refuses_one_more(monkeypatch, cap, cost, error,
                                                        route):
    monkeypatch.setattr(core, cap, cost)
    route()
    monkeypatch.setattr(core, cap, cost - 1)
    with pytest.raises(error, match=rf"^{cost:g} .+ exceed cap {cost - 1:g}$"):
        route()


def _assigned_names(tree: ast.AST) -> set[str]:
    targets = [t for node in ast.walk(tree) if isinstance(node, ast.Assign)
               for t in node.targets]
    targets += [node.target for node in ast.walk(tree)
                if isinstance(node, (ast.AnnAssign, ast.AugAssign))]
    return {getattr(n, "id", getattr(n, "attr", None))
            for t in targets for n in ast.walk(t)} - {None}


def _raised_names(tree: ast.AST) -> set[str]:
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    return {getattr(exc, "id", getattr(exc, "attr", None)) for exc in raised}


def test_only_core_defines_a_cap_or_raises_a_cap_error():
    offences, core_caps = [], set()
    for path in sorted(Path(spinpaths.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        caps = {name for name in _assigned_names(tree) if name.endswith("_CAP")}
        if path.name == "core.py":
            core_caps = caps
            continue
        offences += [f"{path.name} assigns {name}" for name in sorted(caps)]
        offences += [f"{path.name} raises {name}" for name in sorted(
            _raised_names(tree) & {"EnumerationCapError", "SectorCapError"})]
    assert offences == []
    assert core_caps == CAPS
