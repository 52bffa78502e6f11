"""`verify cauchy-binet` in exact integers: each side is the boxed Schur
sum times V(x) V(y), a wrong route fails the check, and the price is
taken before any point is drawn."""

import json
import math
import random
from argparse import Namespace

import pytest

from spinpaths import checks, core
from spinpaths.cli import main
from spinpaths.core import EnumerationCapError
from cauchy_binet_float import cauchy_binet_enum

# the benchmark's job
ARGV = ["verify", "cauchy-binet", "--n", "4", "--length", "6", "--string-n", "1",
        "--trials", "10", "--seed", "3"]

_SUM, _CLOSED = checks._schur_pair_sum, checks._schur_pair_closed
# plausible slips in one route each
WRONG = {
    "sum-without-string-shift": (
        "_schur_pair_sum", lambda x, y, width, n: _SUM(x, y, width, 0)),
    "closed-width-one-short": (
        "_schur_pair_closed", lambda x, y, width, n: _CLOSED(x, y, width - 1, n)),
}


@pytest.mark.parametrize("name, route", WRONG.values(), ids=list(WRONG))
def test_a_wrong_route_fails_every_trial(monkeypatch, capsys, name, route):
    assert main(ARGV) == 0
    capsys.readouterr()
    monkeypatch.setattr(checks, name, route)
    assert main(ARGV) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert len(doc["checks"]) == 10
    assert not any(c["pass"] for c in doc["checks"])
    assert {c["residual"] for c in doc["checks"]} == {1.0}


@pytest.mark.parametrize("nvar, length, n", [(1, 2, 1), (2, 4, 0), (3, 4, 1),
                                             (3, 3, 3), (4, 6, 1)])
def test_each_side_is_the_schur_sum_times_the_vandermondes(nvar, length, n):
    rng = random.Random(nvar * 100 + length * 10 + n)
    width = length - n + nvar
    for trial in range(4):
        x, y = rng.sample(range(-6, 7), nvar), rng.sample(range(-6, 7), nvar)
        if trial == 0:  # x_0 y_0 = 1, the removable singularity
            x[x.index(1) if 1 in x else 0], x[0] = x[0], 1
            y[y.index(1) if 1 in y else 0], y[0] = y[0], 1
        lhs, rhs = _SUM(x, y, width, n), _CLOSED(x, y, width, n)
        vv = math.prod(b - a for v in (x, y) for i, b in enumerate(v) for a in v[:i])
        assert lhs == rhs
        assert lhs % vv == 0
        schur_sum = cauchy_binet_enum([complex(v) for v in x], [complex(v) for v in y],
                                      length, n)
        assert abs(lhs // vv - schur_sum) <= 1e-12 * max(1.0, abs(schur_sum))


def test_the_benchmark_job_reports_finite_equal_sums(capsys):
    assert main(ARGV) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["trial"] for c in doc["checks"]] == list(range(10))
    for c in doc["checks"]:
        assert c["lhs"] == c["rhs"]
        assert c["lhs"]["im"] == 0.0 and math.isfinite(c["lhs"]["re"])
        assert c["residual"] == 0.0


def test_sums_past_the_float_range_are_clamped():
    assert checks._capped_json(-10 ** 400) == {"re": -1.7976931348623157e308, "im": 0.0}
    assert checks._capped_json(10 ** 400) == {"re": 1.7976931348623157e308, "im": 0.0}
    assert checks._capped_json(-3) == {"re": -3.0, "im": 0.0}


def test_price_is_the_minor_products_of_every_trial(monkeypatch):
    # W = 6 - 1 + 4 = 9 columns: (1 C(9,1) + 2 C(9,2) + 3 C(9,3) + 4 C(9,4)) 10
    args = Namespace(n=4, length=6, string_n=1, trials=10, seed=3)
    monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 8370)
    assert checks.run("cauchy-binet", args)["pass"] is True
    monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 8369)
    monkeypatch.setattr(checks, "_schur_pair_sum", None)  # never reached
    with pytest.raises(EnumerationCapError, match="^8370 minor products exceed cap 8369$"):
        checks.run("cauchy-binet", args)


@pytest.mark.parametrize("extra", [["--string-n", "-1"], ["--length", "1", "--string-n", "2"]],
                         ids=" ".join)
def test_a_shift_outside_the_box_is_bad_input(capsys, extra):
    assert main(["verify", "cauchy-binet", *extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "bad-input",
                                   "detail": "need 0 <= string-n <= length"}
