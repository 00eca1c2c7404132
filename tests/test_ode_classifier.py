import json
import math
import re

import numpy as np
import pytest

from qig import cli
from qig.errors import DomainError, NumericError
from qig.metric_family import (big_f, bkm, bures_helstrom, custom, family_a, family_b,
                               rld, wigner_yanase)
from qig.ode_classifier import (Exclusion, classify, singularities,
                                solve_branch)

GRID = np.linspace(0.05, 0.95, 50)


def test_classify_constants():
    assert abs(classify(bkm(), GRID).constant) < 1e-9
    assert abs(classify(bures_helstrom(), GRID).constant - 1.0) < 1e-8
    assert abs(classify(wigner_yanase(), GRID).constant - 0.25) < 1e-8
    assert classify(family_a(3.0), GRID).branch == "family_a_pos"


def test_classify_rld_not_constant():
    cls = classify(rld(), GRID)
    assert not cls.is_constant
    assert cls.branch == "none"
    assert cls.range_width > 0.1


def test_solve_branch_roundtrip():
    for a_const in [0.0, 0.25, 1.0, 2.0, 4.9]:
        spec = solve_branch(a_const)
        cls = classify(spec, GRID)
        assert cls.is_constant
        assert abs(cls.constant - a_const) < 1e-6
        assert max(abs(v - a_const) for v in cls.values) < 1e-8


def test_solve_branch_zero_is_bkm():
    assert solve_branch(0.0).name == "bkm"


def test_solve_branch_negative_is_exclusion():
    excl = solve_branch(-2.0)
    assert isinstance(excl, Exclusion)
    assert excl.b_const == 0.5
    assert len(excl.poles.t_values) > 0
    data = excl.to_json()
    assert data["excluded"] is True and data["B"] == 0.5


@pytest.mark.parametrize("b_const,c", [(1.0, 0.0), (0.25, 0.3), (4.0, -0.2)])
def test_family_b_solves_f_equals_minus_4b(b_const, c):
    # Below its first pole F = -4B = A, with the analytic g' and with
    # finite differences of f alone.
    grid = np.linspace(0.05, 0.9, 50) * singularities(b_const, c, 1).r_values[0]
    spec = family_b(b_const, c)
    cls = classify(spec, grid)
    assert cls.branch == "family_b_neg" and abs(cls.constant + 4.0 * b_const) < 1e-12
    assert np.max(np.abs(big_f(custom(spec.f_raw, "fd"), grid) + 4.0 * b_const)) < 1e-6


def test_singularities_pinned():
    # B = 1, c = 0: t_k = exp(-(pi/2 + k pi)), frozen leading values.
    poles = singularities(1.0, 0.0, max_count=3)
    assert abs(poles.t_values[0] - 0.20787957635076193) < 1e-12
    assert abs(poles.t_values[1] - 0.008983291021129429) < 1e-12
    for t, r in zip(poles.t_values, poles.r_values):
        assert abs(r - (1.0 - t) / (1.0 + t)) < 1e-15
        assert 0.0 < t < 1.0 < 1.0 + r  # poles inside the state space


def test_singularities_offset_shifts_first_index():
    # With c = 10 the small-k candidates exceed t = 1 and are skipped;
    # the first admitted pole corresponds to k = 3.
    poles = singularities(1.0, 10.0, max_count=2)
    expected = math.exp(10.0 - (math.pi / 2.0 + 3.0 * math.pi))
    assert abs(poles.t_values[0] - expected) < 1e-12
    assert all(t <= 1.0 for t in poles.t_values)


@pytest.mark.parametrize("count", [2.5, True, "3"])
def test_singularities_need_an_integer_count(count):
    # range() raised a raw TypeError for 2.5, and True was taken as 1.
    with pytest.raises(DomainError,
                       match=re.escape(f"max_count = {count!r} is not an integer >= 1")):
        singularities(1.0, 0.0, max_count=count)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b_const,c,count,named", [
    (1e300, 0.0, 5, "B = 1e+300, c = 0.0: pole t_1 = 1.0 is 0 or not below"),
    (0.2, 0.0, 200, "B = 0.2, c = 0.0: pole t_106 = 0.0 is 0 or not below"),
    (1.0, -800.0, 1, "B = 1.0, c = -800.0: pole t_0 = 0.0 is 0 or not below"),
], ids=["huge-B", "underflow", "first-underflows"])
def test_colliding_poles_are_a_numeric_error(b_const, c, count, named, capsys):
    # At B = 1e300 every pole rounds to t = 1 (r = 0), and far enough out
    # they underflow to t = 0 (r = 1): distinct poles printed as one.
    with pytest.raises(NumericError, match=re.escape(named)):
        singularities(b_const, c, max_count=count)
    argv = ["ode", "poles", f"--B={b_const!r}", f"--c={c!r}", "-n", str(count)]
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().out)["message"].startswith(named)


@pytest.mark.filterwarnings("error")
def test_a_scan_short_of_its_poles_is_a_numeric_error():
    # At c = 1e300 every t_k rounds above 1, and the Exclusion listed no pole.
    with pytest.raises(NumericError) as err:
        solve_branch(-4.5, 1e300)
    assert str(err.value) == "B = 1.125, c = 1e+300: 0 of 10 poles t_k round into (0, 1]"


def test_poles_stay_distinct_over_the_workload_range():
    # B in [0.2, 4] and |c| <= 1, up to 10 poles: the command lines that
    # the verify suite and the short-command benchmark run.
    for b_const in np.linspace(0.2, 4.0, 20):
        for c in (-1.0, 0.0, 1.0):
            ts = singularities(float(b_const), c, max_count=10).t_values
            assert len(ts) == 10 and all(0.0 < t for t in ts)
            assert all(a > b for a, b in zip(ts, ts[1:]))
