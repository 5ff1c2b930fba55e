from fractions import Fraction

import pytest

from qtkostka import InputError, battery
from qtkostka.battery import run_battery
from qtkostka.qtpoly import QTPoly
from qtkostka.schur import SchurExpansion

SMALL = {"max_n": 3, "oracle_degree": 3, "n_points": 1, "seed": 11}


def test_empty_ranges_are_refused(monkeypatch):
    # an empty report would pass, and an oracle_degree below 1 would drop the oracle
    monkeypatch.setattr(battery, "_report", _refuse_to_run)
    for kwargs, refused in [
        ({"max_n": 0}, "max_n = 0 is not an int >= 1"),
        ({"max_n": -3, "oracle_degree": -2, "n_points": 1}, "max_n = -3 is not an int >= 1"),
        ({"oracle_degree": 0}, "oracle_degree = 0 is not an int >= 1"),
        ({"max_n": 3, "oracle_degree": 0}, "oracle_degree = 0 is not an int >= 1"),
    ]:
        with pytest.raises(InputError, match=refused):
            run_battery(**kwargs)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        run_battery(max_n=9)
    with pytest.raises(ValueError):
        run_battery(max_n=4, oracle_degree=7)


def test_small_run_passes():
    report = run_battery(max_n=3, oracle_degree=3, n_points=1, seed=11)
    assert report
    for entry in report:
        assert set(entry) == {"check", "params", "status", "detail"}
        assert entry["status"] == "pass", (entry["check"], entry["params"], entry["detail"])
    checks = {e["check"] for e in report}
    for name in (
        "examples/charge-word",
        "examples/pair-involution",
        "stats/generating-function",
        "vertex/positivity",
        "oracle/kostka-agreement",
        "specialization/kostka-foulkes",
        "profile/unimodality",
    ):
        assert name in checks


def test_report_is_sorted_and_deterministic():
    first = run_battery(max_n=3, oracle_degree=3, n_points=1, seed=11)
    second = run_battery(max_n=3, oracle_degree=3, n_points=1, seed=11)
    assert first == second
    keys = [(e["check"], sorted((k, str(v)) for k, v in e["params"].items())) for e in first]
    assert keys == sorted(keys)


def _failures(report):
    return [e for e in report if e["status"] != "pass"]


def test_a_raising_check_becomes_one_failing_entry(monkeypatch):
    monkeypatch.setattr(battery, "_check_snakes", lambda: 1 // 0)
    report = run_battery(**SMALL)
    assert _failures(report) == [
        {
            "check": "examples/snake-removal",
            "params": {},
            "status": "fail",
            "detail": "ZeroDivisionError: integer division or modulo by zero",
        }
    ]
    assert len(report) == len(run_battery(**SMALL))


def test_a_raising_check_fails_only_for_its_own_params(monkeypatch):
    real = battery._check_positivity

    def broken_at_21(mu):
        if mu == (2, 1):
            raise ValueError("no positivity here")
        return real(mu)

    monkeypatch.setattr(battery, "_check_positivity", broken_at_21)
    assert _failures(run_battery(**SMALL)) == [
        {
            "check": "vertex/positivity",
            "params": {"mu": "2,1"},
            "status": "fail",
            "detail": "ValueError: no positivity here",
        }
    ]


def test_a_raising_suite_becomes_one_entry_without_params(monkeypatch):
    def broken(max_n):
        raise RuntimeError(f"suite at {max_n}")

    monkeypatch.setattr(battery, "hl_identity_suite", broken)
    report = run_battery(**SMALL)
    assert [e for e in report if e["check"] == "hl-identity"] == [
        {
            "check": "hl-identity",
            "params": {},
            "status": "fail",
            "detail": "RuntimeError: suite at 3",
        }
    ]
    assert len(_failures(report)) == 1


def test_library_functions_are_looked_up_when_the_battery_runs(monkeypatch):
    # a wrapper installed on the module after import sees every call
    calls = []
    real = battery.verify_rational_props

    def counted(a, b, points):
        calls.append((a, b))
        return real(a, b, points)

    monkeypatch.setattr(battery, "verify_rational_props", counted)
    report = run_battery(max_n=5, oracle_degree=3, n_points=1, seed=11)
    assert sorted(calls) == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert not _failures(report)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_points": 0},
        {"n_points": -1},
        {"n_points": True},
        {"seed": 1.5},
        {"seed": True},
        {"oracle_degree": 3.0},
        {"max_n": 2.0},
    ],
)
def test_run_battery_refuses_bad_arguments(kwargs, monkeypatch):
    monkeypatch.setattr(battery, "_report", _refuse_to_run)
    with pytest.raises(ValueError, match="n_points|seed|oracle_degree|max_n"):
        run_battery(**{"max_n": 2, "oracle_degree": 2, "n_points": 1, "seed": 0, **kwargs})


def _refuse_to_run(*args):
    raise AssertionError("a check ran before the arguments were checked")


def test_extension_independence_compares_two_distinct_orders_at_degree_6():
    # below degree 6 every pair of partitions is dominance-comparable, so the
    # alternative order is the default one and the check compares it with itself
    assert battery._alternative_extension(5) == battery.linear_extension(5)
    assert battery._alternative_extension(6) != battery.linear_extension(6)
    point = battery.generic_points(1, 0, 6)[0]
    assert battery._check_extension_independence(6, *point) == (True, "distinct orders agree")


def test_extension_independence_refuses_an_order_that_does_not_refine_dominance(monkeypatch):
    descending = tuple(reversed(battery.linear_extension(6)))
    monkeypatch.setattr(battery, "_alternative_extension", lambda n: descending)
    point = battery.generic_points(1, 0, 6)[0]
    with pytest.raises(ValueError, match="does not refine dominance"):
        battery._check_extension_independence(6, *point)


def test_the_dual_omega_law_catches_a_fault_that_vanishes_at_the_sampled_points(monkeypatch):
    # (14t - 1)(65t - 27)(16t - 13) vanishes at the seed-0 points' t0, so a law
    # compared only at those points passes with this term added
    t, one = QTPoly.t(1), QTPoly.one()
    fault = (14 * t - one) * (65 * t - 27 * one) * (16 * t - 13 * one)
    points = battery.generic_points(3, 0, 8)
    assert [t0 for _, t0 in points] == [Fraction(1, 14), Fraction(27, 65), Fraction(13, 16)]
    assert all(fault.evaluate(0, t0) == 0 for _, t0 in points)
    assert battery._check_dual_omega(2, 3) == (True, "")
    real = battery.hl_vertex_dual

    def faulty(m, f):
        return real(m, f) + SchurExpansion.schur((f.degree() + m,)).scaled(fault)

    monkeypatch.setattr(battery, "hl_vertex_dual", faulty)
    ok, detail = battery._check_dual_omega(2, 3)
    assert not ok and detail.startswith("lam=(3,): s(5,): ")
