import pytest

from qtkostka.battery import run_battery


def test_empty_ranges_give_empty_report():
    assert run_battery(max_n=0) == []


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
