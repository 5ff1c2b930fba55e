"""Acceptance gate: the nine headline capabilities, exact arithmetic throughout.

Each test prints one `criterion N (<name>): pass|fail` line.  A criterion
either reproduces frozen reference data digit for digit or re-runs the
relevant slice of the verification battery; there is no tolerance anywhere.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from qtkostka.battery import run_battery
from qtkostka.partitions import partitions_of, remove_snake, snake_involution
from qtkostka.qtpoly import QTPoly
from qtkostka.schur import SchurExpansion
from qtkostka.stats import (
    TypeSequence,
    add_col_block,
    add_row_block,
    classify_pair,
    full_type,
    is_unimodal,
    pair_involution,
    stat_genfun,
    unimodal_profile,
)
from qtkostka.tableaux import charge, parse_tableau, standard_subwords
from qtkostka.vertex import (
    UnsupportedShapeError,
    classify_shape,
    hl_identity_suite,
    macdonald,
    vertex4,
    vertex4_second_form,
)

T = parse_tableau


@pytest.fixture(scope="module")
def report():
    return run_battery(max_n=8, oracle_degree=6, n_points=3, seed=0)


def _gate(num: int, name: str, failures: list[str]) -> None:
    status = "fail" if failures else "pass"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:8])


def _battery_failures(report, *prefixes) -> list[str]:
    entries = [e for e in report if e["check"].startswith(prefixes)]
    if not entries:
        return [f"no battery entries under {prefixes}"]
    return [
        f"{e['check']} {e['params']}: {e['detail']}"
        for e in entries
        if e["status"] != "pass"
    ]


def _direct_shapes(max_n: int):
    for n in range(1, max_n + 1):
        for mu in partitions_of(n):
            try:
                kind = classify_shape(mu)
            except UnsupportedShapeError:
                continue
            if kind[0] == "direct":
                yield mu


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    bad = []

    def check(cond, label):
        if not cond:
            bad.append(label)

    word = (7, 3, 4, 6, 2, 2, 3, 5, 1, 1, 1, 2, 4, 8)
    check(charge(word) == 9, "charge of the reference word")
    subs = standard_subwords(word)
    check(
        set(subs) == {(7, 3, 6, 2, 5, 1, 4, 8), (4, 2, 3, 1), (1, 2)},
        f"standard subwords: {subs}",
    )

    check(
        add_row_block(2, (11, 3), T("1,3,5,6/2,4")) == T("1,2,4,6,7/3,5,8"),
        "row-block insertion example",
    )
    check(
        add_row_block(2, (8, 3, 1), T("1,2,3/4/5")) == T("1,2,5,7/3,4/6"),
        "second row-block insertion example",
    )
    check(
        add_col_block(2, (4, 3, 1, 1, 1, 1, 1, 1, 1), T("1,3,5,6/2,4"))
        == T("1,3,5,7/2,4,6/8"),
        "column-block insertion example",
    )

    check(
        full_type((2, 2, 2), T("1,4,5/2,6/3")).blocks == ("V", "V", "H"),
        "type of the two-column example",
    )

    tab, rho = T("1,2,3/4/5"), (8, 3, 1)
    check(classify_pair(5, 2, tab, rho) == "unstable", "example pair is unstable")
    that, flipped = pair_involution(5, 2, tab, rho)
    check(that == T("1,2,3,5/4") and flipped == (7, 4, 1), "involution image")
    check(pair_involution(5, 2, that, flipped) == (tab, rho), "involution squares to id")

    check(remove_snake((5, 4, 2, 2, 1), 4) == (3, 2, 2, 2, 1), "snake removal k=4")
    check(remove_snake((5, 4, 2, 2, 1), 5) is None, "snake removal k=5 undefined")
    check(snake_involution((5, 5, 2), 10, (13, 5, 4)) == (12, 5, 5), "snake flip")
    check(snake_involution((5, 5, 2), 10, (12, 5, 5)) == (13, 5, 4), "snake flip back")

    elapsed = time.perf_counter() - start
    check(elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s")
    _gate(1, "worked examples", bad)


def test_criterion_2_tableau_statistics_match_vertex_output():
    start = time.perf_counter()
    bad = []
    for mu in _direct_shapes(8):
        f = stat_genfun(mu)
        if f != macdonald(mu):
            bad.append(f"statistics disagree with vertex output at {mu}")
        if not f.is_nonnegative():
            bad.append(f"negative coefficient at {mu}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        bad.append(f"took {elapsed:.1f}s, bound is 60s")
    _gate(2, "statistics generating function", bad)


def test_criterion_3_component_refinement(report):
    failures = _battery_failures(report, "stats/head-components")
    entries = [e for e in report if e["check"] == "stats/head-components"]
    if len(entries) < 50:
        failures.append(f"only {len(entries)} head-component cases covered")
    _gate(3, "per-head component refinement", failures)


def test_criterion_4_identity_battery(report):
    start = time.perf_counter()
    suite = hl_identity_suite(8)
    elapsed = time.perf_counter() - start
    bad = [
        f"{e['check']} {e['params']}: {e['detail']}"
        for e in suite
        if e["status"] != "pass"
    ]
    if not suite:
        bad.append("identity suite produced no entries")
    if elapsed >= 60.0:
        bad.append(f"took {elapsed:.1f}s, bound is 60s")
    bad += _battery_failures(
        report,
        "schur/commutation-adjacent",
        "schur/commutation-dual",
        "schur/commutation-mixed",
        "schur/snake-rule",
    )
    _gate(4, "operator identity battery", bad)


def test_criterion_5_expansion_cross_checks(report):
    bad = _battery_failures(
        report,
        "vertex/two-column-table",
        "vertex/three-row-table",
        "vertex/fourth-operator-forms",
        "vertex/fourth-operator-misprint",
    )
    q = QTPoly.q
    second = vertex4_second_form(SchurExpansion.unit()).coefficient((4,))
    if second != QTPoly.one() - 2 * q(1) + 2 * q(3):
        bad.append(f"second printed form gives {second} on input 1")
    if second == vertex4(SchurExpansion.unit()).coefficient((4,)):
        bad.append("second printed form agrees with the first; no discrepancy to report")
    _gate(5, "charge expansions and operator forms", bad)


def test_criterion_6_oracle_equivalence(report):
    _gate(6, "numeric oracle equivalence", _battery_failures(report, "oracle/"))


def test_criterion_7_specializations(report):
    _gate(7, "classical specializations", _battery_failures(report, "specialization/"))


def test_criterion_8_structural_lemmas(report):
    failures = _battery_failures(report, "pairs/")
    covered = {
        (e["params"].get("n"), e["params"].get("m"))
        for e in report
        if e["check"].startswith("pairs/")
    }
    wanted = {(n, m) for n in range(1, 6) for m in (2, 3, 4)}
    missing = wanted - covered
    if missing:
        failures.append(f"missing exhaustion ranges: {sorted(missing)}")
    _gate(8, "structural lemmas by exhaustion", failures)


_PRINTED = {
    (3, 1, 1, 1): {
        ("1,2,3", ("S", "S", "S")): (1, 2, 3, 4, 2, 1, 1),
        ("1,3/2", ("S", "S", "S")): (2, 4, 6, 5, 4, 2, 1),
        ("1,2/3", ("S", "S", "S")): (1, 2, 4, 5, 6, 4, 2),
        ("1/2/3", ("S", "S", "S")): (1, 1, 2, 4, 3, 2, 1),
    },
    (4, 1, 1): {
        ("1,2,3,4", ("S", "S")): (1, 2, 1, 1),
        ("1,3,4/2", ("S", "S")): (2, 4, 2, 1),
        ("1,2,4/3", ("S", "S")): (2, 4, 2, 1),
        ("1,2,3/4", ("S", "S")): (1, 2, 3, 3),
        ("1,2/3,4", ("S", "S")): (1, 2, 2, 1),
        ("1,3/2,4", ("S", "S")): (1, 2, 2, 1),
        ("1,4/2/3", ("S", "S")): (3, 3, 2, 1),
        ("1,3/2/4", ("S", "S")): (1, 2, 4, 2),
        ("1,2/3/4", ("S", "S")): (1, 2, 4, 2),
        ("1/2/3/4", ("S", "S")): (1, 1, 2, 1),
    },
    (3, 2, 2, 1): {
        ("1,2,3", ("H", "H", "S")): (1, 4, 6, 8, 7, 6, 4, 2, 1, 1),
        ("1,3/2", ("H", "H", "S")): (2, 3, 8, 12, 13, 10, 8, 4, 2, 1),
        ("1,2/3", ("H", "H", "S")): (0, 0, 2, 7, 12, 14, 13, 9, 4, 2),
        ("1/2/3", ("H", "H", "S")): (0, 0, 1, 3, 5, 7, 7, 4, 2, 1),
    },
}


def test_criterion_9_printed_sequences_and_unimodality(report):
    bad = []
    for mu, rows in _PRINTED.items():
        profile = unimodal_profile(mu)
        expected = {TypeSequence(T(h), blocks): seq for (h, blocks), seq in rows.items()}
        if mu in ((3, 1, 1, 1), (4, 1, 1)):
            if profile != expected:
                bad.append(f"profile of {mu} differs from the printed table")
        else:
            for key, seq in expected.items():
                if profile.get(key) != seq:
                    bad.append(f"{mu} {key.text()}: {profile.get(key)} != {seq}")
        for key, seq in profile.items():
            if not is_unimodal(seq):
                bad.append(f"{mu} {key.text()} not unimodal: {seq}")
    bad += _battery_failures(report, "profile/")
    unimodal_shapes = {
        e["params"]["mu"] for e in report if e["check"] == "profile/unimodality"
    }
    wanted = {",".join(map(str, mu)) for mu in _direct_shapes(8)}
    missing = wanted - unimodal_shapes
    if missing:
        bad.append(f"unimodality not reported for {sorted(missing)}")
    _gate(9, "printed coefficient sequences and unimodality", bad)


# sha256 of the default report as canonical JSON; a refactor must leave it unchanged
DEFAULT_REPORT_SHA256 = "120c1ae25529c365de0bc42a393ab0beb73eea495aaa83d4a5638047261d0a78"


def test_no_two_entries_share_check_and_params(report):
    keys = [(e["check"], json.dumps(e["params"], sort_keys=True)) for e in report]
    assert len(set(keys)) == len(keys)


def test_default_report_is_byte_identical(report):
    assert len(report) == 1179
    assert all(e["status"] == "pass" for e in report)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == DEFAULT_REPORT_SHA256


def test_the_benchmark_reference_pins_the_same_report():
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    pinned = json.loads(reference.read_text(encoding="utf-8"))["battery_seed0"]
    assert pinned == DEFAULT_REPORT_SHA256
