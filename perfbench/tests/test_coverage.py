"""Coverage of the tracer: small traced runs of every workload.

    python3 -m pytest perfbench/tests

Each workload runs twice, traced, at a small size.  Every counter that the
layer-to-metric map in perfbench/README.md says the workload exercises must
be nonzero (a zero means the tracer missed a binding of that function), and
every count and hit ratio must repeat exactly between the two runs.  The
spans a traced worker writes must read back with each parent opened before
its children.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import METRICS, read_spans  # noqa: E402

SMALL = {
    "macdonald-cold": {"n": 7, "queries": 200},
    "macdonald-session": {"sizes": [5, 6], "queries": 500},
    "battery": {"max_n": 4, "oracle_degree": 4, "n_points": 1, "queries": 200},
    "crosscheck": {"n": 6, "oracle_n": 5, "queries": 200},
}

MACDONALD_LAYERS = (
    "qtpoly.mul.calls",
    "qtpoly.mul.term_products",
    "qtpoly.add.calls",
    "partitions.strips.calls",
    "schur.pieri.calls",
    "schur.pieri.in_terms",
    "schur.bernstein.calls",
    "schur.hl_vertex.calls",
    "schur.hl_vertex_dual.calls",
    "vertex.macdonald.calls",
    "vertex.qt_vertex.calls",
    "vertex.output_terms",
    "vertex.output_monomials",
)
STATS_AND_ORACLE = (
    "tableaux.charge.calls",
    "stats.stat_pair.calls",
    "stats.full_type.calls",
    "oracle.macdonald_oracle.calls",
    "oracle.scalar_qt.calls",
)

EXPECTED = {
    "macdonald-cold": MACDONALD_LAYERS,
    "macdonald-session": MACDONALD_LAYERS,
    "battery": MACDONALD_LAYERS
    + STATS_AND_ORACLE
    + ("oracle.rational.calls", "battery.entries"),
    "crosscheck": MACDONALD_LAYERS + STATS_AND_ORACLE,
}

EXPECTED_SELF_TIME = {
    "macdonald-cold": ("qtpoly", "partitions", "schur", "vertex"),
    "macdonald-session": ("qtpoly", "partitions", "schur", "vertex"),
    "battery": ("qtpoly", "partitions", "schur", "vertex", "tableaux", "stats", "oracle", "battery"),
    "crosscheck": ("qtpoly", "partitions", "schur", "vertex", "tableaux", "stats", "oracle"),
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for name, sizes in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, sizes)


@pytest.mark.parametrize("workload", list(SMALL))
def test_traced_counters_are_covered_and_repeat(workload):
    first = run.run_workload(workload, seed=3, seconds=1, trace=True)
    second = run.run_workload(workload, seed=3, seconds=1, trace=True)
    for result in (first, second):
        assert result["failed"] == 0, result["failures"]
        assert set(result["metrics"]) == set(METRICS)
    values = {name: m["value"] for name, m in first["metrics"].items()}
    for name in EXPECTED[workload]:
        assert values[name] > 0, f"{name} is zero on {workload}"
    for layer in EXPECTED_SELF_TIME[workload]:
        assert values[f"{layer}.self_s"] > 0, f"{layer}.self_s is zero on {workload}"
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    names, (name, parent, start, end) = read_spans(
        run.ROOT / ".perfbench" / "spans" / f"{workload}-seed3-0.spans"
    )
    assert len(name) > 0 and max(name) < len(names)
    assert all(p < i for i, p in enumerate(parent))
    assert all(a <= b for a, b in zip(start, end))
