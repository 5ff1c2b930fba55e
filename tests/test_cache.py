"""The package's memo tables: one registry, reported and emptied together."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from qtkostka import cache_info, clear_caches
from qtkostka.oracle import kostka_foulkes, kostka_oracle
from qtkostka.partitions import vertical_strips_inside
from qtkostka.stats import stat_genfun
from qtkostka.vertex import gaussian_binomial, hall_littlewood, macdonald

TABLES = {
    "partitions.horizontal_strips",
    "partitions.vertical_strips",
    "partitions.horizontal_strips_inside",
    "partitions.vertical_strips_inside",
    "partitions.partitions_of",
    "tableaux.standard_tableaux",
    "schur.bernstein_image",
    "schur.hl_vertex_image",
    "schur.hl_vertex_dual_image",
    "vertex.hall_littlewood",
    "vertex.macdonald",
    "vertex.gaussian_binomial",
    "stats.domino_tail",
    "stats.direct_parts",
    "stats.type_sequence",
    "stats.type_weights",
    "stats.stat_counts",
    "oracle.character",
    "oracle.schur_to_power",
    "oracle.orthogonal_basis",
    "oracle.power_macdonald",
    "oracle.kostka_foulkes_row",
    "oracle.pairing_weight",
}


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cache_info_lists_every_table():
    info = cache_info()
    assert set(info) == TABLES
    assert all(set(entry) == {"hits", "misses", "size"} for entry in info.values())


def test_clear_caches_empties_every_table_and_changes_no_answer():
    shapes = [(2, 2, 1), (3, 2, 1), (4, 1, 1)]
    point = (Fraction(1, 3), Fraction(1, 2))

    def answers():
        return (
            [macdonald(mu) for mu in shapes],
            [stat_genfun(mu) for mu in shapes],
            [kostka_oracle(lam, (3, 2, 1), *point) for lam in [(6,), (3, 2, 1), (2, 2, 1, 1)]],
            kostka_foulkes((2, 1), (1, 1, 1)),
            hall_littlewood((2, 1)),
            gaussian_binomial(5, 2),
            vertical_strips_inside((3, 2, 1), 2),
        )

    before = answers()
    assert all(entry["size"] > 0 for entry in cache_info().values())
    clear_caches()
    assert all(entry["size"] == 0 for entry in cache_info().values())
    assert answers() == before


def test_every_traced_function_exists_and_cached_ones_report():
    # perfbench/tracer.py looks these names up when a run is traced
    tracer = _tracer()
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"qtkostka.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    cached = [("vertex", "macdonald"), ("vertex", "hall_littlewood")]
    cached += [("tableaux", "standard_tableaux")]
    cached += [("partitions", name) for name in tracer.STRIP_FUNCTIONS]
    for layer, name in cached:
        fn = getattr(importlib.import_module(f"qtkostka.{layer}"), name)
        assert hasattr(fn, "cache_info") and hasattr(fn, "cache_clear"), f"{layer}.{name}"
