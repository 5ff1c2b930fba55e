"""Spans around the calls into each qtkostka layer, recorded from outside the library.

A `Tracer` replaces every public function listed in `LAYERS` by a wrapper
that records one span (name, start, end, parent) per call.  A function that
another module imported under its own name is a separate binding, so the
wrapper is installed in every loaded `qtkostka` module that holds the
original object (`vertex.hl_vertex` as well as `schur.hl_vertex`, and the
many names `battery` imports).  `QTPoly` arithmetic is patched on the class,
which every module shares.

Spans are kept in flat arrays while the traced code runs; counts, hit ratios
and per-layer self time are derived from them afterwards, outside the timed
region.  A layer's self time is the duration of its spans minus the part
covered by their child spans, so code a layer runs without a span of its own
(`SchurExpansion` arithmetic called from `vertex2`, say) counts towards the
nearest enclosing span.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

LAYERS: dict[str, tuple[str, ...]] = {
    "partitions": (
        "horizontal_strips",
        "vertical_strips",
        "horizontal_strips_inside",
        "vertical_strips_inside",
    ),
    "schur": (
        "mul_h",
        "mul_e",
        "skew_h",
        "skew_e",
        "bernstein",
        "hl_vertex",
        "hl_vertex_dual",
        "hl_vertex_snake",
    ),
    "vertex": (
        "macdonald",
        "kostka",
        "hall_littlewood",
        "vertex2",
        "vertex3",
        "vertex4",
        "vertex4_third_form",
        "vertex4_second_form",
        "reassembled_vertex",
        "two_column_hl",
        "row3_hl",
        "hl_identity_suite",
    ),
    "tableaux": (
        "charge",
        "tableau_charge",
        "standard_tableaux",
        "all_standard_tableaux",
        "column_strict_tableaux",
    ),
    "stats": ("stat_pair", "full_type", "stat_genfun", "head_genfun", "unimodal_profile"),
    "oracle": (
        "macdonald_oracle",
        "kostka_oracle",
        "scalar_qt",
        "scalar_t",
        "power_coords",
        "verify_rational_props",
        "kostka_foulkes",
    ),
    "battery": ("run_battery",),
}

# Arithmetic on the shared class: each span name covers the method and its
# reflected alias (`__radd__ = __add__` in qtpoly.py).
QTPOLY_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
}

STRIP_FUNCTIONS = LAYERS["partitions"]
PIERI_FUNCTIONS = ("mul_h", "mul_e", "skew_h", "skew_e")

# Every per-layer metric, in print order, with its unit.
METRICS: dict[str, str] = {
    "qtpoly.mul.calls": "count",
    "qtpoly.mul.term_products": "count",
    "qtpoly.add.calls": "count",
    "qtpoly.self_s": "s",
    "partitions.strips.calls": "count",
    "partitions.strips.hit_ratio": "ratio",
    "partitions.self_s": "s",
    "schur.pieri.calls": "count",
    "schur.pieri.in_terms": "count",
    "schur.bernstein.calls": "count",
    "schur.hl_vertex.calls": "count",
    "schur.hl_vertex_dual.calls": "count",
    "schur.self_s": "s",
    "vertex.macdonald.calls": "count",
    "vertex.macdonald.hit_ratio": "ratio",
    "vertex.qt_vertex.calls": "count",
    "vertex.hall_littlewood.hit_ratio": "ratio",
    "vertex.output_terms": "count",
    "vertex.output_monomials": "count",
    "vertex.self_s": "s",
    "tableaux.charge.calls": "count",
    "tableaux.standard_tableaux.hit_ratio": "ratio",
    "tableaux.self_s": "s",
    "stats.stat_pair.calls": "count",
    "stats.full_type.calls": "count",
    "stats.self_s": "s",
    "oracle.macdonald_oracle.calls": "count",
    "oracle.scalar_qt.calls": "count",
    "oracle.rational.calls": "count",
    "oracle.self_s": "s",
    "battery.entries": "count",
    "battery.failed": "count",
    "battery.self_s": "s",
    "trace.overhead_s": "s",
}


def _modules() -> list:
    return [m for name, m in sys.modules.items() if name.startswith("qtkostka") and m]


class Tracer:
    """Install with `with Tracer() as tracer:`; read `tracer.summary()` after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.term_products = 0
        self.pieri_in_terms = 0
        self.macdonald_outputs: dict[tuple, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # --- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from qtkostka.qtpoly import QTPoly

        for attr, short in QTPOLY_METHODS.items():
            original = QTPoly.__dict__[attr]
            self._restore.append((QTPoly, attr, original))
            setattr(QTPoly, attr, self._wrap(f"qtpoly.{short}", original))
        for layer, names in LAYERS.items():
            home = sys.modules[f"qtkostka.{layer}"]
            for name in names:
                original = getattr(home, name)
                if hasattr(original, "cache_info"):
                    self._cached[name] = original
                    info = original.cache_info()
                    self._cache_start[name] = (info.hits, info.misses)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in _modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._cache_end = {
            name: (fn.cache_info().hits, fn.cache_info().misses)
            for name, fn in self._cached.items()
        }

    def _wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = perf_counter
        measure = self._measure(span)
        keep = self.macdonald_outputs if span == "vertex.macdonald" else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if measure is not None:
                measure(args)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep is not None:
                keep.setdefault(tuple(args[0]), result)
            return result

        return traced

    def _measure(self, span: str):
        # Operation counts read the operands' private term dicts: the public
        # accessors sort, which would cost more than the operation counted.
        if span == "qtpoly.mul":

            def count(args) -> None:
                a, b = args
                size = len(b._terms) if hasattr(b, "_terms") else (1 if b else 0)
                self.term_products += len(a._terms) * size

            return count
        if span.split(".")[-1] in PIERI_FUNCTIONS:

            def count(args) -> None:
                self.pieri_in_terms += len(args[1]._terms)

            return count
        return None

    # --- results ------------------------------------------------------------

    def _cache_hits(self, names) -> list[int]:
        hits = sum(self._cache_end[n][0] - self._cache_start[n][0] for n in names)
        misses = sum(self._cache_end[n][1] - self._cache_start[n][1] for n in names)
        return [hits, hits + misses]

    def summary(self, battery_report: list[dict]) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an untraced pass.

        Hit ratios are left as [hits, calls] so that `merge` can add up the
        summaries of several processes.  battery_report is the report the
        traced pass produced, empty when the workload did not run the battery.
        """
        count = len(self.span_start)
        child_time = array("d", bytes(8 * count))
        has_child = bytearray(count)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
                has_child[p] = 1
        calls = [0] * len(self.names)
        with_children = [0] * len(self.names)
        self_s: dict[str, float] = {layer: 0.0 for layer in ("qtpoly", *LAYERS)}
        layer_of = [name.split(".")[0] for name in self.names]
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            with_children[nid] += has_child[i]
            self_s[layer_of[nid]] += ends[i] - starts[i] - child_time[i]
        by_name = dict(zip(self.names, calls))
        macd_calls = by_name["vertex.macdonald"]
        macd_misses = with_children[self.names.index("vertex.macdonald")]
        out = {
            "qtpoly.mul.calls": by_name["qtpoly.mul"],
            "qtpoly.mul.term_products": self.term_products,
            "qtpoly.add.calls": by_name["qtpoly.add"],
            "partitions.strips.calls": sum(by_name[f"partitions.{n}"] for n in STRIP_FUNCTIONS),
            "partitions.strips.hit_ratio": self._cache_hits(STRIP_FUNCTIONS),
            "schur.pieri.calls": sum(by_name[f"schur.{n}"] for n in PIERI_FUNCTIONS),
            "schur.pieri.in_terms": self.pieri_in_terms,
            "schur.bernstein.calls": by_name["schur.bernstein"],
            "schur.hl_vertex.calls": by_name["schur.hl_vertex"],
            "schur.hl_vertex_dual.calls": by_name["schur.hl_vertex_dual"],
            "vertex.macdonald.calls": macd_calls,
            "vertex.macdonald.hit_ratio": [macd_calls - macd_misses, macd_calls],
            "vertex.qt_vertex.calls": sum(by_name[f"vertex.vertex{m}"] for m in (2, 3, 4)),
            "vertex.hall_littlewood.hit_ratio": self._cache_hits(("hall_littlewood",)),
            "vertex.output_terms": sum(
                len(f.terms()) for f in self.macdonald_outputs.values()
            ),
            "vertex.output_monomials": sum(
                len(c.terms()) for f in self.macdonald_outputs.values() for _, c in f.terms()
            ),
            "tableaux.charge.calls": by_name["tableaux.charge"],
            "tableaux.standard_tableaux.hit_ratio": self._cache_hits(("standard_tableaux",)),
            "stats.stat_pair.calls": by_name["stats.stat_pair"],
            "stats.full_type.calls": by_name["stats.full_type"],
            "oracle.macdonald_oracle.calls": by_name["oracle.macdonald_oracle"],
            "oracle.scalar_qt.calls": by_name["oracle.scalar_qt"],
            "oracle.rational.calls": by_name["oracle.verify_rational_props"],
            "battery.entries": len(battery_report),
            "battery.failed": sum(e["status"] != "pass" for e in battery_report),
        }
        for layer, seconds in self_s.items():
            out[f"{layer}.self_s"] = seconds
        return out

    def write_spans(self, path) -> None:
        """Write the spans: a JSON header line, then the four columns as raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "columns": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)


def read_spans(path) -> tuple[list[str], list[array]]:
    """Load a file written by Tracer.write_spans: (span names, [name, parent, start, end])."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for spec in header["columns"]:
            column = array(spec.split(":")[1])
            column.fromfile(handle, header["count"])
            columns.append(column)
    return header["names"], columns


def merge(summaries: list[dict]) -> dict[str, float]:
    """Add up the summaries of several traced processes and resolve the hit ratios."""
    total: dict = {}
    for summary in summaries:
        for name, value in summary.items():
            if isinstance(value, list):
                old = total.get(name, [0, 0])
                total[name] = [old[0] + value[0], old[1] + value[1]]
            else:
                total[name] = total.get(name, 0) + value
    return {
        name: (value[0] / value[1] if value[1] else 0.0) if isinstance(value, list) else value
        for name, value in total.items()
    }
