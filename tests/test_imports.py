"""The module graph that keeps the three routes to H_mu independent.

Each module is read with `ast`, so an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtkostka"


def _imports(module: str) -> dict[str, set[str]]:
    """{qtkostka module: names imported from it} for every import in module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("qtkostka."):
                source = node.module.removeprefix("qtkostka.")
            else:
                continue
            if source is None:  # from . import x, y: each name is a module
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
            else:
                found.setdefault(source, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qtkostka."):
                    found.setdefault(alias.name.removeprefix("qtkostka."), set()).add("*")
    return found


def test_the_reader_sees_relative_absolute_and_local_imports():
    assert _imports("stats")["partitions"] >= {"classify_shape", "UnsupportedShapeError"}
    assert _imports("_cache")  # imports oracle and stats inside cache_info
    assert "oracle" in _imports("_cache")


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("stats", {"vertex", "oracle", "battery"}),
        ("schur", {"stats", "oracle", "battery"}),
        ("vertex", {"stats", "oracle", "battery"}),
        ("oracle", {"stats", "battery"}),
    ],
)
def test_a_route_imports_nothing_from_the_others(module, forbidden):
    assert not forbidden & set(_imports(module))


def test_the_oracle_takes_only_what_the_rational_tables_need():
    found = _imports("oracle")
    assert found["schur"] == {"SchurExpansion", "mul_e"}
    assert found["vertex"] == {"gaussian_binomial", "macdonald", "stem_coefficient"}
