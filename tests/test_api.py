"""The public surface, pinned.

Each module is read with `ast`.  Its public names are the module-level
`def`, `class` and assignment targets without a leading underscore, and the
public methods of the three classes below.  Adding or removing one takes an
edit of the mapping here, so nothing joins or leaves the surface by accident.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtkostka"

PUBLIC = {
    "__init__": set(),
    "_cache": {"cache_info", "clear_caches", "memo", "memo_checked"},
    "_checks": {
        "InputError",
        "as_int",
        "as_partition",
        "as_point",
        "as_standard",
        "as_tableau",
        "as_word",
        "int_parts",
        "is_partition",
        "is_standard",
        "is_tableau",
    },
    "_series": {
        "series_bernstein",  # the tests' reference for bernstein
        "series_hl_vertex",
        "series_hl_vertex_dual",  # the tests' reference for hl_vertex_dual
    },
    "battery": {"run_battery"},
    "cli": {"main"},
    "oracle": {
        "DegeneratePointError",
        "character",
        "count_syt",
        "count_syt_enumerated",
        "generic_points",
        "kostka_foulkes",
        "kostka_oracle",
        "macdonald_oracle",
        "power_coords",
        "report_entry",
        "scalar_qt",
        "scalar_t",
        "schur_to_power",
        "verify_rational_props",
        "z_factor",
    },
    "partitions": {
        "Partition",
        "UnsupportedShapeError",
        "arm_leg",
        "classify_shape",
        "conjugate",
        "contains",
        "dominance_leq",
        "first_column_removed",
        "first_row_removed",
        "format_partition",
        "horizontal_strips",
        "horizontal_strips_inside",
        "is_horizontal_strip",
        "is_vertical_strip",
        "linear_extension",
        "parse_partition",
        "part",
        "partitions_of",
        "remove_snake",
        "snake_height",
        "snake_involution",
        "vertical_strips",
        "vertical_strips_inside",
        "weighted_size",
    },
    "qtpoly": {"QTPoly", "TermKey"},
    "schur": {
        "SchurExpansion",
        "bernstein",
        "hl_vertex",
        "hl_vertex_dual",
        "hl_vertex_snake",
        "linear_combination",
        "mul_e",
        "mul_h",
        "omega",
        "skew_e",
        "skew_h",
    },
    "stats": {
        "HEAD_TABLE",
        "TypeSequence",
        "add_col_block",
        "add_row_block",
        "classify_pair",
        "delete_prefix",  # an operation the paper names
        "full_type",
        "head_genfun",
        "head_tableau",  # an operation the paper names
        "inverse_col_block",
        "inverse_row_block",
        "is_unimodal",
        "pair_involution",
        "stat_genfun",
        "stat_pair",
        "type_two_col",
        "unbuild",
        "unimodal_profile",
    },
    "tableaux": {
        "Tableau",
        "Word",
        "all_standard_tableaux",  # the benchmark tracer's LAYERS names it
        "charge",
        "charge_table",
        "column_insert",  # documented insertion; the checked form of column_insert_into
        "column_insert_into",
        "column_strict_tableaux",
        "conjugate_tableau",
        "content",
        "format_tableau",
        "parse_tableau",
        "reading_word",
        "rectify",
        "rectify_lowered",
        "reverse_column_insert",
        "reverse_row_insert",
        "row_insert",  # documented insertion; the checked form of row_insert_into
        "row_insert_into",
        "shape",
        "standard_subwords",
        "standard_tableaux",
        "tableau_charge",
    },
    "vertex": {
        "HLExpansion",
        "component_groups",
        "gaussian_binomial",
        "hall_littlewood",
        "hl_identity_suite",
        "kostka",
        "macdonald",
        "qt_vertex",
        "reassembled_vertex",
        "row3_hl",
        "stem_coefficient",
        "t_pochhammer",
        "two_column_hl",
        "vertex2",
        "vertex3",
        "vertex4",
        "vertex4_second_form",
        "vertex4_third_form",
    },
}

METHODS = {
    ("qtpoly", "QTPoly"): {
        "coefficient",
        "deg_q",
        "deg_t",
        "evaluate",
        "from_terms",
        "is_nonnegative",
        "latex",
        "monomial",
        "one",
        "q",
        "q_zero",
        "reverse",
        "swap_qt",
        "t",
        "terms",
        "to_terms",
        "zero",
    },
    ("schur", "SchurExpansion"): {
        "coefficient",
        "degree",
        "is_nonnegative",
        "map_coefficients",
        "scaled",
        "schur",
        "terms",
        "to_json",
        "unit",
    },
    ("stats", "TypeSequence"): {"text"},
}


def _public(body: list[ast.stmt]) -> set[str]:
    """The names a def, class or assignment in body binds, without a leading underscore."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_every_module_is_pinned():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(PUBLIC)


def test_each_module_defines_exactly_its_pinned_names():
    found = {module: _public(_tree(module).body) for module in PUBLIC}
    assert found == PUBLIC


def test_the_pinned_classes_have_exactly_their_pinned_methods():
    for (module, cls), methods in METHODS.items():
        (node,) = [n for n in _tree(module).body if isinstance(n, ast.ClassDef) and n.name == cls]
        defs = [n for n in node.body if isinstance(n, ast.FunctionDef)]
        assert _public(defs) == methods, cls


def test_the_reader_sees_every_kind_of_binding():
    tree = ast.parse("def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n_z = 3\nimport os\n")
    assert _public(tree.body) == {"f", "C", "X", "Y"}
