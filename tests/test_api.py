"""The public surface, pinned, and the rule that checks each argument once.

Each module is read with `ast`.  Its public names are the module-level
`def`, `class` and assignment targets without a leading underscore, and the
public methods of the three classes below.  Adding or removing one takes an
edit of the mapping here, so nothing joins or leaves the surface by accident.

A public function checks its arguments once and hands them to a private
core; library code that holds a value the library built calls the core, or
the trusted constructors `SchurExpansion._of` and `QTPoly._trusted`.  The
last tests below pin that rule: outside `battery` and `cli`, whose job is to
call the public functions, a call of a checking name is either a name the
benchmark's tracer counts (its `LAYERS`) or a call listed in BOUNDARY_CALLS,
where the argument it checks came from a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtkostka"
TRACER = ROOT / "perfbench" / "tracer.py"

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


CONSTRUCTORS = {"SchurExpansion", "HLExpansion", "QTPoly"}
SURFACE_CALLERS = {"battery", "cli"}  # their job is to call the public functions

# (module, calling function, checking name): what the call checks that no caller has
BOUNDARY_CALLS = {
    ("oracle", "power_coords", "schur_to_power"): "each key of the vector the caller gave",
    ("partitions", "linear_extension", "partitions_of"): "the n the caller gave",
    ("partitions", "vertical_strips", "conjugate"): "lam in full on a miss, after int_parts",
    ("partitions", "vertical_strips_inside", "conjugate"): "mu in full on a miss, likewise",
    ("qtpoly", "_coerce", "QTPoly"): "an int operand of the arithmetic, which may be a bool",
    ("schur", "_poly", "QTPoly"): "an int coefficient the caller gave, which may be a bool",
    ("stats", "_direct_parts", "classify_shape"): "the mu a statistics entry point was given",
    ("tableaux", "all_standard_tableaux", "partitions_of"): "the n the caller gave",
    ("vertex", "macdonald", "classify_shape"): "mu in full on a miss, after int_parts",
    ("vertex", "reassembled_vertex", "component_groups"): "the m the caller gave",
}


def _package() -> dict[str, ast.Module]:
    """Every module but _checks, whose functions are the checks themselves."""
    return {path.stem: _tree(path.stem) for path in PACKAGE.glob("*.py") if path.stem != "_checks"}


def _layers() -> set[str]:
    """Every function name in perfbench/tracer.py's LAYERS, read without importing the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
                return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("perfbench/tracer.py binds no LAYERS")


def _called(node: ast.AST) -> set[str]:
    """The bare names that the calls inside node call."""
    calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
    return {call.func.id for call in calls if isinstance(call.func, ast.Name)}


def _validators() -> set[str]:
    """The functions of _checks that refuse an argument: they raise `_refuse(...)`."""
    return {
        node.name
        for node in _tree("_checks").body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Raise) and "_refuse" in _called(n) for n in ast.walk(node))
    }


def _memo_checked(fn: ast.FunctionDef) -> bool:
    calls = [d for d in fn.decorator_list if isinstance(d, ast.Call)]
    return any(_called(d) == {"memo_checked"} for d in calls)


def _validating(trees: dict[str, ast.Module]) -> set[str]:
    """The checking names: the three constructors, and each public function
    that is memo_checked or calls a validator, in its body or through private
    functions of its module."""
    names, validators = set(CONSTRUCTORS), _validators()
    for tree in trees.values():
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        checks = set(validators)
        while True:
            found = {fn.name for fn in defs if _memo_checked(fn) or _called(fn) & checks}
            helpers = {name for name in found if name.startswith("_")}
            if helpers <= checks:
                break
            checks |= helpers
        names |= found - helpers
    return names


def _owners(tree: ast.Module):
    """(caller, node) for each module-level function, each method, as
    Class.method, and each other module-level statement, as <module>."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = (n for n in node.body if isinstance(n, ast.FunctionDef))
            yield from ((f"{node.name}.{n.name}", n) for n in methods)
        else:
            yield (node.name if isinstance(node, ast.FunctionDef) else "<module>"), node


def _inner_calls(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, caller, name) for each call of a checking name that is not a
    LAYERS name, outside battery and cli."""
    checking = _validating(trees) - _layers()
    return {
        (module, caller, name)
        for module, tree in trees.items()
        if module not in SURFACE_CALLERS
        for caller, node in _owners(tree)
        for name in _called(node) & checking
    }


def test_library_code_calls_the_cores_and_checks_only_at_the_boundary():
    # a new entry names the argument the call checks; a stale one fails too
    assert _inner_calls(_package()) == set(BOUNDARY_CALLS)


def test_the_rule_sees_each_way_of_checking():
    assert _validators() == {
        "_as_points",
        "as_int",
        "as_partition",
        "as_point",
        "as_standard",
        "as_tableau",
        "as_word",
        "int_parts",
    }
    checking = _validating(_package())
    # in the body, through a private helper (_block_args), memo_checked, a constructor
    assert {"conjugate", "add_row_block", "vertical_strips", "QTPoly"} <= checking
    assert not {"_conjugate", "rectify_lowered", "linear_combination", "is_partition"} & checking
    assert {"charge", "macdonald", "stat_pair", "horizontal_strips"} <= _layers()


def test_a_call_that_checks_again_what_the_library_built_is_caught():
    probe = ast.parse(
        "def classify_pair(n, m, tab, rho):\n"
        "    return add_row_block(m, rho, tab), charge(()), _add_row_block(m, rho, tab)\n"
        "SHAPE = conjugate((2, 1))\n"
    )
    trees = _package()
    trees["stats"].body += probe.body
    trees["battery"].body += probe.body
    assert _inner_calls(trees) - set(BOUNDARY_CALLS) == {
        ("stats", "classify_pair", "add_row_block"),
        ("stats", "<module>", "conjugate"),
    }
