"""src/ keeps no test-only code, and writes each input rule once.

Every private module-level function of the package must be used by the
package itself: referenced by name, as an attribute or by an import
somewhere in src/edgehar, other than inside its own body. A helper that only
tests call is a second definition of what the package does, and goes.

persist.check_value is the one scalar rule: no other src/ code compares
type(...) with int, float or bool. The CLI's schema holds no rule of its own
for a train.* or sensors.* key, which TrainConfig and SensorSpec check, or
for the keys ConvSpec and ModelSpec check.
persist.check_array is the one array rule: no loader of a document, and no
owner of a loaded array, calls np.asarray or np.array itself.
"""

import ast
from pathlib import Path

from edgehar import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "edgehar"


def _references(tree: ast.Module):
    """(enclosing top-level function or None, name) for every name, attribute
    and imported name in tree."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield owner, alias.name


def test_every_private_function_has_a_src_caller():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    private = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private  # the scan sees the package
    used = {name for tree in trees.values() for owner, name in _references(tree) if owner != name}
    unused = [name for name in private if name.split(".")[1] not in used]
    assert not unused, f"private functions with no caller in src/: {unused}"


def _type_tests(tree: ast.Module):
    """(line, top-level name) of each comparison of type(...) with int, float
    or bool in tree."""
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                       and o.func.id == "type" for o in operands):
                continue
            names = {n.id for o in operands for n in ast.walk(o) if isinstance(n, ast.Name)}
            if names & {"int", "float", "bool"}:
                yield node.lineno, getattr(top, "name", None)


def test_only_check_value_tests_a_scalar_type():
    found = [f"{p.stem}.py:{line}" for p in sorted(SRC.glob("*.py"))
             for line, owner in _type_tests(ast.parse(p.read_text(), str(p)))
             if (p.stem, owner) != ("persist", "check_value")]
    assert not found, f"scalar type tests outside persist.check_value: {found}"
    persist = ast.parse((SRC / "persist.py").read_text())
    assert [owner for _, owner in _type_tests(persist)] == ["check_value"]  # the scan sees it


def test_schema_restates_no_class_rule():
    owned = [k for k in cli._SCHEMA if k.startswith(("train.", "sensors."))]
    assert "train.lr" in owned and "sensors.rate_hz" in owned
    assert not [k for k in owned if cli._SCHEMA[k] is not None]


def test_schema_restates_no_spec_rule():
    # ConvSpec checks model.filters and model.kernel, ModelSpec model.hidden and classes
    spec_keys = ("model.filters", "model.kernel", "model.hidden", "classes")
    assert not [k for k in spec_keys if cli._SCHEMA[k] is not None]


# The loaders of every document and the owners of its arrays, by module
ARRAY_READERS = {
    "model": ["load_model", "_spec_from_dict"],
    "quantize": ["load_qmodel", "QLayer.__post_init__", "CalibStats.from_dict"],
    "daq": ["load_dataset"],
    "cli": ["_load_model_for", "_fp_test"],
}


def _definition(tree: ast.Module, dotted: str):
    node = tree
    for name in dotted.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == name)
    return node


def _casts(node):
    """The line of each np.asarray or np.array call in node."""
    for n in ast.walk(node):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("asarray", "array")
                and isinstance(n.func.value, ast.Name) and n.func.value.id == "np"):
            yield n.lineno


def test_only_check_array_casts_a_loaded_array():
    found = [f"{module}.py:{line} ({name})" for module, names in ARRAY_READERS.items()
             for name in names
             for line in _casts(_definition(ast.parse((SRC / f"{module}.py").read_text()), name))]
    assert not found, f"array casts outside persist.check_array: {found}"
    persist = ast.parse((SRC / "persist.py").read_text())
    assert list(_casts(_definition(persist, "check_array")))  # the scan sees a cast
