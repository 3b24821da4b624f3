"""src/ keeps no test-only code.

Every private module-level function of the package must be used by the
package itself: referenced by name, as an attribute or by an import
somewhere in src/edgehar, other than inside its own body. A helper that only
tests call is a second definition of what the package does, and goes.
"""

import ast
from pathlib import Path

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
