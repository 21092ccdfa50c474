"""Module boundaries: no library module reaches into a sibling's privates."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "maxalg"


def test_no_private_names_imported_between_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("maxalg"):
                continue
            offenders.extend(
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            )
    assert offenders == []


def test_only_the_product_core_touches_the_lifted_form():
    # a MaxMatrix's _reduced, _row_lifts and _cols slots hold the exact
    # product core's integer forms; no other module reads or writes them,
    # by attribute or by name
    private = {"_reduced", "_row_lifts", "_cols"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert offenders == []
