"""Every name the package exports is reached by code that is not its own test.

A name counts as reached when some code outside its own definition refers to
it, as an AST name or attribute (docstring text does not count), in the
package, a demo, a tool or an acceptance test.  A name whose only callers are
its unit tests is library code that no command, demo or claim relies on.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hdcca"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(node, enclosing=()):
    """Names and attributes under ``node``; a reference inside the def or
    class of the same name is its own definition and does not count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node.name,)
    if isinstance(node, ast.Name):
        ref = node.id
    elif isinstance(node, ast.Attribute):
        ref = node.attr
    else:
        ref = None
    if ref is not None and ref not in enclosing:
        yield ref
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def reached_names(root=ROOT):
    files = [p for p in (root / "src" / "hdcca").glob("*.py") if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    reached = set()
    for path in files:
        reached.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    return reached


def test_every_export_is_reached():
    names = exported_names()
    unreached = sorted(names - reached_names())
    assert not unreached, f"exported but reached only by their own tests: {unreached}"


def test_own_definition_does_not_count(tmp_path):
    (tmp_path / "src" / "hdcca").mkdir(parents=True)
    (tmp_path / "src" / "hdcca" / "mod.py").write_text(
        "def lonely():\n    return lonely\n\n"
        "def used():\n    pass\n\n"
        "def caller():\n    '''lonely'''\n    return used()\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    reached = reached_names(root=tmp_path)
    assert "used" in reached
    assert "lonely" not in reached
