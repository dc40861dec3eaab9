"""Every name the package exports is reached by code that is not its own test,
and every error type is raised or warned by package code.

A name counts as reached when some code outside its own definition refers to
it, as an AST name or attribute (docstring text does not count), in the
package, a demo, a tool or an acceptance test.  A name whose only callers are
its unit tests is library code that no command, demo or claim relies on.  An
error type counts as live when package code raises or warns with it, or when
it is the base of a live one; a type that is never raised is a dead knob's
leftover.
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


def error_types(root=ROOT):
    """Each class ``errors.py`` defines, mapped to the names of its bases."""
    tree = ast.parse((root / "src" / "hdcca" / "errors.py").read_text(encoding="utf-8"))
    return {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def raised_types(root=ROOT):
    """Names the package raises (``raise X`` or ``raise X(...)``) or warns
    with (``warnings.warn(text, X)``)."""
    found = set()
    for path in (root / "src" / "hdcca").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    found.add(exc.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "warn"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Name)
            ):
                found.add(node.args[1].id)
    return found


def dead_error_types(root=ROOT):
    """Error types that are neither raised or warned by package code nor the
    base of one that is."""
    types = error_types(root)
    live = raised_types(root) & set(types)
    frontier = set(live)
    while frontier:
        bases = {base for name in frontier for base in types[name]}
        frontier = (bases & set(types)) - live
        live |= frontier
    return sorted(set(types) - live)


def test_every_error_type_is_raised():
    dead = dead_error_types()
    assert not dead, f"error types no package code raises or warns: {dead}"


def test_unraised_error_type_is_found(tmp_path):
    (tmp_path / "src" / "hdcca").mkdir(parents=True)
    (tmp_path / "src" / "hdcca" / "errors.py").write_text(
        "class Base(Exception):\n    pass\n\n"
        "class Raised(Base):\n    pass\n\n"
        "class Warned(UserWarning):\n    pass\n\n"
        "class Dead(Base):\n    pass\n"
    )
    (tmp_path / "src" / "hdcca" / "mod.py").write_text(
        "import warnings\n\n"
        "def f(x):\n"
        "    if x:\n        raise Raised('no')\n"
        "    warnings.warn('careful', Warned, stacklevel=2)\n"
        "    '''raise Dead'''\n"
    )
    assert dead_error_types(root=tmp_path) == ["Dead"]
