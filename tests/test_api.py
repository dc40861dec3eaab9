"""Every name the package exports is reached by code that is not its own test,
every optional parameter of an exported function is set by such code, and
every error type is raised or warned by package code.

A name counts as reached when some code outside its own definition refers to
it, as an AST name or attribute (docstring text does not count), in the
package, a demo, a tool or an acceptance test.  A name whose only callers are
its unit tests is library code that no command, demo or claim relies on.  A
defaulted parameter counts as set when a call in the same code, outside the
function's own definition, passes it a value other than its literal default,
by keyword or by position; one that only unit tests set is a knob.  An
error type counts as live when package code raises or warns with it, or when
it is the base of a live one; a type that is never raised is a dead knob's
leftover.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names(root=ROOT):
    tree = ast.parse((root / "src" / "hdcca" / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _enclosing(node, enclosing):
    """``enclosing`` with the name ``node`` defines, if it is a def or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return enclosing + (node.name,)
    return enclosing


def _references(node, enclosing=()):
    """Names and attributes under ``node``; a reference inside the def or
    class of the same name is its own definition and does not count."""
    enclosing = _enclosing(node, enclosing)
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


def _reaching_trees(root):
    """The parsed package modules, demos, tools and acceptance test."""
    files = [p for p in (root / "src" / "hdcca").glob("*.py") if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    files.append(root / "tests" / "test_acceptance.py")
    return [ast.parse(path.read_text(encoding="utf-8")) for path in files]


def reached_names(root=ROOT):
    reached = set()
    for tree in _reaching_trees(root):
        reached.update(_references(tree))
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


def optional_parameters(root=ROOT):
    """``{function: (positional parameter names, {parameter: default node})}``
    for each module-level function of the package that ``__init__`` exports."""
    names = exported_names(root)
    found = {}
    for path in (root / "src" / "hdcca").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                                    args.defaults))
                defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                if d is not None)
                found[node.name] = (positional, defaults)
    return found


def _calls(node, enclosing=()):
    """``(name, call)`` for each call under ``node`` of a name or attribute,
    except a call inside the def of the same name."""
    enclosing = _enclosing(node, enclosing)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is not None and name not in enclosing:
            yield name, node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, enclosing)


def unset_parameters(root=ROOT):
    """``function.parameter`` for each optional parameter of an exported
    function that no call in the reaching code passes a value other than
    its literal default."""
    functions = optional_parameters(root)
    unset = {(name, param) for name, (_, defaults) in functions.items() for param in defaults}
    for tree in _reaching_trees(root):
        for name, call in _calls(tree):
            if name not in functions:
                continue
            positional, defaults = functions[name]
            passed = list(zip(positional, call.args))
            passed += [(kw.arg, kw.value) for kw in call.keywords if kw.arg is not None]
            for param, value in passed:
                if param in defaults and ast.dump(value) != ast.dump(defaults[param]):
                    unset.discard((name, param))
    return sorted(f"{name}.{param}" for name, param in unset)


def test_every_optional_parameter_is_set():
    unset = unset_parameters()
    assert not unset, f"optional parameters passed only their defaults: {unset}"


def test_default_or_own_call_does_not_set(tmp_path):
    (tmp_path / "src" / "hdcca").mkdir(parents=True)
    (tmp_path / "src" / "hdcca" / "__init__.py").write_text("from .mod import f\n")
    (tmp_path / "src" / "hdcca" / "mod.py").write_text(
        "def f(a, b=1, *, c=False, d=None, e=2, h=0):\n    return f(a, e=3)\n\n"
        "def g(x):\n    return f(x, 2, c=x, d=None)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from hdcca import f\n\nf(0, h=1)\n'''f(0, d=1)'''\n"
    )
    assert unset_parameters(root=tmp_path) == ["f.d", "f.e"]


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
