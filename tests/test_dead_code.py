"""Every function and method of the package is named somewhere besides its
own ``def``: in the package or in the tests.  Dunder methods are called by
Python itself and are exempt.  Every field of a value class is read somewhere,
every import is named, and every parameter is read by its function."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xprod"


def definitions():
    """(module, qualified name, bare name) of every module-level function and
    every method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.name, f"{node.name}.{item.name}", item.name


def test_every_definition_is_named_outside_its_def():
    text = "\n".join(path.read_text(encoding="utf-8")
                     for folder in (ROOT / "src", ROOT / "tests")
                     for path in sorted(folder.rglob("*.py")))
    mentions = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef (\w+)\(", text))
    unused = [f"{module}: {qualified}" for module, qualified, name in definitions()
              if not (name.startswith("__") and name.endswith("__"))
              and mentions[name] <= defs[name]]
    assert not unused, f"defined but never named elsewhere: {unused}"


def record_fields():
    """(module, class, field) of every annotated field of a ``@record`` class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield path.name, node.name, item.target.id


def test_every_record_field_is_read():
    # by name: a field counts as read when any attribute access in the package
    # or the tests has its name
    read = {node.attr
            for folder in (ROOT / "src", ROOT / "tests")
            for path in sorted(folder.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}
    unread = [f"{module}: {cls}.{name}" for module, cls, name in record_fields()
              if name not in read]
    assert not unread, f"fields never read: {unread}"


def unused_imports(path):
    """Names that a module-level import of ``path`` binds and the module never
    names again; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in named]


def test_every_import_is_named():
    # __init__.py imports in order to re-export
    unused = [entry for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for entry in unused_imports(path)]
    assert not unused, f"imported but never named: {unused}"


def unread_parameters(path):
    """(qualified name, parameter) of every parameter that a module-level
    function or a method of a module-level class never reads.  ``self`` and
    ``cls`` are exempt, and so are the functions stored as values of a
    module-level dict (``_HANDLERS``, ``_SECTIONS``): the dispatch fixes their
    signature."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dispatched = {value.id for node in tree.body
                  if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                  for value in node.value.values if isinstance(value, ast.Name)}
    functions = [(None, node) for node in tree.body] + [
        (node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body]
    for cls, fn in functions:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in dispatched:
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for p in params:
            if p.arg not in read and p.arg not in ("self", "cls"):
                yield fn.name if cls is None else f"{cls}.{fn.name}", p.arg


def test_every_parameter_is_read():
    unread = [f"{path.name}: {qualified}({name})" for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in unread_parameters(path)]
    assert not unread, f"parameters never read: {unread}"
