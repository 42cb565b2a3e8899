"""The two routes that decide each two-sided condition stay independent.

``check_twosided`` trusts a verdict because two transcriptions of each
identity agree: the elementwise route (the table ``CONDITIONS``, ``_scan``,
``_Ten`` and the ``*_scan`` builders) and the composite route
(``_composite_conditions`` and the side builders of ``crossed`` it calls).
A helper that both routes called would let one slip reach both verdicts, so
they may share only the field, the input maps and the ``exactla`` primitives,
plus the value and error classes of ``report``, ``errors`` and ``record``,
which compute nothing.  Checked statically, in the style of
``test_dead_code.py``: every module-level name a definition mentions is
followed to the module that defines it, through relative imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xprod"
SHARED_MODULES = {"exactla", "report", "errors", "record"}


def package_graph():
    """(definitions, imports): (module, name) -> node of every module-level
    def, class and assignment, and (module, name) -> (module, name) of every
    relative ``from . import``."""
    defs, imports = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod, alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def reach(roots):
    """Every package definition that the roots mention, transitively; the
    shared modules are entered but not followed."""
    defs, imports = package_graph()

    def resolve(mod, name):
        while (mod, name) in imports:
            mod, name = imports[mod, name]
        return (mod, name) if (mod, name) in defs else None

    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        if key[0] in SHARED_MODULES:
            continue
        for name in mentions(defs[key]):
            target = resolve(key[0], name)
            if target is not None:
                stack.append(target)
    return seen


def mentions(node):
    """The names a definition mentions, its annotations left out: they only
    name the types of arguments and results."""
    if isinstance(node, ast.Name):
        yield node.id
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from mentions(child)


ELEMENTWISE = reach([("twosided", "CONDITIONS"), ("twosided", "_scan"), ("twosided", "_Ten")])
COMPOSITE = reach([("twosided", "_composite_conditions")])


def test_each_route_reaches_its_own_helpers():
    assert {("twosided", name) for name in (
        "_mult_left_scan", "_mult_right_scan", "_twist_unit_scans", "_one_scan",
        "Condition")} <= ELEMENTWISE
    assert {("crossed", name) for name in (
        "_twist_units", "_twist_unit", "_connector_unit", "_mult_left", "_mult_right",
        "_braid")} | {("algebra", "_column_witness"), ("algebra", "_unit_legs")} <= COMPOSITE


def test_routes_share_no_helper():
    shared = sorted(key for key in ELEMENTWISE & COMPOSITE if key[0] not in SHARED_MODULES)
    assert not shared, f"both routes reach {shared}"
