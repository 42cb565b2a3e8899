"""Every function and method of the package is named somewhere besides its
own ``def``: in the package or in the tests.  Dunder methods are called by
Python itself and are exempt."""

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
