"""Public API that only the tests use is deleted.

A static scan of ``src/spe`` (nothing is imported): every public
module-level function, class and constant, and every public method or
property of a public class, must be referenced somewhere other than in its
own definition.  A reference is a loaded name, an attribute or an imported
name in ``src/spe``, ``bench/`` or ``tests/test_acceptance.py``, or the name
as a word in README.md (``.name`` for a method or property).  The other
tests do not count: a name that only they use is dead code with tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spe").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def public(name: str) -> bool:
    return not name.startswith("_")


def definitions(path: Path) -> list:
    """(qualified name, name, is a member of a class) of each public
    definition at the top of the module at ``path``."""
    module = path.stem
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
            found.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                found += [(f"{module}.{node.name}.{item.name}", item.name, True)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef) and public(item.name)]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(f"{module}.{t.id}", t.id, False) for t in targets
                  if isinstance(t, ast.Name) and public(t.id)]
    return found


class References(ast.NodeVisitor):
    """Each loaded name, loaded attribute and imported name of a module, with
    the qualified names of the definitions that enclose it."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []  # (name, is an attribute, enclosing qualified names)

    def _enclosed(self, node):
        self.scope.append(f"{self.scope[-1]}.{node.name}")
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enclosed

    def _record(self, name, attribute):
        self.found.append((name, attribute, frozenset(self.scope)))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._record(node.id, False)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._record(node.attr, True)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._record(alias.name, False)


def references() -> list:
    found = []
    for path in USERS:
        visitor = References(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def unreferenced() -> list:
    refs = references()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = []
    for path in SOURCES:
        for qualname, name, member in definitions(path):
            used = any(ref == name and (attribute or not member) and qualname not in scope
                       for ref, attribute, scope in refs)
            word = (r"\." if member else r"\b") + re.escape(name) + r"\b"
            if not used and not re.search(word, readme):
                missing.append(qualname)
    return missing


def test_scan_finds_definitions_and_references():
    names = {qualname for path in SOURCES for qualname, _, _ in definitions(path)}
    assert {"entropy.entropy_table", "entropy.BumpProfile.sample",
            "cli.MAX_ENTROPY_ROWS", "scheme.run"} <= names
    assert not any(name.split(".")[-1].startswith("_") for name in names)


def test_public_api_is_used_outside_the_tests():
    assert unreferenced() == []
