"""Code with no caller in src/ is deleted, not kept for tests.

Every top-level function and class in the package must be read somewhere in
src/ besides its own definition, as a name or as an attribute, or be part
of the public API in memgrep.__all__. Importing a name does not count as
reading it.
"""

import ast
from pathlib import Path

import memgrep

SRC = Path(memgrep.__file__).resolve().parent


def test_every_top_level_definition_has_a_caller_or_is_exported():
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                defined.append((own, f"{path.name}:{top.lineno}"))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:     # a definition reading itself is no caller
                    read.add(name)
    dead = [f"{name} ({where})" for name, where in defined
            if name not in read and name not in memgrep.__all__]
    assert not dead, f"no caller in src/ and not exported: {dead}"
