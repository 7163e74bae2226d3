"""Guard against uncalled code: every definition in src/magnorm is named elsewhere.

Every top-level function, class and non-dunder assigned name (a module
constant) of src/magnorm/*.py, and every non-dunder method of a top-level
class, must be named somewhere other than inside its own definition.  The
search covers src/, scripts/, bench/ and tests/test_acceptance.py; the
unit tests do not count, since code that only its own unit test calls is
uncalled code.  A name counts where it appears as a Name, an Attribute, a
name imported with `from ... import`, or a part of a dotted string
constant: bench/spans.py names the layers it traces in strings such as
"model.validation_ndcg".
The package's `__init__` re-exports do not count, as re-exporting a
function does not call it.

The check is by name only.  A definition passes whenever anything
shares its name, so a top-level `norm` would pass on `np.linalg.norm`.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "magnorm"
SEARCHED = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "scripts").rglob("*.py")),
    *sorted((ROOT / "bench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _definitions(tree):
    """(qualified name, name, first line, last line) of each guarded definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                if isinstance(name.ctx, ast.Store) and not (name.id.startswith("__") and name.id.endswith("__")):
                    yield name.id, name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _mentions(path, tree):
    """(name, line) of every place the file names something."""
    reexports = path == PACKAGE / "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not reexports:
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def uncalled() -> list:
    mentions = defaultdict(list)
    for path in SEARCHED:
        for name, line in _mentions(path, ast.parse(path.read_text(), str(path))):
            mentions[name].append((path, line))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, first, last in _definitions(ast.parse(path.read_text(), str(path))):
            outside = [(p, line) for p, line in mentions[name] if p != path or not first <= line <= last]
            if not outside:
                found.append(f"{path.stem}.{qualname}")
    return found


def test_every_definition_is_named_outside_itself():
    assert uncalled() == []
