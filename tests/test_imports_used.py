"""Every ``src/repro`` module reads each name it imports.

A pure ``ast`` scan (no import of the modules): an imported name must be
read somewhere in its module: as code, inside a string annotation
(``Optional["HookBus"]`` under ``TYPE_CHECKING``) or by name in the
module's ``__all__`` (a deliberate re-export).  Package ``__init__.py``
files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree):
    """``(bound name, line)`` for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    """Names the module loads, plus names inside string annotations and
    ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    return read


def test_every_module_reads_every_name_it_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in read
        ]
    assert unused == []
