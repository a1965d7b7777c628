"""Every imported name is read somewhere in its module, and importing
`permchar.verify` loads no module that only a rarely used path needs.

An AST scan of `src/`, `tools/` and `tests/`: a name bound by an import
counts as used when the module loads it (a bare name, or the root of an
attribute chain), names it in a quoted annotation, or lists it in
`__all__`. `from __future__` imports are left out.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tools", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def _imported_names(tree) -> dict:
    """Bound name -> line of the import that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        # quoted annotations such as "PermGroup" or "list[Permutation]"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_scan_covers_every_package():
    folders = {path.relative_to(ROOT).parts[0] for path in SOURCES}
    assert folders == {"src", "tools", "tests"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.relative_to(ROOT)}: unused imports {unused}"


def test_importing_verify_loads_no_dataclasses_inspect_or_json():
    """`dataclasses` pulls in `inspect` (about 7.5 ms a process), and the
    library never serializes reports itself; a fresh interpreter that
    imports `permchar.verify` must load none of the three."""
    code = (
        "import sys; before = set(sys.modules); import permchar.verify; "
        "print(sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert "permchar.verify" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}
