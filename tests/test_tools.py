"""The by-hand tools under `tools/` import cleanly, so a library name they
use that is renamed or removed fails the suite, not the next rebuild."""

import importlib.util
from pathlib import Path

from permchar.corpus import data_dir

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_mathieu_table_builder_imports_without_running():
    """Importing the builder runs no rebuild, and each header it writes is
    the one the bundled file carries."""
    path = TOOLS / "build_mathieu_tables.py"
    spec = importlib.util.spec_from_file_location("build_mathieu_tables", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main) and callable(tool.build)
    for name, header in tool.HEADERS.items():
        text = (data_dir() / "tables" / f"{name}.ctbl").read_text()
        assert text.startswith("".join(f"# {line}\n" for line in header.splitlines()))
