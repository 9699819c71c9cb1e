"""The library has no runtime dependencies beyond the standard library, and
imports no module that generates code at start-up."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_imports():
    """``(file name, module)`` for every absolute import in ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name


def test_src_imports_only_the_standard_library():
    foreign = [
        f"{file}: {name}" for file, name in src_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_src_does_not_import_dataclasses():
    # each dataclass execs generated source at every import, and importing
    # dataclasses loads inspect, dis and ast; the records are NamedTuples or
    # hand-written classes instead
    assert [f"{file}: {name}" for file, name in src_imports() if name == "dataclasses"] == []
