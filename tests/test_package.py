"""Package-wide properties of the library source."""

import ast
import sys
from pathlib import Path

import shatterbasis


def test_library_imports_only_the_standard_library():
    src = Path(shatterbasis.__file__).resolve().parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
