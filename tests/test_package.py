"""The package surface: public names resolve and the runtime stays stdlib-only."""

import ast
import sys
from pathlib import Path

import bchkit

PACKAGE_DIR = Path(bchkit.__file__).parent


def test_public_names_resolve():
    for name in bchkit.__all__:
        assert hasattr(bchkit, name), name
    assert bchkit.TruncatedNCSeries is bchkit.NCSeries


def test_imports_are_relative_or_stdlib():
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {module}")
    assert not outside
