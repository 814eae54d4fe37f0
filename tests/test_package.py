"""The package surface: public names resolve and the runtime stays stdlib-only."""

import ast
import os
import subprocess
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


def test_cli_import_leaves_out_pool_and_statistics():
    # only a pooled lattice call needs the process pool (and the
    # multiprocessing it pulls in) and only bench needs statistics
    probe = (
        "import sys, bchkit.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'statistics') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
