"""The package surface: public names resolve and the runtime stays stdlib-only."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bchkit

PACKAGE_DIR = Path(bchkit.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize("module", ["signedeval", "freealgebra", "dynkin"])
def test_independent_routes_share_only_the_input_guard(module):
    # verify's reference routes: a kernel shared with series would pass its own
    # bugs, so of the package they import only words, the input guard's home
    path = PACKAGE_DIR / f"{module}.py"
    imported = {
        node.module
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported == {"words"}


def test_every_tracer_target_resolves_to_a_callable():
    # the tracer skips a target it cannot find, so a name moved away would
    # only drop that layer's keys from a traced benchmark run
    tracing = _tracing()
    missing = []
    for name, module, target, _ in tracing.LAYERS:
        try:
            resolved = tracing._Slot(module, target).get()
        except (ImportError, AttributeError, ValueError) as exc:
            resolved = exc
        if not callable(resolved):
            missing.append(f"{name}: {module}.{target} -> {resolved!r}")
    assert tracing.LAYERS
    assert not missing


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
