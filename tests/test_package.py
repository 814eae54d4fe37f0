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
def test_independent_routes_import_only_words(module):
    # verify's reference routes: a kernel shared with series would pass its own
    # bugs, so of the package they import only words, the home of the input
    # guard and the lane decoder; they share those two and no kernel
    path = PACKAGE_DIR / f"{module}.py"
    imported = {
        node.module
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert imported == {"words"}


def test_both_kernels_share_one_lane_decoder():
    from bchkit import series, signedeval, words

    assert series.unpack_lanes is words.unpack_lanes is signedeval.unpack_lanes
    assert not hasattr(signedeval, "_unpack")


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


# -S: a site hook (a .pth file) may import any stdlib module itself, so
# the module sets below are bchkit's own only without site
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _run(*argv, env=ENV):
    """A fresh `python -m bchkit argv`, run as -m runs it: its exit code, its
    stdout, its stderr lines and the modules loaded by its exit."""
    probe = f"""
import runpy, sys
sys.argv = ["bchkit", *{list(argv)!r}]
try:
    runpy.run_module("bchkit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules), file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True)
    *stderr, last = proc.stderr.splitlines()
    code, *modules = last.split()
    return int(code), proc.stdout, stderr, set(modules)


def test_version_imports_only_the_entry_modules():
    code, out, _, loaded = _run("--version")
    assert (code, out) == (0, f"bchkit {bchkit.__version__}\n")
    # runpy runs bchkit.__main__ as __main__
    assert {m for m in loaded if m.startswith("bchkit")} == {"bchkit", "bchkit.cli"}
    assert not loaded & {"fractions", "dataclasses", "hashlib", "tempfile", "json"}


def test_scan_imports_no_symbolic_route():
    code, out, _, loaded = _run("scan", "6")
    assert (code, out.splitlines()[-1]) == (0, "no unexpected vanishings")
    assert "bchkit.signedeval" in loaded
    assert not loaded & {f"bchkit.{m}" for m in ("series", "output", "freealgebra", "dynkin", "trimatrix")}


def test_term_imports_no_reference_route(tmp_path):
    env = {**ENV, "BCHKIT_CACHE_DIR": str(tmp_path)}
    runs = [_run("term", "6", "--stats", env=env) for _ in range(2)]
    assert [stderr[0].split(",")[0] for _, _, stderr, _ in runs] == ["stats: cache miss", "stats: cache hit"]
    (cold_code, cold_out, *_), (hit_code, hit_out, *_) = runs
    assert (cold_code, hit_code) == (0, 0) and cold_out == hit_out
    for _, _, _, loaded in runs:
        assert "bchkit.output" in loaded
        assert not loaded & {"bchkit.signedeval", "bchkit.freealgebra"}


def test_all_is_unchanged():
    assert bchkit.__all__ == [
        "__version__", "Alphabet", "LieTerm", "MultilinearPoly", "NCSeries", "OutputDocument",
        "Rational", "ScanReport", "SeriesSpec", "SignedCoefficientTable", "SupportOverlapError",
        "TriMatrix", "TruncatedNCSeries", "Word", "bch_term", "bch_term_multi",
        "build_factor_matrix", "build_table", "dynkin_substitute", "eval_assignment",
        "expand_commutators", "log_upper_right", "logf_term", "mat_mul", "nc_mul", "oracle_bch",
        "reconstruct_term", "scan_nonvanishing", "t_operator", "word_matrix_product",
    ]


def test_lazy_names_are_their_home_modules_objects():
    for name in bchkit.__all__[1:]:
        home = importlib.import_module(f"bchkit.{bchkit._HOMES[name]}")
        assert getattr(bchkit, name) is getattr(home, name), name


def test_dir_and_star_import_cover_all():
    assert set(bchkit.__all__) <= set(dir(bchkit))
    namespace: dict = {}
    exec("from bchkit import *", namespace)
    assert set(bchkit.__all__) <= set(namespace)


def test_unknown_and_dunder_names_import_nothing():
    with pytest.raises(AttributeError, match="^module 'bchkit' has no attribute 'no_such_name'$"):
        bchkit.no_such_name
    probe = (
        "import sys, bchkit; "
        "assert not hasattr(bchkit, '__no_such_dunder__') and not hasattr(bchkit, 'no_such_name'); "
        "print(sorted(m for m in sys.modules if m.startswith('bchkit')))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=ENV, check=True)
    assert out.stdout == "['bchkit']\n"


@pytest.mark.parametrize(
    "name, home, argv",
    [("lex_lanes", "series", ["term", "4", "--no-cache"]), ("lattice_terms", "signedeval", ["verify", "4", "--modes", "signed"])],
    ids=["term", "verify"],
)
def test_a_patch_before_the_first_call_survives_the_loader(name, home, argv):
    # set straight into cli's globals, not read first, in a process where
    # the loader has not run yet
    probe = f"""
import contextlib, io
from bchkit import cli
from bchkit.{home} import {name} as real
calls = []
def patched(n, *args):
    calls.append(n)
    return real(n, *args)
cli.{name} = patched
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, calls, cli.{name} is patched)
"""
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=ENV, check=True)
    assert out.stdout == "0 [4] True\n"
