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


def _absolute_imports():
    """(file name, top-level module) for each absolute import in the package."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield path.name, module.split(".")[0]


def test_imports_are_relative_or_stdlib():
    assert not [f"{name}: {module}" for name, module in _absolute_imports() if module not in sys.stdlib_module_names]


def test_no_module_imports_typing():
    # collections.abc holds the abstract types. A static check: on some
    # Python versions the interpreter's own runpy path loads typing before
    # bchkit runs, so sys.modules cannot tell whose import it was
    assert not [name for name, module in _absolute_imports() if module == "typing"]


def _relative_imports(tree):
    """The package modules a parsed module imports by a relative import: x
    for `from .x import ...`, and each alias that names a module for `from .
    import ...` (names of `__init__`, such as `__version__`, are left out)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imported.add(node.module)
            else:
                imported.update(a.name for a in node.names if (PACKAGE_DIR / f"{a.name}.py").exists())
    return imported


def _package_imports(module):
    path = PACKAGE_DIR / f"{module}.py"
    return _relative_imports(ast.parse(path.read_text(), str(path)))


def test_a_module_imported_from_the_package_counts():
    # a route that did `from . import series` would reach the kernel
    tree = ast.parse("from . import series, __version__, CACHE_ENV_VAR\nfrom .words import Word")
    assert _relative_imports(tree) == {"series", "words"}


@pytest.mark.parametrize("module", ["signedeval", "freealgebra", "dynkin"])
def test_independent_routes_import_only_words(module):
    # verify's reference routes: a kernel shared with series would pass its own
    # bugs, so of the package they import only words, the home of the input
    # guard and the lane decoder; they share those two and no kernel
    assert _package_imports(module) == {"words"}


def test_words_is_the_bottom_layer_and_output_imports_only_words():
    # the shared vocabulary depends on no route, and the renderer reaches no
    # reference route for its bracket text
    assert _package_imports("words") == set()
    assert _package_imports("output") == {"words"}


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
    assert not loaded & {f"bchkit.{m}" for m in ("multilinear", "series", "output", "freealgebra", "dynkin", "trimatrix")}


def test_term_imports_no_reference_route(tmp_path):
    env = {**ENV, "BCHKIT_CACHE_DIR": str(tmp_path)}
    runs = [_run("term", "6", "--stats", env=env) for _ in range(2)]
    assert [stderr[0].split(",")[0] for _, _, stderr, _ in runs] == ["stats: cache miss", "stats: cache hit"]
    (cold_code, cold_out, *_), (hit_code, hit_out, *_) = runs
    assert (cold_code, hit_code) == (0, 0) and cold_out == hit_out
    for _, _, _, loaded in runs:
        assert "bchkit.output" in loaded
        assert not loaded & {"bchkit.signedeval", "bchkit.freealgebra", "bchkit.dynkin"}


def test_verify_imports_only_the_named_routes():
    code, out, _, loaded = _run("verify", "4", "--modes", "signed")
    assert (code, out.splitlines()[-1]) == (0, "all checks passed")
    assert "bchkit.signedeval" in loaded
    assert not loaded & {"bchkit.freealgebra", "bchkit.dynkin"}


def test_a_handler_runs_without_main():
    # each cmd_* fills the cli names it calls, in a process where nothing has
    # filled them yet
    probe = """
from bchkit import cli
args = cli._build_parser().parse_args(["scan", "4"])
code = args.handler(args)
print(code)
"""
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=ENV, check=True)
    assert out.stdout.splitlines()[-2:] == ["no unexpected vanishings", "0"]


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
    # names that moved into words still resolve at their old homes
    from bchkit import dynkin, multilinear, words

    assert multilinear.Rational is words.Rational
    assert multilinear.ExactCombination is words.ExactCombination
    assert dynkin.left_normed is words.left_normed


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
