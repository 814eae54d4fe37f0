"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import run
import tracing
import workloads


def _series(argv):
    return [value for flag, value in zip(argv[2::2], argv[3::2]) if flag == "--series"]


def test_same_seed_same_argv_other_seed_other_argv():
    assert workloads.term_general_argvs(7) == workloads.term_general_argvs(7)
    assert workloads.term_general_argvs(7) != workloads.term_general_argvs(8)


def test_generated_specs_are_valid_and_general():
    bchkit = run.load_bchkit()
    for seed in range(20):
        for argv, (m, n, _) in zip(workloads.term_general_argvs(seed), workloads.GENERAL_SHAPES):
            assert argv[:4] == ("term", str(n), "--factors", str(m))
            letters = argv[argv.index("--letters") + 1].split(",")
            assert len(set(letters)) == m
            series = _series(argv)
            assert len(series) == m
            assert any(s != "exp" for s in series)
            for spec in series:
                if spec != "exp":
                    coeffs = [Fraction(c) for c in spec.split(",")]
                    assert coeffs[0] == 1
                    assert all(c.denominator <= 50 for c in coeffs)
                    bchkit.SeriesSpec.from_coeffs(coeffs)


def test_generated_series_cover_zeros_and_negatives():
    specs = [s for argv in workloads.term_general_argvs(1) for s in _series(argv) if s != "exp"]
    coeffs = [Fraction(c) for spec in specs for c in spec.split(",")]
    assert any(c == 0 for c in coeffs)
    assert any(c < 0 for c in coeffs)


def test_oracle_check_accepts_the_pipeline_and_rejects_a_changed_coefficient():
    bchkit = run.load_bchkit()
    argv = ("term", "3", "--factors", "2", "--letters", "a,b", "--series", "1,1/2,0,-3/7", "--series", "exp")
    runner = run.Runner(bchkit, workloads.Workload("t", (), ()), None)
    _, rc, out = runner.call(argv + ("--no-cache",))
    assert rc == 0
    op = workloads.Op(argv, None, 1)
    assert run.output_ok(bchkit, op, out, {})
    first, rest = out.split("\n", 1)
    assert not run.output_ok(bchkit, op, "7" + first + "\n" + rest, {})


def test_pool_never_exceeds_cores():
    assert 1 <= workloads.pool_workers() <= (os.cpu_count() or 1)


def test_missing_layer_is_absent_not_a_crash():
    run.load_bchkit()
    import bchkit.series

    original = bchkit.series.log_upper_right
    layers = (
        ("trimatrix.log", "bchkit.series", "log_upper_right", ()),
        ("gone.fn", "bchkit.series", "no_such_function", (("gone.count", len),)),
        ("gone.module", "bchkit.no_such_module", "fn", ()),
    )
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        assert bchkit.series.log_upper_right is not original
        bchkit.bch_term(3)
    finally:
        tracer.uninstall()
    assert bchkit.series.log_upper_right is original
    assert tracer.present == {"trimatrix.log"}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    for metric in spec["per_layer"]:
        assert run.per_layer_unit(metric["name"]) == metric["unit"], metric["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
