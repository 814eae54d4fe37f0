"""End-to-end CLI behavior through main(argv)."""

import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from bchkit import cli, output, series
from bchkit.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("BCHKIT_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTerm:
    def test_z4_text(self, capsys):
        code, out, _ = run(capsys, "term", "4")
        assert code == 0
        assert out.splitlines() == [
            "1/24  xxyy",
            "-1/12  xyxy",
            "1/12  yxyx",
            "-1/24  yyxx",
        ]

    def test_three_factors(self, capsys):
        code, out, _ = run(capsys, "term", "2", "--factors", "3", "--letters", "x,y,w")
        assert code == 0
        assert "1/2  xy" in out and "-1/2  wy" in out

    def test_series_per_factor(self, capsys):
        code, out, _ = run(capsys, "term", "2", "--series", "1,1", "--series", "1,1")
        assert code == 0
        assert out.splitlines() == ["-1/2  xx", "1/2  xy", "-1/2  yx", "-1/2  yy"]

    def test_single_series_broadcasts(self, capsys):
        code_once, out_once, _ = run(capsys, "term", "2", "--series", "1,1")
        code_twice, out_twice, _ = run(capsys, "term", "2", "--series", "1,1", "--series", "1,1")
        assert code_once == code_twice == 0
        assert out_once == out_twice

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "term", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 3
        assert doc["letters"] == ["x", "y"]
        assert ["xxy", "1", "12"] in doc["terms"]

    def test_failed_cache_write_leaves_nothing(self, capsys, monkeypatch, isolated_cache):
        real_fdopen = os.fdopen

        class HalfWriter:
            """Writes half of the entry, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(
            output.os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode))
        )
        code, out, err = run(capsys, "term", "4")
        assert code == 0
        assert out.splitlines() == ["1/24  xxyy", "-1/12  xyxy", "1/12  yxyx", "-1/24  yyxx"]
        assert "cache write failed" in err
        assert list(isolated_cache.iterdir()) == []

    def test_dynkin_payload(self, capsys):
        code, out, _ = run(capsys, "term", "2", "--dynkin")
        assert code == 0
        assert "dynkin:" in out
        assert "1/4  [x,y]" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z2.txt"
        code, out, _ = run(capsys, "term", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines() == ["1/2  xy", "-1/2  yx"]

    def test_unwritable_out_is_io_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "term", "2", "--out", str(tmp_path / "no" / "f.txt"))
        assert code == 3
        assert "cannot write" in err

    def test_cache_round_trip(self, capsys, isolated_cache):
        code1, out1, _ = run(capsys, "term", "5", "--format", "json")
        assert code1 == 0
        entries = list(isolated_cache.glob("*.json"))
        assert len(entries) == 1
        code2, out2, _ = run(capsys, "term", "5", "--format", "json")
        assert code2 == 0
        assert out2 == out1
        assert list(isolated_cache.glob("*.json")) == entries

    def test_malformed_entry_is_recomputed(self, capsys, isolated_cache):
        code, _, _ = run(capsys, "term", "2")
        assert code == 0
        [entry] = isolated_cache.glob("*.json")
        good = entry.read_text()
        entry.write_text("[]")
        code, out, err = run(capsys, "term", "2")
        assert code == 0
        assert out.splitlines() == ["1/2  xy", "-1/2  yx"]
        assert err == ""
        assert entry.read_text() == good

    def test_zero_denominator_entry_is_recomputed(self, capsys, isolated_cache):
        code, _, _ = run(capsys, "term", "3")
        assert code == 0
        [entry] = isolated_cache.glob("*.json")
        good = entry.read_text()
        body = json.loads(good)
        body["terms"][0][2] = "0"
        entry.write_text(json.dumps(body))
        code, out, err = run(capsys, "term", "3", "--format", "latex")
        assert (code, err) == (0, "")
        assert out == (
            "z_{3} = \\frac{1}{12}\\,xxy - \\frac{1}{6}\\,xyx + \\frac{1}{12}\\,xyy"
            " + \\frac{1}{12}\\,yxx - \\frac{1}{6}\\,yxy + \\frac{1}{12}\\,yyx\n"
        )
        assert entry.read_text() == good

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            ((), "order", "99"),
            ((), "order", 3),
            ((), "mode", "scan"),
            ((), "factors", 3),
            ((), "factors", 2.0),
            ((), "letters", ["a", "b"]),
            ((), "series", ["1,1", "exp"]),
            ((), "version", "0.0.1"),
            ((), "dynkin", []),
            (("--dynkin",), "dynkin", None),
        ],
    )
    def test_entry_with_edited_header_is_recomputed(self, capsys, isolated_cache, argv, field, value):
        command = ("term", "2", "--format", "json", *argv)
        code, good_out, _ = run(capsys, *command)
        assert code == 0
        [entry] = isolated_cache.glob("*.json")
        good = entry.read_text()
        body = json.loads(good)
        if value is None:
            del body[field]
        else:
            body[field] = value
        entry.write_text(json.dumps(body))
        assert run(capsys, *command) == (0, good_out, "")
        assert entry.read_text() == good

    @pytest.mark.parametrize("flags", [(), ("--dynkin", "--format", "json"), ("--factors", "3")])
    def test_stats_go_to_stderr_only(self, capsys, flags):
        code, plain, err = run(capsys, "term", "6", "--no-cache", *flags)
        assert (code, err) == (0, "")
        code, out, miss = run(capsys, "term", "6", "--stats", *flags)
        assert code == 0 and out == plain
        code, out, hit = run(capsys, "term", "6", "--stats", *flags)
        assert code == 0 and out == plain
        code, out, off = run(capsys, "term", "6", "--stats", "--no-cache", *flags)
        assert code == 0 and out == plain
        words = len(json.loads(out)["terms"]) if "json" in flags else len(out.split("\n\n")[0].splitlines())
        assert miss.startswith(f"stats: cache miss, {words} words out, lane width W = ")
        assert hit.splitlines()[0] == f"stats: cache hit, {words} words out"
        assert off.startswith(f"stats: cache off, {words} words out, lane width W = ")

        def stages(block):
            return [line.split("  ")[1].strip() for line in block.splitlines()[1:]]

        dynkin = ["dynkin"] if "--dynkin" in flags else []
        kernel = ["scales", "width", "recurrence", "unpack"]
        assert stages(miss) == ["cache load", *kernel, *dynkin, "rows", "cache store", "render"]
        assert stages(hit) == ["cache load", "render"]
        assert stages(off) == [*kernel, *dynkin, "rows", "render"]

    def test_no_cache_leaves_nothing(self, capsys, isolated_cache):
        code, _, _ = run(capsys, "term", "3", "--no-cache")
        assert code == 0
        assert not isolated_cache.exists()

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "term", "0")
        assert code == 1
        assert "order" in err

    def test_bad_series(self, capsys):
        code, _, err = run(capsys, "term", "2", "--series", "2,1")
        assert code == 1
        assert "f(0) = 1" in err

    def test_series_count_mismatch(self, capsys):
        code, _, err = run(
            capsys, "term", "2", "--factors", "3", "--series", "exp", "--series", "exp"
        )
        assert code == 1
        assert "--series" in err

    def test_letters_count_mismatch(self, capsys):
        code, _, err = run(capsys, "term", "2", "--letters", "x,y,z")
        assert code == 1
        assert "--letters" in err

    def test_duplicate_letters_rejected(self, capsys):
        code, _, err = run(capsys, "term", "2", "--letters", "x,x")
        assert code == 1
        assert "duplicate" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--factors", "30"), "no default naming for 30 letters; pass explicit names"),
            (("--letters", "x,x"), "duplicate letters in ('x', 'x')"),
        ],
    )
    def test_alphabet_error_is_one_stderr_line(self, capsys, flags, message):
        assert run(capsys, "term", "2", *flags) == (1, "", f"error: {message}\n")


class TestVerify:
    def test_all_modes_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "3")
        assert code == 0
        for mode in ("oracle", "multi", "signed", "dynkin"):
            assert f"ok {mode} n=3" in out
        assert "all checks passed" in out

    def test_single_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "4", "--modes", "signed")
        assert code == 0
        assert "oracle" not in out
        assert "ok signed n=4" in out

    def test_explicit_mode_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "13", "--modes", "oracle")
        assert code == 1
        assert "n <= 12" in err

    def test_oracle_cap_is_twelve(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--modes", "oracle")
        assert code == 0
        assert "ok oracle n=12 (2044 words)" in out
        assert "all checks passed" in out

    def test_signed_cap_is_fourteen(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--modes", "signed")
        assert code == 0
        assert "ok signed n=12" in out
        code, out, err = run(capsys, "verify", "15", "--modes", "signed")
        assert (code, out) == (1, "")
        assert "n <= 14" in err

    def test_dynkin_cap_is_eighteen(self, capsys):
        code, out, _ = run(capsys, "verify", "14", "--modes", "dynkin")
        assert code == 0
        assert "ok dynkin n=14 (8188 words)" in out
        code, out, err = run(capsys, "verify", "19", "--modes", "dynkin")
        assert (code, out) == (1, "")
        assert "n <= 18" in err

    def test_default_modes_clamp_with_note(self, capsys):
        code, out, err = run(capsys, "verify", "7")
        assert code == 0
        assert "capped at n=6" in err  # the multi mode's ceiling
        assert "ok oracle n=7" in out

    def test_unknown_mode(self, capsys):
        code, _, err = run(capsys, "verify", "3", "--modes", "fast")
        assert code == 1
        assert "unknown modes" in err

    def test_repeated_mode_runs_once(self, capsys):
        _, once, _ = run(capsys, "verify", "3", "--modes", "signed")
        code, twice, _ = run(capsys, "verify", "3", "--modes", "signed,signed")
        assert code == 0
        assert twice == once

    @pytest.mark.parametrize("modes", [",", " ", ""])
    def test_empty_mode_list_is_usage_error(self, capsys, modes):
        code, out, err = run(capsys, "verify", "5", "--modes", modes)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestScan:
    def test_small_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "4")
        assert code == 0
        assert "n=3  pruned=4  structural=1  nonzero=3  unexpected=0" in out
        assert "no unexpected vanishings" in out

    def test_order_validation(self, capsys):
        code, _, err = run(capsys, "scan", "0")
        assert code == 1


class TestBench:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "bench", "1..3", "--repeat", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # header + three orders

    def test_bare_integer_means_from_one(self, capsys):
        code, out, _ = run(capsys, "bench", "2", "--repeat", "1")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "bench", "5..2", "--repeat", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_bare_zero_is_an_empty_range(self, capsys):
        code, out, err = run(capsys, "bench", "0", "--repeat", "1")
        assert code == 1
        assert out == ""
        assert "empty range" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bench", "1..2", "--repeat", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["repeat"] == 2
        assert [row["n"] for row in data["rows"]] == [1, 2]
        assert data["rows"][0]["symbolic"]["terms"] == 2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "bench", "abc")
        assert code == 1
        assert "range" in err


class TestSizeLimit:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an order over the size limit")

        for name in ("_parse_series", "lex_lanes", "scan_nonvanishing", "term_uncached"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("term", "23"),
            ("term", "1000000000"),
            ("term", "12", "--factors", "4"),
            ("scan", "64"),
            ("bench", "1..30"),
        ],
    )
    def test_oversized_order_refused_before_work(self, capsys, no_work, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"limit of {series.MAX_WORDS}" in err

    @pytest.mark.parametrize("command", ["term", "scan"])
    def test_order_zero_is_one_stderr_line(self, capsys, no_work, command):
        assert run(capsys, command, "0") == (1, "", "error: order must be >= 1, got 0\n")

    def test_limit_applies_to_words_of_the_term(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "MAX_WORDS", 16)
        code, out, _ = run(capsys, "term", "4", "--no-cache")
        assert code == 0
        assert len(out.splitlines()) == 4
        code, _, err = run(capsys, "term", "5", "--no-cache")
        assert code == 1
        assert "limit of 16" in err


# stdout digests of fixed commands, recorded by perfbench/record_digests.py on
# a commit whose output was known good; read only
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


# the same for orders past the benchmark's, three and four factors, --dynkin,
# latex and json: "term 13", "term 14", "term 8 --factors 3" and "term 6
# --factors 4" were recorded at commit b8583dd, from the matrix-product kernel
# that the packed kernel replaced; the other five at commit 3a18888, from the
# Fraction/NCSeries output path that rows built from the lanes replaced
TERM_DIGESTS = json.loads((Path(__file__).resolve().parent / "term_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(TERM_DIGESTS))
def test_term_stdout_matches_matrix_kernel_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TERM_DIGESTS[command]


@pytest.mark.parametrize("command", sorted({**DIGESTS, **TERM_DIGESTS}))
def test_cache_hit_prints_the_miss_bytes(capsys, isolated_cache, command):
    """The miss, the hit, and a hit on an entry in the indent=2 layout that
    earlier versions wrote all print the same bytes."""
    miss = run(capsys, *command.split())
    assert run(capsys, *command.split()) == miss
    for entry in isolated_cache.glob("*.json"):
        entry.write_text(output.OutputDocument.from_json_text(entry.read_text()).to_json_text())
    assert run(capsys, *command.split()) == miss


class TestParsing:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "term", "3", "--wat")
        assert code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "bchkit" in capsys.readouterr().out

    def test_no_flag_carries_over_between_calls(self, capsys):
        """main reuses one parser per process; each call starts from the defaults."""
        code, out, _ = run(capsys, "term", "3", "--dynkin", "--format", "json")
        assert code == 0
        assert "dynkin" in json.loads(out)
        run(capsys, "term", "3", "--series", "1,1")
        code, out, _ = run(capsys, "term", "3")
        assert code == 0
        assert "dynkin" not in out
        cli._build_parser.cache_clear()
        assert run(capsys, "term", "3") == (code, out, "")
        code, out, _ = run(capsys, "verify", "2", "--modes", "oracle")
        assert code == 0
        assert "signed" not in out
        code, out, _ = run(capsys, "verify", "2")
        assert code == 0
        for mode in ("oracle", "multi", "signed", "dynkin"):
            assert f"ok {mode} n=2" in out
