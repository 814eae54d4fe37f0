"""End-to-end CLI behavior through main(argv)."""

import errno
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bchkit import __version__, cli, output, series, signedeval
from bchkit.cli import main
from bchkit.words import NCSeries


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("BCHKIT_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entry_of(cache, n, fmt="text"):
    """The cache entry of ``term n --format fmt`` with the default flags."""
    return cache / output.cache_key(__version__, "term", n, ("x", "y"), ("exp", "exp"), False, fmt)


def with_header(entry, key=None, words=None, digest=None, payload=None):
    """``entry`` with fields of its header or its payload replaced; the digest
    follows the payload unless it is given."""
    header, body = entry.split(b"\n", 1)
    old_key, old_words, _ = header.split(b" ")
    payload = body if payload is None else payload
    digest = digest or hashlib.sha256(payload).hexdigest().encode()
    return b" ".join([key or old_key, words or old_words, digest]) + b"\n" + payload


# each turns the entry of term 3 into one that must be a miss; the entry of
# term 4 is the second argument
CORRUPTIONS = {
    "digit_changed": lambda e, other: e.replace(b"-1/6  xyx", b"-7/6  xyx"),
    "truncated_payload": lambda e, other: e[:-5],
    "byte_appended": lambda e, other: e + b"x",
    "header_names_another_key": lambda e, other: with_header(e, key=b"0" * 64),
    "bad_digest": lambda e, other: with_header(e, digest=b"0" * 64),
    "non_integer_word_count": lambda e, other: with_header(e, words=b"6.0"),
    "negative_word_count": lambda e, other: with_header(e, words=b"-6"),
    "non_utf8_bytes": lambda e, other: with_header(e, payload=b"\xff" + e.split(b"\n", 1)[1]),
    "no_newline": lambda e, other: e.split(b"\n", 1)[0],
    "empty_file": lambda e, other: b"",
    "copied_from_another_key": lambda e, other: other,
}


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
        entries = list(isolated_cache.iterdir())
        assert entries == [entry_of(isolated_cache, 5, "json")]
        code2, out2, _ = run(capsys, "term", "5", "--format", "json")
        assert code2 == 0
        assert out2 == out1
        assert list(isolated_cache.iterdir()) == entries

    def test_each_format_has_its_own_entry(self, capsys, isolated_cache):
        """One entry per format: a second format of a term computes it once more."""
        text = run(capsys, "term", "5", "--stats")
        json_ = run(capsys, "term", "5", "--format", "json", "--stats")
        assert sorted(isolated_cache.iterdir()) == sorted(entry_of(isolated_cache, 5, f) for f in ("text", "json"))
        for first, flags in ((text, ()), (json_, ("--format", "json"))):
            assert first[2].startswith("stats: cache miss, 30 words out")
            code, out, err = run(capsys, "term", "5", "--stats", *flags)
            assert (code, out) == first[:2]
            assert err.splitlines()[0] == "stats: cache hit, 30 words out"

    def test_malformed_entry_is_recomputed(self, capsys, isolated_cache):
        code, _, _ = run(capsys, "term", "2")
        assert code == 0
        [entry] = isolated_cache.iterdir()
        good = entry.read_bytes()
        entry.write_text("[]")
        code, out, err = run(capsys, "term", "2")
        assert code == 0
        assert out.splitlines() == ["1/2  xy", "-1/2  yx"]
        assert err == ""
        assert entry.read_bytes() == good

    def test_zero_denominator_entry_is_recomputed(self, capsys, isolated_cache):
        code, miss, _ = run(capsys, "term", "3", "--format", "latex")
        assert code == 0
        entry = entry_of(isolated_cache, 3, "latex")
        good = entry.read_bytes()
        entry.write_bytes(good.replace(b"\\frac{1}{12}", b"\\frac{1}{0}", 1))
        code, out, err = run(capsys, "term", "3", "--format", "latex")
        assert (code, err) == (0, "")
        assert out == miss == (
            "z_{3} = \\frac{1}{12}\\,xxy - \\frac{1}{6}\\,xyx + \\frac{1}{12}\\,xyy"
            " + \\frac{1}{12}\\,yxx - \\frac{1}{6}\\,yxy + \\frac{1}{12}\\,yyx\n"
        )
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_entry_is_recomputed(self, capsys, isolated_cache, case):
        """Each corrupted entry is a miss: the command prints the miss bytes,
        exits 0 with empty stderr, and the entry is rewritten."""
        miss = run(capsys, "term", "3")
        assert miss[0] == 0 and miss[2] == ""
        assert run(capsys, "term", "4")[0] == 0
        entry = entry_of(isolated_cache, 3)
        good = entry.read_bytes()
        bad = CORRUPTIONS[case](good, entry_of(isolated_cache, 4).read_bytes())
        assert bad != good
        entry.write_bytes(bad)
        assert run(capsys, "term", "3") == miss
        assert entry.read_bytes() == good

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
        """A field of the document's own header edited in a --format json
        entry: the payload no longer matches its digest."""
        command = ("term", "2", "--format", "json", *argv)
        code, good_out, _ = run(capsys, *command)
        assert code == 0
        [entry] = isolated_cache.iterdir()
        good = entry.read_bytes()
        head, payload = good.split(b"\n", 1)
        body = json.loads(payload)
        if value is None:
            del body[field]
        else:
            body[field] = value
        entry.write_bytes(head + b"\n" + (json.dumps(body, indent=2) + "\n").encode())
        assert run(capsys, *command) == (0, good_out, "")
        assert entry.read_bytes() == good

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
        assert stages(miss) == ["cache load", *kernel, *dynkin, "rows", "render", "cache store"]
        assert stages(hit) == ["cache load"]
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

    @pytest.mark.parametrize("exponent", ["1e300000000", "1e-300000000", "1E+4_301", "1e-4301"])
    def test_huge_series_exponent_fails_fast(self, capsys, exponent):
        """Fraction would build 10**exponent before any check could run."""
        start = time.perf_counter()
        code, out, err = run(capsys, "term", "2", "--no-cache", "--series", f"1,{exponent}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: bad series")

    def test_small_series_exponents_still_parse(self, capsys):
        code, out, _ = run(capsys, "term", "2", "--no-cache", "--series", "1,1e-2,2.5E1_0")
        assert code == 0
        big = "499999999999999/20000"
        assert out.splitlines() == [f"{big}  xx", "1/20000  xy", "-1/20000  yx", f"{big}  yy"]

    @pytest.mark.parametrize("flags", [(), ("--no-cache",)])
    @pytest.mark.parametrize("order,coefficient", [(2, "1e2200"), (3, "1e1500")])
    def test_coefficient_past_the_digit_limit(self, capsys, isolated_cache, flags, order, coefficient):
        """str() refuses an int of more digits than the interpreter's limit, which stays as it is."""
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "term", str(order), *flags, "--series", f"1,{coefficient}")
        assert (code, out) == (1, "")
        assert err == (f"error: a coefficient of the order-{order} term has more than {limit} digits, "
                       "Python's limit for printing an integer\n")
        assert sys.get_int_max_str_digits() == limit
        assert not isolated_cache.exists() or not any(isolated_cache.iterdir())

    def test_coefficient_under_the_digit_limit_prints(self, capsys, isolated_cache):
        big = 5 * 10**4199
        expected = [f"-{big}  xx", f"{big}  xy", f"-{big}  yx", f"-{big}  yy"]
        for flags in (("--no-cache",), (), ()):  # off, then cold and a hit
            code, out, err = run(capsys, "term", "2", *flags, "--series", "1,1e2100")
            assert (code, err) == (0, "")
            assert out.splitlines() == expected
        assert len(list(isolated_cache.iterdir())) == 1

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

    @pytest.mark.parametrize("changed", [["xyyx"], ["yxxy", "xxyy"], ["yyyy", "xyxy", "yxxx"]])
    def test_mismatch_names_the_first_differing_word(self, capsys, monkeypatch, changed):
        # the signed route returns z_4 with each changed word's coefficient
        # raised by 1/7: verify stops there with exit 2 and names the first of
        # them in graded-lex order, whatever order they were changed in
        reconstruct = cli.reconstruct_term

        def perturbed(n, table):
            z = reconstruct(n, table)
            if n != 4:
                return z
            terms = dict(z.terms)
            for name in changed:
                word = z.alphabet.parse_word(name)
                terms[word] = z.coefficient(word) + Fraction(1, 7)
            return NCSeries(z.alphabet, n, terms)

        monkeypatch.setattr(cli, "reconstruct_term", perturbed)
        code, out, _ = run(capsys, "verify", "6", "--modes", "signed")
        first = min(changed)
        expected = series.bch_term(4).coefficient(tuple("xy".index(c) for c in first))
        assert code == 2
        assert out.splitlines()[3:] == [
            f"FAIL signed n=4: word {first}: pipeline {expected}, reference {expected + Fraction(1, 7)}"
        ]
        assert out.splitlines()[:3] == [f"ok signed n={n} ({len(series.bch_term(n).terms)} words)" for n in (1, 2, 3)]

    def test_each_route_runs_once_at_its_top_order(self, capsys, monkeypatch):
        # every order is a slice of one oracle log per oracle mode and one
        # lattice walk for signed, each at the mode's capped limit
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "oracle_log", counting("oracle_log", cli.oracle_log))
        monkeypatch.setattr(signedeval, "_lattice", counting("_lattice", signedeval._lattice))
        code, out, _ = run(capsys, "verify", "9")
        assert code == 0
        assert calls == [("oracle_log", 9), ("oracle_log", 6), ("_lattice", 9)]
        assert out.count("ok ") == 9 + 6 + 9 + 9

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
    """The miss, the hit, and a run after one byte of each entry's payload
    changed all print the same bytes, and the run after the change rewrites
    the entry."""
    miss = run(capsys, *command.split())
    assert run(capsys, *command.split()) == miss
    entries = {entry: entry.read_bytes() for entry in isolated_cache.glob("*")}
    for entry, good in entries.items():
        entry.write_bytes(good[:-2] + bytes([good[-2] ^ 1]) + good[-1:])
    assert run(capsys, *command.split()) == miss
    assert {entry: entry.read_bytes() for entry in isolated_cache.glob("*")} == entries


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
