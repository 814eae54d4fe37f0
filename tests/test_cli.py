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

from bchkit import __version__, cli, output, series, signedeval, words
from bchkit.cli import main
from bchkit.dynkin import dynkin_substitute
from bchkit.freealgebra import oracle_bch
from bchkit.trimatrix import SeriesSpec
from bchkit.words import Alphabet, NCSeries
from helpers import lane_masks, prime_series


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
    return cache / output.cache_key(n, ("x", "y"), ("exp", "exp"), False, fmt)


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

    def test_term_dynkin_decodes_no_words(self, capsys, monkeypatch):
        # the bracket rows come from the same integer lanes as the word rows:
        # term --dynkin never turns them into an NCSeries
        decoded = []
        from_lex = NCSeries.from_lex.__func__

        def counting(cls, alphabet, degree, den, nums):
            decoded.append(degree)
            return from_lex(cls, alphabet, degree, den, nums)

        monkeypatch.setattr(NCSeries, "from_lex", classmethod(counting))
        code, out, _ = run(capsys, "term", "9", "--dynkin", "--no-cache")
        assert (code, "dynkin:" in out) == (0, True)
        assert decoded == []

    @pytest.mark.parametrize("n, m, raw", [*((n, 2, "exp") for n in range(1, 9)), (6, 3, "1,1/2,-3")])
    def test_bracket_rows_match_dynkin_substitute(self, capsys, n, m, raw):
        # the reference: the oracle's term through dynkin_substitute and LieTerm.bracket_str
        alphabet = Alphabet.default(m)
        spec = SeriesSpec.exponential(n) if raw == "exp" else SeriesSpec.from_coeffs(raw.split(","))
        z = oracle_bch(n, m, [spec] * m)
        reference = [f"{t.coefficient}  {t.bracket_str(alphabet)}" for t in dynkin_substitute(z)]
        code, out, _ = run(capsys, "term", str(n), "--factors", str(m), "--series", raw, "--dynkin", "--no-cache")
        assert code == 0
        assert out.split("\ndynkin:\n")[1].splitlines() == reference

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

        # with --dynkin too: its bracket rows are built in the rows stage
        kernel = ["scales", "width", "recurrence", "unpack"]
        assert stages(miss) == ["cache load", *kernel, "rows", "render", "cache store"]
        assert stages(hit) == ["cache load"]
        assert stages(off) == [*kernel, "rows", "render"]

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
        code, _, err = run(capsys, "verify", "19", "--modes", "oracle")
        assert code == 1
        assert "n <= 18" in err

    def test_oracle_cap_is_eighteen(self, capsys):
        code, out, _ = run(capsys, "verify", "18", "--modes", "oracle")
        assert code == 0
        assert "ok oracle n=18 (131068 words)" in out
        assert "all checks passed" in out

    def test_signed_cap_is_eighteen(self, capsys):
        code, out, _ = run(capsys, "verify", "12", "--modes", "signed")
        assert code == 0
        assert "ok signed n=12" in out
        code, out, err = run(capsys, "verify", "19", "--modes", "signed")
        assert (code, out) == (1, "")
        assert "n <= 18" in err

    @pytest.mark.parametrize("changed", [["xyyx"], ["yxxy", "xxyy"], ["yyyy", "xyxy", "yxxx"]])
    def test_mismatch_names_the_first_differing_word(self, capsys, monkeypatch, changed):
        # the signed route returns z_4 with each changed word's coefficient
        # raised by 1/7: verify stops there with exit 2 and names the first of
        # them in graded-lex order, whatever order they were changed in
        lattice_terms = cli.lattice_terms

        def perturbed(n_max):
            terms = lattice_terms(n_max)
            den, nums = terms[3]  # order 4, over 7 den from here on
            nums = [7 * c for c in nums]
            for name in changed:
                nums[int(name.replace("x", "0").replace("y", "1"), 2)] += den  # its graded-lex index
            terms[3] = 7 * den, nums
            return terms

        monkeypatch.setattr(cli, "lattice_terms", perturbed)
        code, out, _ = run(capsys, "verify", "6", "--modes", "signed")
        first = min(changed)
        expected = series.bch_term(4).coefficient(tuple("xy".index(c) for c in first))
        assert code == 2
        assert out.splitlines()[3:] == [
            f"FAIL signed n=4: word {first}: pipeline {expected}, reference {expected + Fraction(1, 7)}"
        ]
        assert out.splitlines()[:3] == [f"ok signed n={n} ({len(series.bch_term(n).terms)} words)" for n in (1, 2, 3)]

    @pytest.mark.parametrize("mode, order, word", [("oracle", 3, "xyy"), ("multi", 2, "wx"), ("dynkin", 5, "xyxyy")])
    def test_every_route_fails_on_its_first_differing_word(self, capsys, monkeypatch, mode, order, word):
        # one word of one order raised on the reference side: the oracle's
        # lane by 1/7, the Dynkin expansion by one unit of its denominator
        m = 3 if mode == "multi" else 2
        w = Alphabet.default(m).parse_word(word)
        _, passing, _ = run(capsys, "verify", "6", "--modes", mode)
        index = int("".join(map(str, w)), m)  # graded-lex: the word's letters as base-m digits
        if mode == "dynkin":
            expand, delta = cli._expand_lex, Fraction(1, series.term_lanes(order, m)[0] * order)

            def perturbed(nums, letters, k):
                return [c + (k == order and i == index) for i, c in enumerate(expand(nums, letters, k))]

            monkeypatch.setattr(cli, "_expand_lex", perturbed)
        else:
            oracle_lanes, delta = cli.oracle_lanes, Fraction(1, 7)

            def perturbed(*args):
                lanes = oracle_lanes(*args)
                den, nums = lanes[order - 1]  # over 7 den from here on
                nums = [7 * c for c in nums]
                nums[index] += den
                lanes[order - 1] = 7 * den, nums
                return lanes

            monkeypatch.setattr(cli, "oracle_lanes", perturbed)
        code, out, _ = run(capsys, "verify", "6", "--modes", mode)
        expected = series.bch_term_multi(order, m).coefficient(w)
        assert code == 2
        assert out.splitlines() == [
            *passing.splitlines()[: order - 1],
            f"FAIL {mode} n={order}: word {word}: pipeline {expected}, reference {expected + delta}",
        ]

    def test_signed_route_reads_the_even_plus_lanes(self, capsys, monkeypatch):
        # the all-minus assignment of order 5 has no +1, an even count, so the
        # lattice gives it 0 and a symmetry table would write 0 without reading it
        lattice = signedeval._lattice

        def raised(*args):
            lanes = lattice(*args)
            [(_, den, start, nums)] = [order for order in lanes if order[0] == 5]
            nums[lane_masks(5, start, 0).index(0b11111)] += 1  # the P-lane of the all-minus mask
            return lanes

        monkeypatch.setattr(signedeval, "_lattice", raised)
        code, out, _ = run(capsys, "verify", "6", "--modes", "signed")
        assert code == 2
        # raising one assignment by 1/den, den = lcm(1..5) 5!, moves every word
        # by 1/(2**5 den); the first is xxxxx, whose coefficient in z_5 is 0
        assert out.splitlines() == [
            *(f"ok signed n={n} ({len(series.bch_term(n).terms)} words)" for n in range(1, 5)),
            f"FAIL signed n=5: word xxxxx: pipeline 0, reference {Fraction(1, 2**5 * 60 * 120)}",
        ]

    def test_each_route_runs_once_at_its_top_order(self, capsys, monkeypatch):
        # every order is a slice of one oracle run per oracle mode and one
        # lattice walk for signed, each at the mode's capped limit
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, args[0]))
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "oracle_lanes", counting("oracle_lanes", cli.oracle_lanes))
        monkeypatch.setattr(signedeval, "_lattice", counting("_lattice", signedeval._lattice))
        code, out, _ = run(capsys, "verify", "9")
        assert code == 0
        assert calls == [("oracle_lanes", 9), ("oracle_lanes", 6), ("_lattice", 9)]
        assert out.count("ok ") == 9 + 6 + 9 + 9

    def test_dynkin_cap_is_twenty(self, capsys):
        code, out, _ = run(capsys, "verify", "14", "--modes", "dynkin")
        assert code == 0
        assert "ok dynkin n=14 (8188 words)" in out
        code, out, err = run(capsys, "verify", "21", "--modes", "dynkin")
        assert (code, out) == (1, "")
        assert "n <= 20" in err

    def test_passing_verify_decodes_no_words(self, capsys, monkeypatch):
        # both sides of every order are compared as integer lanes: a pass
        # never turns them into an NCSeries
        decoded = []
        from_lex = NCSeries.from_lex.__func__

        def counting(cls, alphabet, degree, den, nums):
            decoded.append(degree)
            return from_lex(cls, alphabet, degree, den, nums)

        monkeypatch.setattr(NCSeries, "from_lex", classmethod(counting))
        code, out, _ = run(capsys, "verify", "9")
        assert (code, out.splitlines()[-1]) == (0, "all checks passed")
        assert decoded == []

    def test_lanes_are_compared_as_values_over_their_denominators(self, capsys, monkeypatch):
        # a reference over 7 den with 7 nums is the same term; one unit more
        # on one lane is a different one, named by its word
        _, passing, _ = run(capsys, "verify", "6", "--modes", "signed")
        lattice_terms = cli.lattice_terms

        def scaled(raised):
            def perturbed(n_max):
                terms = [(7 * den, [7 * c for c in nums]) for den, nums in lattice_terms(n_max)]
                terms[4][1][0b01101] += raised  # order 5, graded-lex index of xyyxy
                return terms

            return perturbed

        monkeypatch.setattr(cli, "lattice_terms", scaled(0))
        assert run(capsys, "verify", "6", "--modes", "signed") == (0, passing, "")
        monkeypatch.setattr(cli, "lattice_terms", scaled(1))
        code, out, _ = run(capsys, "verify", "6", "--modes", "signed")
        den, nums = series.term_lanes(5, 2)
        expected = Fraction(nums[0b01101], den)
        assert code == 2
        assert out.splitlines() == [
            *passing.splitlines()[:4],
            f"FAIL signed n=5: word xyyxy: pipeline {expected}, reference {expected + Fraction(1, 7 * 32 * den)}",
        ]

    def test_a_reference_one_lane_short_is_refused(self, capsys, monkeypatch):
        # lanes are never compared on a common prefix: order 3 with 7 of its
        # 8 lanes is a mismatch naming both counts, not a pass
        lattice_terms = cli.lattice_terms

        def short(n_max):
            terms = lattice_terms(n_max)
            den, nums = terms[2]
            terms[2] = den, nums[:-1]
            return terms

        monkeypatch.setattr(cli, "lattice_terms", short)
        code, out, err = run(capsys, "verify", "6", "--modes", "signed")
        assert code == 2
        assert out.splitlines() == ["ok signed n=1 (2 words)", "ok signed n=2 (2 words)",
                                    "FAIL signed n=3: 8 pipeline numerators against 7 reference numerators"]
        assert err == ""

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


class TestFirstDiff:
    """_first_diff compares a / den against b / den_ref lane by lane, whichever
    denominator divides the other, or neither; the lanes here are z_6's
    numerators read as integers, scaled by each side's denominator."""

    BASE = list(series.term_lanes(6, 2)[1])
    DENS = {"equal": (6, 6), "den_ref_divides_den": (12, 4), "den_divides_den_ref": (4, 12), "coprime": (4, 9)}

    def pair(self, case):
        den, den_ref = self.DENS[case]
        return den, tuple(c * den for c in self.BASE), den_ref, [c * den_ref for c in self.BASE]

    @pytest.mark.parametrize("case", DENS)
    def test_equal_orders_give_none(self, case):
        # a tuple pipeline, as the term memo hands out, against a list reference
        assert cli._first_diff(*self.pair(case)) is None

    @pytest.mark.parametrize("index", [0, 32, 63], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("case", DENS)
    def test_a_changed_lane_is_located(self, case, index):
        den, a, den_ref, b = self.pair(case)
        b[index] += 1
        assert cli._first_diff(den, a, den_ref, b) == index
        b[index] -= 1
        a = [c - (k >= index) for k, c in enumerate(a)]  # every later lane changed too
        assert cli._first_diff(den, a, den_ref, b) == index

    def test_unequal_lengths_are_refused(self):
        # a verification mismatch, not a ValueError that main reports as bad input
        assert not issubclass(cli.Mismatch, ValueError)
        with pytest.raises(cli.Mismatch, match="^3 pipeline numerators against 2 reference numerators$"):
            cli._first_diff(2, (2, 4, 6), 1, [1, 2])


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

    # nonzero words of z_1 .. z_12, as bench printed them when it still
    # counted the words of an NCSeries term on both routes
    TERMS = [2, 2, 6, 4, 30, 28, 126, 124, 390, 388, 2046, 2044]

    def test_terms_columns_are_pinned(self, capsys):
        code, out, _ = run(capsys, "bench", "1..12", "--repeat", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == list(range(1, 13))
        assert [row["symbolic"]["terms"] for row in rows] == self.TERMS
        assert [row["signed"]["terms"] for row in rows] == self.TERMS


class TestOutOfMemory:
    @pytest.fixture(autouse=True)
    def exhausted(self, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError

        # the kernel entries of term and of verify's pipeline side
        for name in ("lex_lanes", "term_lanes"):
            monkeypatch.setattr(cli, name, exhaust)

    def test_term_is_one_stderr_line_and_no_cache_entry(self, capsys, isolated_cache):
        assert run(capsys, "term", "5") == (1, "", "error: out of memory\n")
        assert not list(isolated_cache.glob("*"))

    def test_verify_exits_one(self, capsys):
        assert run(capsys, "verify", "3") == (1, "", "error: out of memory\n")


class TestSizeLimit:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an order over the size limit")

        for name in ("_parse_series", "lex_lanes", "scan_nonvanishing", "lattice_terms"):
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
        assert f"limit of {words.MAX_WORDS}" in err

    @pytest.mark.parametrize("command", ["term", "scan"])
    def test_order_zero_is_one_stderr_line(self, capsys, no_work, command):
        assert run(capsys, command, "0") == (1, "", "error: order must be >= 1, got 0\n")

    def test_limit_applies_to_words_of_the_term(self, capsys, monkeypatch):
        monkeypatch.setattr(words, "MAX_WORDS", 16)
        code, out, _ = run(capsys, "term", "4", "--no-cache")
        assert code == 0
        assert len(out.splitlines()) == 4
        code, _, err = run(capsys, "term", "5", "--no-cache")
        assert code == 1
        assert "limit of 16" in err


class TestBitsBudget:
    def test_wide_term_refused_before_the_recurrence(self, capsys, monkeypatch, isolated_cache):
        # 2^22 lanes of W = 768 bits, six times exp's 2^22 * 128 at n = 22
        def refuse(*args, **kwargs):
            raise AssertionError("the recurrence ran over the bits budget")

        monkeypatch.setattr(series, "packed_log_entry", refuse)
        start = time.perf_counter()
        result = run(capsys, "term", "22", "--series", ",".join(prime_series(22)))
        assert time.perf_counter() - start < 1
        assert result == (1, "", "error: order 22 over 2 factors needs 2^22 lanes of W = 768 bits, "
                                 f"over the budget of {series.MAX_BITS} bits\n")
        assert not list(isolated_cache.glob("*"))


class TestRefusals:
    """Bad input the size limit does not cover: exit 1, nothing on stdout,
    one error line, before any kernel runs."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel ran on refused input")

        monkeypatch.setattr(series, "_scaled_steps", refuse)
        monkeypatch.setattr(signedeval, "_walk", refuse)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("term", "3", "--factors", "1"), "factor count must be >= 2, got 1"),
            (("verify", "0"), "order must be >= 1, got 0"),
            (("scan", "5", "--workers", "0"), "workers must be >= 1, got 0"),
            (("bench", "0..3"), "range must start at 1 or above, got 0"),
            (("bench", "3", "--repeat", "0"), "--repeat must be >= 1, got 0"),
        ],
    )
    def test_one_stderr_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "letters,flags,refused",
        [
            *((f"x,{c}", ("--format", "latex"), c) for c in "\\{}_^%$#&~"),
            ("_,^", ("--format", "latex"), "_"),
            ("[,]", ("--dynkin",), "["),
            ("x,]", ("--dynkin", "--format", "json"), "]"),
        ],
    )
    def test_letter_the_output_cannot_write(self, capsys, monkeypatch, letters, flags, refused):
        def refuse(*args, **kwargs):
            raise AssertionError("the cache was read for refused letters")

        monkeypatch.setattr(cli, "cache_load", refuse)
        why = "is a bracket; --dynkin rows" if refused in "[]" else "is special in LaTeX; --format latex"
        assert run(capsys, "term", "3", "--letters", letters, *flags) == (
            1, "", f"error: letter {refused!r} {why} cannot write it\n")

    @pytest.mark.parametrize("letters,flags", [("_,^", ()), ("[,]", ()), ("[,]", ("--format", "latex"))])
    def test_letter_another_output_writes_is_kept(self, monkeypatch, letters, flags):
        # refused only where it cannot be written: the no_kernel fixture stops the run past the guard
        with pytest.raises(AssertionError, match="a kernel ran"):
            main(["term", "3", "--no-cache", "--letters", letters, *flags])


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
# that the packed kernel replaced; "term 8 --dynkin --format latex", "term 5
# --factors 3 --series 1,1/2,-3 --dynkin" and "term 4 --letters a,é --dynkin
# --format json" at commit 649e9f5, from the NCSeries/LieTerm bracket path that
# bracket rows built from the lanes replaced; the two 13-coefficient --series
# commands (lane widths 152 and 72 bits: three 64-bit chunks, and one with a
# 1-byte high chunk) at commit 5e13354, from the first-row kernel and its
# digit-reversal unpack that the last-column kernel replaced; the other five at
# commit 3a18888, from the Fraction/NCSeries output path that rows built from
# the lanes replaced
TERM_DIGESTS = json.loads((Path(__file__).resolve().parent / "term_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(TERM_DIGESTS))
def test_term_stdout_matches_matrix_kernel_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TERM_DIGESTS[command]


# signed-route stdout recorded at commit fb27f70, whose sign lattice joined
# each subtree's lanes by mask, before the lanes stayed in prefix-product
# order: serial and pooled scans share one join, so a diff of the two cannot
# see a join fault that these can; scan 13 runs its top order as 2 subtrees
SIGNED_DIGESTS = {
    "scan 13": "dfcff31c679f7b34dedead349d6a539db16e7c95989a77e3b601e41225ec126f",
    "verify 13 --modes signed": "f002991132f3d733d4bfe21dd6b4ef9c5c4a50926ac3924903721dfac9e26d31",
}


@pytest.mark.parametrize("command", sorted(SIGNED_DIGESTS))
def test_signed_stdout_matches_mask_join_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIGNED_DIGESTS[command]


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
