"""Documents, renderings, and the content-addressed cache."""

import json
import random
from fractions import Fraction

import pytest

from bchkit import __version__
from bchkit.dynkin import dynkin_substitute
from bchkit.output import (
    OutputDocument,
    cache_dir,
    cache_key,
    cache_load,
    cache_store,
    render_latex,
    render_text,
)
from bchkit.series import bch_term, lex_lanes, logf_term, t_operator
from bchkit.signedeval import build_table, reconstruct_term
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from bchkit.words import Alphabet

A2 = Alphabet.default(2)


def make_doc(n=3, with_dynkin=False):
    exp = SeriesSpec.exponential(n)
    brackets = dynkin_substitute(bch_term(n)) if with_dynkin else None
    return OutputDocument.from_lex(
        __version__, "term", n, ("exp", "exp"), A2, *lex_lanes(n, [exp, exp]), brackets
    )


def key_of(doc):
    """The cache key of the request that ``doc`` answers."""
    return cache_key(doc.version, doc.mode, doc.order, doc.letters, doc.series, doc.dynkin is not None)


class TestDocument:
    def test_round_trip_plain(self):
        doc = make_doc(4)
        assert OutputDocument.from_json_text(doc.to_json_text()) == doc

    def test_round_trip_with_dynkin(self):
        doc = make_doc(3, with_dynkin=True)
        assert OutputDocument.from_json_text(doc.to_json_text()) == doc

    def test_serialization_is_stable(self):
        doc = make_doc(4)
        text = doc.to_json_text()
        reparsed = OutputDocument.from_json_text(text)
        assert reparsed.to_json_text() == text

    def test_payload_order_is_graded_lex(self):
        doc = make_doc(4)
        words = [row[0] for row in doc.terms]
        assert words == sorted(words, key=lambda w: (len(w), [A2.letters.index(c) for c in w]))

    def test_coefficients_in_lowest_terms(self):
        doc = make_doc(4)
        for _, num, den in doc.terms:
            f = Fraction(int(num), int(den))
            assert (str(f.numerator), str(f.denominator)) == (num, den)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            OutputDocument.from_json_text('{"tool": "something-else"}')

    def test_arbitrary_precision_survives(self):
        big = Fraction(1, 10**40 + 9)
        doc = OutputDocument(
            version=__version__,
            mode="term",
            order=1,
            factors=2,
            letters=("x", "y"),
            series=("exp", "exp"),
            terms=[("x", str(big.numerator), str(big.denominator))],
        )
        back = OutputDocument.from_json_text(doc.to_json_text())
        assert Fraction(int(back.terms[0][1]), int(back.terms[0][2])) == big


def matrix_route(n, specs):
    """z_n through the full factor matrices and their Fraction log."""
    product = build_factor_matrix(n, 0, specs[0])
    for family, f in enumerate(specs[1:], start=1):
        product = mat_mul(product, build_factor_matrix(n, family, f))
    return t_operator(log_upper_right(product), Alphabet.default(len(specs)))


def random_specs(m, n):
    # about half the coefficients zero, the rest of either sign
    rng = random.Random(1000 * m + n)
    return [
        SeriesSpec.from_coeffs(
            [1] + [rng.choice((0, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))) for _ in range(n)]
        )
        for _ in range(m)
    ]


def sign_lattice(n, specs):
    return reconstruct_term(n, build_table(n, "symmetry"))


# largest order per factor count, as far as the matrix route stays quick
LEX_CASES = [
    *[(random_specs(m, n), n, matrix_route) for m, top in {2: 9, 3: 6, 4: 5}.items() for n in range(1, top + 1)],
    *[([SeriesSpec.exponential(n)] * 2, n, sign_lattice) for n in range(1, 13)],
]


@pytest.mark.parametrize("specs,n,route", LEX_CASES)
def test_rows_from_lanes_match_rows_from_series(specs, n, route):
    """The two consumers of the kernel's lanes, the CLI's rows and the library's
    NCSeries, give the same document, and it is the one an independent
    route gives: the matrix route on random series, the sign lattice on exp."""
    alphabet = Alphabet.default(len(specs))
    names = [spec.fingerprint() for spec in specs]
    lex = OutputDocument.from_lex(__version__, "term", n, names, alphabet, *lex_lanes(n, specs))
    header = (lex.order, lex.factors, lex.letters, lex.series, lex.dynkin)
    assert header == (n, len(specs), alphabet.letters, tuple(names), None)
    for term in (logf_term(n, specs), route(n, specs)):
        rows = [(alphabet.word_str(w), str(c.numerator), str(c.denominator)) for w, c in term.items_sorted()]
        assert lex.terms == rows


class TestRenderings:
    def test_text_lines(self):
        text = render_text(make_doc(2))
        assert text.splitlines() == ["1/2  xy", "-1/2  yx"]

    def test_text_with_dynkin_section(self):
        lines = render_text(make_doc(2, with_dynkin=True)).splitlines()
        assert "dynkin:" in lines
        tail = lines[lines.index("dynkin:") + 1 :]
        assert tail == ["1/4  [x,y]", "-1/4  [y,x]"]

    def test_latex_fragment(self):
        fragment = render_latex(make_doc(2))
        assert fragment.startswith("z_{2} = ")
        assert "\\frac{1}{2}\\,xy" in fragment
        assert "- \\frac{1}{2}\\,yx" in fragment

    def test_latex_unit_coefficient_drops_the_one(self):
        fragment = render_latex(make_doc(1))
        assert fragment == "z_{1} = x + y\n"

    def test_formats_carry_identical_payloads(self):
        doc = make_doc(4)
        from_text = {
            tuple(line.split("  "))[::-1] for line in render_text(doc).splitlines()
        }
        from_doc = set()
        for word, num, den in doc.terms:
            c = Fraction(int(num), int(den))
            from_doc.add((word, num if den == "1" else f"{num}/{den}"))
        assert from_text == from_doc
        latex = render_latex(doc)
        for word, num, den in doc.terms:
            assert word in latex

    def test_empty_payload(self):
        doc = OutputDocument(
            version=__version__,
            mode="term",
            order=2,
            factors=2,
            letters=("x", "y"),
            series=("1", "1"),
            terms=[],
        )
        assert render_text(doc) == "0\n"
        assert render_latex(doc) == "z_{2} = 0\n"
        assert OutputDocument.from_json_text(doc.to_json_text()) == doc


class TestCache:
    def test_key_is_stable_and_sensitive(self):
        base = cache_key("0.1.0", "term", 4, ("x", "y"), ("exp", "exp"), False)
        assert base == cache_key("0.1.0", "term", 4, ("x", "y"), ("exp", "exp"), False)
        variants = [
            cache_key("0.2.0", "term", 4, ("x", "y"), ("exp", "exp"), False),
            cache_key("0.1.0", "term", 5, ("x", "y"), ("exp", "exp"), False),
            cache_key("0.1.0", "term", 4, ("a", "b"), ("exp", "exp"), False),
            cache_key("0.1.0", "term", 4, ("x", "y"), ("1,1", "exp"), False),
            cache_key("0.1.0", "term", 4, ("x", "y"), ("exp", "exp"), True),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_store_and_load(self, tmp_path):
        doc = make_doc(3)
        key = cache_key(__version__, "term", 3, ("x", "y"), ("exp", "exp"), False)
        assert cache_store(key, doc, tmp_path)
        assert cache_load(key, tmp_path) == doc

    def test_store_leaves_only_the_entry(self, tmp_path):
        key = key_of(make_doc(4))
        assert cache_store(key, make_doc(3), tmp_path)
        assert cache_store(key, make_doc(4), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]
        assert cache_load(key, tmp_path) == make_doc(4)

    def test_entry_under_another_key_is_a_miss(self, tmp_path):
        doc = make_doc(3)
        for key in (key_of(make_doc(4)), key_of(make_doc(3, with_dynkin=True)), "a" * 64):
            assert cache_store(key, doc, tmp_path)
            assert cache_load(key, tmp_path) is None
        assert cache_store(key_of(doc), doc, tmp_path)
        assert cache_load(key_of(doc), tmp_path) == doc

    def test_missing_entry(self, tmp_path):
        assert cache_load("0" * 64, tmp_path) is None

    def test_corrupt_entry_behaves_like_miss(self, tmp_path):
        key = "f" * 64
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache_load(key, tmp_path) is None

    BAD_ROWS = {
        "two_field_row": ["xxy", "1"],
        "zero_denominator": ["xxy", "1", "0"],
        "word_numerator": ["xxy", "abc", "12"],
        "negative_denominator": ["xxy", "1", "-12"],
        "padded_numerator": ["xxy", " 1", "12"],
        "non_ascii_digit": ["xxy", "\u0661", "12"],
        "number_field": ["xxy", 1, "12"],
        "string_row": "x12",
    }

    @pytest.mark.parametrize(
        "case", ["list", "string", "deep_nesting", "bad_dynkin_row", *BAD_ROWS]
    )
    def test_malformed_entry_behaves_like_miss(self, tmp_path, case):
        doc = make_doc(3, with_dynkin=True)
        key = key_of(doc)  # the entry's own key, so only its rows make it a miss
        body = json.loads(doc.to_json_text())
        if case in self.BAD_ROWS:
            body["terms"][0] = self.BAD_ROWS[case]
        if case == "bad_dynkin_row":
            body["dynkin"][0][2] = "0"
        text = {"list": "[]", "string": '"xxy"', "deep_nesting": "[" * 100_000}.get(
            case, json.dumps(body)
        )
        (tmp_path / f"{key}.json").write_text(text)
        assert cache_load(key, tmp_path) is None
        if case not in ("list", "string", "deep_nesting"):
            with pytest.raises(ValueError):
                OutputDocument.from_json_text(text)

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BCHKIT_CACHE_DIR", str(tmp_path / "override"))
        assert cache_dir() == tmp_path / "override"

    def test_default_under_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("BCHKIT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_dir() == tmp_path / "bchkit"
