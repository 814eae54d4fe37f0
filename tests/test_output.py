"""Documents, renderings, and the content-addressed cache."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from bchkit import __version__, output
from bchkit.output import (
    CACHE_ENV_VAR,
    OutputDocument,
    cache_dir,
    cache_key,
    cache_load,
    cache_store,
    render_latex,
    render_text,
)
from bchkit.series import lex_lanes, logf_term, t_operator
from bchkit.signedeval import build_table, reconstruct_term
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from bchkit.words import Alphabet

A2 = Alphabet.default(2)


def make_doc(n=3, with_dynkin=False):
    exp = SeriesSpec.exponential(n)
    return OutputDocument.from_lex(n, ("exp", "exp"), A2, *lex_lanes(n, [exp, exp]), dynkin=with_dynkin)


def key_of(doc, fmt="json"):
    """The cache key of the request that ``doc`` rendered in ``fmt`` answers."""
    return cache_key(doc.order, doc.letters, doc.series, doc.dynkin is not None, fmt)


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """A fresh cache directory, the one ``BCHKIT_CACHE_DIR`` names."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    return tmp_path


def parse_json(text):
    """The document a --format json payload describes; the package itself
    never reads one back."""
    body = json.loads(text)
    assert body.pop("tool") == "bchkit"
    rows = {name: [tuple(row) for row in body[name]] for name in ("terms", "dynkin") if name in body}
    return OutputDocument(**{**body, "letters": tuple(body["letters"]), "series": tuple(body["series"]), **rows})


class TestDocument:
    def test_round_trip_plain(self):
        doc = make_doc(4)
        assert parse_json(doc.to_json_text()) == doc

    def test_round_trip_with_dynkin(self):
        doc = make_doc(3, with_dynkin=True)
        assert parse_json(doc.to_json_text()) == doc

    def test_serialization_is_stable(self):
        doc = make_doc(4)
        text = doc.to_json_text()
        assert make_doc(4).to_json_text() == text
        assert parse_json(text).to_json_text() == text

    def test_payload_order_is_graded_lex(self):
        doc = make_doc(4)
        words = [row[0] for row in doc.terms]
        assert words == sorted(words, key=lambda w: (len(w), [A2.letters.index(c) for c in w]))

    def test_coefficients_in_lowest_terms(self):
        doc = make_doc(4)
        for _, num, den in doc.terms:
            f = Fraction(int(num), int(den))
            assert (str(f.numerator), str(f.denominator)) == (num, den)

    def test_rejects_foreign_documents(self, cache):
        """A JSON document is no cache entry: neither the indent=2 payload
        under the entry's name nor the compact layout that earlier versions
        wrote to ``<key>.json`` is ever served."""
        doc = make_doc(3)
        key = key_of(doc)
        (cache / key).write_text(doc.to_json_text())
        (cache / f"{key}.json").write_text(json.dumps(doc._body(), separators=(",", ":")))
        assert cache_load(key) is None

    def test_arbitrary_precision_survives(self, cache):
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
        back = parse_json(doc.to_json_text())
        assert Fraction(int(back.terms[0][1]), int(back.terms[0][2])) == big
        key = key_of(doc, "text")
        assert cache_store(key, render_text(doc), 1)
        assert cache_load(key) == (f"1/{10**40 + 9}  x\n", 1)


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
    lex = OutputDocument.from_lex(n, names, alphabet, *lex_lanes(n, specs))
    header = (lex.order, lex.factors, lex.letters, lex.series, lex.dynkin)
    assert header == (n, len(specs), alphabet.letters, tuple(names), None)
    for term in (logf_term(n, specs), route(n, specs)):
        rows = [(alphabet.word_str(w), str(c.numerator), str(c.denominator)) for w, c in term.items_sorted()]
        assert lex.terms == rows


def escaping_doc():
    """Letters the JSON encoder escapes: a quote, a backslash, non-ASCII."""
    alphabet = Alphabet.from_names(['"', "\\", "é"])
    nums = [0, 1, -1, -1, 0, 3, 1, -3, 0]
    return OutputDocument.from_lex(2, ("exp", "1,1/2", "exp"), alphabet, 2, nums)


class TestJsonWriter:
    """The direct --format json writer against the indent=2 encoder."""

    @pytest.mark.parametrize(
        "doc",
        [
            make_doc(1),
            make_doc(6),
            make_doc(4, with_dynkin=True),
            OutputDocument(__version__, "term", 2, 2, ("x", "y"), ("1", "1"), []),
            OutputDocument(__version__, "term", 2, 2, ("x", "y"), ("1", "1"), [], []),
            escaping_doc(),
        ],
        ids=["z1", "z6", "z4-dynkin", "empty-terms", "empty-dynkin", "escaped-letters"],
    )
    def test_bytes_equal_the_encoder(self, doc):
        assert doc.to_json_text() == json.dumps(doc._body(), indent=2) + "\n"

    def test_escaped_letters_round_trip(self):
        doc = escaping_doc()
        assert '"\\"\\u00e9"' in doc.to_json_text()  # the word of letters 0 and 2
        assert parse_json(doc.to_json_text()) == doc


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
        assert parse_json(doc.to_json_text()) == doc


class TestCache:
    def test_key_is_stable_and_sensitive(self, monkeypatch):
        args = (4, ("x", "y"), ("exp", "exp"), False, "text")
        base = cache_key(*args)
        assert base == cache_key(*args)
        variants = [
            cache_key(5, ("x", "y"), ("exp", "exp"), False, "text"),
            cache_key(4, ("a", "b"), ("exp", "exp"), False, "text"),
            cache_key(4, ("x", "y"), ("1,1", "exp"), False, "text"),
            cache_key(4, ("x", "y"), ("exp", "exp"), True, "text"),
            cache_key(4, ("x", "y"), ("exp", "exp"), False, "json"),
            cache_key(4, ("x", "y"), ("exp", "exp"), False, "latex"),
        ]
        monkeypatch.setattr(output, "__version__", "0.2.0")  # another version, another key
        variants.append(cache_key(*args))
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_store_and_load(self, cache):
        doc = make_doc(3)
        payload = doc.to_json_text()
        key = key_of(doc)
        assert cache_store(key, payload, len(doc.terms))
        assert cache_load(key) == (payload, 6)
        header, body = (cache / key).read_bytes().split(b"\n", 1)
        assert header == f"{key} 6 {hashlib.sha256(payload.encode()).hexdigest()}".encode()
        assert body == payload.encode()

    def test_store_leaves_only_the_entry(self, cache):
        key = key_of(make_doc(4))
        assert cache_store(key, make_doc(3).to_json_text(), 6)
        assert cache_store(key, make_doc(4).to_json_text(), 4)
        assert [p.name for p in cache.iterdir()] == [key]
        assert cache_load(key) == (make_doc(4).to_json_text(), 4)

    def test_entry_under_another_key_is_a_miss(self, cache):
        doc = make_doc(3)
        payload = doc.to_json_text()
        assert cache_store(key_of(doc), payload, 6)
        entry = (cache / key_of(doc)).read_bytes()
        others = (key_of(make_doc(4)), key_of(make_doc(3, with_dynkin=True)), key_of(doc, "text"), "a" * 64)
        for key in others:
            (cache / key).write_bytes(entry)
            assert cache_load(key) is None
        assert cache_load(key_of(doc)) == (payload, 6)

    def test_missing_entry(self, cache):
        assert cache_load("0" * 64) is None

    def test_corrupt_entry_behaves_like_miss(self, cache):
        key = "f" * 64
        (cache / key).write_text("{not json")
        assert cache_load(key) is None

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
    def test_malformed_entry_behaves_like_miss(self, cache, case):
        """A --format json entry whose payload is swapped for a malformed
        document under its own, otherwise valid header: the digest misses."""
        doc = make_doc(3, with_dynkin=True)
        key = key_of(doc)
        assert cache_store(key, doc.to_json_text(), len(doc.terms))
        header = (cache / key).read_bytes().split(b"\n", 1)[0]
        body = json.loads(doc.to_json_text())
        if case in self.BAD_ROWS:
            body["terms"][0] = self.BAD_ROWS[case]
        if case == "bad_dynkin_row":
            body["dynkin"][0][2] = "0"
        text = {"list": "[]", "string": '"xxy"', "deep_nesting": "[" * 100_000}.get(
            case, json.dumps(body, indent=2) + "\n"
        )
        (cache / key).write_bytes(header + b"\n" + text.encode())
        assert cache_load(key) is None

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BCHKIT_CACHE_DIR", str(tmp_path / "override"))
        assert cache_dir() == tmp_path / "override"

    def test_default_under_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("BCHKIT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache_dir() == tmp_path / "bchkit"
