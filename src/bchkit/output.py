"""Result documents, their three renderings, and the on-disk cache.

A document stores coefficients as separate numerator and denominator
strings so arbitrary-precision values survive any JSON consumer, and the
payload keeps the canonical graded-lexicographic order.  Its word rows and
its commutator-bracket rows both come straight from the term's integer
lanes, one denominator and a numerator per word.  The cache holds
rendered payloads, not documents: the key hashes everything the payload is
a function of, its format included, and an entry is the payload's bytes
under a one-line header that names the key and the payload's sha256.  A
hit writes those bytes back without parsing them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import compress, product
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .dynkin import left_normed
from .words import Alphabet

TOOL_NAME = "bchkit"

TermRow = tuple[str, str, str]


def _cells(nums: Iterable[int], order: int, den: int) -> dict:
    """Each distinct numerator over ``den`` > 0, in lowest terms, as its numerator
    and denominator strings: the one row formatter.  A document repeats a few
    hundred values over thousands of rows, so each is reduced and printed once."""
    cells = {}
    for v in set(nums):
        g = gcd(v, den)
        try:
            cells[v] = (str(v // g), str(den // g))
        except ValueError:  # str() refuses an int past sys.get_int_max_str_digits() digits
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"a coefficient of the order-{order} term has more than {limit} digits, "
                             "Python's limit for printing an integer") from None
    return cells


@dataclass
class OutputDocument:
    version: str
    mode: str
    order: int
    factors: int
    letters: tuple[str, ...]
    series: tuple[str, ...]
    terms: list[TermRow]
    dynkin: list[TermRow] | None = None

    @classmethod
    def from_lex(
        cls,
        order: int,
        series_names: Sequence[str],
        alphabet: Alphabet,
        den: int,
        nums: Sequence[int],
        dynkin: bool = False,
    ) -> "OutputDocument":
        """The ``term`` document with coefficient nums[k]/den on the k-th
        length-``order`` word in graded-lex order, as ``series.lex_lanes``
        gives it: the rows need no word tuples, no Fractions and no sort.
        With ``dynkin``, each of those words w also gives the bracket row
        nums[k]/(den*order) [w], Dynkin's commutator form of the term."""
        if len(nums) != alphabet.size**order:
            raise ValueError(f"{len(nums)} numerators for {alphabet.size}^{order} words")
        cells = _cells(nums, order, den)
        # only the words of nonzero lanes are joined into text
        words = map("".join, compress(product(alphabet.letters, repeat=order), nums))
        rows = [(w, *cells[c]) for w, c in zip(words, filter(None, nums))]
        bracket_rows = None
        if dynkin:
            cells = _cells(nums, order, den * order)
            bracket_rows = [(left_normed(w), *cells[c]) for (w, _, _), c in zip(rows, filter(None, nums))]
        return cls(
            version=__version__,
            mode="term",
            order=order,
            factors=alphabet.size,
            letters=alphabet.letters,
            series=tuple(series_names),
            terms=rows,
            dynkin=bracket_rows,
        )

    def _body(self) -> dict:
        body: dict = {
            "tool": TOOL_NAME,
            "version": self.version,
            "mode": self.mode,
            "order": self.order,
            "factors": self.factors,
            "letters": list(self.letters),
            "series": list(self.series),
            "terms": self.terms,
        }
        if self.dynkin is not None:
            body["dynkin"] = self.dynkin
        return body

    def to_json_text(self) -> str:
        """``--format json``: json.dumps(body, indent=2) and a newline, byte for
        byte, written with fixed indents because that encoder is pure Python."""
        fields = [f"  {_quote(key)}: " + (_json_list(value) if isinstance(value, list) else json.dumps(value))
                  for key, value in self._body().items()]
        return "{\n" + ",\n".join(fields) + "\n}\n"


def _json_list(items: list) -> str:
    """A list of strings or string rows as indent=2 JSON at the document's second level."""
    if not items:
        return "[]"
    if isinstance(items[0], str):
        return "[\n    " + ",\n    ".join(map(_quote, items)) + "\n  ]"
    rows = ("    [\n      " + ",\n      ".join(map(_quote, row)) + "\n    ]" for row in items)
    return "[\n" + ",\n".join(rows) + "\n  ]"


def _text_lines(rows: Sequence[TermRow]) -> list[str]:
    return [f"{num}  {text}" if den == "1" else f"{num}/{den}  {text}" for text, num, den in rows]


def render_text(doc: OutputDocument) -> str:
    lines = _text_lines(doc.terms) if doc.terms else ["0"]
    if doc.dynkin is not None:
        lines += ["", "dynkin:", *_text_lines(doc.dynkin)]
    return "\n".join(lines) + "\n"


def _latex_signed_terms(rows: Sequence[TermRow]) -> str:
    if not rows:
        return "0"
    parts = []
    for body, num, den in rows:  # num/den in lowest terms with den > 0, as _cells prints them
        sign, mag = ("-", num[1:]) if num[0] == "-" else ("+", num)
        if den != "1":
            text = f"\\frac{{{mag}}}{{{den}}}\\,{body}"
        else:
            text = body if mag == "1" else f"{mag}\\,{body}"
        parts.append(f"{sign} {text}" if parts else text if sign == "+" else "-" + text)
    return " ".join(parts)


def render_latex(doc: OutputDocument) -> str:
    lines = [f"z_{{{doc.order}}} = {_latex_signed_terms(doc.terms)}"]
    if doc.dynkin is not None:
        lines.append(f"z_{{{doc.order}}} = {_latex_signed_terms(doc.dynkin)}")
    return "\n".join(lines) + "\n"


RENDERERS = {"text": render_text, "json": OutputDocument.to_json_text, "latex": render_latex}


CACHE_ENV_VAR = "BCHKIT_CACHE_DIR"


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / TOOL_NAME


def cache_key(order: int, letters: Sequence[str], series_names: Sequence[str], with_dynkin: bool, fmt: str) -> str:
    """The entry name of one rendered ``term`` payload: the sha256 of every
    input it is a function of, this version and the output format included."""
    material = dict(version=__version__, mode="term", order=order, factors=len(letters), letters=list(letters),
                    series=list(series_names), dynkin=with_dynkin, format=fmt)
    return hashlib.sha256(json.dumps(material, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def cache_load(key: str) -> tuple[str, int] | None:
    """The payload stored under ``key`` and its word count, or None on a miss.
    The entry is the line ``<key> <words> <sha256 of the payload>`` and then
    the payload's UTF-8 bytes.  An unreadable file, a header that does not
    name ``key`` or has a non-integer count, a digest that does not match,
    or bytes that are not UTF-8 are all misses, and the writer replaces them."""
    try:
        data = (cache_dir() / key).read_bytes()
    except OSError:
        return None
    end = data.find(b"\n")
    payload = memoryview(data)[end + 1 :]
    try:
        name, words, digest = data[:end].decode("ascii").split(" ")
        if end > 0 and name == key and words.isdigit() and digest == hashlib.sha256(payload).hexdigest():
            return str(payload, "utf-8"), int(words)
    except ValueError:  # not three ASCII fields, or not UTF-8
        pass
    return None


def cache_store(key: str, payload: str, words: int) -> bool:
    """Write ``payload`` under ``key`` as ``cache_load`` reads it, atomically:
    a temp file in the cache directory is renamed onto ``<key>``, so readers
    never see a torn file.  A failed write removes the temp file and only warns."""
    target = cache_dir()
    data = payload.encode()
    tmp = None
    try:
        target.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target, prefix=f".{key}.", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"{key} {words} {hashlib.sha256(data).hexdigest()}\n".encode())
            fh.write(data)
        os.replace(tmp, target / key)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        print(f"warning: cache write failed: {exc}", file=sys.stderr)
        return False
    return True
