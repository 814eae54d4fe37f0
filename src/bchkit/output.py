"""Result documents, their three renderings, and the on-disk cache.

A document stores coefficients as separate numerator and denominator
strings so arbitrary-precision values survive any JSON consumer, and the
payload keeps the canonical graded-lexicographic order.  The cache is
content-addressed: the key hashes everything the payload is a function of,
so a hit can be replayed byte for byte without recomputation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from pathlib import Path
from typing import Iterable, Sequence

from .dynkin import LieTerm
from .words import Alphabet

TOOL_NAME = "bchkit"

TermRow = tuple[str, str, str]

_INTEGER = re.compile(r"-?[0-9]+")
_POSITIVE = re.compile(r"0*[1-9][0-9]*")


def _checked_rows(raw: list) -> list[TermRow]:
    """Rows of three strings: text, integer, positive integer; else ValueError.
    Numbers are matched once per distinct value: per row costs more than the parse."""
    try:  # unpacking, join, hashing and fullmatch raise TypeError on a wrong type
        rows = [(text, num, den) for text, num, den in raw]
        "".join([row[0] for row in rows])
        nums, dens = {row[1] for row in rows}, {row[2] for row in rows}
        if (set(map(type, raw)) <= {list} and all(map(_INTEGER.fullmatch, nums))
                and all(map(_POSITIVE.fullmatch, dens))):
            return rows
    except TypeError:
        pass
    raise ValueError("rows must be [text, integer, positive integer] strings")


def _cells(values: Iterable, den: int = 1) -> dict:
    """Each distinct value over ``den``, in lowest terms, as its numerator and
    denominator strings: the one row formatter.  A document repeats a few
    hundred values over thousands of rows, so each is reduced and printed once."""
    cells = {}
    for v in set(values):
        c = Fraction(v, den)
        cells[v] = (str(c.numerator), str(c.denominator))
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
        version: str,
        mode: str,
        order: int,
        series_names: Sequence[str],
        alphabet: Alphabet,
        den: int,
        nums: Sequence[int],
        dynkin_terms: Sequence[LieTerm] | None = None,
    ) -> "OutputDocument":
        """The document of the term with coefficient nums[k]/den on the k-th
        length-``order`` word in graded-lex order, as ``series.lex_lanes``
        gives it: the rows need no word tuples, no Fractions and no sort."""
        if len(nums) != alphabet.size**order:
            raise ValueError(f"{len(nums)} numerators for {alphabet.size}^{order} words")
        cells = _cells(nums, den)
        # only the words of nonzero lanes are joined into text
        words = map("".join, compress(product(alphabet.letters, repeat=order), nums))
        rows = [(w, *cells[c]) for w, c in zip(words, filter(None, nums))]
        bracket_rows = None
        if dynkin_terms is not None:
            cells = _cells(t.coefficient for t in dynkin_terms)
            bracket_rows = [(t.bracket_str(alphabet), *cells[t.coefficient]) for t in dynkin_terms]
        return cls(
            version=version,
            mode=mode,
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
        """The document as printed by ``--format json``: indent=2, one value per line."""
        return json.dumps(self._body(), indent=2) + "\n"

    def to_cache_text(self) -> str:
        """The document as stored in the cache: compact, so the C encoder writes it."""
        return json.dumps(self._body(), separators=(",", ":"))

    def answers(self, key: str) -> bool:
        """Whether ``key`` is the cache key of this document's own header."""
        header = (self.version, self.mode, self.order, self.letters, self.series, self.dynkin is not None)
        return (isinstance(self.factors, int) and self.factors == len(self.letters)
                and cache_key(*header) == key)

    @classmethod
    def from_json_text(cls, text: str) -> "OutputDocument":
        """Read either layout back; rows are checked, the header is left to ``answers``."""
        body = json.loads(text)
        if not isinstance(body, dict) or body.get("tool") != TOOL_NAME:
            raise ValueError(f"not a {TOOL_NAME} document")
        dynkin = body.get("dynkin")
        return cls(
            version=body["version"],
            mode=body["mode"],
            order=body["order"],
            factors=body["factors"],
            letters=tuple(body["letters"]),
            series=tuple(body["series"]),
            terms=_checked_rows(body["terms"]),
            dynkin=None if dynkin is None else _checked_rows(dynkin),
        )


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
    for body, num, den in rows:
        value = Fraction(int(num), int(den))
        mag = abs(value)
        if mag == 1:
            text = body
        elif mag.denominator == 1:
            text = f"{mag}\\,{body}"
        else:
            text = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}\\,{body}"
        if not parts:
            parts.append(text if value > 0 else "-" + text)
        else:
            parts.append(("+ " if value > 0 else "- ") + text)
    return " ".join(parts)


def render_latex(doc: OutputDocument) -> str:
    lines = [f"z_{{{doc.order}}} = {_latex_signed_terms(doc.terms)}"]
    if doc.dynkin is not None:
        lines.append(f"z_{{{doc.order}}} = {_latex_signed_terms(doc.dynkin)}")
    return "\n".join(lines) + "\n"


RENDERERS = {
    "text": render_text,
    "json": lambda doc: doc.to_json_text(),
    "latex": render_latex,
}


CACHE_ENV_VAR = "BCHKIT_CACHE_DIR"


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / TOOL_NAME


def cache_key(
    version: str,
    mode: str,
    order: int,
    letters: Sequence[str],
    series_names: Sequence[str],
    with_dynkin: bool,
) -> str:
    material = json.dumps(
        {
            "version": version,
            "mode": mode,
            "order": order,
            "factors": len(letters),
            "letters": list(letters),
            "series": list(series_names),
            "dynkin": with_dynkin,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def cache_load(key: str, directory: Path | None = None) -> OutputDocument | None:
    path = (directory or cache_dir()) / f"{key}.json"
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        doc = OutputDocument.from_json_text(text)
    except (ValueError, KeyError, TypeError, RecursionError):
        # corrupt or too deeply nested entry: a miss, the writer will replace it
        return None
    # an entry whose header was edited would answer another request: a miss too
    return doc if doc.answers(key) else None


def cache_store(key: str, doc: OutputDocument, directory: Path | None = None) -> bool:
    """Write the entry atomically: a temp file in the cache directory is
    renamed onto ``<key>.json``, so readers never see a torn file.  A failed
    write removes the temp file and only warns."""
    target = directory or cache_dir()
    tmp = None
    try:
        target.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target, prefix=f".{key}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(doc.to_cache_text())
        os.replace(tmp, target / f"{key}.json")
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        print(f"warning: cache write failed: {exc}", file=sys.stderr)
        return False
    return True
