"""What every route shares: the exact value base ``ExactCombination`` over
``Rational``, alphabets, words, the bracket writer ``left_normed``, factor
series (``SeriesSpec``), the input guard ``check_order``, the packed-lane
decoder ``unpack_lanes`` and word-basis series (``NCSeries``).  This module
imports nothing of the package, and the reference routes import nothing else
of it, so they share no kernel."""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, product, repeat
from math import factorial
from operator import add, lshift, sub

Rational = Fraction

ZERO = Fraction(0)

# A word is a tuple of letter indices into an Alphabet.
Word = tuple[int, ...]

# z_n over m letters has up to m**n words, one lane each
MAX_WORDS = 1 << 22
MAX_EXPONENT = 4300  # Python's int-string limit, which the series fingerprint hits anyway

_DEFAULT_HEAD = ("x", "y", "w")
_DEFAULT_TAIL = "abcdefghijklmnopqrstuv"


@dataclass(frozen=True)
class Alphabet:
    """Ordered letters; letter 0 is the base letter, letter k is variable
    family k.  Single printable characters keep word strings unambiguous."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.letters) < 2:
            raise ValueError("alphabet needs at least two letters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError(f"duplicate letters in {self.letters}")
        for name in self.letters:
            if len(name) != 1 or not name.isprintable() or name.isspace():
                raise ValueError(f"letters must be single printable characters, got {name!r}")

    @classmethod
    def default(cls, m: int) -> "Alphabet":
        """x, y, w, then a, b, c, ... for wider alphabets."""
        if m < 2:
            raise ValueError(f"need at least 2 letters, got {m}")
        if m > len(_DEFAULT_HEAD) + len(_DEFAULT_TAIL):
            raise ValueError(f"no default naming for {m} letters; pass explicit names")
        pool = _DEFAULT_HEAD + tuple(_DEFAULT_TAIL)
        return cls(pool[:m])

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Alphabet":
        return cls(tuple(names))

    @property
    def size(self) -> int:
        return len(self.letters)

    def word_str(self, word: Word) -> str:
        return "".join(self.letters[i] for i in word) if word else "1"

    def parse_word(self, text: str) -> Word:
        index = {ch: i for i, ch in enumerate(self.letters)}
        try:
            return tuple(index[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"letter {exc.args[0]!r} not in alphabet {self.letters}")


def left_normed(letters: Sequence[str]) -> str:
    """The bracket [[...[l_1,l_2],l_3]...,l_n] of a word's letters (a word
    string will do), written in one pass: l_1 alone for one letter."""
    if len(letters) == 1:
        return letters[0]
    return "[" * (len(letters) - 1) + letters[0] + "," + "],".join(letters[1:]) + "]"


def check_order(n: int, m: int = 2) -> None:
    """The one input guard of every route, called once at its entry: refuse,
    before any work, m < 2 factors, n < 1, and orders whose m**n words (or
    2**n sign assignments) are over MAX_WORDS."""
    if m < 2:
        raise ValueError(f"factor count must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    # m >= 2, so m**n > MAX_WORDS once n reaches its bit length; testing
    # that first keeps the check itself from building a huge power
    if n >= MAX_WORDS.bit_length() or m**n > MAX_WORDS:
        raise ValueError(f"order {n} needs up to {m}^{n} words, over the limit of {MAX_WORDS}")


def unpack_lanes(packed: int, width: int, lanes: int) -> list[int]:
    """The ``lanes`` lanes of ``packed``, lane 0 lowest, as signed integers:
    the one decoder of both kernels' packed ints.

    ``width`` is a whole number of bytes and includes a sign bit.  Adding
    2^(width-1) to each lane makes it a nonnegative ``width``-bit digit, so
    one ``to_bytes`` call splits them, and padded to whole 64-bit chunks
    ``memoryview.cast`` reads them at C speed.  A top lane past its width
    raises OverflowError; every other lane relies on the caller's width
    proof.  A fault here that acts alike on every lane, such as negating
    each, passes verify's signed and dynkin modes, which both read lanes
    decoded here, and only the oracle, which packs no lanes, sees it.
    """
    size, half = width // 8, 1 << (width - 1)
    # repeated bytes: a sum of half << width*i would be quadratic
    offset = int.from_bytes(half.to_bytes(size, "little") * lanes, "little")
    data = (packed + offset).to_bytes(size * lanes, "little")
    wide = -(-size // 8)  # 64-bit chunks per lane
    if size % 8 or sys.byteorder == "big":
        # byte b of a lane is byte b % 8 of its chunk b // 8 in host order
        flip = 0 if sys.byteorder == "little" else 7
        buf = bytearray(8 * wide * lanes)
        for b in range(size):
            buf[b ^ flip :: 8 * wide] = data[b::size]
        data = buf  # frees the unpadded bytes before the lanes list grows
    chunks = memoryview(data).cast("Q")
    nums = chunks[::wide]
    for c in range(1, wide):
        nums = map(add, nums, map(lshift, chunks[c::wide], repeat(64 * c)))
    return list(map(sub, nums, repeat(half)))


@dataclass(frozen=True)
class SeriesSpec:
    """Coefficients c_0, c_1, ... of a power series f(t) with f(0) = 1.

    Coefficients past the end of the stored tuple are zero, so the
    polynomial 1 + t is simply ``SeriesSpec.from_coeffs([1, 1])``.  Trailing
    zeros are trimmed on construction, so equal series are equal specs with
    equal hashes.  The hash is kept: memo keys hash the spec on every lookup.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("series must satisfy f(0) = 1")
        end = len(self.coeffs)
        while end > 1 and self.coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", self.coeffs[:end])
        object.__setattr__(self, "_hash", hash(self.coeffs))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_coeffs(cls, values: Iterable[Rational | int | str]) -> "SeriesSpec":
        """A text value's exponent over MAX_EXPONENT in magnitude raises
        ValueError: Fraction builds 10**exponent before anything checks it."""
        values = list(values)
        for v in values:  # all first: a malformed value must not mask a refusal
            exponent = v.strip().lower().partition("e")[2] if isinstance(v, str) else ""
            if exponent.lstrip("+-").replace("_", "").isdigit() and abs(int(exponent)) > MAX_EXPONENT:
                raise ValueError(f"exponent {exponent} is over {MAX_EXPONENT} in magnitude")
        return cls(tuple(map(Fraction, values)))

    @classmethod
    @cache
    def exponential(cls, max_degree: int) -> "SeriesSpec":
        """exp truncated at t**max_degree: c_k = 1/k!, one spec per degree."""
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        return cls(tuple(Fraction(1, factorial(k)) for k in range(max_degree + 1)))

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def fingerprint(self) -> str:
        """Canonical text form; equal series agree."""
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.fingerprint()


class ExactCombination:
    """A finite, zero-free map key -> rational, the value type behind
    ``multilinear.MultilinearPoly`` (monomial keys) and ``NCSeries`` (word keys).
    Operations return a fresh value of the same subclass and shape.  A
    subclass supplies ``_shape()`` (its constructor arguments bar the terms),
    ``_compatible``, ``_key_str`` and ``items_sorted``; the falsy key (0 or
    ``()``) is the constant term.
    """

    __slots__ = ("terms",)

    def _with_terms(self, terms: dict):
        result = type(self)(*self._shape())
        result.terms = terms
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return self._with_terms({key: c for key, c in out.items() if c})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._with_terms({k: -c for k, c in self.terms.items()})

    def scaled(self, factor: Rational | int):
        f = Fraction(factor)
        return self._with_terms({k: c * f for k, c in self.terms.items()} if f else {})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.items_sorted():
            mag = abs(coeff)
            if not key:
                body = str(mag)
            elif mag == 1:
                body = self._key_str(key)
            else:
                body = f"{mag}*{self._key_str(key)}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


class NCSeries(ExactCombination):
    """Finite rational combination of words of length <= max_degree."""

    __slots__ = ("alphabet", "max_degree")

    def __init__(
        self,
        alphabet: Alphabet,
        max_degree: int,
        terms: Mapping[Word, Rational | int] | None = None,
    ):
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        self.alphabet = alphabet
        self.max_degree = max_degree
        self.terms: dict[Word, Fraction] = {}
        m = alphabet.size
        if terms:
            for word, coeff in terms.items():
                if len(word) > max_degree:
                    raise ValueError(
                        f"word {alphabet.word_str(word)} exceeds max degree {max_degree}"
                    )
                if word and not (0 <= min(word) and max(word) < m):
                    raise ValueError(f"letter index out of range in {word}")
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    self.terms[word] = c

    @classmethod
    def zero(cls, alphabet: Alphabet, max_degree: int) -> "NCSeries":
        return cls(alphabet, max_degree)

    @classmethod
    def from_lex(cls, alphabet: Alphabet, degree: int, den: int, nums: Sequence[int]) -> "NCSeries":
        """The homogeneous series with coefficient nums[k]/den on the k-th
        length-``degree`` word in graded-lex order; one Fraction per distinct
        numerator, shared by every word that carries it."""
        if len(nums) != alphabet.size**degree:
            raise ValueError(f"{len(nums)} numerators for {alphabet.size}^{degree} words")
        values = {c: Fraction(c, den) for c in set(nums)}
        words = compress(product(range(alphabet.size), repeat=degree), nums)
        result = cls(alphabet, degree)
        result.terms = {w: values[c] for w, c in zip(words, filter(None, nums))}
        return result

    def coefficient(self, word: Word) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    def items_sorted(self) -> list[tuple[Word, Fraction]]:
        """Graded-lexicographic: by length, then by letter indices."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def _shape(self) -> tuple[Alphabet, int]:
        return (self.alphabet, self.max_degree)

    def _compatible(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        if self.max_degree != other.max_degree:
            raise ValueError(f"degree mismatch: {self.max_degree} != {other.max_degree}")

    def _key_str(self, word: Word) -> str:
        return self.alphabet.word_str(word)

    def __repr__(self) -> str:
        return f"NCSeries(degree<={self.max_degree}, {str(self)})"
