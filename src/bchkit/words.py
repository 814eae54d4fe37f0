"""What every route shares: alphabets, words, factor series (``SeriesSpec``),
the input guard ``check_order`` and word-basis series (``NCSeries``, on
``multilinear.ExactCombination``).  The reference routes import nothing
else of the package, so they share no kernel."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, product
from math import factorial
from typing import Iterable, Mapping, Sequence

from .multilinear import ExactCombination, Rational

# A word is a tuple of letter indices into an Alphabet.
Word = tuple[int, ...]

# z_n over m letters has up to m**n words, one lane each
MAX_WORDS = 1 << 22

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
        return cls(tuple(Fraction(v) for v in values))

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
