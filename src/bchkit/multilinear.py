"""Exact multilinear polynomials over position-indexed commuting variables.

The coefficient field is the arbitrary-precision rationals
(``fractions.Fraction``); nothing in this package ever rounds.

A monomial over positions 1..n is packed into a single integer, n bits per
variable family: bit ``(k-1)*n + (i-1)`` is set when the family-k variable
occupies position i.  With one family (the two-letter case) a monomial is
literally an n-bit bitset; each further family appends another n-bit block.
Exponents above one are unrepresentable, so multilinearity holds by
construction.  Positions are shared across families: a legal monomial
carries at most one variable, of whatever family, per position.
``MultilinearPoly`` and ``words.NCSeries`` share the base ``ExactCombination``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

ZERO = Fraction(0)

_FAMILY_NAMES = "stuv"


class SupportOverlapError(ValueError):
    """Two monomials carried a variable at the same position.

    Legitimate pipeline computations only ever multiply monomials with
    disjoint supports, so an overlap signals an internal bug rather than
    bad input; it is raised loudly instead of being reduced away.
    """


def mono_from_positions(n: int, positions: Iterable[int], family: int = 1) -> int:
    """Pack the monomial carrying ``family``'s variable at each of ``positions``."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if family < 1:
        raise ValueError(f"family index must be >= 1, got {family}")
    mask = 0
    for pos in positions:
        if not 1 <= pos <= n:
            raise ValueError(f"position {pos} outside 1..{n}")
        mask |= 1 << (pos - 1)
    return mask << ((family - 1) * n)


def mono_support(n: int, mono: int) -> int:
    """The set of occupied positions, as an n-bit mask (union over families)."""
    full = (1 << n) - 1
    support = 0
    while mono:
        support |= mono & full
        mono >>= n
    return support


def mono_digits(n: int, mono: int) -> tuple[int, ...]:
    """Family index per position, 0 where no variable sits."""
    digits = [0] * n
    family = 1
    while mono:
        chunk = mono & ((1 << n) - 1)
        for i in range(n):
            if (chunk >> i) & 1:
                digits[i] = family
        mono >>= n
        family += 1
    return tuple(digits)


def mono_mul(n: int, a: int, b: int) -> int:
    """Position-wise union of two monomials with disjoint supports."""
    if mono_support(n, a) & mono_support(n, b):
        raise SupportOverlapError(
            f"monomials {mono_str(n, a)} and {mono_str(n, b)} overlap"
        )
    return a | b


def mono_str(n: int, mono: int) -> str:
    if not mono:
        return "1"
    parts = []
    for pos, family in enumerate(mono_digits(n, mono), start=1):
        if family:
            name = _FAMILY_NAMES[family - 1] if family <= 4 else f"v{family}"
            parts.append(f"{name}{pos}")
    return "*".join(parts)


class ExactCombination:
    """A finite, zero-free map key -> rational, the value type behind
    ``MultilinearPoly`` (monomial keys) and ``words.NCSeries`` (word keys).
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


class MultilinearPoly(ExactCombination):
    """A finite map monomial -> rational, all monomials over the same n positions.

    Sums, scaling, equality and printing come from ``ExactCombination``.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Mapping[int, Rational | int] | None = None):
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        self.n = n
        self.terms: dict[int, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    self.terms[mono] = c

    @classmethod
    def zero(cls, n: int) -> "MultilinearPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: Rational | int) -> "MultilinearPoly":
        return cls(n, {0: Fraction(value)})

    @classmethod
    def variable(
        cls, n: int, position: int, family: int = 1, coeff: Rational | int = 1
    ) -> "MultilinearPoly":
        return cls(n, {mono_from_positions(n, [position], family): Fraction(coeff)})

    def _shape(self) -> tuple[int]:
        return (self.n,)

    def _compatible(self, other: "MultilinearPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"order mismatch: {self.n} != {other.n}")

    def _key_str(self, mono: int) -> str:
        return mono_str(self.n, mono)

    def __mul__(self, other: "MultilinearPoly | Rational | int") -> "MultilinearPoly":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        self._compatible(other)
        n = self.n
        out: dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(n, ma, mb)
                out[mono] = out.get(mono, ZERO) + ca * cb
        return self._with_terms({mono: c for mono, c in out.items() if c})

    __rmul__ = __mul__  # the product commutes

    def eval_signs(self, signs: Sequence[int]) -> Fraction:
        """Exact value with every position-i variable replaced by signs[i-1].

        Each entry must be +1 or -1; a variable's contribution depends only
        on its position, so the substitution is a ring homomorphism.
        """
        if len(signs) != self.n:
            raise ValueError(f"expected {self.n} signs, got {len(signs)}")
        neg = 0
        for i, s in enumerate(signs):
            if s == -1:
                neg |= 1 << i
            elif s != 1:
                raise ValueError(f"signs must be +1 or -1, got {s!r}")
        n = self.n
        total = ZERO
        for mono, coeff in self.terms.items():
            if (mono_support(n, mono) & neg).bit_count() & 1:
                total -= coeff
            else:
                total += coeff
        return total

    def items_sorted(self) -> list[tuple[int, Fraction]]:
        """Terms ordered by the position-vector of their monomials."""
        n = self.n
        return sorted(self.terms.items(), key=lambda kv: mono_digits(n, kv[0]))

    def __repr__(self) -> str:
        return f"MultilinearPoly(n={self.n}, {str(self)})"
