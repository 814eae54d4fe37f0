"""Dynkin substitution of word-basis terms into iterated commutators.

Brackets are left-normed: the word a1 a2 ... an denotes [[...[a1, a2],
a3] ..., an].  By Dynkin-Specht-Wever, a homogeneous degree-n z is a Lie
element exactly when expanding (1/n) sum_w c_w [w] over its words returns
z, so the round trip through ``dynkin_substitute`` and ``expand_commutators``
catches any single wrong coefficient (for n >= 2 no lone word is Lie), but
not an error that keeps z Lie.  No Lie simplification is performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul, sub
from typing import Sequence

from .words import Alphabet, NCSeries, Word, check_order


@dataclass(frozen=True)
class LieTerm:
    coefficient: Fraction
    word: Word

    def __post_init__(self) -> None:
        if len(self.word) < 1:
            raise ValueError("a Lie term needs at least one letter")

    def bracket_str(self, alphabet: Alphabet) -> str:
        return left_normed([alphabet.letters[i] for i in self.word])


def left_normed(letters: Sequence[str]) -> str:
    """The bracket [[...[l_1,l_2],l_3]...,l_n] of a word's letters (a word
    string will do), written in one pass: l_1 alone for one letter."""
    if len(letters) == 1:
        return letters[0]
    return "[" * (len(letters) - 1) + letters[0] + "," + "],".join(letters[1:]) + "]"


def dynkin_substitute(z: NCSeries) -> list[LieTerm]:
    """Map each word w with coefficient c to LieTerm(c/n, w), n = len(w).

    The input must be homogeneous: a single shared word length n >= 1.
    """
    lengths = {len(w) for w in z.terms}
    if len(lengths) > 1:
        raise ValueError(f"input mixes word lengths {sorted(lengths)}")
    if lengths == {0}:
        raise ValueError("constant terms have no commutator form")
    return [LieTerm(coeff / len(word), word) for word, coeff in z.items_sorted()]


def _expand_lex(c: list[int], m: int, k: int) -> list[int]:
    """sum_w c[w] [w] over the length-k words w, both in graded-lex order: pass p
    turns [w_1 ... w_(p-1)] w_p ... into [w_1 ... w_p] w_(p+1) ..., so an entry
    loses that of its word with the first letter moved to position p, i.e.
    block a*m**(p-1) + i of m**(k-p) entries loses block i*m + a."""
    for p in range(2, k + 1):
        size = m ** (k - p)
        blocks = [c[s : s + size] for s in range(0, len(c), size)]
        moved = chain.from_iterable(blocks[a::m] for a in range(m))
        c = list(map(sub, c, chain.from_iterable(moved)))
    return c


def expand_commutators(terms: Sequence[LieTerm], alphabet: Alphabet) -> NCSeries:
    """Expand left-normed brackets into word sums and accumulate.

    Each length's terms become one graded-lex vector of integers over one
    common denominator, expanded by ``_expand_lex``.  A letter outside the
    alphabet or a length over words.MAX_WORDS words raises ValueError first.
    """
    m = alphabet.size
    groups: dict[int, list[LieTerm]] = {}
    for t in terms:
        if not 0 <= min(t.word) <= max(t.word) < m:
            raise ValueError(f"letter index out of range in {t.word}")
        groups.setdefault(len(t.word), []).append(t)
    den = lcm(*(t.coefficient.denominator for t in terms))
    result = NCSeries(alphabet, max(groups, default=0))
    for k, group in groups.items():
        check_order(k, m)
        c = [0] * m**k
        places = [m**j for j in reversed(range(k))]  # a word's index: sum of letter * place
        for t in group:
            q = t.coefficient
            c[sum(map(mul, t.word, places))] += q.numerator * (den // q.denominator)
        result.terms.update(NCSeries.from_lex(alphabet, k, den, _expand_lex(c, m, k)).terms)
    return result
