"""Commutator substitution and re-expansion."""

import itertools
import random
from fractions import Fraction

import pytest

from bchkit.dynkin import LieTerm, dynkin_substitute, expand_commutators
from bchkit.series import bch_term
from bchkit.words import MAX_WORDS, Alphabet, NCSeries
from helpers import expand_commutators_reference

A2 = Alphabet.default(2)


def series(entries, n):
    return NCSeries(A2, n, {A2.parse_word(w): Fraction(c) for w, c in entries.items()})


class TestSubstitute:
    def test_first_order_terms_are_bare_letters(self):
        terms = dynkin_substitute(bch_term(1))
        assert terms == [LieTerm(Fraction(1), (0,)), LieTerm(Fraction(1), (1,))]

    def test_second_order_divides_by_two(self):
        terms = dynkin_substitute(bch_term(2))
        assert terms == [
            LieTerm(Fraction(1, 4), (0, 1)),
            LieTerm(Fraction(-1, 4), (1, 0)),
        ]

    def test_rejects_mixed_lengths(self):
        mixed = series({"x": 1, "xy": 1}, 2)
        with pytest.raises(ValueError):
            dynkin_substitute(mixed)

    def test_rejects_pure_constant(self):
        constant = NCSeries(A2, 2, {(): Fraction(3)})
        with pytest.raises(ValueError):
            dynkin_substitute(constant)

    def test_empty_series_gives_no_terms(self):
        assert dynkin_substitute(NCSeries.zero(A2, 3)) == []


class TestExpand:
    def test_single_commutator(self):
        got = expand_commutators([LieTerm(Fraction(1), (0, 1))], A2)
        assert got == series({"xy": 1, "yx": -1}, 2)

    def test_left_normed_double_bracket(self):
        got = expand_commutators([LieTerm(Fraction(1), (0, 1, 0))], A2)
        assert got == series({"xyx": 2, "yxx": -1, "xxy": -1}, 3)

    def test_empty_list(self):
        assert expand_commutators([], A2) == NCSeries.zero(A2, 0)

    def test_linearity(self):
        t1 = LieTerm(Fraction(1, 3), (0, 1))
        t2 = LieTerm(Fraction(-2), (1, 0, 0))
        joint = expand_commutators([t1, t2], A2)
        split = expand_commutators([t1], A2)
        # degrees differ between the pieces; compare term maps directly
        combined = dict(split.terms)
        for w, c in expand_commutators([t2], A2).terms.items():
            combined[w] = combined.get(w, Fraction(0)) + c
        assert joint.terms == combined

    @pytest.mark.parametrize("word", [(0, -1), (-1, 0, 1), (0, 3), (2, 1, 0)])
    def test_rejects_letters_outside_the_alphabet(self, word):
        # a dense index would wrap -1, or move (0, 3) onto the word (1, 1)
        with pytest.raises(ValueError, match="out of range"):
            expand_commutators([LieTerm(Fraction(1), (0, 1)), LieTerm(Fraction(1), word)], A2)

    @pytest.mark.parametrize("m,length", [(2, 23), (25, 5), (2, 10**6)])
    def test_refuses_lengths_over_max_words(self, m, length):
        # refused before any of the m**length entries is allocated
        assert m**length > MAX_WORDS
        with pytest.raises(ValueError, match="over the limit"):
            expand_commutators([LieTerm(Fraction(1), (1,) * length)], Alphabet.default(m))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_bracket_reference(self, seed):
        rng = random.Random(seed)
        alphabet = Alphabet.default(2 + seed % 2)
        m = alphabet.size
        count = 0 if seed < 2 else rng.randint(1, 12)  # seeds 0 and 1: the empty list
        terms = [
            LieTerm(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                    tuple(rng.randrange(m) for _ in range(rng.randint(1, 6))))
            for _ in range(count)
        ]
        if terms:
            terms.append(LieTerm(Fraction(0), terms[0].word))  # a zero coefficient
            terms.append(LieTerm(Fraction(1, 7), terms[-1].word))  # the word again
        got = expand_commutators(terms, alphabet)
        assert got == expand_commutators_reference(terms, alphabet)
        assert got.max_degree == max((len(t.word) for t in terms), default=0)

    @pytest.mark.parametrize("m,k", [(m, k) for m, top in ((2, 9), (3, 6), (4, 5)) for k in range(1, top + 1)])
    def test_every_word_of_a_length_matches_the_reference(self, m, k):
        # every word at once, each with its own coefficient, so a block of
        # any pass of _expand_lex moved to the wrong place changes the sum
        rng = random.Random(100 * m + k)
        alphabet = Alphabet.default(m)
        terms = [LieTerm(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), word)
                 for word in itertools.product(range(m), repeat=k)]
        assert expand_commutators(terms, alphabet) == expand_commutators_reference(terms, alphabet)

    def test_triple_bracket_hand_expansion(self):
        # [[[x,y],x],y] = By - yB for B = 2xyx - yxx - xxy; the yxxy pieces cancel
        got = expand_commutators([LieTerm(Fraction(1), (0, 1, 0, 1))], A2)
        assert got == series({"xyxy": 2, "xxyy": -1, "yxyx": -2, "yyxx": 1}, 4)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [*range(1, 9), 12, 16])
    def test_bch_term_is_fixed(self, n):
        z = bch_term(n)
        assert expand_commutators(dynkin_substitute(z), A2) == z

    @pytest.mark.parametrize("n", [2, 9, 14])
    @pytest.mark.parametrize("delta", [Fraction(1), Fraction(-1, 3)])
    def test_one_wrong_coefficient_fails(self, n, delta):
        # no lone word of length >= 2 is a Lie element, so z + delta*w is not
        z = bch_term(n)
        rng = random.Random(n)
        word = tuple(rng.randrange(2) for _ in range(n))
        wrong = z + NCSeries(A2, n, {word: delta})
        assert expand_commutators(dynkin_substitute(wrong), A2) != wrong

    def test_single_letters_mutually_inverse(self):
        z1 = bch_term(1)
        terms = dynkin_substitute(z1)
        assert expand_commutators(terms, A2) == z1
        assert dynkin_substitute(expand_commutators(terms, A2)) == terms


class TestLieTerm:
    def test_bracket_rendering(self):
        assert LieTerm(Fraction(1), (0,)).bracket_str(A2) == "x"
        assert LieTerm(Fraction(1), (0, 1)).bracket_str(A2) == "[x,y]"
        assert LieTerm(Fraction(1), (0, 1, 0)).bracket_str(A2) == "[[x,y],x]"

    def test_needs_a_letter(self):
        with pytest.raises(ValueError):
            LieTerm(Fraction(1), ())
