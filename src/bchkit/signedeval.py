"""Numeric +-1 evaluation of the log entry over the sign lattice.

Substituting an assignment of +-1 for the position variables turns the
whole matrix computation numeric: the two-factor product is applied
factor by factor as F D F D on integer rows, with D the diagonal of sign
prefix products, and its log entry is a single rational per assignment.
Summing value(s) * (x + s_1 y)...(x + s_n y) over all 2**n assignments,
divided by 2**n, reproduces the order-n term, and two symmetries predict
exactly which assignments vanish:

  * an even number of +1 entries forces value zero;
  * reading an assignment in reverse order multiplies the value by
    (-1)**(n-1), so the all-plus assignment vanishes for odd n > 1.

A table lists the 2**n values by mask (bit i set: position i+1 carries
-1); in that indexing reconstruction is an in-place Walsh-Hadamard
transform over exact rationals.  Assignments are independent, so table
building and scans can fan out over worker processes; results come back
aligned with the masks either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .words import Alphabet, NCSeries

SignAssignment = tuple[int, ...]


def _as_signs(n: int, signs: Sequence[int]) -> SignAssignment:
    out = tuple(signs)
    if len(out) != n:
        raise ValueError(f"expected {n} signs, got {len(out)}")
    if any(s not in (1, -1) for s in out):
        raise ValueError("signs must be +1 or -1")
    return out


def _mask_signs(n: int, mask: int) -> SignAssignment:
    # bit i set means position i+1 carries -1
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def _reverse_mask(n: int, mask: int) -> int:
    out = 0
    for i in range(n):
        if (mask >> i) & 1:
            out |= 1 << (n - 1 - i)
    return out


def eval_assignment(n: int, signs: Sequence[int]) -> Fraction:
    """Exact value of the (1, n+1) log entry at one +-1 assignment.

    With prefix products P_t = s_1 s_2 ... s_t and D = diag(P_0, ..., P_n),
    the second factor is D F D, so the product is F D F D.  Scaling column
    j by j! turns F into the Pascal matrix C(j, k) and keeps every row
    integral, so u_q = u_{q-1} (F D F D - I) from u_0 = e_0 runs on Python
    ints; the entry is sum_q (-1)**(q+1) (L/q) u_q[n] / (L n!) with
    L = lcm(1..n).
    """
    s = _as_signs(n, signs)
    prefix = [1]
    for x in s:
        prefix.append(prefix[-1] * x)
    # Its own first-row log, not log_upper_right: a bug shared with the
    # symbolic kernel would then make verify --modes signed pass while wrong.
    big = lcm(*range(1, n + 1))
    u = [1] + [0] * n
    acc = 0
    for q in range(1, n + 1):
        w = list(u)
        for _ in range(2):
            # w[j] <- sum_k C(j, k) w[k], done as n passes of neighbour additions
            for i in range(n, 0, -1):
                for j in range(i, n + 1):
                    w[j] += w[j - 1]
            w = [p * x for p, x in zip(prefix, w)]
        u = [a - b for a, b in zip(w, u)]
        acc += (-1) ** (q + 1) * (big // q) * u[n]
    return Fraction(acc, big * factorial(n))


def _eval_mask_chunk(args: tuple[int, Sequence[int]]) -> list[Fraction]:
    n, masks = args
    return [eval_assignment(n, _mask_signs(n, m)) for m in masks]


def _values_for_masks(
    n: int, masks: Sequence[int], workers: int | None
) -> list[Fraction]:
    """Evaluate each mask; the result is aligned with ``masks``.

    The pool never holds more than min(workers, cpu count, chunks)
    processes, whatever ``workers`` asks for.
    """
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers <= 1 or len(masks) < 4 * workers:
        return _eval_mask_chunk((n, masks))
    chunk = (len(masks) + workers - 1) // workers
    jobs = [(n, masks[lo : lo + chunk]) for lo in range(0, len(masks), chunk)]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return [v for values in pool.map(_eval_mask_chunk, jobs) for v in values]


@dataclass
class SignedCoefficientTable:
    """Value of the log entry for every one of the 2**n assignments.

    ``values[mask]`` is the value at the assignment with -1 exactly at
    positions i+1 for the set bits i of ``mask``.  Both build modes fill
    the full list; pruning only changes which entries are computed versus
    written down from the symmetry rules.
    """

    n: int
    values: list[Fraction] = field(default_factory=list)

    def is_complete(self) -> bool:
        return len(self.values) == 1 << self.n


PRUNING_MODES = ("none", "symmetry")


def build_table(
    n: int, pruning: str = "none", workers: int | None = None
) -> SignedCoefficientTable:
    """Evaluate the sign lattice.

    pruning="none" evaluates every assignment directly.
    pruning="symmetry" records even-plus-count assignments as zero without
    evaluation and computes one member of each reversal pair, deriving the
    partner via the (-1)**(n-1) factor.  The two modes return equal tables.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if pruning not in PRUNING_MODES:
        raise ValueError(f"pruning must be one of {PRUNING_MODES}, got {pruning!r}")
    if pruning == "none":
        return SignedCoefficientTable(n, _values_for_masks(n, range(1 << n), workers))
    flip = (-1) ** (n - 1)
    reps = [m for m in range(1 << n) if (n - m.bit_count()) % 2 and m <= _reverse_mask(n, m)]
    values = [Fraction(0)] * (1 << n)
    for rep, v in zip(reps, _values_for_masks(n, reps, workers)):
        values[_reverse_mask(n, rep)] = flip * v
        values[rep] = v
    return SignedCoefficientTable(n, values)


def reconstruct_term(
    n: int, table: SignedCoefficientTable, alphabet: Alphabet | None = None
) -> NCSeries:
    """Rebuild the order-n word-basis term from a complete table.

    The word with y exactly at positions Y gets coefficient
    2**(-n) sum_s value(s) prod_{i in Y} s_i, which is the Walsh-Hadamard
    transform of the table with Y read as a mask.
    """
    if table.n != n:
        raise ValueError(f"table is for order {table.n}, not {n}")
    if not table.is_complete():
        raise ValueError(f"table incomplete: {len(table.values)} of {1 << n} assignments")
    if alphabet is None:
        alphabet = Alphabet.default(2)
    t = list(table.values)
    for bit in range(n):
        h = 1 << bit
        for i in range(1 << n):
            if not i & h:
                t[i], t[i + h] = t[i] + t[i + h], t[i] - t[i + h]
    scale = Fraction(1, 1 << n)
    terms = {}
    for wmask, total in enumerate(t):
        if total:
            terms[tuple((wmask >> i) & 1 for i in range(n))] = total * scale
    return NCSeries(alphabet, n, terms)


@dataclass
class ScanReport:
    """Per-order census of the sign lattice."""

    n: int
    pruned_zero: int
    structural_zero: int
    nonzero: int
    unexpected: list[SignAssignment] = field(default_factory=list)


def scan_nonvanishing(n_max: int, workers: int | None = None) -> list[ScanReport]:
    """Evaluate every parity-surviving assignment for n = 1..n_max.

    Assignments with an even +1 count are counted as pruned without
    evaluation.  Among the rest, the all-plus assignment at odd n > 1 is
    the only zero the symmetries predict; anything else that evaluates to
    zero is reported as unexpected.
    """
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    reports = []
    for n in range(1, n_max + 1):
        surviving = [m for m in range(1 << n) if (n - m.bit_count()) % 2 == 1]
        pruned = (1 << n) - len(surviving)
        structural = 0
        nonzero = 0
        unexpected = []
        for mask, value in zip(surviving, _values_for_masks(n, surviving, workers)):
            if value:
                nonzero += 1
            elif mask == 0 and n > 1 and n % 2 == 1:
                structural += 1
            else:
                unexpected.append(_mask_signs(n, mask))
        reports.append(ScanReport(n, pruned, structural, nonzero, unexpected))
    return reports
