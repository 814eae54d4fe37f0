"""Workload definitions: the argv of every op and how its output is checked.

An op is one ``bchkit`` command line.  The program only ever sees argv; the
seed reaches it through the series and letters that ``term_general_argvs``
generates.  Fixed-input ops are checked against stdout digests recorded at
the commit that introduced the benchmark (``digests.json``), generated ops
against the free-algebra oracle on the same series.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # key into digests.json for fixed-input ops; None means "check by oracle"
    digest: str | None
    # replays per cold run; cheap cache hits get several so their median
    # holds, and an op that caches nothing gets none
    replays: int
    # the output's last line must equal this, when set
    last_line: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # untimed ops run once before timing, so lazy imports are not timed
    warmup: tuple[tuple[str, ...], ...]


# term-general shapes: (factors, order, kind per factor).  "g" is a dense
# generated series, "p" a short generated polynomial, "exp" the exponential.
# The shapes are fixed so every seed costs about the same; the seed picks
# the letters and how the coefficients below are arranged and signed.
GENERAL_SHAPES = (
    (2, 11, ("g", "exp")),
    (2, 10, ("g", "g")),
    (3, 8, ("g", "g", "exp")),
    (3, 7, ("g", "p", "g")),
    (4, 6, ("g", "exp", "g", "p")),
)
LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"
# A series of k nonzero coefficients takes the first k of this list, shuffled,
# with random signs.  The list is fixed, so the sizes of the numbers the
# program works on vary little with the seed: over seeds 1..20 the output size
# spreads 3% (IQR over median), against 6% with each numerator drawn from 1..9
# and each denominator from 1..50.
COEFFICIENTS = tuple(
    Fraction(c) for c in ("1/2", "3/5", "2/7", "5/3", "1/11", "4/9", "7/4", "9/13", "3/8", "6/25", "8/49")
)


def generate_series(rng: random.Random, kind: str, n: int, factor: int) -> str:
    """One --series spec.  c0 is always 1; "g" has one zero, at a position
    fixed by the factor index, so zeros are covered without making the cost
    depend on the seed."""
    if kind == "exp":
        return "exp"
    length = n if kind == "g" else 2
    zero = 3 + factor if kind == "g" else None
    count = length - (zero is not None and zero <= length)
    picked = rng.sample(COEFFICIENTS[:count], count)
    coeffs = [Fraction(1)]
    for k in range(1, length + 1):
        coeffs.append(Fraction(0) if k == zero else picked.pop() * rng.choice((1, -1)))
    return ",".join(str(c) for c in coeffs)


def term_general_argvs(seed: int) -> list[tuple[str, ...]]:
    """The term-general ops for one seed; equal seeds give equal argv."""
    rng = random.Random(seed)
    out = []
    for m, n, kinds in GENERAL_SHAPES:
        letters = rng.sample(LETTER_POOL, m)
        argv = ["term", str(n), "--factors", str(m), "--letters", ",".join(letters)]
        for factor, kind in enumerate(kinds):
            argv += ["--series", generate_series(rng, kind, n, factor)]
        out.append(tuple(argv))
    return out


def pool_workers() -> int:
    """Workers for the pooled scan; never more than the host has cores."""
    return min(2, os.cpu_count() or 1)


def build(name: str, seed: int) -> Workload:
    if name == "term":
        bch = tuple(Op(("term", str(n)), f"term {n}", 9) for n in range(1, 13))
        general = tuple(Op(argv, None, 9) for argv in term_general_argvs(seed))
        return Workload(
            name,
            bch + general,
            (("term", "4"), ("term", "4", "--series", "1,1/2,-3")),
        )
    if name == "signed":
        k = str(pool_workers())
        return Workload(
            name,
            (
                Op(("verify", "9"), "verify 9", 1, "all checks passed"),
                # scan has no cache to replay from, so it runs cold only
                Op(("scan", "11"), "scan 11", 0, "no unexpected vanishings"),
                Op(("scan", "11", "--workers", k), "scan 11", 0, "no unexpected vanishings"),
            ),
            (("verify", "3"), ("scan", "3")),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


NAMES = ("term", "signed")
