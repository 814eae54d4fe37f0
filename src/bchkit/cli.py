"""Command-line interface.

Subcommands: term (compute one order), verify (cross-check the independent
routes, each run once at its top order, on integer numerators per order),
scan (nonvanishing census of the sign lattice), bench (timing).
Payloads go to stdout or --out; diagnostics go to stderr.  Exit codes:
0 success, 1 invalid arguments (including orders over the words.MAX_WORDS
size limit or the series.MAX_BITS budget) or out of memory, 2 verification
mismatch, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from itertools import compress, count, islice, product, repeat
from math import gcd
from operator import mul, ne
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
# dynkin_substitute, expand_commutators, oracle_bch and reconstruct_term:
# perfbench/tracing.py wraps them
from .dynkin import _expand_lex, dynkin_substitute, expand_commutators
from .freealgebra import oracle_bch, oracle_lanes
from .output import (
    CACHE_ENV_VAR,
    RENDERERS,
    OutputDocument,
    cache_key,
    cache_load,
    cache_store,
)
from .series import Stages, lex_lanes, term_lanes
from .signedeval import lattice_terms, reconstruct_term, scan_nonvanishing
from .words import Alphabet, SeriesSpec, check_order


class UsageError(Exception):
    pass


class Mismatch(Exception):
    """A verify reference that differs from the pipeline: exit 2."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route flag problems to exit code 1 instead
    def error(self, message: str) -> None:
        raise UsageError(message)


@functools.cache  # one parser per process: each parse_args call returns a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bchkit",
        description="Exact Baker-Campbell-Hausdorff series terms "
        "via triangular-matrix logarithms.",
    )
    parser.add_argument("--version", action="version", version=f"bchkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_term = sub.add_parser("term", help="compute the order-n term")
    p_term.add_argument("n", type=int, help="order (>= 1)")
    p_term.add_argument("--factors", type=int, default=2, metavar="M",
                        help="number of product factors (default 2)")
    p_term.add_argument("--letters", metavar="NAMES",
                        help="comma-separated letter names (default x,y,w,a,b,...)")
    p_term.add_argument("--series", action="append", metavar="SPEC",
                        help="power series per factor: 'exp' or comma-separated "
                        "coefficients starting with 1 (e.g. 1,1); give once for "
                        "all factors or once per factor")
    p_term.add_argument("--dynkin", action="store_true",
                        help="also emit the commutator substitution")
    p_term.add_argument("--format", choices=sorted(RENDERERS), default="text")
    p_term.add_argument("--out", metavar="PATH", help="write payload to a file")
    p_term.add_argument("--no-cache", action="store_true",
                        help=f"disable the result cache (dir override: ${CACHE_ENV_VAR})")
    p_term.add_argument("--stats", action="store_true",
                        help="report stage times, lane width, words out and cache "
                        "hit or miss on stderr")
    p_term.set_defaults(handler=cmd_term)

    p_verify = sub.add_parser("verify", help="cross-check independent computation routes")
    p_verify.add_argument("n_max", type=int, help="check orders 1..n_max")
    p_verify.add_argument("--modes", metavar="LIST",
                          help=f"comma-separated subset of {','.join(VERIFY_MODES)} "
                          "(default: all, each capped at its supported order)")
    p_verify.set_defaults(handler=cmd_verify)

    p_scan = sub.add_parser("scan", help="census of vanishing sign assignments")
    p_scan.add_argument("n_max", type=int, help="scan orders 1..n_max")
    p_scan.add_argument("--workers", type=int, metavar="K",
                        help="evaluate assignments across up to K processes, "
                        "at most one per CPU")
    p_scan.set_defaults(handler=cmd_scan)

    p_bench = sub.add_parser("bench", help="time the symbolic and signed pipelines")
    p_bench.add_argument("range", metavar="LO..HI",
                         help="order range, e.g. 1..6 (a bare integer N means 1..N)")
    p_bench.add_argument("--repeat", type=int, default=3, metavar="R",
                         help="repetitions per measurement; the median is reported")
    p_bench.add_argument("--format", choices=("text", "json"), default="text")
    p_bench.set_defaults(handler=cmd_bench)
    return parser


def _parse_letters(raw: str | None, m: int, fmt: str, dynkin: bool) -> Alphabet:
    if raw is None:
        return Alphabet.default(m)
    names = [part.strip() for part in raw.split(",")]
    if len(names) != m:
        raise UsageError(f"--letters names {len(names)} letters but --factors is {m}")
    alphabet = Alphabet.from_names(names)
    for letter in alphabet.letters:  # refuse what would not compile, or not read back as a bracket
        if fmt == "latex" and letter in "\\{}_^%$#&~":
            raise UsageError(f"letter {letter!r} is special in LaTeX; --format latex cannot write it")
        if dynkin and letter in "[]":
            raise UsageError(f"letter {letter!r} is a bracket; --dynkin rows cannot write it")
    return alphabet


MAX_EXPONENT = 4300  # Python's int-string limit, which the series fingerprint hits anyway


def _parse_one_series(raw: str, n: int) -> tuple[str, SeriesSpec]:
    text = raw.strip()
    if text == "exp":
        return "exp", SeriesSpec.exponential(n)
    coeffs = [part.strip() for part in text.split(",")]
    try:
        for coeff in coeffs:  # Fraction builds 10**exponent before anything checks it
            exponent = coeff.lower().partition("e")[2]
            if exponent.lstrip("+-").replace("_", "").isdigit() and abs(int(exponent)) > MAX_EXPONENT:
                raise ValueError(f"exponent {exponent} is over {MAX_EXPONENT} in magnitude")
        spec = SeriesSpec.from_coeffs(coeffs)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad series {raw!r}: {exc}")
    return spec.fingerprint(), spec


def _parse_series(raw_list: Sequence[str] | None, m: int, n: int) -> tuple[list[str], list[SeriesSpec]]:
    raw_list = list(raw_list or ["exp"])
    if len(raw_list) == 1:
        raw_list *= m
    if len(raw_list) != m:
        raise UsageError(f"--series given {len(raw_list)} times; give it once (shared by all "
                         f"factors) or {m} times (one per factor)")
    names, specs = zip(*(_parse_one_series(raw, n) for raw in raw_list))
    return list(names), list(specs)


def cmd_term(args: argparse.Namespace) -> int:
    check_order(args.n, args.factors)
    alphabet = _parse_letters(args.letters, args.factors, args.format, args.dynkin)
    series_names, specs = _parse_series(args.series, args.factors, args.n)
    key = cache_key(args.n, alphabet.letters, series_names, args.dynkin, args.format)
    stages = Stages()
    entry = None
    if not args.no_cache:
        entry = cache_load(key)
        stages.lap("cache load")
    cache = "off" if args.no_cache else "miss" if entry is None else "hit"
    if entry is None:
        den, nums = lex_lanes(args.n, specs, stages)
        doc = OutputDocument.from_lex(args.n, series_names, alphabet, den, nums, args.dynkin)
        stages.lap("rows")
        entry = RENDERERS[args.format](doc), len(doc.terms)
        stages.lap("render")
        if not args.no_cache:
            cache_store(key, *entry)
            stages.lap("cache store")
    rendered, words = entry
    if args.stats:
        print(_stats_report(stages, cache, words), file=sys.stderr)
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(rendered)
    return 0


def _stats_report(stages: Stages, cache: str, words: int) -> str:
    head = f"stats: cache {cache}, {words} words out"
    if stages.width is not None:
        head += f", lane width W = {stages.width} bits"
    laps = (f"  {stage:<12}{seconds:10.6f} s" for stage, seconds in stages.seconds.items())
    return "\n".join([head, *laps])


# Per-mode order caps: the oracle's cost grows like m**n and the signed
# route evaluates 2**n sign assignments, so each route has a practical ceiling.
VERIFY_MODES = ("oracle", "multi", "signed", "dynkin")
VERIFY_CAPS = {"oracle": 18, "multi": 6, "signed": 18, "dynkin": 20}
Lanes = tuple[int, Sequence[int]]  # one order: a denominator and graded-lex numerators over it


def _first_diff(den: int, a: Sequence[int], den_ref: int, b: Sequence[int]) -> int | None:
    """Index of the first lane where a[k] / den != b[k] / den_ref, else None.

    With g = gcd(den, den_ref) this compares a (den_ref / g) against
    b (den / g), and a side whose factor is 1 is not multiplied: in every
    route one denominator divides the other, so one side never is.  The two
    sides are compared whole, as lists, in one C-level pass; only a mismatch
    looks for its index."""
    if len(a) != len(b):  # a prefix must never pass for the whole order
        raise Mismatch(f"{len(a)} pipeline numerators against {len(b)} reference numerators")
    g = gcd(den, den_ref)
    x, y = _scaled(a, den_ref // g), _scaled(b, den // g)
    if x == y:
        return None
    return next(compress(count(), map(ne, x, y)))


def _scaled(nums: Sequence[int], factor: int) -> list[int]:
    """nums times factor, as a list; a list times 1 is nums itself."""
    if factor != 1:
        return list(map(mul, nums, repeat(factor)))
    return nums if isinstance(nums, list) else list(nums)


def _verify_pairs(mode: str, limit: int, m: int) -> Iterator[tuple[Lanes, Lanes]]:
    """(pipeline, reference) lanes of orders 1..limit.  Each reference runs
    once, at limit: the oracle's log truncated there holds every lower order
    and hands each out as lanes, one lattice walk reads every lane of orders
    1..limit, and Dynkin-Specht-Wever expands the pipeline's own numerators."""
    orders = range(1, limit + 1)
    lanes = [term_lanes(n, m) for n in orders]
    if mode in ("oracle", "multi"):
        references = oracle_lanes(limit, m, [SeriesSpec.exponential(limit)] * m)
    elif mode == "signed":
        references = lattice_terms(limit)
    else:
        references = ((den * n, _expand_lex(nums, m, n)) for n, (den, nums) in zip(orders, lanes))
    return zip(lanes, references)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise UsageError(f"order must be >= 1, got {args.n_max}")
    if args.modes is not None:
        # a mode named twice runs once, in the order first named
        modes = list(dict.fromkeys(p.strip() for p in args.modes.split(",") if p.strip()))
        if not modes:
            raise UsageError(f"--modes names no mode; choose from {VERIFY_MODES}")
        unknown = [m for m in modes if m not in VERIFY_MODES]
        if unknown:
            raise UsageError(f"unknown modes {unknown}; choose from {VERIFY_MODES}")
        for mode in modes:
            if args.n_max > VERIFY_CAPS[mode]:
                raise UsageError(
                    f"mode {mode} is limited to n <= {VERIFY_CAPS[mode]}, got {args.n_max}"
                )
    else:
        modes = list(VERIFY_MODES)
    for mode in modes:
        # a named mode over its cap was refused above, so only defaults clamp
        limit = min(args.n_max, VERIFY_CAPS[mode])
        if limit < args.n_max:
            print(f"note: {mode} capped at n={limit}", file=sys.stderr)
        m = 3 if mode == "multi" else 2
        for n, ((den, a), (den_ref, b)) in enumerate(_verify_pairs(mode, limit, m), 1):
            try:  # a lane count or a lane: one FAIL line either way
                if (k := _first_diff(den, a, den_ref, b)) is not None:  # only now a word and Fractions
                    word = "".join(next(islice(product(Alphabet.default(m).letters, repeat=n), k, None)))
                    raise Mismatch(f"word {word}: pipeline {Fraction(a[k], den)}, "
                                   f"reference {Fraction(b[k], den_ref)}")
            except Mismatch as exc:
                print(f"FAIL {mode} n={n}: {exc}")
                return 2
            print(f"ok {mode} n={n} ({len(a) - a.count(0)} words)")
    print("all checks passed")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    check_order(args.n_max, 2)
    reports = scan_nonvanishing(args.n_max, workers=args.workers)
    bad = 0
    for r in reports:
        print(
            f"n={r.n}  pruned={r.pruned_zero}  structural={r.structural_zero}  "
            f"nonzero={r.nonzero}  unexpected={len(r.unexpected)}"
        )
        for signs in r.unexpected:
            bad += 1
            pretty = "".join("+" if s == 1 else "-" for s in signs)
            print(f"  unexpected zero at {pretty}")
    if bad:
        print(f"{bad} unexpected vanishing(s) found")
        return 2
    print("no unexpected vanishings")
    return 0


def _parse_range(raw: str) -> tuple[int, int]:
    text = raw.strip()
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo, hi = 1, int(text)
    except ValueError:
        raise UsageError(f"bad range {raw!r}; expected LO..HI or a bare integer")
    if lo < 1:
        raise UsageError(f"range must start at 1 or above, got {lo}")
    if hi < lo:
        raise UsageError(f"empty range {raw!r}: HI must be >= LO")
    return lo, hi


def _median_seconds(fn: Callable[[], object], repeat: int) -> float:
    import statistics  # only bench needs it: not imported on every run
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cmd_bench(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range)
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {args.repeat}")
    check_order(hi, 2)
    rows = []
    for n in range(lo, hi + 1):
        exp = SeriesSpec.exponential(n)
        # the calls of term n --no-cache and of verify --modes signed, each
        # handing out the order-n numerators; terms counts the nonzero ones
        routes = {"symbolic": lambda: lex_lanes(n, [exp, exp])[1],
                  "signed": lambda: lattice_terms(n)[-1][1]}
        row: dict = {"n": n}
        for name, route in routes.items():
            nums = route()
            row[name] = {"terms": len(nums) - nums.count(0), "seconds": _median_seconds(route, args.repeat)}
        rows.append(row)
    if args.format == "json":
        import json

        print(json.dumps({"repeat": args.repeat, "rows": rows}, indent=2))
        return 0
    print(f"{'n':>3}  {'terms':>6}  {'symbolic_ms':>12}  {'signed_ms':>12}")
    for row in rows:
        print(
            f"{row['n']:>3}  {row['symbolic']['terms']:>6}  "
            f"{row['symbolic']['seconds'] * 1000:>12.3f}  "
            f"{row['signed']['seconds'] * 1000:>12.3f}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
