"""Command-line interface.

Subcommands: term (compute one order), verify (cross-check the independent
routes, each run once at its top order), scan (nonvanishing census of the
sign lattice), bench (timing).
Payloads go to stdout or --out; diagnostics go to stderr.  Exit codes:
0 success, 1 invalid arguments (including orders over the series.MAX_WORDS
size limit), 2 verification mismatch, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .dynkin import dynkin_substitute, expand_commutators
from .freealgebra import oracle_bch, oracle_log  # oracle_bch: perfbench/tracing.py wraps it
from .output import (
    CACHE_ENV_VAR,
    RENDERERS,
    OutputDocument,
    cache_key,
    cache_load,
    cache_store,
)
from .series import Stages, bch_term, bch_term_multi, check_order, lex_lanes, term_uncached
from .signedeval import build_table, build_tables, reconstruct_term, scan_nonvanishing
from .trimatrix import SeriesSpec
from .words import Alphabet, NCSeries


class UsageError(Exception):
    pass


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


def _parse_letters(raw: str | None, m: int) -> Alphabet:
    if raw is None:
        return Alphabet.default(m)
    names = [part.strip() for part in raw.split(",")]
    if len(names) != m:
        raise UsageError(f"--letters names {len(names)} letters but --factors is {m}")
    return Alphabet.from_names(names)


def _parse_one_series(raw: str, n: int) -> tuple[str, SeriesSpec]:
    text = raw.strip()
    if text == "exp":
        return "exp", SeriesSpec.exponential(n)
    try:
        spec = SeriesSpec.from_coeffs(part.strip() for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad series {raw!r}: {exc}")
    return spec.fingerprint(), spec


def _parse_series(raw_list: Sequence[str] | None, m: int, n: int) -> tuple[list[str], list[SeriesSpec]]:
    if not raw_list:
        raw_list = ["exp"]
    if len(raw_list) == 1:
        raw_list = list(raw_list) * m
    if len(raw_list) != m:
        raise UsageError(
            f"--series given {len(raw_list)} times; give it once (shared by all "
            f"factors) or {m} times (one per factor)"
        )
    names, specs = [], []
    for raw in raw_list:
        name, spec = _parse_one_series(raw, n)
        names.append(name)
        specs.append(spec)
    return names, specs


def cmd_term(args: argparse.Namespace) -> int:
    if args.factors < 2:
        raise UsageError(f"--factors must be >= 2, got {args.factors}")
    check_order(args.n, args.factors)
    alphabet = _parse_letters(args.letters, args.factors)
    series_names, specs = _parse_series(args.series, args.factors, args.n)
    key = cache_key(__version__, "term", args.n, alphabet.letters, series_names, args.dynkin)
    stages = Stages()
    doc = None
    if not args.no_cache:
        doc = cache_load(key)
        stages.lap("cache load")
    cache = "off" if args.no_cache else "miss" if doc is None else "hit"
    if doc is None:
        den, nums = lex_lanes(args.n, specs, stages)
        brackets = None
        if args.dynkin:
            brackets = dynkin_substitute(NCSeries.from_lex(alphabet, args.n, den, nums))
            stages.lap("dynkin")
        doc = OutputDocument.from_lex(
            __version__, "term", args.n, series_names, alphabet, den, nums, brackets
        )
        stages.lap("rows")
        if not args.no_cache:
            cache_store(key, doc)
            stages.lap("cache store")
    rendered = RENDERERS[args.format](doc)
    stages.lap("render")
    if args.stats:
        print(_stats_report(stages, cache, len(doc.terms)), file=sys.stderr)
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


def _first_diff(a: NCSeries, b: NCSeries) -> tuple[tuple[int, ...], Fraction, Fraction] | None:
    if a.terms == b.terms:  # every passing check: no per-word lookups
        return None
    diff = (w for w in a.terms.keys() | b.terms.keys() if a.coefficient(w) != b.coefficient(w))
    word = min(diff, key=lambda w: (len(w), w))  # graded-lex; zero-free terms, so some word differs
    return word, a.coefficient(word), b.coefficient(word)


# Per-mode order caps: the oracle's cost grows like m**n and the signed
# route evaluates 2**n sign assignments, so each route has a practical ceiling.
VERIFY_MODES = ("oracle", "multi", "signed", "dynkin")
VERIFY_CAPS = {"oracle": 12, "multi": 6, "signed": 14, "dynkin": 18}


def _verify_pairs(mode: str, limit: int) -> Iterator[tuple[NCSeries, NCSeries]]:
    """(pipeline, reference) for orders 1..limit.  Each reference route but
    dynkin runs once, at limit: the oracle's log truncated there holds every
    lower order, and one lattice walk yields the tables of orders 1..limit."""
    if mode in ("oracle", "multi"):
        m = 2 if mode == "oracle" else 3
        log = oracle_log(limit, m, [SeriesSpec.exponential(limit)] * m)
        yield from ((bch_term_multi(n, m), log.homogeneous_slice(n)) for n in range(1, limit + 1))
    elif mode == "signed":
        tables = build_tables(limit, "symmetry", low=1)
        yield from ((bch_term(t.n), reconstruct_term(t.n, t)) for t in tables)
    else:
        for z in map(bch_term, range(1, limit + 1)):
            yield z, expand_commutators(dynkin_substitute(z), z.alphabet)


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
        for n, (ours, reference) in enumerate(_verify_pairs(mode, limit), 1):
            diff = _first_diff(ours, reference)
            if diff is not None:
                word, ca, cb = diff
                print(
                    f"FAIL {mode} n={n}: word {ours.alphabet.word_str(word)}: "
                    f"pipeline {ca}, reference {cb}"
                )
                return 2
            print(f"ok {mode} n={n} ({len(ours.terms)} words)")
    print("all checks passed")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
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

        def symbolic() -> NCSeries:
            return term_uncached(n, [exp, exp])

        def signed() -> NCSeries:
            return reconstruct_term(n, build_table(n, "symmetry"))

        sym_terms = len(symbolic().terms)
        sig_terms = len(signed().terms)
        rows.append(
            {
                "n": n,
                "symbolic": {"terms": sym_terms, "seconds": _median_seconds(symbolic, args.repeat)},
                "signed": {"terms": sig_terms, "seconds": _median_seconds(signed, args.repeat)},
            }
        )
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
