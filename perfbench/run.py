"""bchkit benchmark: drives ``bchkit.cli.main`` in-process and checks every output.

    python3 perfbench/run.py --workload term --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

A pass runs each op of the workload once cold (term memo cleared, empty
cache directory) and then replays it with every cache the cold run filled.
Passes repeat until the next one would overrun ``--seconds``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced and it carries the
per-layer metrics.  README.md in this directory maps layers to metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CACHE_ENV_VAR = "BCHKIT_CACHE_DIR"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# counts reported as they are; the tracer keeps a few more for the ratios
REPORTED_COUNTS = (
    "trimatrix.product_terms",
    "trimatrix.log_terms",
    "series.words_out",
    "output.bytes_out",
    "signedeval.assignments_evaluated",
    "freealgebra.nc_mul_calls",
    "dynkin.expanded_words",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


def load_bchkit():
    """Import bchkit from this checkout's src/ and nowhere else."""
    if not (SRC / "bchkit" / "cli.py").is_file():
        raise SystemExit(f"error: no bchkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import bchkit
    import bchkit.cli
    import bchkit.series

    if Path(bchkit.__file__).resolve().parent != (SRC / "bchkit").resolve():
        raise SystemExit(f"error: imported bchkit from {bchkit.__file__}, not {SRC}")
    return bchkit


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: a host-speed probe."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 4000):
        acc += Fraction((-1) ** k, k * k + 1)
    return time.perf_counter() - start


def measure_setup() -> list[float]:
    """Fresh interpreter to bchkit.cli imported and its parser built, timed
    from outside; one untimed spawn first writes the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "bchkit", "--version"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith("bchkit "):
            raise SystemExit(f"error: {' '.join(cmd)} failed: {proc.stderr.strip()}")
        if i:
            samples.append(elapsed)
    return samples


def parse_text_terms(out: str) -> dict[str, Fraction]:
    """Words and coefficients from `term --format text` output."""
    terms = {}
    for line in out.splitlines():
        if line == "0":
            continue
        coeff, word = line.split("  ")
        terms[word] = Fraction(coeff)
    return terms


def oracle_terms(bchkit, argv: tuple[str, ...]) -> dict[str, Fraction]:
    """The free-algebra oracle's term for a generated term-general argv."""
    n = int(argv[1])
    opts, series = {}, []
    for flag, value in zip(argv[2::2], argv[3::2]):
        if flag == "--series":
            series.append(value)
        else:
            opts[flag] = value
    specs = [
        bchkit.SeriesSpec.exponential(n) if s == "exp" else bchkit.SeriesSpec.from_coeffs(s.split(","))
        for s in series
    ]
    alphabet = bchkit.Alphabet.from_names(opts["--letters"].split(","))
    z = bchkit.oracle_bch(n, int(opts["--factors"]), specs, alphabet)
    return {alphabet.word_str(w): c for w, c in z.terms.items() if c}


def output_ok(bchkit, op: workloads.Op, out: str, digests: dict[str, str]) -> bool:
    if op.last_line is not None and out.splitlines()[-1:] != [op.last_line]:
        return False
    if op.digest is not None:
        return hashlib.sha256(out.encode()).hexdigest() == digests.get(op.digest)
    try:
        return parse_text_terms(out) == oracle_terms(bchkit, op.argv)
    except ValueError:
        return False


class Runner:
    """Runs one workload's passes and keeps what the checks need."""

    def __init__(self, bchkit, wl: workloads.Workload, work: Path):
        self.bchkit = bchkit
        self.wl = wl
        self.work = work
        self.fresh_dirs = 0
        self.first_out: dict[int, str] = {}
        self.runs = [0] * len(wl.ops)
        self.bad = [0] * len(wl.ops)
        self.cold_times: list[list[float]] = [[] for _ in wl.ops]
        self.tracer: Tracer | None = None
        self.hits = {"cold": [0, 0], "replay": [0, 0]}  # [hits, loads]
        self.op_lines: list[str] = []

    def call(self, argv) -> tuple[float, int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        main = self.bchkit.cli.main
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    rc = main(list(argv))
                else:
                    rc = self.tracer.call("cli", main, list(argv))
            except Exception:
                traceback.print_exc()
                rc = None
        elapsed = time.perf_counter() - start
        if rc != 0:
            sys.stderr.write(f"op {' '.join(argv)} exited {rc}:\n{err.getvalue()}")
        return elapsed, rc, out.getvalue()

    def run_op(self, index: int, phase: str) -> float:
        op = self.wl.ops[index]
        tracer = self.tracer
        if tracer:
            first_span = len(tracer.spans)
            before = tracer.counts["output.cache_hits"], tracer.counts["output.cache_loads"]
        elapsed, rc, out = self.call(op.argv)
        # everything below is outside the timed region
        self.runs[index] += 1
        reference = self.first_out.setdefault(index, out)
        if rc != 0 or out != reference:
            self.bad[index] += 1
        if tracer:
            hits = tracer.counts["output.cache_hits"] - before[0]
            self.hits[phase][0] += hits
            self.hits[phase][1] += tracer.counts["output.cache_loads"] - before[1]
            if phase == "cold":
                if hits:
                    # isolation broke: a cold op was served from the cache
                    self.bad[index] += 1
                self.describe_op(op, elapsed, first_span)
        elif phase == "cold":
            self.cold_times[index].append(elapsed)
        return elapsed

    def describe_op(self, op: workloads.Op, elapsed: float, first_span: int) -> None:
        """One line per cold op: its time and each layer's share of it, by
        self time; layers the op never entered are left out."""
        _, own = self.tracer.totals(first_span)
        shares = ", ".join(
            f"{name} {seconds / elapsed:.1%}" for name, seconds in sorted(own.items(), key=lambda kv: -kv[1])
        )
        self.op_lines.append(f"  cold {' '.join(op.argv)[:40]:<40} {elapsed:8.4f} s  {shares}")

    def one_pass(self) -> tuple[float, float]:
        """(cold seconds, replay seconds) summed over the workload's ops;
        an op's replay time is the median of its replays."""
        cold = replay = 0.0
        clear = self.bchkit.series.clear_term_cache
        for index, op in enumerate(self.wl.ops):
            clear()
            self.fresh_dirs += 1
            cache = self.work / f"cache{self.fresh_dirs}"
            if cache.exists():
                raise SystemExit(f"error: cache directory {cache} is not fresh")
            os.environ[CACHE_ENV_VAR] = str(cache)
            cold += self.run_op(index, "cold")
            if op.replays:
                replay += statistics.median(self.run_op(index, "replay") for _ in range(op.replays))
            shutil.rmtree(cache, ignore_errors=True)
        return cold, replay

    def failures(self, digests: dict[str, str]) -> int:
        failed = 0
        for index, op in enumerate(self.wl.ops):
            if output_ok(self.bchkit, op, self.first_out[index], digests):
                failed += self.bad[index]
            else:
                print(f"output check failed: {' '.join(op.argv)}", file=sys.stderr)
                failed += self.runs[index]
        return failed

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the traced pass just finished."""
        tracer = self.tracer
        total, own = tracer.totals()
        out = {f"{name}_s": total.get(name, 0.0) for name, *_ in tracer.layers if name in tracer.present}
        out["cli.self_s"] = own.get("cli", 0.0)
        for key in REPORTED_COUNTS:
            if key in tracer.present:
                out[key] = tracer.counts.get(key, 0)
        if "output.cache_hits" in tracer.present:
            for phase, (hits, loads) in self.hits.items():
                out[f"output.{phase}_hit_ratio"] = hits / loads if loads else 0.0
        if "signedeval.nonzero" in tracer.present:
            evaluated = tracer.counts.get("signedeval.assignments_evaluated", 0)
            nonzero = tracer.counts.get("signedeval.nonzero", 0)
            out["signedeval.nonzero_ratio"] = nonzero / evaluated if evaluated else 0.0
        self.hits = {"cold": [0, 0], "replay": [0, 0]}
        return out

    def pool_speedup(self) -> float:
        """Serial over pooled median cold time; 0 when no op is pooled."""
        medians = {
            "--workers" in op.argv: statistics.median(times)
            for op, times in zip(self.wl.ops, self.cold_times)
            if times
        }
        return medians[False] / medians[True] if len(medians) == 2 else 0.0


def upper(samples: list[float]) -> str:
    """The highest percentile with ten samples beyond it, or the max."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return f"max {ordered[-1]:.6g}"
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g}"


def run_passes(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, dict, list]:
    """Passes until the next would overrun ``seconds``; with trace, odd
    passes are traced and at least one of each kind runs."""
    colds, replays, walls = [], [], {False: [], True: []}
    layer_passes: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(colds) % 2 == 1
        if traced:
            runner.tracer = Tracer()
            runner.tracer.install()
        pass_start = time.perf_counter()
        try:
            cold, replay = runner.one_pass()
        finally:
            if traced:
                runner.tracer.uninstall()
        walls[traced].append(time.perf_counter() - pass_start)
        colds.append(cold)
        replays.append(replay)
        if traced:
            layer_passes.append(runner.layer_metrics())
            runner.tracer = None
        elapsed = time.perf_counter() - start
        longest = max(walls[False] + walls[True])
        if elapsed + longest > seconds and (not trace or walls[True]):
            return colds, replays, walls, layer_passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bchkit = load_bchkit()
    wl = workloads.build(name, seed)
    digests = json.loads((HERE / "digests.json").read_text())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup = [] if trace else measure_setup()
        calib = [calibrate() for _ in range(3)]
        runner = Runner(bchkit, wl, work)
        os.environ[CACHE_ENV_VAR] = str(work / "warmup")
        for argv in wl.warmup:
            runner.call(argv)
        colds, replays, walls, layer_passes = run_passes(runner, seconds, trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calib += [calibrate() for _ in range(3)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = runner.failures(digests)
    attempted = sum(runner.runs)

    print(
        f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(colds)}  "
        f"ops/pass {len(wl.ops)} cold + {sum(op.replays for op in wl.ops)} replays"
    )
    print(
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"calib_s={statistics.median(calib):.6g} (ungated)"
    )
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} op runs)")
    if trace:
        metrics = {key: statistics.median(p[key] for p in layer_passes) for key in layer_passes[0]}
        metrics["signedeval.pool_speedup"] = runner.pool_speedup()
        metrics["tracing.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        )
        metrics["host.calib_s"] = statistics.median(calib)
        metrics["host.nproc"] = os.cpu_count() or 1
        units = {key: per_layer_unit(key) for key in metrics}
        print("\n".join(runner.op_lines[: len(wl.ops)]))
        for key, value in metrics.items():
            print(f"{key:<36} {value:.6g} {units[key]}")
    else:
        samples = {
            "wall_s": colds,
            "replay_s": replays,
            "setup_s": setup,
            "peak_rss_mb": [peak_rss_mb],
            "ok_ratio": [1 - failed / attempted],
        }
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        units = END_TO_END_UNITS
        for key, values in samples.items():
            print(
                f"{key:<36} {metrics[key]:.6g} {units[key]}  "
                f"(median, {upper(values)}, n={len(values)})"
            )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
