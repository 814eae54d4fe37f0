"""Spans around the calls into each bchkit layer, recorded from outside.

Each layer's public function is replaced, for the duration of a traced pass,
at the module attribute its caller looks it up by: ``bchkit.series`` calls
``log_upper_right`` through its own globals, so wrapping
``bchkit.series.log_upper_right`` catches every call the symbolic route
makes.  Nothing under ``src/`` is edited.  A target that no longer exists is
skipped, so its metrics are absent from the report instead of crashing it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

Counter = Callable[[Any], float]


def _matrix_terms(result: Any) -> float:
    return sum(len(e.terms) for row in result.rows for e in row)


def _term_count(result: Any) -> float:
    return len(result.terms)


def _evaluated(result: Any) -> float:
    return sum(r.nonzero + r.structural_zero + len(r.unexpected) for r in result)


# (span name, module, attribute or "ATTR[key]" for a dict entry,
#  counts read from each returned value)
LAYERS: tuple[tuple[str, str, str, tuple[tuple[str, Counter], ...]], ...] = (
    ("trimatrix.build", "bchkit.series", "build_factor_matrix", ()),
    ("trimatrix.product", "bchkit.series", "mat_mul", (("trimatrix.product_terms", _matrix_terms),)),
    ("trimatrix.log", "bchkit.series", "log_upper_right", (("trimatrix.log_terms", _term_count),)),
    ("series.decode", "bchkit.series", "t_operator", (("series.words_out", _term_count),)),
    ("output.render", "bchkit.cli", "RENDERERS[text]", (("output.bytes_out", lambda r: len(r.encode())),)),
    ("output.cache_store", "bchkit.cli", "cache_store", ()),
    (
        "output.cache_load",
        "bchkit.cli",
        "cache_load",
        (("output.cache_loads", lambda r: 1), ("output.cache_hits", lambda r: r is not None)),
    ),
    (
        "signedeval.scan",
        "bchkit.cli",
        "scan_nonvanishing",
        (
            ("signedeval.assignments_evaluated", _evaluated),
            ("signedeval.nonzero", lambda result: sum(r.nonzero for r in result)),
        ),
    ),
    ("signedeval.eval", "bchkit.signedeval", "eval_assignment", ()),
    ("signedeval.reconstruct", "bchkit.cli", "reconstruct_term", ()),
    ("freealgebra.oracle", "bchkit.cli", "oracle_bch", ()),
    ("freealgebra.nc_mul", "bchkit.freealgebra", "nc_mul", (("freealgebra.nc_mul_calls", lambda r: 1),)),
    ("dynkin.substitute", "bchkit.cli", "dynkin_substitute", ()),
    ("dynkin.expand", "bchkit.cli", "expand_commutators", (("dynkin.expanded_words", _term_count),)),
)


class _Slot:
    """A module attribute or a dict entry that can be read and replaced."""

    def __init__(self, module_name: str, target: str):
        owner: Any = importlib.import_module(module_name)
        key = None
        if target.endswith("]"):
            target, key = target[:-1].split("[")
        self.owner = getattr(owner, target) if key else owner
        self.key = key if key else target

    def get(self) -> Any:
        if isinstance(self.owner, dict):
            return self.owner.get(self.key)
        return getattr(self.owner, self.key, None)

    def set(self, value: Any) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


class Tracer:
    """In-memory spans of one traced pass: [name, start, end, parent index]."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # span and count names whose target exists in the program
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[_Slot, Any]] = []

    def install(self) -> None:
        for name, module, target, counters in self.layers:
            try:
                slot = _Slot(module, target)
            except (ImportError, AttributeError, ValueError):
                continue
            original = slot.get()
            if not callable(original):
                continue
            slot.set(self._wrap(name, original, counters))
            self._restore.append((slot, original))
            self.present.add(name)
            self.present.update(key for key, _ in counters)

    def uninstall(self) -> None:
        while self._restore:
            slot, original = self._restore.pop()
            slot.set(original)

    def _wrap(self, name: str, fn: Callable, counters) -> Callable:
        def traced(*args, **kwargs):
            # a recursive call through the same name is part of the outer span
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            for key, count in counters:
                try:
                    self.counts[key] += count(result)
                except (AttributeError, TypeError):
                    # the result changed shape: this count stays at what it had
                    pass
            return result

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run fn inside a span called name, child of the open span."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def totals(self, first: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name over spans[first:], in total and as self
        time: a span's duration minus that of its direct children."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            total[name] += end - start
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return total, own
