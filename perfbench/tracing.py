"""In-memory spans recorded from outside the program.

A span is opened by the benchmark around a call it makes, or by a wrapper
that the traced run puts in place of a public function in the module that
calls it (``analysis.run_chains``, ``simstudy.diagnose``, ...). No program
file is changed; the originals are put back after each traced unit.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict


class Tracer:
    """Spans and per-call samples of one benchmark process.

    When ``enabled`` is false, ``span`` costs one attribute test and records
    nothing, so untraced units run the program as it is.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.unit = "setup"
        self.spans: list[dict] = []
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self.last_draws = None  # draws of the last traced fit, for the summarize probe

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = {
            "name": name,
            "run": self.run_id,
            "unit": self.unit,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def sample(self, key: str, value) -> None:
        """Keep a value seen inside a traced unit (acceptance rates, ESS, ...)."""
        if self.enabled:
            self.samples[key].append((self.unit, value))

    # -- aggregation ----------------------------------------------------------

    def unit_totals(self, name: str, units) -> list[float]:
        """Inclusive seconds spent in spans called ``name``, one sum per unit."""
        totals = dict.fromkeys(units, 0.0)
        for s in self.spans:
            if s["name"] == name and s["unit"] in totals:
                totals[s["unit"]] += s["end"] - s["start"]
        return list(totals.values())

    def per_call_us(self, name: str, units) -> float:
        durs = [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["unit"] in units
        ]
        return 1e6 * sum(durs) / len(durs) if durs else 0.0

    def layer_table(self, units) -> list[dict]:
        """Calls, inclusive and self seconds per span name, averaged per unit.

        Self time is a span's duration minus the part of it its children
        cover; children never overlap because the program runs serially.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        rows: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s["unit"] not in units:
                continue
            r = rows.setdefault(s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            r["calls"] += 1
            r["total_s"] += dur
            r["self_s"] += dur - child_time[i]
        n = max(len(units), 1)
        out = []
        for r in sorted(rows.values(), key=lambda r: -r["self_s"]):
            out.append({
                "name": r["name"],
                "calls_per_unit": r["calls"] / n,
                "total_s_per_unit": r["total_s"] / n,
                "self_s_per_unit": r["self_s"] / n,
            })
        return out


class Patches:
    """Replace module attributes and put the originals back, last first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        if not hasattr(module, attr):
            return
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make_wrapper(orig))

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def spanned(tracer: Tracer, name: str, on_result=None):
    """A wrapper factory: run the original inside a span named ``name``."""

    def make(orig):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    return make


def time_calls(fn, budget_s: float, min_calls: int = 3) -> float:
    """Median seconds per call of ``fn()`` over calls made for ``budget_s``."""
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
