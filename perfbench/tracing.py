"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside: it replaces the public
functions that ``seqpol.cli``, ``seqpol.runner``, ``seqpol.strata`` and
``seqpol.ope`` import (plus ``PolicyModel.predict_proba`` and the risk-score
intercept solver) with wrappers that open a span or bump a counter, and puts
the originals back afterwards. Nothing under ``src/`` changes.

A span has a name, a start, an end and a parent. A layer's self time is its
span's duration minus the part of that interval its child spans cover, so
the self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Names the result line accepts: letters, digits, '_', '.', '-'; max 64."""
    return METRIC_NAME.fullmatch(name) is not None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None


class Recorder:
    """Collects spans and counts in memory until the benchmark writes them.

    Each thread keeps its own stack of open spans. A span opened on a worker
    thread with an empty stack (the runner's candidate pool under
    ``SEQPOL_THREADS`` > 1) takes the innermost span open on the thread that
    created the recorder as its parent, so parent links hold under the pool.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(Span(sid, name, self.clock(), None, parent))
        stack.append(sid)
        try:
            yield sid
        finally:
            stack.pop()
            self.spans[sid].end = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    (threads) are counted once.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, [])
        ]
        covered = _union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for sid, t in self_times(spans).items():
        name = spans[sid].name
        totals[name] = totals.get(name, 0.0) + t
    return totals


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _spanned(rec: Recorder, name, fn, counts=None):
    """Wrap ``fn`` in a span.

    ``name`` may be a function of the call's arguments; ``counts`` maps a
    counter name to a function of the call's result giving the increment.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with rec.span(label):
            out = fn(*args, **kwargs)
        for counter, amount in (counts or {}).items():
            rec.count(counter, amount(out))
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _bootstrap(rec: Recorder, fn):
    """Span around bootstrap_ci; counts replicates and defined outcomes."""
    import numpy as np

    @functools.wraps(fn)
    def wrapper(samples, statistic, *args, **kwargs):
        calls = [0, 0]  # statistic calls, calls that returned a number

        def counted_statistic(sample):
            calls[0] += 1
            v = statistic(sample)
            if not np.isnan(v):
                calls[1] += 1
            return v

        try:
            with rec.span("metrics.bootstrap"):
                return fn(samples, counted_statistic, *args, **kwargs)
        finally:
            # The first call is the point estimate, not a replicate; when it
            # is undefined bootstrap_ci raises before drawing any replicate.
            rec.count("metrics.bootstrap_replicates", max(calls[0] - 1, 0))
            rec.count("metrics.bootstrap_defined", max(calls[1] - 1, 0))

    return wrapper


def _fit_model_name(kind, *args, **kwargs):
    return f"models.fit.{kind}"


def _one(out) -> int:
    return 1


def _patches(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced entry point."""
    from seqpol import cli, ope, runner, strata
    from seqpol.models import base, riskscore

    def span(name, **counts):
        return lambda fn: _spanned(rec, name, fn, counts)

    def count(name):
        return lambda fn: _counted(rec, name, fn)

    load = span("dataset.load", **{"dataset.rows": lambda out: out.n_stages})
    preprocess = span("dataset.preprocess")
    assemble = span("staterep.assemble", **{"staterep.assemble_calls": _one,
                                            "staterep.rows": lambda out: out.n_rows})
    products = span("ope.products", **{"ope.floored_events": lambda out: out.floored_events})
    fit = {"models.fits": _one}
    plan = {
        cli: {
            "load_episodes": load,
            "apply_preprocessor": preprocess,
            "fit_preprocessor": preprocess,
            "model_from_dict": span("models.load"),
            "inverse_probability_products": products,
            "median_product_curve": span("ope.curve"),
            "render_report": span("runner.render"),
            "run_experiment": span("runner.run"),
            "line_chart": span("svg.chart"),
        },
        runner: {
            "load_episodes": load,
            "apply_preprocessor": preprocess,
            "fit_preprocessor": preprocess,
            "split_dataset": span("dataset.split"),
            "assemble_state": assemble,
            "fit_model": span(_fit_model_name, **fit),
            "select_best_candidate": span("runner.select"),
            "bootstrap_ci": lambda fn: _bootstrap(rec, fn),
            "auroc_multiclass": count("metrics.auroc_calls"),
            "inverse_probability_products": products,
            "median_product_curve": span("ope.curve"),
            "assign_severity_groups": span("strata.severity"),
            "filter_switch_states": span("strata.switch"),
            "tree_complexity_sweep": span("strata.sweep"),
            "line_chart": span("svg.chart"),
        },
        strata: {
            "assemble_state": assemble,
            "fit_tree": span("models.fit.tree", **fit),
            "auroc_multiclass": count("metrics.auroc_calls"),
        },
        ope: {
            "assemble_state": assemble,
        },
        riskscore: {
            "optimal_intercept": count("models.riskscore.intercept_solves"),
        },
        base.PolicyModel: {
            "predict_proba": span("models.predict", **{
                "models.predict_rows": lambda out: len(out) if out.ndim == 2 else 1}),
        },
    }
    return [
        (owner, attr, make(getattr(owner, attr)))
        for owner, attrs in plan.items()
        for attr, make in attrs.items()
    ]


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    patches = _patches(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, repl in patches:
            setattr(owner, attr, repl)
        yield rec
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
