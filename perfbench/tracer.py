"""Outside-in span tracer for the sketchls benchmark.

The tracer replaces the module attributes through which sketchls modules
call one another (``harness.make_operator``, ``estimators.classical``,
``datagen.ProblemInstance``, ...) with wrappers that record one span per
call: name, start, end, thread and parent.  Spans stay in memory until
the benchmark writes them out, and `Tracer.restore` puts every original
attribute back.  Nothing inside the package is modified.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

ESTIMATORS = ("classical", "js_oracle", "shrinkage", "shrinkage_alt",
              "positive_part", "shrinkage_matrix")
BOUNDS = ("exact_classical_error", "general_lower_bound", "upper_bound_sa")
SWEEP = "harness.sweep"
REP = "harness.run_rep"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    mib: float = 0.0  # bytes the call realized, for sketch operators

    @property
    def duration(self) -> float:
        return self.end - self.start


def _payload_mib(op) -> float:
    """Computed size of a realized sketch operator's arrays, in MiB."""
    return sum(getattr(v, "nbytes", 0) for v in vars(op).values()) / 2**20


def patch_points():
    """(module, attribute, span name, size function) for every traced call site.

    A span name is either a string or a function of the call arguments,
    which splits sketch realization and application by family.
    """
    from sketchls import bounds, datagen, dataio, estimators, harness, sketches

    points = [
        (harness, "gen_gaussian_data", "datagen.gen_gaussian_data", None),
        (harness, "load", "dataio.load", None),
        (datagen, "ProblemInstance", "core.ProblemInstance", None),
        (dataio, "ProblemInstance", "core.ProblemInstance", None),
        (harness, "solve_exact", "core.solve_exact", None),
        (datagen, "solve_exact", "core.solve_exact", None),
        (harness, "_run_rep", REP, None),
        (harness, "make_operator", lambda a: "sketches.make_operator." + a[0].family, _payload_mib),
        (sketches, "leverage_scores", "sketches.leverage_scores", None),
        (harness, "apply", lambda a: "sketches.apply." + a[0].family, None),
        (harness, "prediction_error", "core.prediction_error", None),
        (dataio, "write_results_csv", "dataio.write_results_csv", None),
    ]
    points += [(estimators, f, "estimators." + f, None) for f in ESTIMATORS]
    points += [(bounds, f, "bounds", None) for f in BOUNDS]
    return points


class Tracer:
    """Records spans for the wrapped call sites while installed.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with nothing open takes `root` (the sweep span) as its parent,
    so worker-thread repetitions hang under the sweep that started them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, size, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        mib = 0.0
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
            if size is not None:
                mib = size(out)
            return out
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, mib))

    def wrap(self, obj, attr: str, name, size=None) -> None:
        original = getattr(obj, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            return tracer._call(label, size, original, args, kwargs)

        self._saved.append((obj, attr, original))
        setattr(obj, attr, traced)

    def install(self) -> "Tracer":
        for obj, attr, name, size in patch_points():
            self.wrap(obj, attr, name, size)
        return self

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextmanager
    def region(self, name: str):
        """Record a span around a block; worker-thread spans attach to it."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        previous_root, self.root = self.root, sid
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.root = previous_root
            self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent))


@contextmanager
def traced():
    """Install a tracer for the duration of a block and always restore it."""
    tracer = Tracer()
    try:
        yield tracer.install()
    finally:
        tracer.restore()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its children on the same thread.

    Children on another thread (pool workers under the sweep span) run
    concurrently with their parent, so they are not subtracted from it.
    """
    by_id = {s.id: s for s in spans}
    out = {s.id: s.duration for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out[parent.id] -= s.duration
    return out


def thread_balance(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Thread -> (sum of self times, sum of top-level span durations on it).

    The two agree when every span's time is accounted for exactly once.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        totals[s.thread][0] += own[s.id]
        parent = by_id.get(s.parent)
        if parent is None or parent.thread != s.thread:
            totals[s.thread][1] += s.duration
    return {t: (v[0], v[1]) for t, v in totals.items()}


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> busy seconds, self seconds, call count and realized MiB."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "mib": 0.0})
    for s in spans:
        row = out[s.name]
        row["s"] += s.duration
        row["self_s"] += own[s.id]
        row["calls"] += 1
        row["mib"] += s.mib
    return dict(out)
