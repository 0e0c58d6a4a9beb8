"""Span tracer for the per-layer metrics, installed from outside the package.

`instrument(tracer)` wraps the public functions and methods of each layer
module (cli, functions, geometry, interp, certify, eigensum) at every name
under which a module of the package binds them, so a call made through
`from .functions import estimate_doubling` is traced as well as one made
through `obscert.functions.estimate_doubling`.  Nothing in `src/` changes;
`restore()` puts the originals back.

Each thread keeps its own span stack, because sweep rows run on a thread
pool.  A span's self time is its duration minus the durations of the spans
it directly encloses in the same thread; a layer's self time is the sum over
its spans.  Summed over all spans of a thread, self time is just the time of
its root spans, so it says nothing about how much of an op the named stages
explain.  `Summary.attributed` therefore leaves out the self time of the
entry spans (`ENTRY_SPANS`): work they do outside every named stage counts
as unattributed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "functions", "geometry", "interp", "certify", "eigensum")
PACKAGE = "obscert"

# The calls an op makes into the package: the CLI entry and its commands, and
# the eigen-sum study functions the study ops call directly.
ENTRY_SPANS = frozenset({
    "cli.main", "cli.cmd_certify", "cli.cmd_verify", "cli.cmd_sweep",
    "eigensum.calibrate_gamma", "eigensum.doubling_growth_study",
    "eigensum.eigensum_study_csv",
})

# Span names other than `<layer>.<Class>.<method>`: every model's `evaluate`
# shares one name, as do the measurable-set constructors (_SET_CONSTRUCTORS).
_RENAMES = {
    "functions.TrigSum.evaluate": "functions.evaluate",
    "functions.Gaussian.evaluate": "functions.evaluate",
    "functions.Product.evaluate": "functions.evaluate",
    "functions.Polynomial1D.evaluate": "functions.evaluate",
    "functions.FunctionModel.evaluate": "functions.evaluate",
    "geometry.Domain.distance": "geometry.distance",
    "certify.FieldCache.__init__": "certify.FieldCache.build",
    "cli.Report.write": "cli.report_write",
}
# Non-public methods that are traced all the same: the field cache build.
_PRIVATE_SPANS = {"certify.FieldCache.build"}
_SET_CONSTRUCTORS = ("full", "empty", "from_mask", "from_box", "from_ball", "random",
                 "nested_random", "strided")


@dataclass(slots=True)
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    child: float = 0.0          # summed durations of directly enclosed spans
    outermost: bool = True      # no enclosing span of the same name in its thread

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.open_names: Counter[str] = Counter()
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()


class Tracer:
    """Records finished spans and counts, per thread, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str) -> Span:
        st = self._state()
        span = Span(name, threading.get_ident(), self.clock(),
                    outermost=st.open_names[name] == 0)
        st.stack.append(span)
        st.open_names[name] += 1
        return span

    def exit(self, span: Span) -> None:
        st = self._state()
        span.end = self.clock()
        top = st.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        st.open_names[span.name] -= 1
        if st.stack:
            st.stack[-1].child += span.duration
        st.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def counts(self) -> Counter[str]:
        total: Counter[str] = Counter()
        with self._lock:
            for st in self._states:
                total.update(st.counts)
        return total


@dataclass
class Summary:
    inclusive: dict[str, float] = field(default_factory=dict)   # outermost spans per name
    calls: dict[str, int] = field(default_factory=dict)
    self_by_layer: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attributed: float = 0.0     # self time of every span outside ENTRY_SPANS


def summarize(spans: list[Span], counts: Counter[str] | None = None) -> Summary:
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_layer: dict[str, float] = defaultdict(float)
    attributed = 0.0
    for s in spans:
        calls[s.name] += 1
        if s.outermost:
            inclusive[s.name] += s.duration
        self_by_layer[s.layer] += s.self_time
        if s.name not in ENTRY_SPANS:
            attributed += s.self_time
    return Summary(dict(inclusive), dict(calls), dict(self_by_layer), dict(counts or {}),
                   attributed)


# ---------------------------------------------------------------------------
# Counters taken from call arguments and results
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _n_points(arr: Any, dimension: int) -> int:
    return int(np.size(arr)) // max(1, dimension)


def _count_evaluate(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    if span.outermost:
        model = args[0]
        points = _arg(args, kwargs, 1, "points")
        tracer.count("functions.evaluate.points", _n_points(points, model.dimension))


def _count_distance(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("geometry.distance.points", _n_points(result, 1))


def _count_densest(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    mset, cover = _arg(args, kwargs, 0, "mset"), _arg(args, kwargs, 1, "cover")
    tracer.count("geometry.densest_ball.point_tests", len(cover) * mset.cell_count)


def _count_cover(tracer: Tracer, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("geometry.cover_domain.balls", len(result))


_COUNTERS = {
    "functions.evaluate": _count_evaluate,
    "geometry.distance": _count_distance,
    "geometry.densest_ball": _count_densest,
    "geometry.cover_domain": _count_cover,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counter = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if counter is not None:
            counter(tracer, span, args, kwargs, result)
        return result

    return traced


def _span_name(layer: str, owner: str | None, attr: str) -> str:
    if owner == "MeasurableSet" and attr in _SET_CONSTRUCTORS:
        return "geometry.set_build"
    full = f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"
    return _RENAMES.get(full, full)


class Instrumentation:
    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every public function and method of the layer modules."""
    inst = Instrumentation()
    wrapped: dict[int, Callable] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                wrapped[id(obj)] = _wrap(tracer, _span_name(layer, None, attr), obj)
            elif inspect.isclass(obj):
                for mattr, member in list(vars(obj).items()):
                    name = _span_name(layer, obj.__name__, mattr)
                    if mattr.startswith("_") and name not in _PRIVATE_SPANS:
                        continue
                    if isinstance(member, staticmethod):
                        inst.patch(obj, mattr, staticmethod(_wrap(tracer, name, member.__func__)))
                    elif inspect.isfunction(member):
                        inst.patch(obj, mattr, _wrap(tracer, name, member))
    # rebind each wrapped function wherever a package module holds it
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                inst.patch(mod, attr, wrapped[id(obj)])
    return inst
