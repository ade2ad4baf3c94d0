"""Span tracing of the package's layers, installed from outside the package.

``install`` replaces every public function of the layer modules, under
every name any package module imported it by (``tokenslide.cli.solve_tp``
as well as ``tokenslide.trivially_perfect.solve_tp``), plus the methods
``Graph.__init__``, ``IntervalRepresentation.classify`` and
``SlideSpace.distances_from``, with wrappers that record a span per call.
The returned callable puts the originals back.

Spans carry an id and the id of the enclosing span.  The first ``keep``
spans are stored for the trace file; aggregates per span key are kept for
every call and handed out per round by ``Tracer.take``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from time import perf_counter

PACKAGE = "tokenslide"
LAYERS = (
    "cli", "instances", "intervals", "graphs", "proper",
    "trivially_perfect", "caterpillar", "oracle", "generate", "crosscheck",
)
# Called once per search state inside the oracle.  Wrapping them would add
# millions of spans whose time already lies inside the oracle.search spans.
PER_STATE = {"oracle.slide_neighbors", "oracle.state_key"}
METHODS = (
    ("graphs", "Graph", "__init__"),
    ("intervals", "IntervalRepresentation", "classify"),
    ("oracle", "SlideSpace", "distances_from"),
)
SOLVERS = {
    "caterpillar.solve_caterpillar": "caterpillar",
    "proper.solve_proper": "proper",
    "proper.solve_proper_components": "proper",
    "trivially_perfect.solve_tp": "trivially_perfect",
}
KEYS = {
    "graphs.Graph.__init__": "graphs.build",
    "graphs.validate_sequence": "graphs.validate",
    "instances.parse_instance": "instances.parse",
    "instances.parse_sequence": "instances.parse",
    "instances.serialize_instance": "instances.serialize",
    "instances.serialize_sequence": "instances.serialize",
    "intervals.IntervalRepresentation.classify": "intervals.classify",
    "oracle.bfs": "oracle.search",
    "oracle.SlideSpace.distances_from": "oracle.search",
    "generate.gen_instance": "generate.gen",
    "generate.quadratic_path_instance": "generate.gen",
}


class Tracer:
    """In-memory span recorder with per-key aggregates.

    A key's time counts only its outermost spans, so a solver that calls
    itself per component is not counted twice.  A layer's self time is the
    time of its spans minus the part their child spans cover.
    """

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._next = 1
        self.searched: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._new_round()

    def _new_round(self) -> None:
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def take(self) -> tuple[dict, dict, dict]:
        """Aggregates since the last call: key time, layer self time, counts."""
        out = (self.time, self.self_time, self.counts)
        self._new_round()
        return out

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, key: str) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next, parent, key, perf_counter(), 0.0])
        self._next += 1
        self._open[key] = self._open.get(key, 0) + 1

    def leave(self) -> bool:
        """Close the innermost span; True when it was its key's outermost."""
        end = perf_counter()
        sid, parent, key, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        layer = key.partition(".")[0]
        self.self_time[layer] = self.self_time.get(layer, 0.0) + dur - child
        self._open[key] -= 1
        outer = self._open[key] == 0
        if outer:
            self.time[key] = self.time.get(key, 0.0) + dur
        if len(self.spans) < self.keep:
            self.spans.append((sid, parent, key, start, end))
        else:
            self.dropped += 1
        return outer


def _decide(args, kwargs) -> bool:
    # decide is the fourth parameter of every solver that takes it
    return bool(kwargs.get("decide", args[3] if len(args) > 3 else False))


def _wrap(tracer: Tracer, qual: str, fn):
    """Wrapper for one function; ``qual`` is "<layer>.<name>"."""
    if inspect.isgeneratorfunction(fn):
        key = "generate.enumerate" if qual.startswith("generate.enumerate") else qual

        def gen_items(gen):
            while True:
                tracer.enter(key)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave()
                yield item

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return gen_items(fn(*args, **kwargs))

        return gen_wrapper

    layer = SOLVERS.get(qual)
    if layer is not None:
        @functools.wraps(fn)
        def solver(*args, **kwargs):
            decide = _decide(args, kwargs)
            tracer.enter(f"{layer}.decide" if decide else f"{layer}.solve")
            try:
                res = fn(*args, **kwargs)
            finally:
                outer = tracer.leave()
            if outer:
                tracer.count(f"{layer}.calls", 1)
                if res.moves is not None:
                    tracer.count(f"{layer}.moves", len(res.moves))
            return res

        return solver

    key = KEYS.get(qual, qual)
    counter = _COUNTERS.get(qual)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(key)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if counter is not None:
            counter(tracer, res, args, kwargs)
        return res

    return wrapper


def _count_edges(tracer, res, args, kwargs):
    tracer.count("graphs.edges_built", args[0].m)


def _count_validated(tracer, res, args, kwargs):
    seq = args[3] if len(args) > 3 else kwargs["seq"]
    tracer.count("graphs.moves_validated", len(getattr(seq, "moves", seq)))


def _count_bytes(tracer, res, args, kwargs):
    text = args[0] if args else kwargs["text"]
    tracer.count("instances.bytes_parsed", len(text.encode("utf-8")))


def _count_bfs(tracer, res, args, kwargs):
    tracer.count("oracle.calls", 1)
    tracer.count("oracle.states", res.states_explored)


def _count_distances(tracer, res, args, kwargs):
    # distances_from answers repeated sources from its memo; only the first
    # call per (space, source) searches
    space, source = args[0], args[1]
    seen = tracer.searched.setdefault(space, set())
    if source not in seen:
        seen.add(source)
        tracer.count("oracle.calls", 1)
        tracer.count("oracle.states", len(res))


_COUNTERS = {
    "graphs.Graph.__init__": _count_edges,
    "graphs.validate_sequence": _count_validated,
    "instances.parse_instance": _count_bytes,
    "instances.parse_sequence": _count_bytes,
    "oracle.bfs": _count_bfs,
    "oracle.SlideSpace.distances_from": _count_distances,
}


def install(tracer: Tracer):
    """Wrap the layers' public functions and the three methods; returns
    a callable that restores the originals."""
    layer_of = {f"{PACKAGE}.{name}": name for name in LAYERS}
    modules = [sys.modules[PACKAGE]] + [sys.modules[m] for m in layer_of]
    wrappers: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = layer_of.get(obj.__module__)
            qual = f"{layer}.{obj.__name__}"
            if layer is None or obj.__name__.startswith("_") or qual in PER_STATE:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(tracer, qual, obj)
            undo.append((module, name, obj))
            setattr(module, name, wrappers[id(obj)])
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, f"{layer}.{cls_name}.{attr}", original))

    def restore() -> None:
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one round, from the aggregates since ``take``."""
    time, self_time, counts = tracer.take()
    out = {}
    for layer in ("caterpillar", "proper", "trivially_perfect"):
        out[f"{layer}.solve_s"] = time.get(f"{layer}.solve", 0.0)
        out[f"{layer}.decide_s"] = time.get(f"{layer}.decide", 0.0)
        out[f"{layer}.moves"] = counts.get(f"{layer}.moves", 0)
    out["caterpillar.calls"] = counts.get("caterpillar.calls", 0)
    out["graphs.build_s"] = time.get("graphs.build", 0.0)
    out["graphs.edges_built"] = counts.get("graphs.edges_built", 0)
    out["graphs.validate_s"] = time.get("graphs.validate", 0.0)
    out["graphs.moves_validated"] = counts.get("graphs.moves_validated", 0)
    out["instances.parse_s"] = time.get("instances.parse", 0.0)
    out["instances.serialize_s"] = time.get("instances.serialize", 0.0)
    out["instances.bytes_parsed"] = counts.get("instances.bytes_parsed", 0)
    out["intervals.classify_s"] = time.get("intervals.classify", 0.0)
    out["oracle.search_s"] = time.get("oracle.search", 0.0)
    out["oracle.calls"] = counts.get("oracle.calls", 0)
    out["oracle.states"] = counts.get("oracle.states", 0)
    out["generate.enumerate_s"] = time.get("generate.enumerate", 0.0)
    out["generate.gen_s"] = time.get("generate.gen", 0.0)
    out["cli.self_s"] = self_time.get("cli", 0.0)
    out["crosscheck.self_s"] = self_time.get("crosscheck", 0.0)
    return out
