"""Per-layer tracing from outside the program.

Each module of the package is a layer.  ``patched`` wraps every public
module-level function of every layer and replaces the name in every
``forest_patterns`` namespace that holds it (``counting.iter_parent_vectors``,
``verify.sweep_counts``, ``forests.word_contains``, ...), and replaces
``ProcessPoolExecutor`` with a subclass that counts pool starts and times
the parent's wait for the workers.  A call is a span of its layer; a
generator is timed step by step.

Work done inside pool workers is not seen, only the parent's wait for it,
``counting.pool_wait_s``; while the parent waits, its layers are not busy.

Spans that cross a layer boundary are kept in memory (name, start, end
and the span that caused it, up to ``MAX_SPANS``) and written out by
the caller; every call also feeds the per-layer self time, busy time
and counts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "verify", "counting", "generate", "perms", "forests", "bijections", "textio")
CONTAINMENT = {"word_contains_classical", "word_contains_consecutive", "word_contains",
               "contains", "avoids"}
ENGINE = {"sweep_counts", "refined_table"}
WAIT = "pool"  # pseudo-layer: the parent waiting for its process pool
MAX_SPANS = 20_000


class Tracer:
    """Layer clock: time between two events goes to the layer on top."""

    def __init__(self) -> None:
        self.frames: list[tuple[str, int, bool]] = []  # (layer, span id, opened a span)
        self.last = perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.since: dict[str, float] = {}
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [parent id, layer, name, start, end]
        self.dropped = 0

    def enter(self, layer: str, name: str, span: bool = True) -> bool:
        """Open a call of ``layer``; returns whether it crosses a layer boundary."""
        now = perf_counter()
        caller, parent = (self.frames[-1][0], self.frames[-1][1]) if self.frames else ("bench", -1)
        self.self_s[caller] += now - self.last
        if layer == WAIT:  # the layers below stop being busy while the process waits
            for other, depth in self.depth.items():
                if depth:
                    self.busy_s[other] += now - self.since[other]
        if not self.depth[layer]:
            self.since[layer] = now
        self.depth[layer] += 1
        crossing = caller != layer
        opened = False
        sid = parent
        if crossing:
            self.counts[layer + ".calls"] += 1
            if span and len(self.spans) < MAX_SPANS:
                sid, opened = len(self.spans), True
                self.spans.append([parent, layer, name, now, now])
            elif span:
                self.dropped += 1
        self.frames.append((layer, sid, opened))
        self.last = now
        return crossing

    def exit(self) -> None:
        now = perf_counter()
        layer, sid, opened = self.frames.pop()
        self.self_s[layer] += now - self.last
        self.depth[layer] -= 1
        if not self.depth[layer]:
            self.busy_s[layer] += now - self.since[layer]
        if layer == WAIT:
            for other, depth in self.depth.items():
                if depth:
                    self.since[other] = now
        if opened:
            self.spans[sid][4] = now
        self.last = now

    @contextmanager
    def span(self, layer: str, name: str):
        self.enter(layer, name)
        try:
            yield
        finally:
            self.exit()


def _wrap_call(tracer: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        crossing = tracer.enter(layer, name)
        if layer == "perms" and crossing and name in CONTAINMENT:
            tracer.counts["perms.contain_calls"] += 1
        if layer == "counting" and name in ENGINE:
            tracer.counts["counting.engine_calls"] += 1
            if name == "sweep_counts":
                sets = len(args[2] if len(args) > 2 else kwargs["pattern_sets"])
            else:
                sets = 1
            tracer.counts["counting.sets"] += sets
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if layer == "verify" and name == "run_check":
            tracer.counts["verify.rows"] += len(result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, layer: str, name: str, fn):
    if layer != "generate":
        counter = None
    else:
        counter = "generate.vectors" if name == "iter_parent_vectors" else "generate.objects"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            tracer.enter(layer, name, span=False)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                tracer.exit()
            if counter:
                tracer.counts[counter] += 1
            yield item

    return wrapper


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counts["counting.pool_starts"] += 1
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            with tracer.span(WAIT, "map"):
                return iter(list(super().map(fn, *iterables, **kwargs)))

        def __exit__(self, *exc):
            with tracer.span(WAIT, "shutdown"):
                return super().__exit__(*exc)

    return TracedPool


@contextmanager
def patched(tracer: Tracer):
    """Route every public function of every layer through ``tracer``."""
    replacements: dict[int, object] = {id(ProcessPoolExecutor): _traced_pool(tracer)}
    for layer in LAYERS:
        module = importlib.import_module(f"forest_patterns.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            wrap = _wrap_generator if inspect.isgeneratorfunction(obj) else _wrap_call
            replacements[id(obj)] = wrap(tracer, layer, name, obj)
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "forest_patterns" and not modname.startswith("forest_patterns."):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in replacements:
                undo.append((module, name, obj))
                setattr(module, name, replacements[id(obj)])
    try:
        yield tracer
    finally:
        for module, name, obj in undo:
            setattr(module, name, obj)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, by metric name."""
    c, busy, own = tracer.counts, tracer.busy_s, tracer.self_s
    vectors = c["generate.vectors"]
    return {
        "generate.vectors": vectors,
        "generate.objects": c["generate.objects"],
        "generate.busy_s": busy["generate"],
        "counting.calls": c["counting.engine_calls"],
        "counting.sets": c["counting.sets"],
        "counting.busy_s": busy["counting"],
        "counting.self_s": own["counting"],
        "counting.pool_starts": c["counting.pool_starts"],
        "counting.pool_wait_s": busy[WAIT],
        "perms.contain_calls": c["perms.contain_calls"],
        "perms.busy_s": busy["perms"],
        "perms.calls_per_vector": c["perms.contain_calls"] / vectors if vectors else 0.0,
        "forests.calls": c["forests.calls"],
        "forests.busy_s": busy["forests"],
        "bijections.calls": c["bijections.calls"],
        "bijections.busy_s": busy["bijections"],
        "textio.calls": c["textio.calls"],
        "textio.busy_s": busy["textio"],
        "cli.self_s": own["cli"],
        "cli.out_bytes": c["cli.out_bytes"],
        "verify.rows": c["verify.rows"],
        "verify.self_s": own["verify"],
    }
