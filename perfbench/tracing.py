"""Per-layer tracing of riftpuzzles, installed at run time from outside src/.

A layer is one module of the package.  Every public function of a layer is
replaced, in every ``riftpuzzles.*`` namespace that holds it, by a wrapper
that records a span (function, start, end, parent span, op id) while an op is
being traced.  Module globals resolve at call time, so calls inside one
module (``solve_crystal_bonds`` -> ``crystal_metric``) are caught as well as
calls across modules.  Functions in COUNT_ONLY run so often that a span each
would swamp the measurement; they are only counted, and their time stays in
the calling span.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children, which on one thread never overlap, so the
self times of all spans of an op add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "instance_io",
    "crystal_bonds",
    "tile_trial",
    "hands_of_time",
    "graphs",
    "geometry",
)

# hot public functions: a span per call would cost more than the call
COUNT_ONLY = frozenset(
    {
        "geometry.segment_admissible",
        "geometry.region_contains_point",
        "geometry.tile_center",
        "hands_of_time.repunit",
        "hands_of_time.jump_value",
    }
)


class Tracer:
    """Span recorder; inactive (pass-through) outside traced ops."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []  # function id -> "layer.function"
        self.spans: list[tuple] = []  # (id, fid, start, end, parent, op, exc)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception type) -> n
        self._stack: list[tuple] = []  # (span id, fid, start) of open spans
        self._next_id = 0
        self._installed: list[tuple] = []

    # recording

    def _enter(self, fid: int) -> tuple:
        frame = (self._next_id, fid, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: tuple, exc: BaseException | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, fid, start = frame
        parent = self._stack[-1] if self._stack else None
        exc_name = None
        if exc is not None:
            exc_name = type(exc).__name__
            layer = self.names[fid].split(".", 1)[0]
            parent_layer = None if parent is None else self.names[parent[1]].split(".", 1)[0]
            if parent_layer != layer:
                self.errors[(layer, exc_name)] += 1
        self.spans.append(
            (span_id, fid, start, end, None if parent is None else parent[0], self.op_id, exc_name)
        )

    # wrappers

    def _span_wrapper(self, fid: int, fn):
        name = self.names[fid]
        layer_calls = name.split(".", 1)[0] + ".calls"
        calls = name + ".calls"
        counts = self.counts
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[layer_calls] += 1
            counts[calls] += 1
            frame = self._enter(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, exc)
                raise
            self._exit(frame, None)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _generator_wrapper(self, fid: int, fn):
        layer = self.names[fid].split(".", 1)[0]
        counts = self.counts
        yielded = self.names[fid] + ".yielded"

        def resumes(gen):
            # one span per resume, so the work is charged where it happens
            while True:
                if not self.active:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                frame = self._enter(fid)
                try:
                    item = next(gen)
                except StopIteration:
                    self._exit(frame, None)
                    return
                except BaseException as exc:
                    self._exit(frame, exc)
                    raise
                self._exit(frame, None)
                counts[yielded] += 1
                yield item

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[layer + ".calls"] += 1
            return resumes(fn(*args, **kwargs))

        return traced

    def _count_wrapper(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counts = self.counts
        hook = _HOOKS.get(name)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                counts[layer + ".calls"] += 1
                counts[name + ".calls"] += 1
                if hook is not None:
                    hook(counts, args, result)
            return result

        return counted

    # installation

    def install(self) -> None:
        """Bind a wrapper for every public function in every layer namespace."""
        modules = {layer: importlib.import_module(f"riftpuzzles.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[fn] = self._count_wrapper(name, fn)
                    continue
                fid = len(self.names)
                self.names.append(name)
                if inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._generator_wrapper(fid, fn)
                else:
                    wrappers[fn] = self._span_wrapper(fid, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # analysis

    def self_times(self) -> tuple[dict, dict]:
        """Self time per layer and per function."""
        children = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]] += s[3] - s[2]
        layer_self = defaultdict(float)
        func_self = defaultdict(float)
        for s in self.spans:
            own = s[3] - s[2] - children[s[0]]
            name = self.names[s[1]]
            layer_self[name.split(".", 1)[0]] += own
            func_self[name] += own
        return dict(layer_self), dict(func_self)

    def inclusive(self, names: set[str]) -> float:
        """Wall time inside any function of `names`, nested calls counted once."""
        fids = {i for i, n in enumerate(self.names) if n in names}
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s[1] not in fids:
                continue
            parent = s[4]
            nested = False
            while parent is not None and parent in by_id:
                p = by_id[parent]
                if p[1] in fids:
                    nested = True
                    break
                parent = p[4]
            if not nested:
                total += s[3] - s[2]
        return total


def _count_parse(counts, args, result):
    counts["instance_io.bytes_in"] += len(args[1])


def _count_serialize(counts, args, result):
    counts["instance_io.bytes_out"] += len(result)


def _count_segment(counts, args, result):
    if result:
        counts["geometry.segment_visible"] += 1


_HOOKS = {
    "instance_io.parse": _count_parse,
    "instance_io.serialize": _count_serialize,
    "geometry.segment_admissible": _count_segment,
}
