"""In-memory spans around the public functions of each bellcert layer.

The tracer wraps, from outside the package, every public module-level
function of ``bellcert.<layer>`` and rebinds each name that refers to one,
in every layer module and in the package namespace, so calls the library
makes between its own modules are recorded too.  ``bellcert.cli``'s ``json``
name is replaced by a proxy whose ``dumps`` is recorded as the JSON emit.

A span holds its name, layer, job id, parent span, thread and start/end
times.  Spans opened in a worker thread with no open span of their own take
the main thread's innermost open span as their parent (the library's thread
pool is created inside ``optimize_violation``).  Nothing is recorded while
``active`` is false, so the benchmark's own checks leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("scenario", "functionals", "symmetry", "quantum", "randomness", "cli")


@dataclass
class Span:
    id: int
    job: int | None
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


class _TimedJson:
    """Stand-in for the ``json`` module inside ``bellcert.cli``."""

    def __init__(self, tracer: "Tracer") -> None:
        self._dumps = tracer.wrap("cli", "json.dumps", json.dumps)

    def dumps(self, *args, **kwargs):
        return self._dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.segments: list[tuple[int | None, float, float]] = []
        self.active = False
        self.job: int | None = None
        self.job_labels: dict[int, str] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(
                len(self.spans), self.job, parent, layer, name,
                threading.get_ident(), time.perf_counter(),
            )
            self.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(self._originals, args, kwargs, result)
            return result

        return wrapper

    def segment(self, start: float, end: float) -> None:
        self.segments.append((self.job, start, end))

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        import bellcert

        modules = {layer: importlib.import_module(f"bellcert.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self.wrap(layer, name, obj)
                    self._originals[name] = obj
        for mod in (bellcert, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        self._patch(modules["cli"], "json", _TimedJson(self))

    def _patch(self, mod, name: str, value) -> None:
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def analysis(self) -> "Analysis":
        return Analysis(self.spans, self.segments)

    def dump(self, path) -> None:
        t0 = min((s for _, s, _ in self.segments), default=0.0)
        doc = {
            "time_origin": "first job segment start, seconds",
            "jobs": self.job_labels,
            "segments": [
                {"job": job, "start": s - t0, "end": e - t0} for job, s, e in self.segments
            ],
            "spans": [
                {
                    "id": s.id, "job": s.job, "parent": s.parent, "layer": s.layer,
                    "name": s.name, "thread": s.thread,
                    "start": s.start - t0, "end": s.end - t0, **s.counts,
                }
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(doc))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Analysis:
    """Self times and counts over a finished list of spans."""

    def __init__(self, spans: list[Span], segments) -> None:
        self.spans = spans
        self.segments = segments
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def _foreign(self, span: Span) -> list[tuple[float, float]]:
        """Intervals of the nearest descendants that belong to another layer."""
        out = []
        for child in self.children.get(span.id, ()):
            if child.layer == span.layer:
                out.extend(self._foreign(child))
            else:
                out.append((child.start, child.end))
        return out

    def own(self, span: Span) -> float:
        """Time in the span's layer: its duration minus time in other layers."""
        return (span.end - span.start) - _union_length(self._foreign(span))

    def layer_self(self, layer: str) -> float:
        return sum(
            self.own(s)
            for s in self.spans
            if s.layer == layer
            and (s.parent is None or self.spans[s.parent].layer != layer)
        )

    def group_time(self, names) -> float:
        """Own time of calls to ``names``, not counting calls nested in each other."""
        names = set(names)
        return sum(
            self.own(s)
            for s in self.spans
            if s.name in names
            and (s.parent is None or self.spans[s.parent].name not in names)
        )

    def count(self, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans)

    def unattributed(self) -> tuple[float, float]:
        """(job time outside every span, total job time)."""
        roots: dict[int | None, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is None:
                roots.setdefault(s.job, []).append((s.start, s.end))
        busy = sum(e - s for _, s, e in self.segments)
        covered = _union_length(
            [iv for ivs in roots.values() for iv in ivs]
        )
        return busy - covered, busy


# -- counts taken from public arguments and return values --------------------------

def _count_optimize(orig, args, kwargs, result):
    traces = result.traces
    finals = [tr[-1] for tr in traces]
    best = max(finals)
    dips = [float(-np.diff(tr).min()) for tr in traces if len(tr) > 1]
    return {
        "restarts": len(traces),
        "half_steps": sum(len(tr) for tr in traces),
        "best_restarts": sum(1 for v in finals if best - v <= 1e-9),
        "worst_dip": max([0.0, *dips]),
    }


def _count_find(orig, args, kwargs, result):
    functional = args[0]
    party_perms = kwargs.get("include_party_perms", args[1] if len(args) > 1 else False)
    return {
        "candidates": orig["search_space_size"](functional.scenario, party_perms),
        "hits": len(result),
    }


def _count_certify(orig, args, kwargs, result):
    generators = args[1] if len(args) > 1 else kwargs["generators"]
    return {
        "generators_in": len(generators),
        "generators_kept": len(result.generators),
        "orbits": int(np.unique(result.joint_orbits).size),
    }


def _count_local_bound(orig, args, kwargs, result):
    sc = args[0].scenario
    return {"strategies": math.prod(sc.outcomes**m for m in sc.settings)}


def _count_dumps(orig, args, kwargs, result):
    return {"output_bytes": len(result.encode()) + 1}


COUNTERS = {
    "optimize_violation": _count_optimize,
    "find_symmetries": _count_find,
    "certify_uniform": _count_certify,
    "local_bound": _count_local_bound,
    "json.dumps": _count_dumps,
}
