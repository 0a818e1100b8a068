"""In-memory spans around memgrep's layer boundaries, recorded from outside.

Nothing in the package is edited: :meth:`Tracer.installed` swaps each
traced function for a timing wrapper at the module attribute its caller
looks it up through, and puts the original back on exit. Annotation is
timed by passing :class:`TracingAnnotator` as the pipeline's annotator.

Spans stay in a list until the run writes them out. A span opened on a
thread with no open span of its own (the scorer pool inside
``memgrep.rank.rank``) takes the innermost open span of the thread that
opened the current root as its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# The package re-exports functions named like these modules (memgrep.rank
# is the rank function), so the modules are looked up by import path.
_evaluate, _oracle, _rank, _retrieve, _service = (
    importlib.import_module(f"memgrep.{name}")
    for name in ("evaluate", "oracle", "rank", "retrieve", "service"))


class Span:
    __slots__ = ("sid", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int, root: int, name: str) -> None:
        self.sid = sid
        self.parent = parent
        self.root = root
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "payload"}
        return {"sid": self.sid, "parent": self.parent, "root": self.root, "name": self.name,
                "start": self.start, "end": self.end, **attrs}


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap (two scorers run on pool threads at once), so
    summing their durations would count shared wall time twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.sid: span.duration - covered_length(children.get(span.sid, []),
                                                     span.start, span.end)
            for span in spans}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._root_stack: list[Span] | None = None
        self.root_sid = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._root_stack:
            parent = self._root_stack[-1].sid
        else:
            parent = 0
        with self._lock:
            self._next += 1
            sid = self._next
        span = Span(sid, parent, self.root_sid, name)
        stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def root(self, kind: str) -> Iterator[Span]:
        """One question's top span; every span opened inside belongs to it."""
        with self._lock:
            self._next += 1
            sid = self._next
        self.root_sid = sid
        self._root_stack = self._stack()
        span = Span(sid, 0, sid, kind)
        self._root_stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._root_stack.pop()
            self._root_stack = None
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """fn timed as a span; attrs(args, result) runs inside the span and
        must stay cheap. The traced functions take these arguments
        positionally wherever memgrep calls them."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, result)
                return result
            finally:
                tracer.end(span)

        return traced

    def _targets(self) -> list[tuple[object, str, Callable]]:
        def grep_attrs(args, result):
            corpus, terms = args[0], args[1]
            return {"provenance": terms.terms[0].provenance, "needles": len(terms.terms),
                    "scanned": len(corpus), "hits": len(result)}

        def oracle_grep_attrs(args, result):
            return {"needles": len(args[1].terms), "scanned": len(args[0])}

        def truncate_attrs(args, result):
            return {"candidates_in": len(args[0]), "kept": len(result.passage_ids)}

        retrieve_mod, rank_mod, eval_mod = _retrieve, _rank, _evaluate
        return [
            (eval_mod, "retrieve", self.wrap(
                "retrieve", eval_mod.retrieve,
                lambda a, r: {"candidates": len(r), "hops": r.hops_executed})),
            (retrieve_mod, "parse_query", self.wrap("parse", retrieve_mod.parse_query)),
            (retrieve_mod, "grep_search", self.wrap("retrieve.grep", retrieve_mod.grep_search,
                                                     grep_attrs)),
            (retrieve_mod, "entity_expansion_hop",
             self.wrap("retrieve.entity_hop", retrieve_mod.entity_expansion_hop)),
            (retrieve_mod, "prf_hop", self.wrap("retrieve.prf", retrieve_mod.prf_hop)),
            (retrieve_mod, "semantic_fallback",
             self.wrap("retrieve.fallback", retrieve_mod.semantic_fallback)),
            (rank_mod, "score", self.wrap("rank.score", rank_mod.score,
                                          lambda a, r: {"items": len(a[2])})),
            (rank_mod, "rrf_fuse", self.wrap("rank.fuse", rank_mod.rrf_fuse)),
            (rank_mod, "parse_query", self.wrap("parse", rank_mod.parse_query)),
            (eval_mod, "rank", self.wrap("rank", eval_mod.rank)),
            (eval_mod, "truncate_fixed", self.wrap("truncate", eval_mod.truncate_fixed,
                                                   truncate_attrs)),
            (eval_mod, "truncate_adaptive", self.wrap("truncate", eval_mod.truncate_adaptive,
                                                      truncate_attrs)),
            (eval_mod, "render_context", self.wrap("render", eval_mod.render_context)),
            (_oracle, "grep_search", self.wrap("oracle.grep", _oracle.grep_search,
                                               oracle_grep_attrs)),
            (_oracle, "parse_query", self.wrap("parse", _oracle.parse_query)),
            (_service.ServiceClient, "request", self.wrap(
                "service.request", _service.ServiceClient.request,
                lambda a, r: {"payload": a[1]})),
        ]

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Route the traced functions through their wrappers for the block."""
        targets = self._targets()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapped in targets:
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_record()) + "\n")


class TracingAnnotator:
    """Annotator proxy: times each call and marks text this root already saw."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._seen_root = -1
        self._seen: set[str] = set()

    def _call(self, op: str, fn: Callable, text: str):
        tracer = self._tracer
        if tracer.root_sid != self._seen_root:
            self._seen_root = tracer.root_sid
            self._seen = set()
        span = tracer.begin("annotate")
        try:
            repeat = text in self._seen
            self._seen.add(text)
            span.attrs = {"op": op, "repeat": repeat}
            return fn(text)
        finally:
            tracer.end(span)

    def annotate(self, text: str):
        return self._call("annotate", self._inner.annotate, text)

    def extract_entities(self, text: str):
        return self._call("entities", self._inner.extract_entities, text)
