"""Layer spans recorded from outside the program.

Wrappers are installed on the bindings through which one layer calls the
next: the support and hitting-set functions as the view modules imported
them, `Hypergraph.build`, and the parse functions and view modules as the
CLI imported them. A module's calls to its own globals are left alone, so
spans mark layer crossings only. The benchmark wraps its own calls into the
views, the parsers and `cli.main` with the same tracer.

Spans stay in memory (id, parent id, layer, name, start, end, counts) until
the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

LAYERS = ("parse", "support", "hitset.build", "hitset.decide", "hitset.enum", "views", "cli")
VIEW_MODULES = ("causal", "repair", "diagnosis", "cqa")


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "start", "end", "counts")

    def __init__(self, sid, parent, layer, name, start):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.start, self.end, self.counts = start, None, {}

    def as_list(self, origin: float) -> list:
        return [self.sid, self.parent, self.layer, self.name,
                round(self.start - origin, 9), round(self.end - origin, 9), self.counts]


def _components(h) -> int:
    """Connected components formed by the edges (vertices in no edge are not counted)."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for edge in h.edges:
        first, *rest = edge
        for v in rest:
            parent[find(v)] = find(first)
    return len({find(v) for v in parent})


def parse_gauge(result) -> dict:
    if hasattr(result, "endo"):
        return {"facts": len(result)}
    return {"facts": 1 if hasattr(result, "relation") else 0}


def _support_gauge(result) -> dict:
    if isinstance(result, bool):  # evaluate
        return {}
    return {"sets_out": len(result), "vacuous": int(result.vacuous)}


def _build_gauge(h) -> dict:
    return {"vertices": len(h.vertices), "edges": len(h.edges), "max_edge": h.bound,
            "components": _components(h)}


def _enum_gauge(result) -> dict:
    return {"sets_out": len(result)}


class Tracer:
    def __init__(self, limit_error: type):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._limit_error = limit_error

    # --- spans -----------------------------------------------------------------

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        """End the span and drop it from the stack, together with any child
        left open because the question cap interrupted it."""
        span.end = time.perf_counter()
        del self._stack[self._stack.index(span.sid):]

    def wrap(self, layer: str, fn, gauge=None):
        """`fn` inside a span of `layer`; `gauge(result)` adds counts to the
        span and is itself timed as a 'trace' span, outside every layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, fn.__qualname__)
            try:
                result = fn(*args, **kwargs)
            except self._limit_error:
                span.counts["limit_errors"] = 1
                raise
            finally:
                self.close(span)
            if gauge is not None:
                g = self.open("trace", "gauge")
                try:
                    span.counts.update(gauge(result))
                finally:
                    self.close(g)
            return result

        return traced

    # --- installation on the program's bindings -----------------------------------

    def install(self, mods: dict) -> None:
        """Wrap the crossing bindings; `mods` maps short names to the
        freshly imported causekit modules."""
        support, hitset, cli = mods["support"], mods["hitset"], mods["cli"]
        crossing = {
            support.evaluate: ("support", _support_gauge),
            support.support_family: ("support", _support_gauge),
            support.endogenous_support: ("support", _support_gauge),
            hitset.min_hs_size: ("hitset.decide", None),
            hitset.min_hs_size_containing: ("hitset.decide", None),
            hitset.exists_hs_within: ("hitset.decide", None),
            hitset.minimal_hitting_sets: ("hitset.enum", _enum_gauge),
        }
        for modname in VIEW_MODULES:
            mod = mods[modname]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in crossing:
                    layer, gauge = crossing[obj]
                    self._patch(mod, name, self.wrap(layer, obj, gauge))
        build = hitset.Hypergraph.__dict__["build"]
        self._patch(hitset.Hypergraph, "build",
                    classmethod(self.wrap("hitset.build", build.__func__, _build_gauge)))
        for name in ("parse_instance", "parse_program", "parse_fact"):
            self._patch(cli, name, self.wrap("parse", getattr(cli, name), parse_gauge))
        for modname in VIEW_MODULES:
            self._patch(cli, modname, self.views_proxy(mods[modname]))

    def views_proxy(self, mod) -> types.SimpleNamespace:
        """The module's namespace with its public functions wrapped as views."""
        proxy = types.SimpleNamespace(**vars(mod))
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                setattr(proxy, name, self.wrap("views", obj))
        return proxy

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)


def layer_table(spans: list[Span]) -> dict:
    """Per layer: calls, self time and summed counts (max for max_edge).
    Self time is a span's duration minus the durations of its children."""
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - child_time.get(s.sid, 0.0)
        if s.parent is None:
            row["total_s"] += s.end - s.start
        for key, value in s.counts.items():
            row[key] = max(row.get(key, 0), value) if key == "max_edge" else row.get(key, 0) + value
    return table
