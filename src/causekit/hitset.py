"""Exact solvers for bounded hitting-set / hypergraph vertex-cover problems.

Edges here are small (bounded by the query width), which keeps exhaustive
enumeration of minimal hitting sets and depth-bounded branching practical.
Vertices are opaque but must be totally ordered; ground tuples and strings
both qualify. All results are deterministic: enumeration output is
canonically sorted and branching follows a fixed tie-breaking order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .errors import CausekitError, ResourceLimitError
from .support import minimal_sets, set_key

Vertex = Hashable


@dataclass(frozen=True)
class Hypergraph:
    """A vertex set plus a collection of nonempty edges over it.

    `bound` records the maximum edge size at construction time.
    """

    vertices: frozenset
    edges: tuple[frozenset, ...]
    bound: int

    @classmethod
    def build(cls, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        vset = frozenset(vertices)
        eset = {frozenset(e) for e in edges}
        for e in eset:
            if not e:
                raise CausekitError("hypergraph edges must be nonempty")
            if not e <= vset:
                raise CausekitError("hypergraph edge mentions unknown vertices")
        ordered = tuple(sorted(eset, key=set_key))
        return cls(vset, ordered, max((len(e) for e in ordered), default=0))


def minimal_hitting_sets(
    h: Hypergraph,
    *,
    max_results: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> list[frozenset]:
    """Exactly all subset-minimal hitting sets, canonically sorted.

    With no edges the empty set is the unique answer. Exceeding a declared
    budget raises ResourceLimitError rather than truncating.

    Incremental construction: fold edges in one at a time, keeping the
    antichain of minimal hitting sets of the edges seen so far. Sets that
    already hit the new edge survive unchanged; each miss is extended by
    every vertex of the new edge and the result re-minimized.
    """
    if max_vertices is not None and len(h.vertices) > max_vertices:
        raise ResourceLimitError(
            f"hitting-set vertex budget exceeded: {len(h.vertices)} > {max_vertices}"
        )
    current: list[frozenset] = [frozenset()]
    for edge in h.edges:
        hits = [s for s in current if s & edge]
        misses = [s for s in current if not s & edge]
        extended = {s | {v} for s in misses for v in edge}
        current = minimal_sets(hits + list(extended))
        if max_results is not None and len(current) > max_results:
            raise ResourceLimitError(
                f"hitting-set result budget exceeded: {len(current)} > {max_results}"
            )
    return sorted(current, key=set_key)


def exists_hs_within(h: Hypergraph, k: int, forced: Optional[Vertex] = None) -> bool:
    """Decide whether a hitting set of size at most k exists; with `forced`
    given, whether a minimal hitting set of size at most k passes through it.

    A vertex belongs to a minimal hitting set exactly when it covers some
    edge privately: the rest of the set must avoid that witness edge
    entirely and still hit every forced-free edge. (Merely padding a
    hitting set with `forced` does not count: responsibilities are read off
    minimal hitting sets only.)

    Depth-bounded branching: pick the canonically smallest unhit edge and
    try its vertices in canonical order, spending one unit of budget each.
    """
    if forced is not None:
        if forced not in h.vertices:
            raise CausekitError(f"vertex {forced!r} not in the hypergraph")
        if k <= 0:
            return False
        return any(_branch(trimmed, k - 1) for trimmed in _witness_views(h, forced))
    return _branch(list(h.edges), k)


def _witness_views(h: Hypergraph, t: Vertex):
    """For each edge through t that t could cover privately, the remaining
    covering problem: every t-free edge trimmed by the witness edge.

    A witness is infeasible when some t-free edge lies inside it (the
    trimmed edge comes out empty); duplicate views are yielded once.
    """
    seen = set()
    for e in h.edges:
        if t not in e:
            continue
        trimmed = [other - e for other in h.edges if t not in other]
        if any(not o for o in trimmed):
            continue
        signature = frozenset(trimmed)
        if signature in seen:
            continue
        seen.add(signature)
        yield trimmed


def _branch(edges: list[frozenset], budget: int) -> bool:
    if not edges:
        return True
    if budget <= 0:
        return False
    if budget >= len(edges):
        return True  # one vertex per edge always suffices
    edge = min(edges, key=set_key)
    for v in sorted(edge):
        rest = [e for e in edges if v not in e]
        if _branch(rest, budget - 1):
            return True
    return False


def min_hs_size(h: Hypergraph) -> int:
    """Size of a minimum hitting set; 0 when there are no edges."""
    if not h.edges:
        return 0
    lo, hi = 1, _greedy_cover_size(list(h.edges))
    return _binary_search(lambda k: exists_hs_within(h, k), lo, hi)


def min_hs_size_containing(h: Hypergraph, t: Vertex) -> Optional[int]:
    """Size of the smallest subset-minimal hitting set containing t, or None
    if t lies in no minimal hitting set (in particular when t occurs in no
    edge, where it merely pads hitting sets and is never required).

    Considers each witness edge t could cover privately, binary-searches
    the trimmed residual cover per witness, and takes the best; the search
    range stays within [1, |vertices|].
    """
    if t not in h.vertices:
        raise CausekitError(f"vertex {t!r} not in the hypergraph")
    best: Optional[int] = None
    for trimmed in _witness_views(h, t):
        if not trimmed:
            return 1  # t alone covers privately; nothing else to hit
        hi = _greedy_cover_size(trimmed)
        size = 1 + _binary_search(lambda k: _branch(trimmed, k), 1, hi)
        if best is None or size < best:
            best = size
    return best


def _binary_search(feasible, lo: int, hi: int) -> int:
    # hi is always feasible by construction.
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _greedy_cover_size(edges: list[frozenset]) -> int:
    """Upper bound for the minimum cover: repeatedly take the vertex hitting
    the most remaining edges (ties broken canonically)."""
    remaining = list(edges)
    size = 0
    while remaining:
        counts: dict = {}
        for e in remaining:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        best = max(sorted(counts), key=lambda v: counts[v])
        remaining = [e for e in remaining if best not in e]
        size += 1
    return size


def extend_for_vertex(g: Hypergraph, v: Vertex) -> list[Hypergraph]:
    """Per-neighbor graph extensions whose minimum covers locate the minimum
    cover through a vertex.

    For each neighbor u of v, returns the graph extended with a fresh vertex
    duplicating u (adjacent to exactly u's neighbors). The minimum over the
    returned graphs of their minimum vertex-cover sizes equals the size of
    the minimum vertex cover of g that contains v.

    Requires every edge to have size at most 2 and v to be non-isolated;
    vertex labels must be strings so fresh labels can be derived.
    """
    if v not in g.vertices:
        raise CausekitError(f"vertex {v!r} not in the graph")
    if g.bound > 2:
        raise CausekitError("extension is defined for graphs (edges of size <= 2) only")
    neighbors = sorted(_neighbors(g, v))
    if not neighbors:
        raise CausekitError(f"vertex {v!r} is isolated; handle that case at the call site")
    extensions = []
    for u in neighbors:
        fresh = f"{u}'"
        while fresh in g.vertices:
            fresh += "'"
        new_edges = list(g.edges) + [frozenset((fresh, w)) for w in sorted(_neighbors(g, u))]
        extensions.append(Hypergraph.build(g.vertices | {fresh}, new_edges))
    return extensions


def _neighbors(g: Hypergraph, v: Vertex) -> set:
    return {u for e in g.edges if v in e and len(e) == 2 for u in e if u != v}
