"""Exact minimal hitting sets of hypergraphs with small edges, by one search.

The search is MMCS (Murakami & Uno, *Efficient algorithms for dualizing
large-scale hypergraphs*, DAM 2014), run per connected component of the edges
(a minimal hitting set is a union of one per component). It branches on the
uncovered edge with the fewest candidates, prunes once a member has no private
edge left (one the set hits only there), and stops at a size budget. Each
hypergraph is split once, each component finds its minimum once, and a
question through one vertex (`forced`) searches its component from it. The
least-size sets (`least`) come from the same search, budgeted at each
component's least size. A greedy packing of pairwise disjoint edges bounds it
from below (`floor`): budgets count up from it; decisions it settles run none.
A component whose edges share a vertex (one edge, a star) needs no search for
its minimum, 1, nor for a least size of 1, found exactly through those vertices.
A minimal set through any other vertex holds none of them, so its floor packs
the edges without them. Vertices are numbered by first occurrence along the
sorted edges, each read sorted, so the search branches alike under every hash seed.
Vertices must be hashable and totally ordered; output is canonically sorted.
The one budget counts final sets, never the size of the hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, product
from typing import Hashable, Iterable, Iterator, Optional

from .errors import CausekitError, ResourceLimitError
from .support import _canonical_sets, set_key

Vertex = Hashable


@dataclass(frozen=True)
class Hypergraph:
    """A vertex set plus a collection of nonempty edges over it."""

    vertices: frozenset
    edges: tuple[frozenset, ...]
    # Each edge's members, sorted, when its maker has them; `_split` numbers along them.
    _members: Optional[tuple[tuple, ...]] = field(default=None, compare=False, repr=False)

    @classmethod
    def build(cls, vertices: Iterable[Vertex], edges: Iterable[Iterable[Vertex]]) -> "Hypergraph":
        vset = frozenset(vertices)
        eset = {frozenset(e) for e in edges}
        for e in eset:
            if not e:
                raise CausekitError("hypergraph edges must be nonempty")
            if not e <= vset:
                raise CausekitError("hypergraph edge mentions unknown vertices")
        return cls(vset, *_canonical_sets(list(eset)))

    @cached_property
    def bound(self) -> int:
        """The largest edge size; 0 with no edges."""
        return max(map(len, self.edges), default=0)

    @cached_property
    def _split(self) -> tuple[list, dict, list, list]:
        """The vertices of the edges by bit position (in order of first
        occurrence, each edge read sorted), each one's position, the component
        of each position and the components, split by union-find once per
        hypergraph; vertices in no edge belong to no component."""
        members = self._members if self._members is not None else list(map(sorted, self.edges))
        order = list(dict.fromkeys(chain.from_iterable(members)))
        index = dict(zip(order, range(len(order))))
        parent, through, masks, roots = list(range(len(order))), [[] for _ in order], [], []
        for e in members:
            ids = list(map(index.__getitem__, e))
            masks.append(mask := sum(map((1).__lshift__, ids)))
            first = -1
            for i in ids:
                through[i].append(mask)
                while parent[i] != i:  # up to i's root, halving the path
                    parent[i] = i = parent[parent[i]]
                if first < 0:
                    first = i
                parent[i] = first
        for i in range(len(order)):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            roots.append(i)
        groups: dict = {}
        for mask in masks:
            groups.setdefault(roots[mask.bit_length() - 1], []).append(mask)
        components = {r: _Component(group, through) for r, group in groups.items()}
        return order, index, list(map(components.__getitem__, roots)), list(components.values())


def minimal_hitting_sets(
    h: Hypergraph,
    *,
    forced: Optional[Vertex] = None,
    least: bool = False,
    max_results: Optional[int] = None,
) -> list[frozenset]:
    """Exactly all subset-minimal hitting sets, canonically sorted; with
    `forced` given, only those through it (its component is searched from it);
    with `least`, only the least-sized of those.

    With no edges the empty set is the unique answer. A budget counts final
    sets only; exceeding it raises ResourceLimitError rather than truncating.
    """
    bit, own = _locate(h, forced)
    if forced is not None and own is None:
        return []

    def within(total: int) -> None:
        if max_results is not None and total > max_results:
            raise ResourceLimitError(f"hitting-set result budget exceeded: > {max_results}")

    order, _, _, components = h._split
    factors, total = [], 1
    # The forced vertex's component first: with no set through it, no budget fails.
    for c in sorted(components, key=lambda c: c is not own):
        # Budget 0 finds nothing when no minimal hitting set passes through `bit`.
        budget = (c.least(bit) or 0 if c is own else c.minimum) if least else len(c.edges)
        sets = []
        for found in c.search(bit if c is own else 0, budget):
            within(total * (len(sets) + 1))
            sets.append(frozenset(order[b.bit_length() - 1] for b in _bits(found)))
        factors.append(sets)
        total *= len(sets)
    within(total)  # the empty product, with no components, is one set too
    return sorted((frozenset().union(*parts) for parts in product(*factors)), key=set_key)


def exists_hs_within(h: Hypergraph, k: int, forced: Optional[Vertex] = None) -> bool:
    """Decide whether a hitting set of size at most k exists; with `forced`
    given, whether a minimal one (not one merely padded with it) passes through
    it. Its component is searched once, within the budget the other components'
    minima leave; its exact minimum is never computed. Another component's
    minimum is searched for only up to the budget left. When the floors
    already exceed k, nothing is searched."""
    bit, own = _locate(h, forced)
    if forced is not None and own is None:
        return False
    others = [c for c in h._split[3] if c is not own]
    floors = [c.floor(0) for c in others]
    if sum(floors) + (own.floor(bit) if own else 0) > k:
        return False
    for c, floor in zip(others, floors):
        if (least := c.least(0, cap=k, floor=floor)) is None:
            return False
        k -= least
    return own is None or own.within(bit, k)


def in_minimum_hs(h: Hypergraph, t: Vertex) -> bool:
    """Decide whether some minimum hitting set contains t. A minimum is one per
    component, so t's component alone is searched, from t within its minimum."""
    bit, own = _locate(h, t)
    return own is not None and own.within(bit, own.minimum)


def min_hs_size(h: Hypergraph) -> int:
    """Size of a minimum hitting set; 0 when there are no edges."""
    return sum(c.minimum for c in h._split[3])


def min_hs_size_containing(h: Hypergraph, t: Vertex) -> Optional[int]:
    """Size of the smallest subset-minimal hitting set containing t, or None
    if t lies in no minimal hitting set (in particular when t occurs in no
    edge, where it merely pads hitting sets and is never required): the least
    size through t in its component plus the minima of the others."""
    bit, own = _locate(h, t)
    through = own and own.least(bit)
    return through and through + sum(c.minimum for c in h._split[3] if c is not own)


def _locate(h: Hypergraph, t: Optional[Vertex]) -> tuple[int, Optional[_Component]]:
    """t's bit and component; (0, None) when t is None or in no edge."""
    if t is not None and t not in h.vertices:
        raise CausekitError(f"vertex {t!r} not in the hypergraph")
    _, index, owner, _ = h._split
    return (1 << index[t], owner[index[t]]) if t in index else (0, None)


class _Component:
    """One connected component's edges as int masks, with the edges through
    each vertex (a list by bit position, shared by all components) and the
    vertices common to all its edges (`common`). Its one search is MMCS."""

    def __init__(self, edges: list[int], through: list[list[int]]):
        self.edges, self.through = edges, through
        self.common = reduce(int.__and__, edges)

    @cached_property
    def minimum(self) -> int:
        """The size of a minimum hitting set of this component, found once."""
        return self.least(0)

    def floor(self, chosen: int) -> int:
        """|chosen| plus a greedy packing of pairwise disjoint edges that miss
        `chosen`: no minimal hitting set through `chosen` is smaller. One
        through a vertex outside `common` holds no common vertex (that vertex
        would be left no private edge), so then common vertices are not packed."""
        keep = ~self.common if chosen & ~self.common else -1
        used, count = chosen, chosen.bit_count()
        for e in self.edges:
            if not e & used:
                used, count = used | e & keep, count + 1
        return count

    def least(
        self, chosen: int, cap: Optional[int] = None, floor: Optional[int] = None
    ) -> Optional[int]:
        """The least size of a minimal hitting set through `chosen`, or None
        (also when it exceeds `cap`): the first budget, counting up from the
        floor (`floor(chosen)` unless the caller has it), at which a search
        finds a set."""
        cap = len(self.edges) if cap is None else min(cap, len(self.edges))
        for budget in range(self.floor(chosen) if floor is None else floor, cap + 1):
            if self.within(chosen, budget):
                return budget
        return None

    def within(self, chosen: int, budget: int) -> bool:
        """Whether a minimal hitting set through `chosen` has at most `budget`
        members. A vertex common to all edges is one alone, and no other
        vertex is: with one, no search runs through it (or through nothing),
        nor at a budget below 2."""
        if self.common:
            alone = not chosen & ~self.common
            if alone or budget < 2:
                return alone and budget >= 1
        return bool(next(self.search(chosen, budget), 0))

    def search(self, chosen: int, budget: int) -> Iterator[int]:
        """Yield, as masks, the minimal hitting sets that contain `chosen` (one
        vertex of this component, or none) and have at most `budget` members,
        each once. (No minimal hitting set has more members than edges.)"""
        room = budget - chosen.bit_count()
        if room < 0:
            return
        # Depth first on a stack of branch iterators: no recursion limit on depth.
        stack = [iter([(chosen, ~chosen, [e for e in self.edges if not e & chosen], room)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
            elif not node[2]:
                yield node[0]
            elif node[3]:
                stack.append(self._branches(*node))

    def _branches(self, s: int, candidates: int, uncovered: list[int], room: int) -> Iterator:
        """The children of a search node: s grown by each candidate of the
        uncovered edge with the fewest, while every member keeps a private edge."""
        branch = min((e & candidates for e in uncovered), key=int.bit_count)
        # Each branch may use the vertices of the branches before it, never
        # those after it, so every minimal hitting set is reached exactly once.
        candidates &= ~branch
        for v in _bits(branch):
            grown = s | v
            # Only members that an edge through v was private to can have lost
            # their last private edge.
            lost = (u for u in (e & s for e in self.through[v.bit_length() - 1]) if u and not u & (u - 1))
            if all(any(e & grown == u for e in self.through[u.bit_length() - 1]) for u in lost):
                yield grown, candidates, [e for e in uncovered if not e & v], room - 1
            candidates |= v


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


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
