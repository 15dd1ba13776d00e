"""Hitting-set enumeration, bounded branching, and the graph extension."""

import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from causekit import (
    CausekitError,
    Hypergraph,
    ResourceLimitError,
    exists_hs_within,
    extend_for_vertex,
    min_hs_size,
    min_hs_size_containing,
    minimal_hitting_sets,
)
from causekit import oracle
from causekit.hitset import _Component, in_minimum_hs
from causekit.repair import _violations

from fixtures import PQR_DCS, dcs
from randgen import pqr_instance


def hg(*edges, vertices=()):
    vs = set(vertices)
    for e in edges:
        vs |= set(e)
    return Hypergraph.build(vs, [frozenset(e) for e in edges])


def brute_minimal_hitting_sets(h):
    """All subset-minimal hitting sets by full powerset scan."""
    verts = sorted(h.vertices)
    hitting = [
        frozenset(c)
        for c in chain.from_iterable(combinations(verts, k) for k in range(len(verts) + 1))
        if all(set(c) & e for e in h.edges)
    ]
    return sorted(
        (s for s in hitting if not any(o < s for o in hitting)),
        key=lambda s: tuple(sorted(s)),
    )


def least_sized(sets):
    """The members of least size, in their given order."""
    least = min(map(len, sets), default=0)
    return [s for s in sets if len(s) == least]


def test_example_two_edges():
    h = hg({"p(a)", "q(a,b)"}, {"p(a)", "r(a,c)"})
    assert minimal_hitting_sets(h) == [
        frozenset({"p(a)"}),
        frozenset({"q(a,b)", "r(a,c)"}),
    ]


def test_example_three_tuple_supports():
    h = hg({"s(a4)", "r(a4,a3)", "s(a3)"}, {"s(a3)", "r(a3,a3)"})
    assert set(minimal_hitting_sets(h)) == {
        frozenset({"s(a3)"}),
        frozenset({"r(a4,a3)", "r(a3,a3)"}),
        frozenset({"s(a4)", "r(a3,a3)"}),
    }


def test_no_edges_yields_empty_set():
    h = Hypergraph.build({"a", "b"}, [])
    assert minimal_hitting_sets(h) == [frozenset()]
    assert minimal_hitting_sets(h, least=True, max_results=1) == [frozenset()]
    # The empty set is an answer too, so a zero budget is exceeded.
    with pytest.raises(ResourceLimitError):
        minimal_hitting_sets(h, max_results=0)


def test_result_budget_is_enforced():
    edges = [{f"a{i}", f"b{i}"} for i in range(6)]
    h = hg(*edges)
    with pytest.raises(ResourceLimitError):
        minimal_hitting_sets(h, max_results=10)
    assert len(minimal_hitting_sets(h, max_results=64)) == 64
    # Two 3-vertex paths: 2 * 2 minimal hitting sets, of which 1 * 1 are least-sized.
    h = hg({"a", "b"}, {"b", "c"}, {"x", "y"}, {"y", "z"})
    assert minimal_hitting_sets(h, least=True, max_results=1) == [frozenset({"b", "y"})]
    with pytest.raises(ResourceLimitError):
        minimal_hitting_sets(h, max_results=1)


def test_result_budget_counts_final_sets_only():
    # The answer has 7 sets, but the first three edges alone have 8 minimal
    # hitting sets: a budget applied to partial results would fail here.
    h = hg({"a", "x"}, {"b", "y"}, {"c", "z"}, {"x", "y", "z"})
    sets = minimal_hitting_sets(h, max_results=7)
    assert sets == brute_minimal_hitting_sets(h) and len(sets) == 7
    with pytest.raises(ResourceLimitError):
        minimal_hitting_sets(h, max_results=6)


def test_forced_result_budget_counts_sets_through_the_vertex_only():
    # Through a: {a} times the two choices of each other edge, 4 sets of 8.
    h = hg({"a", "x"}, {"b", "y"}, {"c", "z"})
    assert len(minimal_hitting_sets(h, forced="a", max_results=4)) == 4
    with pytest.raises(ResourceLimitError):
        minimal_hitting_sets(h, forced="a", max_results=3)
    # No minimal hitting set passes through d ({a} is inside {a, d}): the
    # answer is empty, and so no budget is exceeded.
    h = hg({"a"}, {"a", "d"}, {"b", "y"}, {"c", "z"}, vertices={"e"})
    assert minimal_hitting_sets(h, forced="d", max_results=0) == []
    assert minimal_hitting_sets(h, forced="e", max_results=0) == []
    with pytest.raises(CausekitError):
        minimal_hitting_sets(h, forced="missing")


def test_edges_validated():
    with pytest.raises(CausekitError):
        Hypergraph.build({"a"}, [frozenset()])
    with pytest.raises(CausekitError):
        Hypergraph.build({"a"}, [frozenset({"a", "b"})])


def test_exists_hs_within_forced():
    h = hg({"p(a)", "q(a,b)"}, {"p(a)", "r(a,c)"})
    assert exists_hs_within(h, 1, forced="p(a)")
    assert not exists_hs_within(h, 1, forced="q(a,b)")
    assert exists_hs_within(h, 2, forced="q(a,b)")
    assert not exists_hs_within(h, 0)
    assert exists_hs_within(Hypergraph.build({"a"}, []), 0)
    assert not exists_hs_within(Hypergraph.build({"a"}, []), -1)
    assert not exists_hs_within(h, -1, forced="p(a)")


def test_min_hs_size_containing_examples():
    h = hg({"s(a4)", "r(a4,a3)", "s(a3)"}, {"s(a3)", "r(a3,a3)"}, vertices={"s(a2)"})
    assert min_hs_size_containing(h, "s(a3)") == 1
    assert min_hs_size_containing(h, "r(a4,a3)") == 2
    assert min_hs_size_containing(h, "s(a2)") is None
    with pytest.raises(CausekitError):
        min_hs_size_containing(h, "missing")


def test_witness_identity():
    # The smallest minimal hitting set through t is 1 plus the cheapest way
    # to cover the t-free edges while staying clear of some edge t covers
    # privately.
    h = hg({"a", "b"}, {"b", "c"}, {"c", "d"})
    for t in sorted(h.vertices):
        best = None
        for e in (e for e in h.edges if t in e):
            trimmed = [other - e for other in h.edges if t not in other]
            if any(not o for o in trimmed):
                continue
            verts = set().union(*trimmed) if trimmed else set()
            cost = 1 + min_hs_size(Hypergraph.build(verts, trimmed))
            best = cost if best is None or cost < best else best
        assert min_hs_size_containing(h, t) == best


def test_padding_vertex_is_not_a_minimal_cover_member():
    # b dominates every edge that a hits, so {a, b} hits everything but a is
    # redundant in it; the smallest minimal hitting set through a takes all
    # of the a-side vertices instead.
    edges = [{f"a{i}", "b"} for i in range(5)]
    h = hg(*edges)
    assert min_hs_size(h) == 1
    assert min_hs_size_containing(h, "a0") == 5
    assert not exists_hs_within(h, 4, forced="a0")
    assert exists_hs_within(h, 5, forced="a0")
    assert oracle.min_hs(h.vertices, h.edges, forced="a0", essential=True) == 5
    assert oracle.min_hs(h.vertices, h.edges, forced="a0") == 2  # padded reading


def test_dominated_inside_witness_edge():
    # Every minimal hitting set avoiding-b must still exist for t=c even
    # though {b} covers everything.
    h = hg({"b", "c"}, {"b", "d"})
    assert min_hs_size_containing(h, "c") == 2  # {c, d}
    assert min_hs_size_containing(h, "b") == 1


_edge = st.sets(st.sampled_from("abcdefghijkl"), min_size=1, max_size=3).map(frozenset)


@settings(max_examples=150, deadline=None)
@given(st.lists(_edge, max_size=7))
# {a} lies inside {a, b}: no minimal hitting set passes through b, least or not.
@example([frozenset("a"), frozenset("ab")])
def test_enumeration_matches_brute_force(edges):
    h = Hypergraph.build(set().union(*edges) if edges else set(), edges)
    everything = minimal_hitting_sets(h)
    assert everything == brute_minimal_hitting_sets(h)
    assert minimal_hitting_sets(h, least=True) == least_sized(everything)
    for t in sorted(h.vertices):
        through = [s for s in everything if t in s]
        assert minimal_hitting_sets(h, forced=t) == through
        assert minimal_hitting_sets(h, forced=t, least=True) == least_sized(through)


@settings(max_examples=100, deadline=None)
@given(st.lists(_edge, min_size=1, max_size=6), st.integers(0, 9), st.sampled_from("abcdefgh"))
def test_bounded_decision_matches_forced_minimum(edges, k, forced):
    h = Hypergraph.build(set().union(*edges) | {forced}, edges)
    minimum = min_hs_size_containing(h, forced)
    brute = oracle.min_hs(h.vertices, h.edges, forced=forced, essential=True)
    assert minimum == brute
    if minimum is not None:
        assert exists_hs_within(h, k, forced=forced) == (minimum <= k)
    else:
        assert not exists_hs_within(h, k, forced=forced)
    in_minimum = in_minimum_hs(h, forced)
    assert in_minimum == exists_hs_within(h, min_hs_size(h), forced=forced)
    assert in_minimum == (minimum == min_hs_size(h))


@settings(max_examples=100, deadline=None)
@given(st.lists(_edge, min_size=1, max_size=7))
def test_packing_floor_bounds_every_least_size(edges):
    h = Hypergraph.build(set().union(*edges), edges)
    _, index, owner, components = h._split
    assert sum(c.floor(0) for c in components) <= oracle.min_hs(h.vertices, h.edges)
    assert all(c.floor(0) <= c.minimum for c in components)
    for t in sorted(h.vertices):
        own, bit = owner[index[t]], 1 << index[t]
        through = oracle.min_hs(h.vertices, h.edges, forced=t, essential=True)
        least = own.least(bit)
        rest = sum(c.minimum for c in components if c is not own)
        assert through == (None if least is None else least + rest)
        assert least is None or own.floor(bit) <= least
        if least is not None:
            for cap in range(least + 2):
                assert own.least(bit, cap=cap) == (least if least <= cap else None)


def _counted_searches(monkeypatch) -> list:
    """The budgets of every `_Component.search` call from here on."""
    budgets, search = [], _Component.search

    def counted(self, chosen, budget):
        budgets.append(budget)
        return search(self, chosen, budget)

    monkeypatch.setattr(_Component, "search", counted)
    return budgets


def test_a_minimum_at_its_floor_takes_one_search(monkeypatch):
    budgets = _counted_searches(monkeypatch)
    assert min_hs_size(hg({"a", "b", "c"})) == 1
    assert budgets == []  # one edge: its vertices are common to all edges
    # Two chain gadgets, one component each: the supports {s(x), r(x,y), s(y)}
    # of an s-path x0..x3 plus a back edge from x2. Two disjoint edges pack
    # each one, and {s(x1), s(x2)} covers it.
    edges = []
    for g in "uv":
        s = [f"s({g}{i})" for i in range(4)]
        edges += [{s[i], f"r({g}{i},{g}{i + 1})", s[i + 1]} for i in range(3)]
        edges.append({s[2], f"r({g}2,{g}0)", s[0]})
    budgets.clear()
    assert min_hs_size(hg(*edges)) == 4
    assert budgets == [2, 2]


def test_a_least_size_counts_up_from_its_floor(monkeypatch):
    # A 5-cycle packs two disjoint edges and needs three vertices. K4 through a
    # packs a plus one edge of the triangle bcd, and needs a plus two of b, c, d.
    budgets = _counted_searches(monkeypatch)
    assert min_hs_size(hg(*({x, y} for x, y in zip("abcde", "bcdea")))) == 3
    assert budgets == [2, 3]
    budgets.clear()
    assert min_hs_size_containing(hg(*map(set, combinations("abcd", 2))), "a") == 3
    assert budgets == [2, 3]


def test_bounded_decision_settled_by_floors_searches_nothing(monkeypatch):
    # A path a..f packs three disjoint edges; t's edge {t, u} packs one more.
    h = hg(*({x, y} for x, y in zip("abcde", "bcdef")), {"t", "u"})
    budgets = _counted_searches(monkeypatch)
    assert not exists_hs_within(h, 3, forced="t")
    assert not exists_hs_within(h, 3)
    assert budgets == []
    assert exists_hs_within(h, 4, forced="t") and exists_hs_within(h, 4)


def test_a_common_vertex_settles_a_component_without_search(monkeypatch):
    # Each edge of M_8 is its own component, and every edge of a PQR star
    # holds p(a). (A chain gadget has no common vertex: see the two-gadget
    # union above, one search per component at its floor.)
    matching = hg(*({f"a({i})", f"b({i})"} for i in range(1, 9)))
    star = hg(*({"p(a)", f"{r}(a,{r}{i})"} for r in "qr" for i in range(4)))
    budgets = _counted_searches(monkeypatch)
    assert min_hs_size(matching) == 8
    assert min_hs_size_containing(matching, "a(3)") == 8
    assert exists_hs_within(matching, 8, forced="b(5)")
    assert in_minimum_hs(matching, "a(1)")
    assert min_hs_size_containing(star, "p(a)") == 1
    assert in_minimum_hs(star, "p(a)") and not in_minimum_hs(star, "q(a,q0)")
    assert budgets == []
    # Through a leaf, p(a) is no member: the other leaves pack, one search.
    assert min_hs_size_containing(star, "q(a,q0)") == 8
    assert budgets == [8]


def _component_of(edges, v) -> list:
    """The edges connected to v, grown until no edge adds a vertex."""
    reach, grown = {v}, True
    while grown:
        grown = False
        for e in edges:
            if e & reach and not e <= reach:
                reach |= e
                grown = True
    return [e for e in edges if e & reach]


@settings(max_examples=100, deadline=None)
@given(st.lists(_edge, min_size=1, max_size=7), st.one_of(st.none(), st.sampled_from("abcdefgh")))
@example([frozenset("ab"), frozenset("ac"), frozenset("a")], None)
@example([frozenset("ab"), frozenset("bc"), frozenset("de")], "a")
def test_common_vertex_rule_matches_the_oracle(edges, joined_at):
    # A fresh vertex z joins every edge of joined_at's component, if any.
    if joined_at is not None:
        joined = _component_of(edges, joined_at)
        edges = [e | {"z"} if e in joined else e for e in edges]
    h = Hypergraph.build(set().union(*edges), edges)
    _, index, owner, _ = h._split
    minimum = oracle.min_hs(h.vertices, h.edges)
    assert min_hs_size(h) == minimum
    for t in sorted(h.vertices):
        own, bit = owner[index[t]], 1 << index[t]
        local = _component_of(h.edges, t)
        assert own.minimum == oracle.min_hs(set().union(*local), local)
        least = own.least(bit)
        assert least == oracle.min_hs(set().union(*local), local, forced=t, essential=True)
        for cap in range(len(own.edges) + 2):
            assert own.least(bit, cap=cap) == (least if least is not None and least <= cap else None)
        through = oracle.min_hs(h.vertices, h.edges, forced=t, essential=True)
        assert in_minimum_hs(h, t) == (through == minimum)
        for k in range(-1, len(h.edges) + 2):
            assert exists_hs_within(h, k, forced=t) == (through is not None and through <= k)
            assert exists_hs_within(h, k) == (minimum <= k)


def _reference_split(h: Hypergraph) -> tuple:
    """What `Hypergraph._split` computes, by a plain union-find over vertex
    names: vertices numbered by first occurrence along the edges, each edge
    read in sorted order, each vertex's component by position, and each
    component's edges as masks, in the order of their first edges."""
    order, parent = [], {}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in h.edges:
        members = sorted(e)
        for v in members:
            if v not in parent:
                parent[v] = v
                order.append(v)
        for v in members[1:]:
            parent[find(v)] = find(members[0])
    index = {v: i for i, v in enumerate(order)}
    groups: dict = {}
    for e in h.edges:
        groups.setdefault(find(next(iter(e))), []).append(sum(1 << index[v] for v in e))
    roots = list(groups)
    return order, index, [roots.index(find(v)) for v in order], list(groups.values())


@settings(max_examples=150, deadline=None)
@given(st.lists(_edge, max_size=9), st.sets(st.sampled_from("uvwxyz"), max_size=3))
def test_split_matches_a_plain_union_find(edges, isolated):
    h = Hypergraph.build(set().union(*edges, isolated), edges)
    order, index, owner, components = h._split
    ref_order, ref_index, ref_owner, ref_edges = _reference_split(h)
    assert order == ref_order and index == ref_index
    assert not isolated & set(index)
    assert [components.index(c) for c in owner] == ref_owner
    assert [c.edges for c in components] == ref_edges
    # Each position lists the edges through its vertex, by mask, in canonical edge order.
    masks = [sum(1 << index[v] for v in e) for e in h.edges]
    for i, v in enumerate(order):
        assert owner[i].through[i] == [m for m, e in zip(masks, h.edges) if v in e]
    bare = Hypergraph(h.vertices, h.edges)  # no sorted members given: `_split` sorts each edge
    assert bare == h and repr(bare) == repr(h)
    assert bare._split[:2] == (order, index) and [c.edges for c in bare._split[3]] == ref_edges


def test_split_memory_follows_the_edges():
    # 10 562 tuples, 7 562 edges, one component per key. The split holds one
    # mask per edge and each position's list of edges; a further table of the
    # one-bit masks, one per vertex and each up to 10 562 bits, adds about 8 MB.
    h = _violations(pqr_instance(random.Random(1), 3000), dcs(PQR_DCS))
    assert len(h.edges) == 7562 and "_split" not in vars(h)
    tracemalloc.start()
    try:
        h._split
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13_000_000


# Branch nodes of one encoded-graph responsibility question (9 vertices, 13 edges).
_BRANCH_NODES = """
from causekit import UCQ, encode_graph, responsibility
from causekit.hitset import _Component
edges = [("v0", "v4"), ("v0", "v5"), ("v0", "v7"), ("v0", "v8"), ("v1", "v2"),
         ("v1", "v6"), ("v1", "v8"), ("v2", "v3"), ("v2", "v4"), ("v2", "v8"),
         ("v3", "v7"), ("v3", "v8"), ("v5", "v7")]
instance, query, t = encode_graph([f"v{i}" for i in range(9)], edges, "v0")
nodes, branches = [], _Component._branches
_Component._branches = lambda *args: nodes.append(args) or branches(*args)
print(responsibility(instance, UCQ((query,)), t), len(nodes))
"""


def test_search_order_does_not_follow_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(seed):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        return subprocess.run([sys.executable, "-c", _BRANCH_NODES], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout.split()

    first = run(1)
    assert first[0] == "1/5" and run(4) == first


def _edges_over(alphabet):
    edge = st.sets(st.sampled_from(alphabet), min_size=1, max_size=3).map(frozenset)
    return st.lists(edge, min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(_edges_over("abcdef"), _edges_over("uvwxyz"), st.data())
def test_disjoint_union_factors(left_edges, right_edges, data):
    left = Hypergraph.build(set().union(*left_edges), left_edges)
    right = Hypergraph.build(set().union(*right_edges), right_edges)
    union = Hypergraph.build(left.vertices | right.vertices, left_edges + right_edges)
    assert min_hs_size(union) == min_hs_size(left) + min_hs_size(right)
    t = data.draw(st.sampled_from(sorted(left.vertices)))
    own = min_hs_size_containing(left, t)
    expected = None if own is None else own + min_hs_size(right)
    assert min_hs_size_containing(union, t) == expected
    assert in_minimum_hs(union, t) == in_minimum_hs(left, t)
    counts = len(minimal_hitting_sets(left)) * len(minimal_hitting_sets(right))
    assert len(minimal_hitting_sets(union)) == counts


def brute_min_vc(h, must_contain=None):
    verts = sorted(h.vertices)
    for k in range(len(verts) + 1):
        for combo in combinations(verts, k):
            chosen = set(combo)
            if must_contain is not None and must_contain not in chosen:
                continue
            if all(chosen & e for e in h.edges):
                return k
    return None


def test_extension_on_path():
    g = hg({"a", "b"}, {"b", "c"})
    exts = extend_for_vertex(g, "a")
    assert len(exts) == 1
    assert min(min_hs_size(e) for e in exts) == 2 == brute_min_vc(g, must_contain="a")


def test_extension_on_single_edge():
    g = hg({"u", "v"})
    exts = extend_for_vertex(g, "v")
    assert [min_hs_size(e) for e in exts] == [1]


def test_extension_takes_a_label_no_vertex_has():
    # b's duplicate cannot be called b' here: that label is taken.
    g = hg({"a", "b"}, {"b'", "c"})
    [ext] = extend_for_vertex(g, "a")
    assert ext.vertices == g.vertices | {"b''"}
    assert set(ext.edges) == set(g.edges) | {frozenset({"b''", "a"})}


def test_extension_rejects_isolated_and_unknown():
    g = Hypergraph.build({"a", "b", "c"}, [frozenset({"a", "b"})])
    with pytest.raises(CausekitError, match="isolated"):
        extend_for_vertex(g, "c")
    with pytest.raises(CausekitError):
        extend_for_vertex(g, "zz")
    wide = hg({"a", "b", "c"}, {"c", "d"})
    assert wide.bound == 3
    with pytest.raises(CausekitError, match=r"edges of size <= 2"):
        extend_for_vertex(wide, "d")
    assert Hypergraph.build({"a"}, []).bound == 0


def test_extension_matches_brute_force_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randint(2, 8)
        verts = [f"v{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
        edges = [frozenset(p) for p in rng.sample(pairs, rng.randint(1, len(pairs)))]
        g = Hypergraph.build(verts, edges)
        endpoints = sorted({u for e in edges for u in e})
        v = rng.choice(endpoints)
        exts = extend_for_vertex(g, v)
        assert min(min_hs_size(e) for e in exts) == brute_min_vc(g, must_contain=v)


def _disjoint_groups(rng):
    """Up to four groups of edges over disjoint alphabets, plus a vertex in no edge."""
    vertices, edges = {"iso"}, []
    for c in range(rng.randint(1, 4)):
        alphabet = [f"{c}{x}" for x in "abcdef"[: rng.randint(1, 6)]]
        vertices |= set(alphabet)
        for _ in range(rng.randint(0, 5)):
            edges.append(frozenset(rng.sample(alphabet, rng.randint(1, min(3, len(alphabet))))))
    return vertices, edges


@pytest.mark.parametrize("seed", range(60))
def test_bounded_decision_matches_exact_sizes_across_components(seed):
    # Each decision finds the other components' minima only up to its budget
    # and keeps none of them; a sequence of decisions on one hypergraph must
    # agree with the exact sizes of a fresh one.
    rng = random.Random(3600 + seed)
    vertices, edges = _disjoint_groups(rng)
    exact = Hypergraph.build(vertices, edges)
    minimum = min_hs_size(exact)
    through = {t: min_hs_size_containing(exact, t) for t in sorted(vertices)}
    h = Hypergraph.build(vertices, edges)
    for _ in range(12):
        k = rng.randint(-1, minimum + 2)
        t = rng.choice([None, *sorted(vertices)])
        expected = minimum <= k if t is None else through[t] is not None and through[t] <= k
        assert exists_hs_within(h, k, forced=t) == expected, (k, t)
    assert min_hs_size(h) == minimum
    assert all(min_hs_size_containing(h, t) == m for t, m in through.items())


def test_bounded_decision_beside_a_hard_component():
    # t's component is the edge {t, u}. Beside it, a random 3-uniform
    # component over 40 vertices, held together by a path, needs at least 20
    # vertices (a path on 40 vertices does), so no budget of 3 suffices.
    rng = random.Random(15)
    vs = [f"v{i}" for i in range(40)]
    edges = {frozenset(rng.sample(vs, 3)) for _ in range(80)}
    edges |= {frozenset(pair) for pair in zip(vs, vs[1:])}
    h = hg(*edges, {"t", "u"})
    assert not exists_hs_within(h, 3, forced="t")
    assert not exists_hs_within(h, 3)
