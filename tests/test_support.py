"""Query evaluation and support families."""

import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from causekit import (
    UCQ,
    Constant,
    Disjunct,
    GroundTuple,
    Instance,
    QueryAtom,
    Variable,
    endogenous_support,
    evaluate,
    parse_instance,
    support_family,
)
from causekit.support import minimal_sets, set_key

from fixtures import CHAIN_DB, CHAIN_Q, PQR_DB, PQR_UCQ, PQR_SPLIT_DB, SELFJOIN_DB, SELFJOIN_Q, fs, inst, ucq
from randgen import random_instance, random_ucq


def test_evaluate_true_on_witnessed_instance():
    assert evaluate(ucq(CHAIN_Q), inst(CHAIN_DB))


def test_evaluate_false_on_empty_instance():
    assert not evaluate(ucq(CHAIN_Q), parse_instance(""))


def test_evaluate_false_after_removing_counterfactual_tuple():
    instance = inst(CHAIN_DB)
    trimmed = Instance(instance.endo - fs("s(a3)"), instance.exo)
    assert not evaluate(ucq(CHAIN_Q), trimmed)


def test_support_family_two_constraint_views():
    fam = support_family(ucq(PQR_UCQ), inst(PQR_DB))
    assert set(fam.sets) == {fs("p(a)", "q(a,b)"), fs("p(a)", "r(a,c)")}
    assert len(fam) == 2 and list(fam) == list(fam.sets)


def test_support_family_self_join():
    fam = support_family(ucq(SELFJOIN_Q), inst(SELFJOIN_DB))
    assert set(fam.sets) == {fs("p(a)", "r(a,a)"), fs("p(a)", "p(c)", "r(a,c)")}


def test_support_family_empty_instance():
    fam = support_family(ucq(CHAIN_Q), parse_instance(""))
    assert fam.sets == () and not fam.vacuous


def test_endogenous_projection():
    fam = endogenous_support(ucq(PQR_UCQ), inst(PQR_SPLIT_DB))
    assert set(fam.sets) == {fs("p(a)")}
    assert not fam.vacuous


def test_endogenous_equals_full_when_all_endogenous():
    instance = inst(PQR_DB)
    assert set(endogenous_support(ucq(PQR_UCQ), instance).sets) == set(
        support_family(ucq(PQR_UCQ), instance).sets
    )


def test_vacuous_marker_when_query_holds_exogenously():
    instance = parse_instance("[exogenous] a(1).")
    fam = endogenous_support(ucq("q :- a(X)."), instance)
    assert fam.vacuous and fam.sets == ()


def test_vacuous_distinct_from_false():
    fam = endogenous_support(ucq("q :- a(X)."), parse_instance(""))
    assert not fam.vacuous and fam.sets == ()


def _family_and_truth(q, instance):
    return support_family(q, instance), evaluate(q, instance)


def _read_each_way(q, instance):
    """The family and truth value, read three times on the instance, then
    alternately on an all-exogenous copy and its all-endogenous view, the
    view first and then the copy first. The join builds a position's column
    the first time it filters that position, and later reads reuse it; a view
    shares the columns with its instance. Every read must agree with the
    first."""
    first = _family_and_truth(q, instance)
    reads = [_family_and_truth(q, instance) for _ in range(2)]
    copies = []
    for view_first in (True, False):
        copy = Instance(frozenset(), instance.tuples)
        view = copy.all_endogenous()
        assert view is not copy and view._columns is copy._columns
        reads += [_family_and_truth(q, x) for x in ((view, copy) if view_first else (copy, view)) * 2]
        copies.append(copy)
    assert all(read == first for read in reads)
    for x in (instance, *copies):  # each column holds its extension's values at one position
        for (relation, arity, pos), column in x._columns.items():
            assert column == tuple(f.args[pos] for f in x._relations[relation, arity])
    return first


@pytest.mark.parametrize("seed", range(40))
def test_family_invariants_on_random_instances(seed):
    rng = random.Random(900 + seed)
    instance = random_instance(rng, max_endo=8, max_exo=3)
    q = random_ucq(rng)
    fam, truth = _read_each_way(q, instance)

    # evaluation agrees with family emptiness
    assert truth == bool(fam.sets)

    # the sorted members handed to the hypergraph are the sets' canonical keys
    assert fam._members == tuple(map(set_key, fam.sets))

    # antichain: no member contains another
    for a in fam.sets:
        for b in fam.sets:
            if a is not b:
                assert not a <= b

    # bounded by the query width
    assert all(len(s) <= q.width() for s in fam.sets)

    # local minimality: dropping any tuple of a support breaks satisfaction
    for s in fam.sets:
        for t in s:
            shrunk = Instance(frozenset(s - {t}), frozenset())
            assert not evaluate(q, shrunk)

    # every support satisfies the query on its own
    for s in fam.sets:
        assert evaluate(q, Instance(frozenset(s), frozenset()))


@pytest.mark.parametrize("seed", range(20))
def test_monotone_under_growth(seed):
    rng = random.Random(1700 + seed)
    instance = random_instance(rng, max_endo=6, max_exo=2)
    q = random_ucq(rng)
    grown = Instance(
        instance.endo | fs("p(c0)", "q(c0,c1)", "r(c1,c2)"), instance.exo - fs("p(c0)", "q(c0,c1)", "r(c1,c2)")
    )
    if evaluate(q, instance):
        assert evaluate(q, grown)


# --- join edge cases ---------------------------------------------------------


@pytest.mark.parametrize(
    "query, db, expected",
    [
        # an atom whose arity differs from the instance relation's matches nothing
        ("q :- r(X).", "r(a,b).", []),
        ("q :- r(X,Y,Z).", "r(a,b).", []),
        ("q :- s(X), r(X).", "s(a). r(a,a).", []),
        ("q :- r(X). q :- s(X).", "r(a,b). s(c).", [["s(c)"]]),
        # a relation absent from the instance
        ("q :- t(X).", "r(a,b).", []),
        ("q :- r(X,Y), t(Y).", "r(a,b).", []),
        ("q :- r(X,Y), t(Y). q :- r(X,b).", "r(a,b).", [["r(a,b)"]]),
        # atoms made only of constants
        ("q :- r(a,b).", "r(a,b). r(a,c).", [["r(a,b)"]]),
        ("q :- r(b,a).", "r(a,b). r(a,c).", []),
        ("q :- r(a,b), s(c).", "r(a,b). s(c). s(d).", [["r(a,b)", "s(c)"]]),
        ("q :- r(a,b), s(X).", "r(a,b).", []),
        # a variable repeated inside one atom
        ("q :- r(X,X).", "r(a,a). r(a,b).", [["r(a,a)"]]),
        ("q :- r(X,X).", "r(a,b). r(b,a).", []),
        ("q :- s(X), r(X,X).", "s(a). s(b). r(a,a). r(b,c).", [["r(a,a)", "s(a)"]]),
        ("q :- r(X,Y), t(Y,Y,X).", "r(a,b). t(b,b,a). t(b,c,a).", [["r(a,b)", "t(b,b,a)"]]),
        # a self-join mapping two atoms onto one fact
        ("q :- r(X,Y), r(Y,X).", "r(a,a).", [["r(a,a)"]]),
        ("q :- r(X,Y), r(Y,X).", "r(a,a). r(b,c). r(c,b).", [["r(a,a)"], ["r(b,c)", "r(c,b)"]]),
        ("q :- s(X), s(Y), r(X,Y).", "s(a). r(a,a). r(a,b).", [["r(a,a)", "s(a)"]]),
        # a constant in a join position
        ("q :- s(X), r(X,b), s(b).", "s(a). s(b). s(c). r(a,b). r(a,c). r(c,b).",
         [["r(a,b)", "s(a)", "s(b)"], ["r(c,b)", "s(b)", "s(c)"]]),
        ("q :- r(a,Y), s(Y).", "r(a,b). r(a,c). r(d,b). s(b).", [["r(a,b)", "s(b)"]]),
        ("q :- r(X,b), r(b,X).", "r(a,b). r(b,a). r(b,c).", [["r(a,b)", "r(b,a)"]]),
        ("q :- s(b), r(X,Y).", "s(a). r(a,b).", []),
        # a repeated variable after a bound one
        ("q :- s(X), t(X,Y,Y).", "s(a). s(b). t(a,c,c). t(a,c,d). t(b,d,d). t(e,f,f).",
         [["s(a)", "t(a,c,c)"], ["s(b)", "t(b,d,d)"]]),
        # both positions bound: r(Y,X) after r(X,Y)
        ("q :- s(X), r(X,Y), r(Y,X).", "s(a). s(b). r(a,b). r(b,c). r(c,b). r(b,b).",
         [["r(b,b)", "s(b)"], ["r(b,c)", "r(c,b)", "s(b)"]]),
    ],
)
def test_join_edge_cases(query, db, expected):
    fam, truth = _read_each_way(ucq(query), inst(db))
    assert [sorted(str(t) for t in s) for s in fam.sets] == expected
    assert truth == bool(expected)


def test_a_column_is_built_for_each_filtered_position_on_its_first_read():
    instance = inst("s(a). r(a,b). r(b,c).")
    q = ucq("q :- s(X), r(X,Y).")
    assert "_columns" not in vars(instance)  # nothing at parse
    assert evaluate(q, instance)
    # r is filtered at position 0 only; s and r's position 1 never are
    column = instance._columns[("r", 2, 0)]
    assert list(instance._columns) == [("r", 2, 0)]
    assert sorted(column) == ["a", "b"]
    assert evaluate(q, instance)
    assert list(instance._columns) == [("r", 2, 0)] and instance._columns[("r", 2, 0)] is column


def test_evaluate_streams_the_join_steps():
    # A cross product of 10^6 rows: the steps hand on one row at a time, so
    # evaluation stops at the first image without holding a step's rows.
    facts = [GroundTuple(r, (f"{r}{i}",)) for r in "ab" for i in range(1000)]
    instance = Instance(frozenset(facts), frozenset())
    q = ucq("q :- a(X), b(Y).")
    tracemalloc.start()
    try:
        assert evaluate(q, instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_join_on_programmatic_arity_mismatch():
    # Instances built in code may hold a relation under one arity while a
    # query uses another; neither the family nor evaluation may fail.
    instance = Instance(frozenset({GroundTuple("r", ("a",))}), frozenset())
    x, y = Variable("X"), Variable("Y")
    q = UCQ((Disjunct((QueryAtom("r", (x, y)),)), Disjunct((QueryAtom("r", (x, Constant("b"))),))))
    assert support_family(q, instance).sets == ()
    assert not evaluate(q, instance)


# --- metamorphic properties beyond the oracle's cap ----------------------------

SCALE_QUERIES = (
    "q :- s(X), r(X,Y), s(Y).",
    "q :- s(X), r(X,Y), s(Y).  q :- s(X), r(X,Y), r(Y,X).",
    "q :- r(X,X), s(X).  q :- r(b0x0,Y), s(Y).  q :- r(X,Y), r(Y,Z), s(Z), t(X,Z).",
)


def _scale_facts(rng: random.Random, blocks: int = 60, bulk: int = 900) -> tuple[list, list]:
    """Endogenous and exogenous facts, at least 1 000 in all: small blocks of
    s, r and t facts over their own constants, and r tuples joining nothing.
    Every s fact is endogenous, so no support of SCALE_QUERIES is exogenous."""
    facts = set()
    for b in range(blocks):
        xs = [f"b{b}x{i}" for i in range(rng.randint(2, 4))]
        facts |= {GroundTuple("s", (x,)) for x in rng.sample(xs, rng.randint(1, len(xs)))}
        pairs = [(a, c) for a in xs for c in xs]
        facts |= {GroundTuple("r", p) for p in rng.sample(pairs, rng.randint(1, 4))}
        facts |= {GroundTuple("t", p) for p in rng.sample(pairs, rng.randint(0, 2))}
    facts |= {GroundTuple("r", (f"u{k}", f"v{k}")) for k in range(bulk)}
    ordered = sorted(facts)
    rng.shuffle(ordered)
    exo = {t for t in ordered if t.relation != "s" and rng.random() < 0.25}
    return [t for t in ordered if t not in exo], [t for t in ordered if t in exo]


def _family_text(fam) -> str:
    return repr(([sorted(map(str, s)) for s in fam.sets], fam.vacuous))


@pytest.mark.parametrize("query", SCALE_QUERIES)
@pytest.mark.parametrize("seed", range(2))
def test_dangling_tuples_leave_families_unchanged(seed, query):
    rng = random.Random(3100 + seed)
    endo, exo = _scale_facts(rng)
    instance = Instance(frozenset(endo), frozenset(exo))
    assert len(instance) >= 1000
    q = ucq(query)
    dangling = {GroundTuple("r", (f"fresh{k}", f"fresh{k + 1}")) for k in range(0, 400, 2)}
    grown = Instance(instance.endo | dangling, instance.exo)
    for family in (support_family, endogenous_support):
        before, after = family(q, instance), family(q, grown)
        assert before.sets, "the workload must have supports"
        assert _family_text(after) == _family_text(before)


@pytest.mark.parametrize("query", SCALE_QUERIES)
@pytest.mark.parametrize("seed", range(2))
def test_fact_order_does_not_change_families(seed, query):
    rng = random.Random(3200 + seed)
    endo, exo = _scale_facts(rng)
    q = ucq(query)
    first = Instance(frozenset(endo), frozenset(exo))
    for _ in range(2):
        rng.shuffle(endo)
        rng.shuffle(exo)
        again = Instance(frozenset(endo), frozenset(exo))
        assert support_family(q, again) == support_family(q, first)
        assert endogenous_support(q, again) == endogenous_support(q, first)


@pytest.mark.parametrize("query", SCALE_QUERIES)
@pytest.mark.parametrize("seed", range(2))
def test_evaluate_agrees_with_family_at_scale(seed, query):
    rng = random.Random(3300 + seed)
    endo, exo = _scale_facts(rng)
    q = ucq(query)
    full = Instance(frozenset(endo), frozenset(exo))
    no_s = Instance(
        frozenset(t for t in endo if t.relation != "s"), frozenset(t for t in exo if t.relation != "s")
    )
    one_block = Instance(frozenset(t for t in endo if t.args[0].startswith("b7x")), frozenset())
    for instance in (full, no_s, one_block):
        assert evaluate(q, instance) == bool(support_family(q, instance).sets)
    assert evaluate(q, full) and not evaluate(q, no_s)


def _naive_minimal(sets):
    """The quadratic filter, shortest first: the first copy of each set that
    no other set lies strictly inside."""
    ordered = sorted(sets, key=len)
    return [s for i, s in enumerate(ordered) if s not in ordered[:i] and not any(o < s for o in ordered)]


@pytest.mark.parametrize("seed", range(40))
def test_minimal_sets_matches_the_naive_filter(seed):
    rng = random.Random(3400 + seed)
    universe = "abcdefgh"[: rng.randint(2, 8)]
    sets = [frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe))))) for _ in range(rng.randint(0, 25))]
    sets += [rng.choice(sets) for _ in range(rng.randint(0, 5))] if sets else []  # duplicates
    sets += [s - {rng.choice(sorted(s))} or s for s in rng.sample(sets, len(sets) // 3)]  # subsets
    rng.shuffle(sets)
    assert minimal_sets(sets) == _naive_minimal(sets)


def test_minimal_sets_empty_set_dominates():
    assert minimal_sets([frozenset("ab"), frozenset(), frozenset("c"), frozenset()]) == [frozenset()]
    assert minimal_sets([]) == []


def test_minimal_sets_with_many_sets_of_one_size():
    # All 20 triples over six letters, some twice, a pair inside four of them
    # and a quadruple over a triple: 16 triples and the pair are minimal.
    triples = [frozenset(c) for c in combinations("abcdef", 3)]
    sets = triples + triples[::3] + [frozenset("ab"), frozenset("abcd"), frozenset("ab")]
    random.Random(17).shuffle(sets)
    kept = minimal_sets(sets)
    assert kept == _naive_minimal(sets)
    assert len(kept) == 17 and kept[0] == frozenset("ab")


# The images of a chain query on one two-section instance, in the order the
# join emits them, each written in canonical order: as plain text, as built
# from its sets, as text that repeats a fact and as text with a quoted constant
# (which the token reader reads), one after the other.
_IMAGE_ORDER = """
from causekit import Instance, parse_instance, parse_program
from causekit.support import _images
text = " ".join(f"s(a{i}). r(a{i},a{3 * i % 17}). r(a{i},a{5 * i % 17})." for i in range(1, 17))
text += " [exogenous] s(b). r(b,a1). r(a2,b)."
plain = parse_instance(text)
[query] = parse_program("q :- s(X), r(X,Y), s(Y).").disjuncts
for instance in [plain, Instance(set(plain.endo), set(plain.exo)),
                 parse_instance(text.replace("s(a2).", "s(a2). r(a1,a3). s(a9).")),
                 parse_instance(text.replace("s(a5).", 's("a5").'))]:
    assert instance == plain
    for image in _images(query, instance):
        print(*sorted(image))
"""


def test_join_order_does_not_follow_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(seed):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
        return subprocess.run([sys.executable, "-c", _IMAGE_ORDER], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout.splitlines()

    first = run(1)
    assert len(first) == 4 * 34 and run(4) == first
