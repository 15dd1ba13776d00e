"""Repairs, difference sets, repair checking, and the repair-size decision."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from causekit import (
    CausekitError,
    actual_causes,
    bcq_to_dc,
    dcs_to_ucq,
    difference_sets,
    is_s_repair,
    minimal_contingencies,
    most_responsible,
    repair_size_at_least,
    repairs,
    responsibility,
)
from causekit import oracle

from fixtures import CHAIN_DB, CHAIN_Q, PQR_DB, PQR_DCS, dcs, f, fs, inst, ucq
from randgen import random_instance, random_ucq


@pytest.fixture
def ex1():
    instance = inst(CHAIN_DB)
    constraint = bcq_to_dc(ucq(CHAIN_Q).disjuncts[0])
    return instance, constraint


def removed_sets(found):
    return {r.removed for r in found}


def kept_sets(found):
    return {r.kept for r in found}


def test_s_repairs_ex1(ex1):
    instance, constraint = ex1
    found = repairs(instance, [constraint], "s")
    assert removed_sets(found) == {
        fs("s(a3)"),
        fs("r(a4,a3)", "r(a3,a3)"),
        fs("s(a4)", "r(a3,a3)"),
    }
    for r in found:
        assert r.kept | r.removed == instance.tuples
        assert not r.kept & r.removed


def test_c_repair_ex1(ex1):
    instance, constraint = ex1
    found = repairs(instance, [constraint], "c")
    assert removed_sets(found) == {fs("s(a3)")}


def test_consistent_instance_repairs_to_itself():
    instance = inst("s(a1). s(a2).")
    constraint = bcq_to_dc(ucq(CHAIN_Q).disjuncts[0])
    found = repairs(instance, [constraint], "s")
    assert len(found) == 1
    assert found[0].kept == instance.tuples and found[0].removed == frozenset()


def test_repairs_ex4():
    instance = inst(PQR_DB)
    found = repairs(instance, dcs(PQR_DCS), "s")
    assert kept_sets(found) == {fs("p(a)", "p(e)"), fs("p(e)", "q(a,b)", "r(a,c)")}
    assert kept_sets(repairs(instance, dcs(PQR_DCS), "c")) == {fs("p(e)", "q(a,b)", "r(a,c)")}


def test_unknown_semantics_rejected(ex1):
    instance, constraint = ex1
    with pytest.raises(CausekitError, match="unknown repair semantics 'x'; use 's' or 'c'"):
        repairs(instance, [constraint], "x")


def test_difference_sets(ex1):
    instance, constraint = ex1
    assert difference_sets(instance, constraint, f("r(a4,a3)"), "s") == [
        fs("r(a4,a3)", "r(a3,a3)")
    ]
    assert difference_sets(instance, constraint, f("s(a3)"), "c") == [fs("s(a3)")]
    # Every removal set through r(a4,a3) has two tuples, {s(a3)} has one:
    # no cardinality repair drops it.
    assert difference_sets(instance, constraint, f("r(a4,a3)"), "c") == []
    assert difference_sets(instance, constraint, f("s(a2)"), "s") == []
    assert difference_sets(instance, constraint, f("r(a3,a3)"), "s") == [
        fs("r(a3,a3)", "r(a4,a3)"),
        fs("r(a3,a3)", "s(a4)"),
    ]


@pytest.mark.parametrize("seed", range(15))
def test_c_difference_sets_are_nonempty_exactly_for_most_responsible(seed):
    # Three constants make joins dense enough that many causes are not most
    # responsible (the tuple r(a4,a3) above, at random).
    rng = random.Random(5700 + seed)
    instance = random_instance(rng, max_endo=10, max_exo=0, constants=("c0", "c1", "c2"))
    for text in (":- q(X,Y), r(Y,Z).", ":- p(X), q(X,Y), r(Y,Z).", ":- p(X), q(X,Y)."):
        constraint = dcs(text)[0]
        top = most_responsible(instance, dcs_to_ucq([constraint]))
        c_removed = [instance.tuples - kept for kept in oracle.repairs(instance, [constraint], "c")]
        for t in sorted(instance.endo):
            found = difference_sets(instance, constraint, t, "c")
            assert bool(found) == (t in top)
            assert set(found) == {r for r in c_removed if t in r}


def test_difference_sets_respect_partition():
    # With the witness tuple exogenous, removal sets that need it are excluded.
    instance = inst("[endogenous] s(a4). s(a3). [exogenous] r(a4,a3).")
    constraint = bcq_to_dc(ucq(CHAIN_Q).disjuncts[0])
    assert difference_sets(instance, constraint, f("s(a3)"), "s") == [fs("s(a3)")]
    with pytest.raises(CausekitError):
        difference_sets(instance, constraint, f("r(a4,a3)"), "s")


def test_c_difference_subset_of_s(ex1):
    instance, constraint = ex1
    for t in instance.endo:
        c_sets = set(difference_sets(instance, constraint, t, "c"))
        s_sets = set(difference_sets(instance, constraint, t, "s"))
        assert c_sets <= s_sets


def test_responsibility_from_difference_sets(ex1):
    instance, constraint = ex1
    q = dcs_to_ucq([constraint])
    for t in instance.endo:
        diff = difference_sets(instance, constraint, t, "s")
        rho = responsibility(instance, q, t)
        if diff:
            assert rho == Fraction(1, min(len(s) for s in diff))
        else:
            assert rho == 0


def test_is_s_repair(ex1):
    instance, constraint = ex1
    d1 = instance.tuples - fs("s(a3)")
    assert is_s_repair(instance, [constraint], d1)
    assert not is_s_repair(instance, [constraint], instance.tuples - fs("s(a3)", "s(a4)"))
    consistent = inst("s(a1). s(a2).")
    assert is_s_repair(consistent, [constraint], consistent.tuples)
    with pytest.raises(CausekitError):
        is_s_repair(instance, [constraint], fs("zz(q)"))


def test_repair_size_at_least(ex1):
    instance, constraint = ex1
    assert repair_size_at_least(instance, constraint, f("s(a3)"), 5)
    assert not repair_size_at_least(instance, constraint, f("s(a2)"), 1)
    assert not repair_size_at_least(instance, constraint, f("r(a4,a3)"), 5)
    assert repair_size_at_least(instance, constraint, f("r(a4,a3)"), 4)
    with pytest.raises(CausekitError):
        repair_size_at_least(instance, constraint, f("s(a3)"), 7)
    with pytest.raises(CausekitError):
        repair_size_at_least(instance, constraint, f("zz(a)"), 1)


def test_duality_repair_to_cause(ex1):
    # Every removed tuple of an S-repair is a cause, and the rest of the
    # removal is one of its minimal contingency sets.
    instance, constraint = ex1
    q = dcs_to_ucq([constraint])
    causes = actual_causes(instance, q)
    for r in repairs(instance, [constraint], "s"):
        for t in r.removed:
            assert t in causes
            assert r.removed - {t} in set(minimal_contingencies(instance, q, t))


def test_duality_cause_to_repair(ex1):
    instance, constraint = ex1
    q = dcs_to_ucq([constraint])
    for t in actual_causes(instance, q):
        for gamma in minimal_contingencies(instance, q, t):
            assert is_s_repair(instance, [constraint], instance.tuples - gamma - {t})


def test_every_cause_missing_from_some_repair(ex1):
    instance, constraint = ex1
    q = dcs_to_ucq([constraint])
    s_removed = removed_sets(repairs(instance, [constraint], "s"))
    c_removed = removed_sets(repairs(instance, [constraint], "c"))
    causes = actual_causes(instance, q)
    top = most_responsible(instance, q)
    for t in causes:
        assert any(t in r for r in s_removed)
    for t in top:
        assert any(t in r for r in c_removed)
    for r in s_removed:
        assert r <= causes
    for r in c_removed:
        assert r <= top


@pytest.mark.parametrize("seed", range(15))
def test_responsibility_equals_smallest_difference_set_randomized(seed):
    rng = random.Random(5600 + seed)
    instance = random_instance(rng, max_endo=8, max_exo=0)
    q = random_ucq(rng, max_disjuncts=1)
    constraint = bcq_to_dc(q.disjuncts[0])
    for t in sorted(instance.endo):
        diff = difference_sets(instance, constraint, t, "s")
        rho = responsibility(instance, dcs_to_ucq([constraint]), t)
        if diff:
            assert rho == Fraction(1, min(len(s) for s in diff))
        else:
            assert rho == 0


@pytest.mark.parametrize("seed", range(15))
def test_repairs_match_oracle(seed):
    rng = random.Random(5200 + seed)
    instance = random_instance(rng, max_endo=7, max_exo=2)
    q = random_ucq(rng, max_disjuncts=2)
    constraints = [bcq_to_dc(d) for d in q.disjuncts]
    for semantics in ("s", "c"):
        produced = kept_sets(repairs(instance, constraints, semantics))
        expected = set(oracle.repairs(instance, constraints, semantics, cap=12))
        assert produced == expected
    s_repairs = set(oracle.repairs(instance, constraints, "s", cap=12))
    everything = sorted(instance.tuples)
    for size in range(len(everything) + 1):
        for subset in map(frozenset, combinations(everything, size)):
            assert is_s_repair(instance, constraints, subset) == (subset in s_repairs)
