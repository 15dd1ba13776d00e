"""Consistent answers for ground conjunctions."""

import random

import pytest

from causekit import (
    CausekitError,
    GroundConjunction,
    GroundTuple,
    Instance,
    actual_causes,
    bcq_to_dc,
    consistent_answer,
    dcs_to_ucq,
    most_responsible,
)
from causekit import oracle
from causekit.hitset import _Component

from fixtures import PQR_DB, PQR_DCS, PR_DB, PR_DC, dcs, f, inst
from randgen import pqr_instance, random_instance, random_ucq


def conj(*names):
    return GroundConjunction(tuple(f(n) for n in names))


def test_tuple_outside_every_cause_is_consistent():
    instance = inst(PR_DB)
    constraints = dcs(PR_DC)
    assert consistent_answer(instance, constraints, conj("r(a,d)"), "s")
    assert consistent_answer(instance, constraints, conj("r(a,d)"), "c")
    assert not consistent_answer(instance, constraints, conj("p(a,b)"), "s")
    assert not consistent_answer(instance, constraints, conj("r(b,c)"), "s")


def test_consistent_answer_under_two_constraints():
    instance = inst(PQR_DB)
    constraints = dcs(PQR_DCS)
    assert consistent_answer(instance, constraints, conj("p(e)"), "s")
    assert not consistent_answer(instance, constraints, conj("p(a)"), "s")
    assert consistent_answer(instance, constraints, conj("p(e)"), "c")
    assert not consistent_answer(instance, constraints, conj("p(a)"), "c")


def test_absent_atoms_are_not_consistent():
    instance = inst(PQR_DB)
    assert not consistent_answer(instance, dcs(PQR_DCS), conj("p(zz)"), "s")


def test_conjunctions_need_every_atom():
    instance = inst(PQR_DB)
    constraints = dcs(PQR_DCS)
    assert not consistent_answer(instance, constraints, conj("p(e)", "p(a)"), "s")


def test_empty_conjunction_rejected():
    with pytest.raises(CausekitError):
        GroundConjunction(())


@pytest.mark.parametrize("seed", range(35))
def test_matches_evaluation_over_enumerated_repairs(seed):
    # From seed 15 on, up to 3 exogenous tuples: the instance is read as
    # all-endogenous, so they are atoms and violation vertices like the rest.
    rng = random.Random(7700 + seed)
    instance = random_instance(rng, max_endo=7, max_exo=0 if seed < 15 else 3)
    q = random_ucq(rng, max_disjuncts=2)
    constraints = [bcq_to_dc(d) for d in q.disjuncts]
    atoms = sorted(instance.tuples)
    picks = [rng.choice(atoms)] if atoms else []
    if len(atoms) > 2 and rng.random() < 0.5:
        picks.append(rng.choice(atoms))
    g = GroundConjunction(tuple(picks))
    for semantics in ("s", "c"):
        produced = consistent_answer(instance, constraints, g, semantics)
        kept_sets = oracle.repairs(instance, constraints, semantics, cap=12)
        expected = all(all(a in kept for a in picks) for kept in kept_sets)
        assert produced == expected
        if semantics == "s" and produced:
            assert consistent_answer(instance, constraints, g, "c")


def test_c_semantics_searches_only_the_atoms_component(monkeypatch):
    # 24 disjoint violation components, one per key; the question is about one atom.
    instance = inst(" ".join(f"p(k{i}). q(k{i},a). q(k{i},b). r(k{i},c)." for i in range(24)))
    searched = []
    within = _Component.within
    monkeypatch.setattr(_Component, "within", lambda c, *args: searched.append(c) or within(c, *args))
    assert consistent_answer(instance, dcs(PQR_DCS), conj("q(k3,a)"), "c")
    assert searched and len(set(map(id, searched))) == 1


@pytest.mark.parametrize("extra", ["", ":- q(X,Y), r(X,Z)."])
@pytest.mark.parametrize("seed", range(2))
def test_matches_the_cause_connection_at_scale(seed, extra):
    # Beyond the oracle's cap: c-semantics excludes exactly the most responsible
    # causes of the violation view, s-semantics every actual cause.
    rng = random.Random(7800 + seed)
    # Keys without a p fact add q facts that lie in no violation.
    free = {GroundTuple("q", (f"free{i}", "y0")) for i in range(40)}
    instance = Instance(pqr_instance(rng, 300).endo | free, frozenset())
    assert len(instance) >= 1000
    constraints = dcs(PQR_DCS + " " + extra)
    q = dcs_to_ucq(constraints)
    top, causes = most_responsible(instance, q), actual_causes(instance, q)
    atoms = sorted(instance.tuples)
    picks = [[a] for a in rng.sample(atoms, 16)] + [rng.sample(atoms, 2) for _ in range(4)]
    absent = [GroundTuple("p", ("absent",)), GroundTuple("q", ("k0", "absent"))]
    picks += [[min(free)], absent[:1], [rng.choice(atoms), absent[1]]]
    answers = set()
    for atoms_asked in picks:
        g = GroundConjunction(tuple(atoms_asked))
        present = all(a in instance.tuples for a in atoms_asked)
        c, s = (consistent_answer(instance, constraints, g, sem) for sem in "cs")
        assert c == (present and not top & set(atoms_asked))
        assert s == (present and not causes & set(atoms_asked))
        answers.add((c, s))
    assert answers == {(False, False), (True, False), (True, True)}
