"""Consistent answers for ground conjunctions."""

import random

import pytest

from causekit import (
    CausekitError,
    GroundConjunction,
    bcq_to_dc,
    consistent_answer,
)
from causekit import oracle

from fixtures import PQR_DB, PQR_DCS, PR_DB, PR_DC, dcs, f, inst
from randgen import random_instance, random_ucq


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
