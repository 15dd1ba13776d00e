"""Diagnosis problems: theory rendering, conflict sets, diagnoses, repairs."""

from fractions import Fraction

import pytest

from causekit import (
    CausekitError,
    actual_causes,
    bcq_to_dc,
    conflict_sets,
    dcs_to_ucq,
    diagnoses,
    endogenous_support,
    parse_instance,
    repairs,
    repairs_from_diagnoses,
    responsibility,
)
from causekit.diagnosis import build
from causekit import Instance, UCQ

from fixtures import PQR_DB, PQR_DCS, TRIO_SPLIT_DB, TRIO_DB, CHAIN_Q, dcs, f, fs, inst, ucq

EXPECTED_THEORY = """\
% (a) predicate completion and unique names
forall x1 x2 (r(x1,x2) <-> (x1 = a4 /\\ x2 = a3))
forall x1 (s(x1) <-> (x1 = a3 \\/ x1 = a4))
forall x1 x2 (end_r(x1,x2) <-> false)
forall x1 (end_s(x1) <-> (x1 = a3 \\/ x1 = a4))
a3 != a4
% (b) constraint under normality assumptions
forall X Y ~(s(X) /\\ end_s(X) /\\ ~ab_s(X) /\\ r(X,Y) /\\ end_r(X,Y) /\\ ~ab_r(X,Y) /\\ s(Y) /\\ end_s(Y) /\\ ~ab_s(Y))
% (c) inclusion dependencies
forall x1 x2 (ab_r(x1,x2) -> r(x1,x2))
forall x1 (ab_s(x1) -> s(x1))
forall x1 x2 (end_r(x1,x2) -> r(x1,x2))
forall x1 (end_s(x1) -> s(x1))
forall x1 x2 (ab_r(x1,x2) -> end_r(x1,x2))
forall x1 (ab_s(x1) -> end_s(x1))
% normality defaults
forall x1 x2 (ab_r(x1,x2) -> false)
forall x1 (ab_s(x1) -> false)
"""


@pytest.fixture
def ex9():
    return build(inst(TRIO_SPLIT_DB), ucq(CHAIN_Q).disjuncts[0])


def test_theory_text(ex9):
    assert ex9.sd_text == EXPECTED_THEORY


def test_theory_regenerates_deterministically(ex9):
    again = build(inst(TRIO_SPLIT_DB), ucq(CHAIN_Q).disjuncts[0])
    assert again.sd_text == ex9.sd_text


def test_theory_for_empty_instance():
    problem = build(parse_instance(""), ucq(CHAIN_Q).disjuncts[0])
    assert "forall x1 (s(x1) <-> false)" in problem.sd_text
    assert "forall x1 x2 (r(x1,x2) <-> false)" in problem.sd_text


def test_theory_for_a_ground_query():
    problem = build(inst("s(a). r(a,b)."), ucq("q :- s(a), r(a,b).").disjuncts[0])
    assert (
        "% (b) constraint under normality assumptions\n"
        "~(s(a) /\\ end_s(a) /\\ ~ab_s(a) /\\ r(a,b) /\\ end_r(a,b) /\\ ~ab_r(a,b))\n"
        "% (c)"
    ) in problem.sd_text


def test_all_exogenous_leaves_no_diagnoses():
    problem = build(parse_instance("[exogenous] s(a3). s(a4). r(a4,a3)."), ucq(CHAIN_Q).disjuncts[0])
    assert "forall x1 (end_s(x1) <-> false)" in problem.sd_text
    assert diagnoses(problem) == []


def test_conflict_sets(ex9):
    fam = conflict_sets(ex9)
    assert set(fam.sets) == {fs("s(a3)", "s(a4)")}


def test_conflict_sets_empty_when_consistent():
    problem = build(inst("s(a1)."), ucq(CHAIN_Q).disjuncts[0])
    fam = conflict_sets(problem)
    assert fam.sets == () and not fam.vacuous


def test_conflict_set_single_constraint_view():
    instance = inst(PQR_DB)
    view = dcs(PQR_DCS)[0]
    problem = build(instance, dcs_to_ucq([view]).disjuncts[0])
    assert set(conflict_sets(problem).sets) == {fs("p(a)", "q(a,b)")}


def test_diagnoses(ex9):
    assert [d.delta for d in diagnoses(ex9)] == [fs("s(a3)"), fs("s(a4)")]
    only = diagnoses(ex9, f("s(a3)"))
    assert [d.delta for d in only] == [fs("s(a3)")]
    assert [d.delta for d in diagnoses(ex9, f("s(a3)"), "c")] == [fs("s(a3)")]
    with pytest.raises(CausekitError):
        diagnoses(ex9, f("r(a4,a3)"))


def test_consistent_case_has_empty_diagnosis():
    problem = build(inst("s(a1)."), ucq(CHAIN_Q).disjuncts[0])
    assert [d.delta for d in diagnoses(problem)] == [frozenset()]


def test_cause_iff_diagnosis(ex9):
    instance = ex9.instance
    q = UCQ((ex9.observation,))
    causes = actual_causes(instance, q)
    for t in instance.endo:
        assert (t in causes) == bool(diagnoses(ex9, t))


def test_responsibility_from_smallest_diagnosis(ex9):
    instance = ex9.instance
    q = UCQ((ex9.observation,))
    for t in instance.endo:
        smallest = diagnoses(ex9, t, "c")
        rho = responsibility(instance, q, t)
        if smallest:
            assert rho == Fraction(1, len(smallest[0].delta))
        else:
            assert rho == 0


def test_diagnosis_silences_the_observation(ex9):
    for d in diagnoses(ex9):
        fam = endogenous_support(
            UCQ((ex9.observation,)),
            Instance(ex9.instance.endo - d.delta, ex9.instance.exo),
        )
        assert not fam.vacuous and fam.sets == ()


def test_repairs_from_diagnoses_match_repairs():
    instance = inst(TRIO_DB)
    constraint = bcq_to_dc(ucq(CHAIN_Q).disjuncts[0])
    via_diagnosis = repairs_from_diagnoses(instance, [constraint], "s")
    direct = repairs(instance, [constraint], "s")
    assert via_diagnosis == direct
    assert {r.kept for r in via_diagnosis} == {
        fs("s(a4)", "r(a4,a3)"),
        fs("s(a3)", "r(a4,a3)"),
        fs("s(a3)", "s(a4)"),
    }


def test_repairs_from_diagnoses_c_semantics():
    instance = inst(PQR_DB)
    found = repairs_from_diagnoses(instance, dcs(PQR_DCS), "c")
    assert [r.kept for r in found] == [fs("p(e)", "q(a,b)", "r(a,c)")]


def test_repairs_from_diagnoses_consistent_instance():
    instance = inst("s(a1).")
    constraint = bcq_to_dc(ucq(CHAIN_Q).disjuncts[0])
    found = repairs_from_diagnoses(instance, [constraint], "s")
    assert len(found) == 1 and found[0].kept == instance.tuples


@pytest.mark.parametrize("seed", range(20))
def test_diagnosis_equivalences_on_random_instances(seed):
    import random
    from randgen import random_instance, random_ucq

    rng = random.Random(6600 + seed)
    instance = random_instance(rng, max_endo=8, max_exo=3)
    q = random_ucq(rng, max_disjuncts=1)
    problem = build(instance, q.disjuncts[0])
    causes = actual_causes(instance, q)
    for t in sorted(instance.endo):
        through = diagnoses(problem, t, "s")
        assert (t in causes) == bool(through)
        smallest = diagnoses(problem, t, "c")
        rho = responsibility(instance, q, t)
        if smallest:
            assert rho == Fraction(1, len(smallest[0].delta))
        else:
            assert rho == 0


@pytest.mark.parametrize("seed", range(12))
def test_repairs_from_diagnoses_equal_direct_repairs(seed):
    import random
    from randgen import random_instance, random_ucq

    rng = random.Random(6900 + seed)
    instance = random_instance(rng, max_endo=8, max_exo=0)
    q = random_ucq(rng, max_disjuncts=2)
    constraints = [bcq_to_dc(d) for d in q.disjuncts]
    for semantics in ("s", "c"):
        assert repairs_from_diagnoses(instance, constraints, semantics) == repairs(
            instance, constraints, semantics
        )
