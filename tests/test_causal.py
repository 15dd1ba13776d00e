"""Causes, contingencies, responsibilities, decision problems, and the graph encoding."""

import random
from fractions import Fraction

import pytest

from causekit import (
    UCQ,
    CausekitError,
    Hypergraph,
    Instance,
    ResourceLimitError,
    actual_causes,
    cause_report,
    dcs_to_ucq,
    decide_mrcd,
    decide_rpd,
    encode_graph,
    endogenous_support,
    evaluate,
    hitting_framework,
    minimal_contingencies,
    most_responsible,
    responsibility,
)
from causekit import oracle

from fixtures import CHAIN_DB, CHAIN_Q, PQR_DB, PQR_DCS, PQR_SPLIT_DB, dcs, f, fs, inst, ucq
from randgen import random_instance, random_ucq


@pytest.fixture
def ex1():
    return inst(CHAIN_DB), ucq(CHAIN_Q)


@pytest.fixture
def ex4():
    return inst(PQR_DB), dcs_to_ucq(dcs(PQR_DCS))


def test_causes_ex1(ex1):
    instance, q = ex1
    assert actual_causes(instance, q) == fs("s(a3)", "s(a4)", "r(a4,a3)", "r(a3,a3)")


def test_causes_ex4(ex4):
    instance, q = ex4
    assert actual_causes(instance, q) == fs("p(a)", "q(a,b)", "r(a,c)")


def test_no_causes_when_query_false():
    assert actual_causes(inst("s(a1)."), ucq(CHAIN_Q)) == frozenset()


def test_sole_cause_with_exogenous_split():
    instance = inst(PQR_SPLIT_DB)
    q = dcs_to_ucq(dcs(PQR_DCS))
    assert actual_causes(instance, q) == fs("p(a)")


def test_contingencies_ex4(ex4):
    instance, q = ex4
    assert minimal_contingencies(instance, q, f("q(a,b)")) == [fs("r(a,c)")]
    assert minimal_contingencies(instance, q, f("r(a,c)")) == [fs("q(a,b)")]
    assert minimal_contingencies(instance, q, f("p(a)")) == [frozenset()]


def test_contingencies_of_non_cause(ex1):
    instance, q = ex1
    assert minimal_contingencies(instance, q, f("s(a2)")) == []


def test_contingency_budget_counts_the_answer_only():
    # a(1) has 4 minimal contingency sets; the framework has 8 minimal hitting sets.
    instance, q = inst("a(1). b(1). a(2). b(2). a(3). b(3)."), ucq("q :- a(X), b(X).")
    assert len(minimal_contingencies(instance, q, f("a(1)"), max_results=4)) == 4
    with pytest.raises(ResourceLimitError):
        minimal_contingencies(instance, q, f("a(1)"), max_results=3)


def test_contingency_requires_endogenous_tuple(ex1):
    instance, q = ex1
    with pytest.raises(CausekitError):
        minimal_contingencies(instance, q, f("zz(a)"))


def test_responsibilities_ex1(ex1):
    instance, q = ex1
    expected = {
        "s(a3)": Fraction(1),
        "r(a4,a3)": Fraction(1, 2),
        "r(a3,a3)": Fraction(1, 2),
        "s(a4)": Fraction(1, 2),
        "s(a2)": Fraction(0),
        "r(a2,a1)": Fraction(0),
    }
    for name, value in expected.items():
        assert responsibility(instance, q, f(name)) == value


def test_most_responsible(ex1, ex4):
    instance1, q1 = ex1
    assert most_responsible(instance1, q1) == fs("s(a3)")
    instance4, q4 = ex4
    assert most_responsible(instance4, q4) == fs("p(a)")
    assert most_responsible(inst("s(a1)."), q1) == frozenset()


def test_decide_rpd(ex1):
    instance, q = ex1
    assert decide_rpd(instance, q, f("s(a3)"), Fraction(1, 2))
    assert not decide_rpd(instance, q, f("r(a4,a3)"), Fraction(1, 2))
    assert not decide_rpd(instance, q, f("s(a2)"), Fraction(0))
    assert decide_rpd(instance, q, f("s(a4)"), Fraction(0))


def test_decide_rpd_requires_true_query():
    with pytest.raises(CausekitError):
        decide_rpd(inst("s(a1)."), ucq(CHAIN_Q), f("s(a1)"), Fraction(0))


def test_decide_rpd_on_vacuous_query():
    # s(a4), r(a4,a3), s(a3) satisfy the query on exogenous tuples alone, so
    # no endogenous tuple has positive responsibility, r(a3,a3) included.
    instance = inst("[endogenous] r(a3,a3). s(a1). [exogenous] s(a3). s(a4). r(a4,a3).")
    q = ucq(CHAIN_Q)
    assert evaluate(q, instance)
    for t in instance.endo:
        assert not decide_rpd(instance, q, t, Fraction(0))
        assert not decide_rpd(instance, q, t, Fraction(1, 2))


def test_decide_rpd_rejects_bad_threshold(ex1):
    instance, q = ex1
    with pytest.raises(CausekitError):
        decide_rpd(instance, q, f("s(a3)"), Fraction(2, 3))


def test_decide_mrcd(ex1, ex4):
    instance4, q4 = ex4
    assert decide_mrcd(instance4, q4, f("p(a)"))
    assert not decide_mrcd(instance4, q4, f("q(a,b)"))
    instance1, q1 = ex1
    assert not decide_mrcd(instance1, q1, f("s(a2)"))


@pytest.mark.parametrize("k", [24, 40, 64, 256])
def test_matching_family_at_scale(k):
    # M_k: k disjoint supports {a(i), b(i)}, one component each; every tuple
    # has responsibility 1/k, far beyond the oracle's cap.
    instance = inst(" ".join(f"a({i}). b({i})." for i in range(1, k + 1)))
    q = ucq("q :- a(X), b(X).")
    t = f(f"b({k // 2})")
    assert responsibility(instance, q, t) == Fraction(1, k)
    assert not decide_rpd(instance, q, t, Fraction(1, k))
    assert decide_rpd(instance, q, t, Fraction(1, k + 1))
    assert decide_mrcd(instance, q, t)
    assert most_responsible(instance, q) == instance.endo and len(instance.endo) == 2 * k


def test_counterfactual_characterization(ex1):
    instance, q = ex1
    for t in instance.endo:
        rho = responsibility(instance, q, t)
        alone = Instance(instance.endo - {t}, instance.exo)
        assert (rho == 1) == (evaluate(q, instance) and not evaluate(q, alone))


def test_contingencies_verify_by_reevaluation(ex1):
    instance, q = ex1
    for t in instance.endo:
        for gamma in minimal_contingencies(instance, q, t):
            without_gamma = Instance(instance.endo - gamma, instance.exo)
            without_both = Instance(instance.endo - gamma - {t}, instance.exo)
            assert evaluate(q, without_gamma)
            assert not evaluate(q, without_both)


def test_responsibility_links_to_contingency_minimum(ex1):
    instance, q = ex1
    for t in instance.endo:
        gammas = minimal_contingencies(instance, q, t)
        rho = responsibility(instance, q, t)
        if gammas:
            assert rho == Fraction(1, 1 + min(len(g) for g in gammas))
        else:
            assert rho == 0


def test_cause_report(ex4):
    instance, q = ex4
    report = cause_report(instance, q, f("q(a,b)"), with_contingencies=True)
    assert report.is_cause
    assert report.responsibility == Fraction(1, 2)
    assert report.contingencies == (fs("r(a,c)"),)
    bare = cause_report(instance, q, f("q(a,b)"))
    assert bare.contingencies is None


def test_cause_report_invariants(ex1):
    instance, q = ex1
    for t in instance.endo:
        report = cause_report(instance, q, t, with_contingencies=True)
        assert report.responsibility == responsibility(instance, q, t)
        assert report.is_cause == (report.responsibility > 0)
        assert report.is_cause == bool(report.contingencies)
        for gamma in report.contingencies:
            assert t not in gamma
        assert report.responsibility.numerator in (0, 1)


@pytest.mark.parametrize("seed", range(25))
def test_causes_monotone_as_exogenous_become_endogenous(seed):
    rng = random.Random(3100 + seed)
    instance = random_instance(rng, max_endo=7, max_exo=3)
    q = random_ucq(rng)
    before = actual_causes(instance, q)
    promoted = Instance(instance.endo | instance.exo, frozenset())
    assert before <= actual_causes(promoted, q)


def test_encode_graph_single_edge():
    instance, disjunct, t = encode_graph(["u", "v"], [("u", "v")], "v")
    assert t == f("ver(v)")
    assert instance.endo == fs("ver(u)", "ver(v)", "edges(u,v,1)", "edges(u,v,2)")
    assert responsibility(instance, UCQ((disjunct,)), t) == 1


def test_encode_graph_triangle():
    vs = ["a", "b", "c"]
    es = [("a", "b"), ("b", "c"), ("a", "c")]
    for v in vs:
        instance, disjunct, t = encode_graph(vs, es, v)
        assert responsibility(instance, UCQ((disjunct,)), t) == Fraction(1, 2)


def test_encode_graph_validates():
    with pytest.raises(CausekitError):
        encode_graph(["a"], [], "b")
    with pytest.raises(CausekitError):
        encode_graph(["a"], [("a", "a")], "a")
    with pytest.raises(CausekitError, match=r"edge \('a','c'\) mentions unknown vertices"):
        encode_graph(["a", "b"], [("a", "c")], "a")


def test_star_graph_responsibility_counts_essential_covers_only():
    # The center covers every edge, so a cover through a leaf can only be
    # minimal by taking all the other leaves; padding {leaf, center} does
    # not witness causality.
    instance, disjunct, t = encode_graph(
        ["c", "x", "y", "z"], [("c", "x"), ("c", "y"), ("c", "z")], "x"
    )
    assert responsibility(instance, UCQ((disjunct,)), t) == Fraction(1, 3)


def test_dominated_tuple_responsibility_matches_definition():
    # One shared tuple dominates each support; a dominated tuple is a cause
    # only once every other dominated tuple has been removed.
    instance = inst("r(c4,c4). p(c0). p(c1). p(c2). p(c3). p(c4).")
    q = ucq("q :- r(c4,Z), p(X).")
    assert responsibility(instance, q, f("p(c0)")) == Fraction(1, 5)
    assert responsibility(instance, q, f("r(c4,c4)")) == Fraction(1)
    assert oracle.responsibility(instance, q, f("p(c0)")) == Fraction(1, 5)
    assert minimal_contingencies(instance, q, f("p(c0)")) == [
        fs("p(c1)", "p(c2)", "p(c3)", "p(c4)")
    ]


def test_encode_graph_matches_brute_force_cover():
    rng = random.Random(777)
    for _ in range(10):
        n = rng.randint(2, 6)
        verts = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        v = rng.choice(sorted({u for e in edges for u in e}))
        instance, disjunct, t = encode_graph(verts, edges, v)
        rho = responsibility(instance, UCQ((disjunct,)), t)
        best = oracle.min_hs(verts, [frozenset(e) for e in edges], forced=v, essential=True)
        assert rho == Fraction(1, best)


@pytest.mark.parametrize("seed", range(40))
def test_framework_equals_the_sorting_constructor(seed):
    # Few constants, so that many images join and families have several sets.
    rng = random.Random(3500 + seed)
    instance, q = random_instance(rng, constants=("c0", "c1", "c2")), random_ucq(rng)
    family = endogenous_support(q, instance)
    h = hitting_framework(instance, q)
    if family.vacuous:
        assert h is None
        return
    built = Hypergraph.build(instance.endo, family.sets)
    assert (h.vertices, h.edges, h.bound) == (built.vertices, built.edges, built.bound)
