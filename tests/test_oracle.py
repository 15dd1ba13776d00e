"""The brute-force reference implementations themselves."""

from fractions import Fraction

import pytest

from causekit import CausekitError, ResourceLimitError, parse_program
from causekit import oracle

from fixtures import CHAIN_DB, CHAIN_Q, M8_DB, M8_Q, PQR_DB, PQR_DCS, TRIO_SPLIT_DB, dcs, f, fs, inst, ucq


def test_oracle_causes_ex1():
    assert oracle.causes(inst(CHAIN_DB), ucq(CHAIN_Q)) == fs(
        "s(a3)", "s(a4)", "r(a4,a3)", "r(a3,a3)"
    )


def test_oracle_responsibility_ex1():
    instance, q = inst(CHAIN_DB), ucq(CHAIN_Q)
    assert oracle.responsibility(instance, q, f("s(a4)")) == Fraction(1, 2)
    assert oracle.responsibility(instance, q, f("s(a3)")) == 1
    assert oracle.responsibility(instance, q, f("s(a2)")) == 0


def test_oracle_matching_family():
    instance, q = inst(M8_DB), ucq(M8_Q)
    sets = oracle.contingencies(instance, q, f("a(1)"), cap=16)
    assert len(sets) == 128
    assert all(len(s) == 7 for s in sets)
    assert oracle.responsibility(instance, q, f("a(1)"), cap=16) == Fraction(1, 8)


def test_oracle_cap_enforced():
    instance, q = inst(M8_DB), ucq(M8_Q)
    with pytest.raises(ResourceLimitError):
        oracle.causes(instance, q)  # 16 endogenous tuples > default cap


def test_oracle_min_hs():
    edges = [fs("s(a4)", "r(a4,a3)", "s(a3)"), fs("s(a3)", "r(a3,a3)")]
    vertices = set().union(*edges) | {f("s(a2)")}
    assert oracle.min_hs(vertices, edges) == 1
    assert oracle.min_hs(vertices, edges, forced=f("r(a4,a3)")) == 2
    assert oracle.min_hs(vertices, edges, forced=f("s(a2)")) == 2  # padded
    assert oracle.min_hs({"a"}, []) == 0


@pytest.mark.parametrize(
    "ask, message",
    [
        (lambda: oracle.contingencies(inst(TRIO_SPLIT_DB), ucq(CHAIN_Q), f("r(a4,a3)")),
         "tuple r(a4,a3) is not an endogenous tuple of the instance"),
        (lambda: oracle.repairs(inst(PQR_DB), dcs(PQR_DCS), "x"),
         "unknown repair semantics 'x'; use 's' or 'c'"),
        (lambda: oracle.min_hs({"a"}, [], forced="b"), "vertex 'b' not among the vertices"),
    ],
    ids=["exogenous-tuple", "unknown-semantics", "forced-outside-vertices"],
)
def test_oracle_rejects_bad_input(ask, message):
    with pytest.raises(CausekitError) as caught:
        ask()
    assert str(caught.value) == message


def test_oracle_repairs_consistent_instance():
    instance = inst("p(a).")
    constraints = parse_program(":- p(X), q(X,Y).")
    assert oracle.repairs(instance, constraints, "s") == [instance.tuples]
