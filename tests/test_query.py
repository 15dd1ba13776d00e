"""Rule parsing and query/constraint conversions."""

from itertools import permutations

import pytest

from causekit import (
    UCQ,
    Constant,
    DenialConstraint,
    Disjunct,
    ParseError,
    Variable,
    actual_causes,
    bcq_to_dc,
    dc_to_bcq,
    dcs_to_ucq,
    evaluate,
    parse_program,
)
from causekit.errors import CausekitError
from causekit.query import format_program

from fixtures import CHAIN_Q, PQR_DB, PQR_DCS, inst


def test_parse_single_rule():
    q = parse_program(CHAIN_Q)
    assert isinstance(q, UCQ)
    assert len(q.disjuncts) == 1
    assert len(q.disjuncts[0].atoms) == 3
    assert q.disjuncts[0].atoms[0].terms == (Variable("X"),)


def test_parse_denial_constraints():
    program = parse_program(PQR_DCS)
    assert isinstance(program, list)
    assert len(program) == 2
    assert all(isinstance(dc, DenialConstraint) for dc in program)


def test_parse_smallest_program():
    q = parse_program("q :- a(X).")
    assert len(q.disjuncts) == 1 and len(q.disjuncts[0].atoms) == 1


def test_constants_allowed_in_atoms():
    q = parse_program("q :- r(X, a3).")
    assert q.disjuncts[0].atoms[0].terms[1] == Constant("a3")
    # a quoted constant stays a constant, even when it reads like a variable
    q = parse_program('q :- r(X, "A b").')
    assert q.disjuncts[0].atoms[0].terms[1] == Constant("A b")


@pytest.mark.parametrize(
    "text",
    ['q :- r(X,"A b"), s(X).\nq :- r(a,X).\n', ":- p(X), q(X,Y).\n:- p(X), r(X,Y).\n"],
    ids=["query-quoted-constant", "constraints"],
)
def test_format_program_round_trips(text):
    assert format_program(parse_program(text)) == text


@pytest.mark.parametrize(
    "cls, message",
    [
        (Disjunct, "a query disjunct needs at least one atom"),
        (UCQ, "a union query needs at least one disjunct"),
        (DenialConstraint, "a denial constraint needs at least one atom"),
    ],
    ids=["disjunct", "union", "constraint"],
)
def test_empty_bodies_rejected(cls, message):
    with pytest.raises(CausekitError, match=message):
        cls(())


def test_empty_program_rejected():
    with pytest.raises(ParseError, match="empty program"):
        parse_program("  % nothing here\n")


def test_mixed_rules_rejected():
    with pytest.raises(ParseError, match="mix"):
        parse_program("q :- a(X). :- b(X).")


def test_distinct_heads_rejected():
    with pytest.raises(ParseError, match="head"):
        parse_program("q :- a(X). p :- b(X).")


def test_arity_conflict_rejected():
    with pytest.raises(ParseError, match="arity conflict"):
        parse_program("q :- a(X), a(X,Y).")


def test_bcq_dc_conversion_involutive():
    q = parse_program(CHAIN_Q)
    dc = bcq_to_dc(q.disjuncts[0])
    assert dc.atoms == q.disjuncts[0].atoms
    assert bcq_to_dc(dc_to_bcq(dc)) == dc


def test_dcs_to_ucq_copies_atoms_in_order():
    program = parse_program(PQR_DCS)
    union = dcs_to_ucq(program)
    assert len(union.disjuncts) == 2
    assert [d.atoms for d in union.disjuncts] == [dc.atoms for dc in program]


def test_dcs_to_ucq_rejects_empty():
    with pytest.raises(CausekitError):
        dcs_to_ucq([])


def test_constraint_order_does_not_change_causes():
    instance = inst(PQR_DB)
    program = parse_program(PQR_DCS)
    baseline = actual_causes(instance, dcs_to_ucq(program))
    for perm in permutations(program):
        assert actual_causes(instance, dcs_to_ucq(list(perm))) == baseline


def test_dc_satisfaction_is_negated_violation_view():
    instance = inst(PQR_DB)
    for dc in parse_program(PQR_DCS):
        violated = evaluate(dcs_to_ucq([dc]), instance)
        assert violated  # this instance breaks both constraints
    consistent = inst("p(z).")
    for dc in parse_program(PQR_DCS):
        assert not evaluate(dcs_to_ucq([dc]), consistent)
