"""Instance parsing, serialization, and canonical ordering."""

import pytest
from hypothesis import given, strategies as st

from causekit import (
    CausekitError,
    GroundTuple,
    Instance,
    ParseError,
    canonical_sort,
    parse_fact,
    parse_instance,
    serialize_instance,
)

from fixtures import PQR_SPLIT_DB, fs


def test_parse_default_section_is_endogenous():
    inst = parse_instance("s(a3). s(a4). r(a4,a3).")
    assert inst.endo == fs("s(a3)", "s(a4)", "r(a4,a3)")
    assert inst.exo == frozenset()


def test_parse_sections():
    inst = parse_instance(PQR_SPLIT_DB)
    assert inst.endo == fs("p(a)", "r(a,c)")
    assert inst.exo == fs("p(e)", "q(a,b)")


def test_parse_empty_input():
    inst = parse_instance("")
    assert inst.endo == frozenset() and inst.exo == frozenset()


def test_parse_comments_and_whitespace():
    inst = parse_instance("% header\n s(a1).  % trailing\n\n r(a1, a2).")
    assert inst.tuples == fs("s(a1)", "r(a1,a2)")


def test_duplicates_collapse_silently():
    inst = parse_instance("s(a1). s(a1). s(a1).")
    assert inst.endo == fs("s(a1)")


def test_fact_in_both_partitions_rejected():
    with pytest.raises(ParseError, match="both partitions"):
        parse_instance("[endogenous] s(a1). [exogenous] s(a1).")


def test_arity_conflict_rejected():
    with pytest.raises(ParseError, match="arity conflict"):
        parse_instance("s(a1). s(a1,a2).")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_instance("s(a1).\nr(a1")
    assert "line 2" in str(err.value)


def test_variables_are_not_constants():
    with pytest.raises(ParseError, match="constant"):
        parse_instance("s(X).")


def test_relation_names_normalized_but_spelling_kept():
    inst = parse_instance("S(a3). s(a4).")
    assert inst.endo == fs("s(a3)", "s(a4)")
    assert serialize_instance(inst).splitlines() == ["S(a3).", "S(a4)."]


@pytest.mark.parametrize(
    "relation, spelling, text",
    [
        ("p_1", "P_1", "P_1(a).\n"),
        ("p", "Q", "p(a).\n"),
        ("p", "p x", "p(a).\n"),
        ("p", "p(", "p(a).\n"),
        ("p", "_p", "p(a).\n"),
        ("p", "", "p(a).\n"),
        ("k", "\u212a", "k(a).\n"),  # the Kelvin sign lower-cases to "k" but is not ASCII
    ],
)
def test_serialize_uses_a_spelling_only_when_it_parses_back(relation, spelling, text):
    inst = Instance(frozenset([GroundTuple(relation, ("a",))]), frozenset(), {relation: spelling})
    assert serialize_instance(inst) == text
    assert parse_instance(text) == inst


def test_quoted_constants_round_trip():
    inst = parse_instance('s("Hello, world"). s("with \\"quotes\\"").')
    assert parse_instance(serialize_instance(inst)) == inst


def test_canonical_sort_examples():
    assert canonical_sort(fs("s(a4)", "r(a4,a3)", "s(a3)")) == [
        parse_fact("r(a4,a3)"),
        parse_fact("s(a3)"),
        parse_fact("s(a4)"),
    ]
    assert canonical_sort(frozenset()) == []
    assert canonical_sort(fs("p(a)", "p(e)")) == [parse_fact("p(a)"), parse_fact("p(e)")]


def test_parse_fact_cli_syntax():
    assert parse_fact("s(a3)") == GroundTuple("s", ("a3",))
    assert parse_fact("s(a3).") == GroundTuple("s", ("a3",))
    with pytest.raises(ParseError):
        parse_fact("s(a3) extra")


def test_instance_constructor_validates():
    t = parse_fact("s(a1)")
    with pytest.raises(CausekitError, match="both partitions"):
        Instance(frozenset([t]), frozenset([t]))
    with pytest.raises(CausekitError, match="arity conflict"):
        Instance(fs("s(a1)", "s(a1,a2)"), frozenset())


def test_all_endogenous_view():
    split = parse_instance(PQR_SPLIT_DB)
    view = split.all_endogenous()
    assert view == Instance(split.endo | split.exo, frozenset())
    assert view.arities() == split.arities() == {"p": 1, "q": 2, "r": 2}
    assert view.exo == frozenset() and view.spelling == split.spelling
    assert view.all_endogenous() is view
    assert split.all_endogenous() is not split


def test_size_is_sum_of_partition_sizes():
    inst = parse_instance(PQR_SPLIT_DB)
    assert len(inst) == len(inst.endo) + len(inst.exo) == 4


_constants = st.text(alphabet='ab0"\\ A_', max_size=3)
_tuples = st.builds(
    GroundTuple,
    relation=st.sampled_from(["p", "q"]),
    args=st.lists(_constants, min_size=1, max_size=2).map(tuple),
)


@given(st.sets(_tuples, max_size=8), st.sets(_tuples, max_size=4))
def test_round_trip(endo, exo):
    # Partition overlap and per-relation arity clashes are invalid inputs here.
    exo = exo - endo
    try:
        inst = Instance(frozenset(endo), frozenset(exo))
    except CausekitError:
        return
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "fact",
    [
        GroundTuple("p", ("a\nb",)),
        GroundTuple("P", ("a",)),
        GroundTuple("a b", ("a",)),
        GroundTuple("1p", ("a",)),
        GroundTuple("p", ()),
    ],
)
def test_serialize_rejects_facts_without_a_text_form(fact):
    with pytest.raises(CausekitError, match="has no form in the instance format") as err:
        serialize_instance(Instance(frozenset(), frozenset([fact])))
    assert repr(fact.args) in str(err.value)
