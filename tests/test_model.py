"""Instance parsing, serialization, and canonical ordering."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from causekit import (
    CausekitError,
    GroundTuple,
    Instance,
    ParseError,
    canonical_sort,
    model,
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


_ARITY = {"p": 1, "q": 2, "r_1": 3}
_SPACE = st.sampled_from([" ", "\t", "\r\n", "\n", "\xa0"])
_COMMENT = st.text(alphabet='a %,."()\\\r', max_size=5).map(lambda body: f"%{body}\n")
_gaps = st.lists(_SPACE | _COMMENT, max_size=2).map("".join)
_PLAIN = ["a", "b0", "aB_", "7"]
_pool = st.sampled_from(_PLAIN + ["", "a,b", "%", '"', "\\", 'x"%,\\', "a b", "a\rb", "\xa0"])


@st.composite
def _instance_texts(draw, tight=None):
    """Instance text and the instance it holds. A loose text has a gap between
    every two tokens and quoted constants; a tight one has gaps only between
    headers and facts, and plain constants only."""
    if tight is None:
        tight = draw(st.booleans())

    def gap(inner=False):
        return "" if tight and inner else draw(_gaps)

    parts = [gap()]
    endo, exo, spelling = set(), set(), {}
    target, other = endo, exo
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 3)) == 0:
            section = draw(st.sampled_from(["endogenous", "exogenous"]))
            target, other = (endo, exo) if section == "endogenous" else (exo, endo)
            parts += ["[", gap(True), section, gap(True), "]", gap()]
            continue
        relation = draw(st.sampled_from(sorted(_ARITY)))
        pool = st.sampled_from(_PLAIN) if tight else _pool
        fact = GroundTuple(relation, tuple(draw(pool) for _ in range(_ARITY[relation])))
        if fact in other:
            continue
        target.add(fact)
        rel = "".join(c.upper() if draw(st.booleans()) else c for c in relation)
        spelling.setdefault(relation, rel)
        args = []
        for a in fact.args:
            written = model.format_constant(a)
            args.append(f'"{a}"' if written == a and not tight and draw(st.booleans()) else written)
        comma = f"{gap(True)},{gap(True)}"
        parts += [rel, gap(True), "(", gap(True), comma.join(args), gap(True), ")", gap(True), ".", gap()]
    return "".join(parts), Instance(frozenset(endo), frozenset(exo), spelling)


@given(_instance_texts())
def test_both_readers_read_the_generated_facts(case):
    text, expected = case
    for read in (parse_instance, model._parse_tokens):
        instance = read(text)
        assert instance == expected and instance.spelling == expected.spelling


@given(_instance_texts(tight=True))
def test_fact_reader_reads_plain_facts_itself(case):
    # Repeated and interleaved headers, comments, blank lines and mixed-case
    # spellings: both readers agree, and the first spelling seen wins.
    text, expected = case
    for read in (model._read_facts, model._parse_tokens):
        instance = read(text)
        assert instance == expected and instance.spelling == expected.spelling


@pytest.mark.parametrize(
    "text",
    [
        "p(a). q(b). P(a,b).",  # an arity conflict
        "p(a). [exogenous] q(b). p(a).",  # a fact in both sections
        "p(a ).",  # gaps inside a fact
        "p (a).",
        "p(a,\nb).",
        "p(a) .",
        "p(a). q(b)",  # trailing junk
        "p(a). %x\n)",
        "p(a). ! q(b).",  # junk between facts
        "p(a).q(b)x.",
        "p(a)._q(b).",
    ],
)
def test_fact_reader_leaves_other_text_to_the_token_reader(text):
    assert model._read_facts(text) is None


def _outcome(read, text):
    try:
        instance = read(text)
    except ParseError as err:
        return str(err), err.line, err.column
    return instance, instance.spelling


_EDIT_CHARS = 'pA1(),.[]%"\\ \n\r!é'


def _edits(text, at, char, edit):
    """`text` with `char` inserted (+) or put in place (=) at `at`, or with the
    character there deleted (-)."""
    return text[:at] + ("" if edit == "-" else char) + text[at + (edit != "+"):]


@settings(max_examples=300, deadline=None)
@given(_instance_texts(), st.integers(0), st.sampled_from(_EDIT_CHARS), st.sampled_from("+-="))
def test_an_edit_reads_the_same_through_both_readers(case, at, char, edit):
    # The fact reader must never accept what the token reader rejects, nor
    # read it differently.
    text = case[0]
    edited = _edits(text, at % (len(text) + 1), char, edit)
    assert _outcome(parse_instance, edited) == _outcome(model._parse_tokens, edited)


@pytest.mark.parametrize("text", ["p(a).Q(b,c).\n[exogenous] r_1(a,b,c).", '% x\n[endogenous]p("a").\tP( b ).'])
def test_every_edit_of_a_small_text_reads_the_same(text):
    for at in range(len(text) + 1):
        for char in _EDIT_CHARS:
            for edit in "+-=":
                edited = _edits(text, at, char, edit)
                assert _outcome(parse_instance, edited) == _outcome(model._parse_tokens, edited), edited


_plain_facts = st.builds(
    lambda relation, args: GroundTuple(relation, tuple(args[: _ARITY[relation]])),
    st.sampled_from(sorted(_ARITY)),
    st.lists(st.sampled_from(_PLAIN), min_size=3, max_size=3),
)


@given(st.lists(_plain_facts, unique=True, max_size=12), st.data())
def test_each_extension_lists_its_facts_in_text_order(facts, data):
    # Two sections of shuffled facts, sometimes with one fact written twice in
    # its section: then the extensions fall back to set order.
    facts = data.draw(st.permutations(facts))
    cut = data.draw(st.integers(0, len(facts)))
    sections = [facts[:cut], facts[cut:]]
    if facts and data.draw(st.booleans()):
        again = data.draw(st.sampled_from(facts))
        own = sections[again not in sections[0]]
        own.insert(data.draw(st.integers(0, len(own))), again)
    endo, exo = ([f"{t}." for t in section] for section in sections)
    instance = parse_instance("\n".join([*endo, "[exogenous]", *exo]))
    repeated = len(endo) + len(exo) > len(facts)
    expected: dict = {}
    for t in [*instance.endo, *instance.exo] if repeated else sections[0] + sections[1]:
        expected.setdefault((t.relation, len(t.args)), []).append(t)
    view = instance.all_endogenous()  # groups the extensions on this instance's behalf
    assert view._relations is instance._relations
    assert instance._relations == expected
    written = parse_instance(serialize_instance(instance))
    for extension in written._relations.values():
        runs = [t for t in extension if t in written.endo], [t for t in extension if t in written.exo]
        assert extension == canonical_sort(runs[0]) + canonical_sort(runs[1])


def test_ground_tuple_is_a_plain_tuple_pair():
    t = GroundTuple("p", ("a",))
    assert t == ("p", ("a",)) and len(t) == 2 and isinstance(t, tuple)
    assert list(t) == ["p", ("a",)]
    assert hash(t) == hash((t.relation, t.args))
    assert str(t) == repr(t) == "p(a)"
    assert str(GroundTuple("r", ("a b", 'x"y'))) == 'r("a b","x\\"y")'


@given(
    st.sampled_from(["p", "q_1"]),
    st.lists(
        st.sampled_from(_PLAIN + ["", ",", "a,b", '"', "\\", " ", "A", "é"]) | st.text(alphabet='a0,"\\ Aé', max_size=3),
        min_size=1,
        max_size=3,
    ),
)
def test_ground_tuple_name_formats_each_constant(relation, args):
    t = GroundTuple(relation, tuple(args))
    assert str(t) == relation + "(" + ",".join(map(model.format_constant, args)) + ")"
    assert parse_fact(str(t)) == t


def test_ground_tuple_name_quotes_a_constant_with_a_comma():
    assert str(GroundTuple("r", ("a,b", "c"))) == 'r("a,b",c)'


def test_ground_tuple_order_is_relation_then_args():
    rng = random.Random(17)
    facts = [
        GroundTuple(rng.choice("pqr"), tuple(rng.choice(["a", "b", "a1", "B"]) for _ in range(rng.randint(1, 3))))
        for _ in range(60)
    ]
    assert canonical_sort(facts) == sorted(facts, key=lambda t: (t.relation, t.args))


def test_ground_tuple_pickles_and_is_immutable():
    t = GroundTuple("q", ("a", "b"))
    back = pickle.loads(pickle.dumps(t))
    assert back == t and type(back) is GroundTuple and hash(back) == hash(t)
    with pytest.raises(AttributeError):
        t.relation = "r"
    with pytest.raises(AttributeError):
        t.extra = 1
