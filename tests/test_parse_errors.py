"""Every parse error's exact text and 1-based position, one row per raise site.

A column counts characters (a tab is one) and only "\\n" ends a line, so
"\\r\\n" files report the same lines as "\\n" files.
"""

import pytest
from hypothesis import given, strategies as st

from causekit import GroundTuple, Instance, ParseError, parse_fact, parse_instance, parse_program, serialize_instance

INSTANCE, PROGRAM, FACT = parse_instance, parse_program, parse_fact

# (parser, text, line, column, message)
CASES = [
    # The scanner: characters that start no token.
    (INSTANCE, "p(a).\n  q(b!).", 2, 6, "unexpected character '!'"),
    (INSTANCE, "p(a).\r\nq(é).", 2, 3, "unexpected character 'é'"),
    (INSTANCE, 'p(a).\nq("ab\ncd").', 2, 3, "unterminated string literal"),
    (PROGRAM, "q :- p(X).\n\t:: r(X).", 2, 2, "unexpected character ':'"),
    # TokenStream.expect, at a token and at the end of input.
    (INSTANCE, "p(a).\n\tq(b)\tx.", 2, 7, "expected \"'.' after fact\", found 'x'"),
    (INSTANCE, "p(a).\r\nq(b).\r\n r(c) r(d).\r\n", 3, 7, "expected \"'.' after fact\", found 'r'"),
    (INSTANCE, "p(a). q(b) % no period", 1, 23, "expected \"'.' after fact\", found end of input"),
    (INSTANCE, "p(a).\nq(b)  % no period\n", 3, 1, "expected \"'.' after fact\", found end of input"),
    (INSTANCE, "p(a).\nq b.", 2, 3, "expected \"'(' after relation name\", found 'b'"),
    (INSTANCE, "p(a).\n  q(a b).", 2, 7, "expected ')', found 'b'"),
    (INSTANCE, "p(a).\n[endogenous p(a).", 2, 13, "expected ']', found 'p'"),
    (PROGRAM, "q :- p(X).\n  q p(X).", 2, 5, "expected \"':-'\", found 'p'"),
    (PROGRAM, "q :- p(X).\r\nq :- r(X) % no period", 2, 22, "expected \"'.' after rule\", found end of input"),
    # parse_atom: the relation name and the arity check at the later atom's name.
    (INSTANCE, "p(a).\n  1(b).", 2, 3, "expected a relation name, found '1'"),
    (FACT, "", 1, 1, "expected a relation name, found end of input"),
    (INSTANCE, "p(a).\nq(b).\n  P(a, b).", 3, 3, "arity conflict for relation 'p': 1 vs 2"),
    (PROGRAM, "q :- p(X), r(X),\n\tp(X, Y).", 2, 2, "arity conflict for relation 'p': 1 vs 2"),
    # model.py
    (INSTANCE, "p(a).\n[ endo ]", 2, 3, "expected section name 'endogenous' or 'exogenous'"),
    (INSTANCE, "[endogenous]\np(a).\n[exogenous]\n  P(a).", 4, 3, "fact p(a) appears in both partitions"),
    (INSTANCE, "p(a).\nq(a, X).", 2, 6, "expected a constant (lower-case/digit word or quoted string)"),
    (FACT, "p(a,\n  B)", 2, 3, "expected a constant (lower-case/digit word or quoted string)"),
    (FACT, "p(a). q(b)", 1, 7, "unexpected input after fact"),
    # The fact reader refuses part-way: the token reader still reports a bad
    # character before an earlier semantic error, and at the same position.
    (INSTANCE, "p(a). p(a,b).\nq(c).\nq(d!).", 3, 4, "unexpected character '!'"),
    (INSTANCE, "".join(f"p(a{i},b).\n" for i in range(300)) + "p(a).", 301, 1,
     "arity conflict for relation 'p': 2 vs 1"),
    (INSTANCE, "[exogenous]\np(a).\n[endogenous]\nq(b).\n[exogenous]\nq(c).\n[endogenous]\n  P(a).", 8, 3,
     "fact p(a) appears in both partitions"),
    # query.py
    (PROGRAM, "q :- p(X).\n  1 :- s(X).", 2, 3, "expected a rule head or ':-', found '1'"),
    (PROGRAM, "q :- p(X).\n  R :- s(X).", 2, 3,
     "rule head 'r' differs from earlier head 'q'; all rules of a union query share one head"),
    (PROGRAM, "q :- p(X).\n  :- s(X).", 2, 3, "cannot mix headed rules and denial constraints in one program"),
    (PROGRAM, ":- p(X).\r\n\tq :- s(X).", 2, 2, "cannot mix headed rules and denial constraints in one program"),
    (PROGRAM, "q :- p(X),\n\tr(X, .).", 2, 7, "expected a variable or constant"),
    (PROGRAM, "% nothing\n\n", 1, 1, "empty program"),
]


@pytest.mark.parametrize("parse, text, line, column, message", CASES)
def test_parse_error_text_and_position(parse, text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {column}: {message}",
        line,
        column,
    )


_plain = st.from_regex(r"[a-z0-9][a-z0-9_]{0,3}", fullmatch=True)
_facts = st.builds(GroundTuple, st.sampled_from(["p", "q", "r_1"]), st.lists(_plain, min_size=1, max_size=3).map(tuple))


@given(st.sets(_facts, min_size=1, max_size=6), st.data())
def test_bad_character_is_reported_at_its_offset(facts, data):
    arity = {}
    facts = {t for t in facts if arity.setdefault(t.relation, len(t.args)) == len(t.args)}
    text = serialize_instance(Instance(frozenset(facts), frozenset()))
    offset = data.draw(st.integers(0, len(text)))
    line_start = text.rfind("\n", 0, offset) + 1
    with pytest.raises(ParseError) as err:
        parse_instance(text[:offset] + "!" + text[offset:])
    assert (err.value.line, err.value.column) == (text.count("\n", 0, offset) + 1, offset - line_start + 1)
    assert str(err.value).endswith("unexpected character '!'")
