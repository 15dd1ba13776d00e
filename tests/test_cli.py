"""End-to-end command-line behaviour: outputs, JSON stability, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causekit import GroundTuple, Instance, canonical_sort, serialize_instance
from causekit.cli import _render_repairs, main

from fixtures import CHAIN_DB, CHAIN_Q, PQR_DB, PQR_DCS, TRIO_SPLIT_DB, M8_DB, M8_Q


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "chain.db": CHAIN_DB,
        "chain.q": CHAIN_Q,
        "pqr.db": PQR_DB,
        "pqr.dc": PQR_DCS,
        "trio.db": TRIO_SPLIT_DB,
        "empty.db": "",
        "d1.db": "s(a4). s(a2). r(a4,a3). r(a2,a1). r(a3,a3).",
        "notmax.db": "s(a2). r(a4,a3). r(a2,a1). r(a3,a3).",
        "atoms_pe.db": "p(e).",
        "atoms_pa.db": "p(a).",
        "graph.txt": "u v\n",
        "lone.txt": "u v\nw\n",
        "three.txt": "u v w\n",
        "chain.dc": ":- s(X), r(X,Y), s(Y).",
        "p.dc": ":- p(X).",
        "pqr.q": "q :- p(X), q(X,Y).  q :- p(X), r(X,Y).",
        "exo.db": "s(a1). [exogenous] s(a3). r(a3,a3).",
    }.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_responsibility_text_and_json(files, capsys):
    code, out, _ = run(
        capsys, "responsibility", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--tuple", "s(a3)",
    )
    assert code == 0 and out == "1\n"
    code, out, _ = run(
        capsys, "responsibility", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--tuple", "s(a3)", "--json",
    )
    assert code == 0
    assert out == '{"tuple":"s(a3)","responsibility":"1/1"}\n'


def test_causes_empty_instance_exits_zero(files, capsys):
    code, out, _ = run(
        capsys, "causes", "--instance", files["empty.db"], "--query", files["chain.q"], "--json"
    )
    assert code == 0
    assert json.loads(out) == {"causes": []}


def test_repairs_c_semantics(files, capsys):
    code, out, _ = run(
        capsys, "repairs", "--semantics", "c", "--instance", files["pqr.db"],
        "--query", files["pqr.dc"], "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["repairs"] == [
        {"kept": ["p(e)", "q(a,b)", "r(a,c)"], "removed": ["p(a)"]}
    ]


def test_contingency_and_mrc(files, capsys):
    code, out, _ = run(
        capsys, "contingency", "--instance", files["pqr.db"], "--query", files["pqr.dc"],
        "--tuple", "q(a,b)", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"tuple": "q(a,b)", "contingencies": [["r(a,c)"]]}
    code, out, _ = run(
        capsys, "mrc", "--instance", files["pqr.db"], "--query", files["pqr.dc"], "--json"
    )
    assert json.loads(out) == {"most_responsible": ["p(a)"], "responsibility": "1/1"}


def test_repair_check(files, capsys):
    code, out, _ = run(
        capsys, "repair-check", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--candidate", files["d1.db"], "--json",
    )
    assert code == 0
    assert json.loads(out)["is_s_repair"] is True  # the instance minus s(a3)
    code, out, _ = run(
        capsys, "repair-check", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--candidate", files["notmax.db"],
    )
    assert out == "false\n"  # consistent but not maximal: s(a4) could come back
    code, out, _ = run(
        capsys, "repair-check", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--candidate", files["chain.db"],
    )
    assert out == "false\n"  # the instance itself is inconsistent


def test_repair_size(files, capsys):
    code, out, _ = run(
        capsys, "repair-size", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--tuple", "s(a3)", "--min", "5", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"tuple": "s(a3)", "min": 5, "satisfied": True}


def test_cqa(files, capsys):
    code, out, _ = run(
        capsys, "cqa", "--semantics", "s", "--instance", files["pqr.db"],
        "--query", files["pqr.dc"], "--atoms", files["atoms_pe.db"],
    )
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        capsys, "cqa", "--semantics", "c", "--instance", files["pqr.db"],
        "--query", files["pqr.dc"], "--atoms", files["atoms_pa.db"],
    )
    assert out == "false\n"


def test_diagnose(files, capsys):
    code, out, _ = run(
        capsys, "diagnose", "--instance", files["trio.db"], "--query", files["chain.q"], "--json"
    )
    assert code == 0
    assert json.loads(out) == {"minimality": "s", "diagnoses": [["s(a3)"], ["s(a4)"]]}
    code, out, _ = run(
        capsys, "diagnose", "--instance", files["trio.db"], "--query", files["chain.q"],
        "--tuple", "s(a4)", "--minimality", "c", "--json",
    )
    assert json.loads(out) == {
        "tuple": "s(a4)",
        "minimality": "c",
        "diagnoses": [["s(a4)"]],
    }


def test_emit_theory_sections(files, capsys):
    code, out, _ = run(
        capsys, "emit-theory", "--instance", files["trio.db"], "--query", files["chain.q"]
    )
    assert code == 0
    for label in ("% (a)", "% (b)", "% (c)", "% normality defaults"):
        assert label in out


def test_encode_graph(files, capsys):
    code, out, _ = run(
        capsys, "encode-graph", "--graph", files["graph.txt"], "--vertex", "v", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tuple"] == "ver(v)"
    assert "edges(u,v,1)." in payload["instance"]
    assert "edges(u,v,2)." in payload["instance"]
    assert payload["query"].startswith("q :- ver(")


# Only "\n" ends a line of a graph file, as in instance and rule text; any other
# line break inside a comment belongs to the comment.
@pytest.mark.parametrize(
    "text", ["u v % note\fw x y", "u v % note\u2028w x y\n", "% u v w\r\nu v\r\n"],
    ids=["form-feed", "line-separator", "crlf"],
)
def test_graph_file_lines_end_only_at_newline(files, tmp_path, capsys, text):
    path = tmp_path / "other.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = run(capsys, "encode-graph", "--graph", files["graph.txt"], "--vertex", "u")
    assert expected[0] == 0
    assert run(capsys, "encode-graph", "--graph", str(path), "--vertex", "u") == expected


def test_oracle_subcommands(files, capsys):
    code, out, _ = run(
        capsys, "oracle", "responsibility", "--instance", files["chain.db"],
        "--query", files["chain.q"], "--tuple", "s(a4)", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"tuple": "s(a4)", "responsibility": "1/2"}
    code, out, _ = run(
        capsys, "oracle", "min-hs", "--instance", files["chain.db"],
        "--query", files["chain.q"], "--tuple", "r(a4,a3)", "--json",
    )
    assert json.loads(out) == {"tuple": "r(a4,a3)", "min_hs_size": 2}


# At 120 columns the usage fits on one line on every supported Python; at 80,
# 3.13's argparse wraps it differently from 3.10-3.12's.
ORACLE_HELP = """\
usage: causekit oracle [-h] {causes,responsibility,contingencies,repairs,min-hs} ...

positional arguments:
  {causes,responsibility,contingencies,repairs,min-hs}
    causes              actual causes for the query answer
    responsibility      responsibility of one tuple
    contingencies       minimal contingency sets of one tuple
    repairs             repairs with respect to the constraints
    min-hs              least size of a minimal hitting set through one tuple

options:
  -h, --help            show this help message and exit
"""


def test_oracle_help_says_what_each_subcommand_does(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (ORACLE_HELP, "")


def test_json_output_is_byte_stable(files, capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(
            capsys, "causes", "--instance", files["chain.db"], "--query", files["chain.q"], "--json"
        )
        outputs.add(out)
    assert len(outputs) == 1


DOMAIN_ERRORS = [
    (["repair-size", "--instance", "pqr.db", "--query", "pqr.dc", "--tuple", "p(a)", "--min", "1"],
     "expected exactly one constraint, found 2"),
    (["diagnose", "--instance", "pqr.db", "--query", "pqr.q"],
     "expected a single conjunctive query, found 2 disjuncts"),
    (["cqa", "--instance", "pqr.db", "--query", "pqr.dc", "--atoms", "empty.db"],
     "the atoms file contains no facts"),
    (["encode-graph", "--graph", "three.txt", "--vertex", "u"],
     "graph file line 1: expected 'u v' or a lone vertex"),
]


def test_domain_error_exits_one(files, capsys):
    code, _, err = run(
        capsys, "responsibility", "--instance", files["chain.db"], "--query", files["chain.q"],
        "--tuple", "zz(a)",
    )
    assert code == 1 and "error:" in err
    code, _, err = run(
        capsys, "causes", "--instance", "no-such-file.db", "--query", files["chain.q"]
    )
    assert code == 1
    for argv, message in DOMAIN_ERRORS:
        assert run(capsys, *(files.get(a, a) for a in argv)) == (1, "", f"error: {message}\n")


def test_resource_limit_message(files, tmp_path, capsys):
    big = tmp_path / "m8.db"
    big.write_text(M8_DB)
    quer = tmp_path / "m8.q"
    quer.write_text(M8_Q)
    code, _, err = run(
        capsys, "contingency", "--instance", str(big), "--query", str(quer),
        "--tuple", "a(1)", "--limit", "5",
    )
    assert code == 1 and "resource limit exceeded" in err


def test_non_utf8_input_exits_one(files, tmp_path, capsys):
    bad = tmp_path / "bad.db"
    bad.write_bytes(b"s(a4).\xff\n")
    code, out, err = run(capsys, "causes", "--instance", str(bad), "--query", files["chain.q"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_carriage_return_in_a_file_is_read_as_written(tmp_path, capsys):
    # Only "\n" ends a line: the CLI hands a file's text to the parser unchanged.
    t = GroundTuple("s", ("a\rb",))
    db = tmp_path / "cr.db"
    db.write_bytes(serialize_instance(Instance(frozenset([t]), frozenset())).encode())
    query = tmp_path / "s.q"
    query.write_text("q :- s(X).")
    code, out, err = run(capsys, "causes", "--instance", str(db), "--query", str(query), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"causes": [str(t)]}


def test_parse_error_position_counts_a_carriage_return_as_a_column(files, tmp_path, capsys):
    db = tmp_path / "cr.db"
    db.write_bytes(b"p(a).\rq(b!).")
    code, out, err = run(capsys, "causes", "--instance", str(db), "--query", files["chain.q"])
    assert (code, out) == (1, "")
    assert "line 1, column 10: unexpected character '!'" in err


@pytest.mark.parametrize(
    "command, extra, flag",
    [
        (["contingency"], ["--tuple", "s(a3)"], "--limit"),
        (["repairs"], [], "--limit"),
        (["oracle", "causes"], [], "--cap"),
    ],
    ids=["contingency-extra0", "repairs-extra1", "oracle-causes-cap"],
)
def test_negative_limit_is_a_usage_error(files, capsys, command, extra, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--instance", files["chain.db"], "--query", files["chain.q"],
              *extra, flag, "-1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_usage_error_exits_two(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["responsibility", "--instance", files["chain.db"]])
    assert exc.value.code == 2


M3_DB = "a(1). b(1). a(2). b(2). a(3). b(3)."
M3_Q = "q :- a(X), b(X)."

TEXT_CASES = {
    "repairs-s": (
        ["repairs", "--instance", "pqr.db", "--query", "pqr.dc"],
        "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n"
        "removed: {q(a,b), r(a,c)} kept: {p(a), p(e)}\n",
    ),
    "repairs-s-chain": (
        ["repairs", "--instance", "chain.db", "--query", "chain.q"],
        "removed: {r(a3,a3), r(a4,a3)} kept: {r(a2,a1), s(a2), s(a3), s(a4)}\n"
        "removed: {r(a3,a3), s(a4)} kept: {r(a2,a1), r(a4,a3), s(a2), s(a3)}\n"
        "removed: {s(a3)} kept: {r(a2,a1), r(a3,a3), r(a4,a3), s(a2), s(a4)}\n",
    ),
    "repairs-c": (
        ["repairs", "--semantics", "c", "--instance", "pqr.db", "--query", "pqr.dc"],
        "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n",
    ),
    "contingency": (
        ["contingency", "--instance", "m3.db", "--query", "m3.q", "--tuple", "a(1)"],
        "{a(2), a(3)}\n{a(2), b(3)}\n{a(3), b(2)}\n{b(2), b(3)}\n",
    ),
    "contingency-empty-set": (
        ["contingency", "--instance", "chain.db", "--query", "chain.q", "--tuple", "s(a3)"],
        "{}\n",
    ),
    "mrc": (
        ["mrc", "--instance", "m3.db", "--query", "m3.q"],
        "a(1)\na(2)\na(3)\nb(1)\nb(2)\nb(3)\n",
    ),
    "diagnose": (
        ["diagnose", "--instance", "chain.db", "--query", "chain.q"],
        "{r(a3,a3), r(a4,a3)}\n{r(a3,a3), s(a4)}\n{s(a3)}\n",
    ),
    "diagnose-tuple-c": (
        ["diagnose", "--instance", "chain.db", "--query", "chain.q", "--tuple", "s(a4)",
         "--minimality", "c"],
        "{r(a3,a3), s(a4)}\n",
    ),
    "diagnose-json-constraint": (
        ["diagnose", "--instance", "chain.db", "--query", "chain.dc", "--json"],
        '{"minimality":"s","diagnoses":[["r(a3,a3)","r(a4,a3)"],["r(a3,a3)","s(a4)"],["s(a3)"]]}\n',
    ),
    "emit-theory-constraint": (
        ["emit-theory", "--instance", "atoms_pa.db", "--query", "p.dc"],
        "% (a) predicate completion and unique names\n"
        "forall x1 (p(x1) <-> x1 = a)\n"
        "forall x1 (end_p(x1) <-> x1 = a)\n"
        "% (b) constraint under normality assumptions\n"
        "forall X ~(p(X) /\\ end_p(X) /\\ ~ab_p(X))\n"
        "% (c) inclusion dependencies\n"
        "forall x1 (ab_p(x1) -> p(x1))\n"
        "forall x1 (end_p(x1) -> p(x1))\n"
        "forall x1 (ab_p(x1) -> end_p(x1))\n"
        "% normality defaults\n"
        "forall x1 (ab_p(x1) -> false)\n",
    ),
    "mrc-json-vacuous": (
        ["mrc", "--instance", "exo.db", "--query", "chain.q", "--json"],
        '{"most_responsible":[],"responsibility":"0/1"}\n',
    ),
    "encode-graph-lone-vertex": (
        ["encode-graph", "--graph", "lone.txt", "--vertex", "w"],
        "edges(u,v,1).\nedges(u,v,2).\nedges(u,v,3).\nver(u).\nver(v).\nver(w).\n\n"
        "q :- ver(V1), ver(V2), edges(V1,V2,E).\n\nver(w)\n",
    ),
    "oracle-causes": (
        ["oracle", "causes", "--instance", "chain.db", "--query", "chain.q"],
        "r(a3,a3)\nr(a4,a3)\ns(a3)\ns(a4)\n",
    ),
    "oracle-repairs": (
        ["oracle", "repairs", "--instance", "pqr.db", "--query", "pqr.dc"],
        "removed: {q(a,b), r(a,c)} kept: {p(a), p(e)}\n"
        "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n",
    ),
    "oracle-repairs-c": (
        ["oracle", "repairs", "--semantics", "c", "--instance", "chain.db", "--query", "chain.q"],
        "removed: {s(a3)} kept: {r(a2,a1), r(a3,a3), r(a4,a3), s(a2), s(a4)}\n",
    ),
    "oracle-contingencies": (
        ["oracle", "contingencies", "--instance", "m3.db", "--query", "m3.q", "--tuple", "a(1)"],
        "{a(2), a(3)}\n{a(2), b(3)}\n{a(3), b(2)}\n{b(2), b(3)}\n",
    ),
}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_output_is_pinned(files, tmp_path, capsys, case):
    (tmp_path / "m3.db").write_text(M3_DB)
    (tmp_path / "m3.q").write_text(M3_Q)
    files = {**files, "m3.db": str(tmp_path / "m3.db"), "m3.q": str(tmp_path / "m3.q")}
    argv, expected = TEXT_CASES[case]
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("limit, code", [("4", 0), ("3", 1)])
def test_contingency_limit_counts_the_answer_only(tmp_path, capsys, limit, code):
    (tmp_path / "m3.db").write_text(M3_DB)
    (tmp_path / "m3.q").write_text(M3_Q)
    argv = ["contingency", "--instance", str(tmp_path / "m3.db"), "--query",
            str(tmp_path / "m3.q"), "--tuple", "a(1)", "--limit", limit]
    got = run(capsys, *argv)
    if code == 0:
        assert got == (0, TEXT_CASES["contingency"][1], "")
    else:
        assert got[:2] == (1, "") and "resource limit exceeded" in got[2]


@pytest.mark.parametrize("limit, code", [("1", 0), ("0", 1)])
def test_c_repairs_limit_counts_c_repairs(files, capsys, limit, code):
    # pqr.db has 2 s-repairs, of which 1 is a c-repair.
    argv = TEXT_CASES["repairs-c"][0] + ["--limit", limit]
    got = run(capsys, *(files.get(a, a) for a in argv))
    if code == 0:
        assert got == (0, TEXT_CASES["repairs-c"][1], "")
    else:
        assert got[:2] == (1, "") and "resource limit exceeded" in got[2]


def _subprocess_env():
    """This environment, with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_pipe_exits_without_traceback(tmp_path):
    db = tmp_path / "stars.db"
    db.write_text(" ".join(f"p(s{i}). q(s{i},x). q(s{i},y)." for i in range(10)))
    dc = tmp_path / "stars.dc"
    dc.write_text(":- p(X), q(X,Y).")
    argv = [sys.executable, "-m", "causekit.cli", "repairs",
            "--instance", str(db), "--query", str(dc)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_subprocess_env())
    # 1 024 repairs, about 270 kB: more than the pipe holds once the reader is gone
    assert proc.stdout.readline().startswith(b"removed: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""  # no traceback, no "Exception ignored" note from the flush at exit


def _fresh_process(argv):
    """(stdout, stderr, exit code) of `python -m causekit.cli argv` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "causekit.cli", *argv], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    return proc.stdout, proc.stderr, proc.returncode


def test_reusing_the_parser_changes_nothing(files, capsys, monkeypatch):
    # One process answers every request the way a fresh process does.
    db, dc = ["--instance", files["pqr.db"]], ["--query", files["pqr.dc"]]
    valid = ["repairs", *db, *dc, "--json"]
    requests = [
        ["no-such-command"],
        ["--help"],
        ["repairs", "--help"],
        ["repairs", *db, *dc, "--limit", "-1"],
        valid,
        ["responsibility", *db, *dc],
        ["oracle", "repairs", *db, *dc],
        valid,
    ]
    monkeypatch.setenv("COLUMNS", "60")
    for argv in requests:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (out, err, code) == _fresh_process(argv), argv


# Quoted constants ("A", "a b") make a tuple's name sort apart from the tuple;
# '"', '\\', a tab and "é" make it one that JSON escapes.
_facts = st.builds(
    lambda rel_arity, args: GroundTuple(rel_arity[0], tuple(args[: rel_arity[1]])),
    st.sampled_from([("p", 1), ("q", 2)]),
    st.lists(st.sampled_from(["a", "b", "A", "a b", "0", 'x"y', "a\\b", "a\tb", "é"]),
             min_size=2, max_size=2),
)


@given(st.lists(st.tuples(_facts, st.booleans()), max_size=8, unique_by=lambda x: x[0]), st.data())
def test_render_repairs_matches_filtering_the_instance(facts, data):
    instance = Instance(frozenset(t for t, endo in facts if endo),
                        frozenset(t for t, endo in facts if not endo))
    ordered = canonical_sort(instance.tuples)
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=len(ordered),
                                        max_size=len(ordered)), max_size=4))
    removals = [frozenset(t for t, out in zip(ordered, mask) if out) for mask in masks]
    semantics = data.draw(st.sampled_from("sc"))

    lines, _ = _render_repairs(instance, semantics, removals, False)
    _, payload = _render_repairs(instance, semantics, removals, True)

    named = [(t, str(t)) for t in ordered]
    expected_lines, expected_repairs = [], []
    for removed in removals:
        kept_names = [name for t, name in named if t not in removed]
        removed_names = [name for t, name in named if t in removed]
        expected_lines.append("removed: {" + ", ".join(removed_names) + "} kept: {"
                              + ", ".join(kept_names) + "}")
        expected_repairs.append({"kept": kept_names, "removed": removed_names})
    assert list(lines) == expected_lines
    expected = {"semantics": semantics, "repairs": expected_repairs}
    assert payload == json.dumps(expected, separators=(",", ":"))
    for removed, repair in zip(removals, json.loads(payload)["repairs"]):
        assert not set(repair["kept"]) & set(repair["removed"])
        assert sorted(repair["kept"] + repair["removed"]) == sorted(str(t) for t in ordered)
        assert repair["removed"] == [str(t) for t in canonical_sort(removed)]
        assert repair["kept"] == [str(t) for t in canonical_sort(instance.tuples - removed)]
