"""Pinned CLI requests: each row's input files, argv, exit code, stdout and stderr.

`test_cli.py::test_text_output_is_pinned` runs every row in-process through
`causekit.cli.main`. Run as a script, `python tests/cli_requests.py` runs every row
through the installed `causekit` console script in a temporary directory, prints
each mismatch and exits 1 if there is any.
"""

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# Input files by name; a request's input files are the ones its argv names.
FILES = {
    # A six-tuple instance with one counterfactual cause for the two-hop query.
    "chain.db": "s(a4). s(a2). s(a3). r(a4,a3). r(a2,a1). r(a3,a3).",
    "chain.q": "q :- s(X), r(X,Y), s(Y).",
    "chain.dc": ":- s(X), r(X,Y), s(Y).",
    "d1.db": "s(a4). s(a2). r(a4,a3). r(a2,a1). r(a3,a3).",
    "notmax.db": "s(a2). r(a4,a3). r(a2,a1). r(a3,a3).",
    "trio.db": "[endogenous] s(a4). s(a3). [exogenous] r(a4,a3).",
    "exo.db": "s(a1). [exogenous] s(a3). r(a3,a3).",
    "empty.db": "",
    # Two denial constraints sharing the p relation; one tuple violates both.
    "pqr.db": "p(a). p(e). q(a,b). r(a,c).",
    "pqr.dc": ":- p(X), q(X,Y).  :- p(X), r(X,Y).",
    "pqr.q": "q :- p(X), q(X,Y).  q :- p(X), r(X,Y).",
    "atoms_pe.db": "p(e).",
    "atoms_pa.db": "p(a).",
    "p.dc": ":- p(X).",
    # Matching families: three and eight disjoint two-tuple supports.
    "m3.db": "a(1). b(1). a(2). b(2). a(3). b(3).",
    "m8.db": " ".join(f"a({i}). b({i})." for i in range(1, 9)),
    "ab.q": "q :- a(X), b(X).",
    "graph.txt": "u v\n",
    "lone.txt": "u v\nw\n",
    "three.txt": "u v w\n",
    # Only "\n" ends a line of a graph file; the form feed belongs to the comment.
    "formfeed.txt": "u v % note\fw x y\n",
    "two.db": "p(a).\nq(a).\n",
    "dc.q": ":- p(X), q(X).\n",
    # The size questions: a least size through one tuple and the minimum.
    "size.db": "p(a). p(b). q(a). q(b). r(a).\n",
    "size.q": ":- p(X), q(X). :- p(X), r(X).\n",
    "cqa-atoms.db": "q(a). r(a).\n",
    # Names that JSON escapes.
    "esc.db": 'p("é"). p("a\\"b"). q("é"). q("a\\"b").\n',
    # Switches sections twice each way.
    "switch.db": "p(a). [exogenous] q(a,b). [endogenous] q(b,c). p(b).\n"
    "[exogenous] p(c). [endogenous] Q(c,d).\n",
    "switch.q": "q :- p(X), q(X,Y).\n",
    # Filters r at position 0 three times: the join builds that one column, then
    # reuses it twice; s's column is built for the second rule.
    "cols.db": "s(a). s(b). s(c). r(a,b). r(b,a). r(a,c). r(b,d).\n[exogenous] r(c,c). s(d).\n",
    "cols.q": "q :- s(X), r(X,Y), r(Y,X).\nq :- r(a,Y), s(Y).\n",
    # Unsorted two-section files that repeat a fact; the join reads each fact where
    # it is first written, and the bytes are canonical either way.
    "unsorted.db": "q(b,a). p(b). q(a,b). p(a). p(b).\n[exogenous] r(b). q(c,a).\n",
    "unsorted-candidate.db": "q(c,a). r(b). p(b). p(a). p(b).\n",
    "unsorted.q": ":- p(X), q(X,Y).\n",
}


def write_files(directory: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (directory / name).write_bytes(text.encode())


class Request(NamedTuple):
    """One CLI request: argv split at whitespace, file names relative to the
    working directory, and the exit code, stdout and stderr it must give."""

    name: str
    argv: str
    code: int
    out: str
    err: str = ""

    @property
    def args(self) -> list[str]:
        return self.argv.split()

    @property
    def files(self) -> dict[str, str]:
        return {a: FILES[a] for a in self.args if a in FILES}


REQUESTS = [
    Request("causes-empty-instance-json", "causes --instance empty.db --query chain.q --json", 0,
            '{"causes":[]}\n'),
    Request("causes-switching-sections-json",
            "causes --instance switch.db --query switch.q --json", 0,
            '{"causes":["p(a)","p(b)","q(b,c)","q(c,d)"]}\n'),
    Request("causes-shared-column", "causes --instance cols.db --query cols.q", 0,
            "r(a,b)\nr(b,a)\ns(a)\ns(b)\ns(c)\n"),
    Request("causes-shared-column-json", "causes --instance cols.db --query cols.q --json", 0,
            '{"causes":["r(a,b)","r(b,a)","s(a)","s(b)","s(c)"]}\n'),
    Request("responsibility",
            "responsibility --instance chain.db --query chain.q --tuple s(a3)", 0, "1\n"),
    Request("responsibility-json",
            "responsibility --instance chain.db --query chain.q --tuple s(a3) --json", 0,
            '{"tuple":"s(a3)","responsibility":"1/1"}\n'),
    Request("responsibility-size", "responsibility --instance size.db --query size.q --tuple q(a)",
            0, "1/3\n"),
    Request("contingency", "contingency --instance m3.db --query ab.q --tuple a(1)", 0,
            "{a(2), a(3)}\n{a(2), b(3)}\n{a(3), b(2)}\n{b(2), b(3)}\n"),
    Request("contingency-empty-set",
            "contingency --instance chain.db --query chain.q --tuple s(a3)", 0, "{}\n"),
    Request("contingency-json", "contingency --instance pqr.db --query pqr.dc --tuple q(a,b) --json",
            0, '{"tuple":"q(a,b)","contingencies":[["r(a,c)"]]}\n'),
    # A limit counts the answer's sets only: m3 has 4 contingency sets for a(1), m8 has 128.
    Request("contingency-at-limit",
            "contingency --instance m3.db --query ab.q --tuple a(1) --limit 4", 0,
            "{a(2), a(3)}\n{a(2), b(3)}\n{a(3), b(2)}\n{b(2), b(3)}\n"),
    Request("contingency-over-limit",
            "contingency --instance m3.db --query ab.q --tuple a(1) --limit 3", 1, "",
            "error: resource limit exceeded: hitting-set result budget exceeded: > 3\n"),
    Request("contingency-m8-over-limit",
            "contingency --instance m8.db --query ab.q --tuple a(1) --limit 5", 1, "",
            "error: resource limit exceeded: hitting-set result budget exceeded: > 5\n"),
    Request("mrc", "mrc --instance m3.db --query ab.q", 0, "a(1)\na(2)\na(3)\nb(1)\nb(2)\nb(3)\n"),
    Request("mrc-json", "mrc --instance pqr.db --query pqr.dc --json", 0,
            '{"most_responsible":["p(a)"],"responsibility":"1/1"}\n'),
    Request("mrc-json-vacuous", "mrc --instance exo.db --query chain.q --json", 0,
            '{"most_responsible":[],"responsibility":"0/1"}\n'),
    Request("mrc-size", "mrc --instance size.db --query size.q", 0, "p(a)\np(b)\nq(b)\n"),
    Request("mrc-size-json", "mrc --instance size.db --query size.q --json", 0,
            '{"most_responsible":["p(a)","p(b)","q(b)"],"responsibility":"1/2"}\n'),
    Request("repairs-s", "repairs --instance pqr.db --query pqr.dc", 0,
            "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n"
            "removed: {q(a,b), r(a,c)} kept: {p(a), p(e)}\n"),
    Request("repairs-s-chain", "repairs --instance chain.db --query chain.q", 0,
            "removed: {r(a3,a3), r(a4,a3)} kept: {r(a2,a1), s(a2), s(a3), s(a4)}\n"
            "removed: {r(a3,a3), s(a4)} kept: {r(a2,a1), r(a4,a3), s(a2), s(a3)}\n"
            "removed: {s(a3)} kept: {r(a2,a1), r(a3,a3), r(a4,a3), s(a2), s(a4)}\n"),
    Request("repairs-c", "repairs --semantics c --instance pqr.db --query pqr.dc", 0,
            "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n"),
    Request("repairs-c-json", "repairs --semantics c --instance pqr.db --query pqr.dc --json", 0,
            '{"semantics":"c","repairs":[{"kept":["p(e)","q(a,b)","r(a,c)"],"removed":["p(a)"]}]}\n'),
    # pqr.db has 2 s-repairs, of which 1 is a c-repair.
    Request("repairs-c-at-limit", "repairs --semantics c --instance pqr.db --query pqr.dc --limit 1",
            0, "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n"),
    Request("repairs-c-over-limit",
            "repairs --semantics c --instance pqr.db --query pqr.dc --limit 0", 1, "",
            "error: resource limit exceeded: hitting-set result budget exceeded: > 0\n"),
    Request("repairs-two", "repairs --instance two.db --query dc.q", 0,
            "removed: {p(a)} kept: {q(a)}\nremoved: {q(a)} kept: {p(a)}\n"),
    Request("repairs-two-json", "repairs --instance two.db --query dc.q --json", 0,
            '{"semantics":"s","repairs":[{"kept":["q(a)"],"removed":["p(a)"]},'
            '{"kept":["p(a)"],"removed":["q(a)"]}]}\n'),
    Request("repairs-escaped", "repairs --instance esc.db --query dc.q", 0,
            'removed: {p("a\\"b"), p("é")} kept: {q("a\\"b"), q("é")}\n'
            'removed: {p("a\\"b"), q("é")} kept: {p("é"), q("a\\"b")}\n'
            'removed: {p("é"), q("a\\"b")} kept: {p("a\\"b"), q("é")}\n'
            'removed: {q("a\\"b"), q("é")} kept: {p("a\\"b"), p("é")}\n'),
    Request("repairs-escaped-json", "repairs --instance esc.db --query dc.q --json", 0,
            r'{"semantics":"s","repairs":[{"kept":["q(\"a\\\"b\")","q(\"\u00e9\")"],'
            r'"removed":["p(\"a\\\"b\")","p(\"\u00e9\")"]},{"kept":["p(\"\u00e9\")","q(\"a\\\"b\")"],'
            r'"removed":["p(\"a\\\"b\")","q(\"\u00e9\")"]},{"kept":["p(\"a\\\"b\")","q(\"\u00e9\")"],'
            r'"removed":["p(\"\u00e9\")","q(\"a\\\"b\")"]},{"kept":["p(\"a\\\"b\")","p(\"\u00e9\")"],'
            r'"removed":["q(\"a\\\"b\")","q(\"\u00e9\")"]}]}' "\n"),
    Request("repairs-unsorted-json", "repairs --instance unsorted.db --query unsorted.q --json", 0,
            '{"semantics":"s","repairs":[{"kept":["q(a,b)","q(b,a)","q(c,a)","r(b)"],'
            '"removed":["p(a)","p(b)"]},{"kept":["p(b)","q(a,b)","q(c,a)","r(b)"],'
            '"removed":["p(a)","q(b,a)"]},{"kept":["p(a)","q(b,a)","q(c,a)","r(b)"],'
            '"removed":["p(b)","q(a,b)"]},{"kept":["p(a)","p(b)","q(c,a)","r(b)"],'
            '"removed":["q(a,b)","q(b,a)"]}]}\n'),
    # d1.db is the instance minus s(a3); notmax.db is consistent but s(a4) could come
    # back; the instance itself is inconsistent.
    Request("repair-check-json",
            "repair-check --instance chain.db --query chain.q --candidate d1.db --json", 0,
            '{"candidate":["r(a2,a1)","r(a3,a3)","r(a4,a3)","s(a2)","s(a4)"],"is_s_repair":true}\n'),
    Request("repair-check-not-maximal",
            "repair-check --instance chain.db --query chain.q --candidate notmax.db", 0, "false\n"),
    Request("repair-check-inconsistent",
            "repair-check --instance chain.db --query chain.q --candidate chain.db", 0, "false\n"),
    Request("repair-check-unsorted-json", "repair-check --instance unsorted.db --query unsorted.q "
            "--candidate unsorted-candidate.db --json", 0,
            '{"candidate":["p(a)","p(b)","q(c,a)","r(b)"],"is_s_repair":true}\n'),
    Request("repair-size-json",
            "repair-size --instance chain.db --query chain.q --tuple s(a3) --min 5 --json", 0,
            '{"tuple":"s(a3)","min":5,"satisfied":true}\n'),
    # Bounded decisions on one edge: the core rule or the floor answers.
    Request("repair-size-core", "repair-size --instance two.db --query dc.q --tuple q(a) --min 1",
            0, "true\n"),
    Request("repair-size-core-json",
            "repair-size --instance two.db --query dc.q --tuple q(a) --min 1 --json", 0,
            '{"tuple":"q(a)","min":1,"satisfied":true}\n'),
    Request("repair-size-floor", "repair-size --instance two.db --query dc.q --tuple q(a) --min 2",
            0, "false\n"),
    Request("repair-size-floor-json",
            "repair-size --instance two.db --query dc.q --tuple q(a) --min 2 --json", 0,
            '{"tuple":"q(a)","min":2,"satisfied":false}\n'),
    Request("diagnose", "diagnose --instance chain.db --query chain.q", 0,
            "{r(a3,a3), r(a4,a3)}\n{r(a3,a3), s(a4)}\n{s(a3)}\n"),
    Request("diagnose-json", "diagnose --instance trio.db --query chain.q --json", 0,
            '{"minimality":"s","diagnoses":[["s(a3)"],["s(a4)"]]}\n'),
    Request("diagnose-tuple-c", "diagnose --instance chain.db --query chain.q --tuple s(a4) "
            "--minimality c", 0, "{r(a3,a3), s(a4)}\n"),
    Request("diagnose-tuple-c-json", "diagnose --instance trio.db --query chain.q --tuple s(a4) "
            "--minimality c --json", 0,
            '{"tuple":"s(a4)","minimality":"c","diagnoses":[["s(a4)"]]}\n'),
    # A headless constraint is read as its violation query.
    Request("diagnose-json-constraint", "diagnose --instance chain.db --query chain.dc --json", 0,
            '{"minimality":"s","diagnoses":[["r(a3,a3)","r(a4,a3)"],["r(a3,a3)","s(a4)"],'
            '["s(a3)"]]}\n'),
    Request("diagnose-headless-json", "diagnose --instance two.db --query dc.q --json", 0,
            '{"minimality":"s","diagnoses":[["p(a)"],["q(a)"]]}\n'),
    Request("cqa-s", "cqa --semantics s --instance pqr.db --query pqr.dc --atoms atoms_pe.db", 0,
            "true\n"),
    Request("cqa-c", "cqa --semantics c --instance pqr.db --query pqr.dc --atoms atoms_pa.db", 0,
            "false\n"),
    # Every minimum repair of size.db removes p(a) and keeps q(a) and r(a); the
    # s-repair that removes q(a) and r(a) does not.
    Request("cqa-size-c-json", "cqa --instance size.db --query size.q --atoms cqa-atoms.db "
            "--semantics c --json", 0,
            '{"semantics":"c","atoms":["q(a)","r(a)"],"consistent":true}\n'),
    Request("cqa-size-s-json", "cqa --instance size.db --query size.q --atoms cqa-atoms.db "
            "--semantics s --json", 0,
            '{"semantics":"s","atoms":["q(a)","r(a)"],"consistent":false}\n'),
    Request("emit-theory", "emit-theory --instance trio.db --query chain.q", 0,
            "% (a) predicate completion and unique names\n"
            "forall x1 x2 (r(x1,x2) <-> (x1 = a4 /\\ x2 = a3))\n"
            "forall x1 (s(x1) <-> (x1 = a3 \\/ x1 = a4))\n"
            "forall x1 x2 (end_r(x1,x2) <-> false)\n"
            "forall x1 (end_s(x1) <-> (x1 = a3 \\/ x1 = a4))\n"
            "a3 != a4\n"
            "% (b) constraint under normality assumptions\n"
            "forall X Y ~(s(X) /\\ end_s(X) /\\ ~ab_s(X) /\\ r(X,Y) /\\ end_r(X,Y) /\\ ~ab_r(X,Y)"
            " /\\ s(Y) /\\ end_s(Y) /\\ ~ab_s(Y))\n"
            "% (c) inclusion dependencies\n"
            "forall x1 x2 (ab_r(x1,x2) -> r(x1,x2))\n"
            "forall x1 (ab_s(x1) -> s(x1))\n"
            "forall x1 x2 (end_r(x1,x2) -> r(x1,x2))\n"
            "forall x1 (end_s(x1) -> s(x1))\n"
            "forall x1 x2 (ab_r(x1,x2) -> end_r(x1,x2))\n"
            "forall x1 (ab_s(x1) -> end_s(x1))\n"
            "% normality defaults\n"
            "forall x1 x2 (ab_r(x1,x2) -> false)\n"
            "forall x1 (ab_s(x1) -> false)\n"),
    Request("emit-theory-constraint", "emit-theory --instance atoms_pa.db --query p.dc", 0,
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
            "forall x1 (ab_p(x1) -> false)\n"),
    # The encoded graph, its one-rule query `q :- ...` and the tuple.
    Request("encode-graph-json", "encode-graph --graph graph.txt --vertex v --json", 0,
            '{"instance":"edges(u,v,1).\\nedges(u,v,2).\\nver(u).\\nver(v).\\n",'
            '"query":"q :- ver(V1), ver(V2), edges(V1,V2,E).\\n","tuple":"ver(v)"}\n'),
    Request("encode-graph-form-feed", "encode-graph --graph formfeed.txt --vertex u", 0,
            "edges(u,v,1).\nedges(u,v,2).\nver(u).\nver(v).\n\n"
            "q :- ver(V1), ver(V2), edges(V1,V2,E).\n\nver(u)\n"),
    Request("encode-graph-form-feed-json", "encode-graph --graph formfeed.txt --vertex u --json", 0,
            '{"instance":"edges(u,v,1).\\nedges(u,v,2).\\nver(u).\\nver(v).\\n",'
            '"query":"q :- ver(V1), ver(V2), edges(V1,V2,E).\\n","tuple":"ver(u)"}\n'),
    Request("encode-graph-lone-vertex", "encode-graph --graph lone.txt --vertex w", 0,
            "edges(u,v,1).\nedges(u,v,2).\nedges(u,v,3).\nver(u).\nver(v).\nver(w).\n\n"
            "q :- ver(V1), ver(V2), edges(V1,V2,E).\n\nver(w)\n"),
    Request("oracle-causes", "oracle causes --instance chain.db --query chain.q", 0,
            "r(a3,a3)\nr(a4,a3)\ns(a3)\ns(a4)\n"),
    Request("oracle-responsibility-json",
            "oracle responsibility --instance chain.db --query chain.q --tuple s(a4) --json", 0,
            '{"tuple":"s(a4)","responsibility":"1/2"}\n'),
    Request("oracle-contingencies",
            "oracle contingencies --instance m3.db --query ab.q --tuple a(1)", 0,
            "{a(2), a(3)}\n{a(2), b(3)}\n{a(3), b(2)}\n{b(2), b(3)}\n"),
    Request("oracle-repairs", "oracle repairs --instance pqr.db --query pqr.dc", 0,
            "removed: {q(a,b), r(a,c)} kept: {p(a), p(e)}\n"
            "removed: {p(a)} kept: {p(e), q(a,b), r(a,c)}\n"),
    Request("oracle-repairs-c",
            "oracle repairs --semantics c --instance chain.db --query chain.q", 0,
            "removed: {s(a3)} kept: {r(a2,a1), r(a3,a3), r(a4,a3), s(a2), s(a4)}\n"),
    Request("oracle-min-hs-json",
            "oracle min-hs --instance chain.db --query chain.q --tuple r(a4,a3) --json", 0,
            '{"tuple":"r(a4,a3)","min_hs_size":2}\n'),
    Request("oracle-min-hs-exogenous-only",
            "oracle min-hs --instance exo.db --query chain.q --tuple s(a1)", 1, "",
            "error: the query holds on exogenous tuples alone; no hitting sets\n"),
    Request("error-unknown-tuple",
            "responsibility --instance chain.db --query chain.q --tuple zz(a)", 1, "",
            "error: tuple zz(a) is not an endogenous tuple of the instance\n"),
    Request("error-missing-file", "causes --instance no-such-file.db --query chain.q", 1, "",
            "error: [Errno 2] No such file or directory: 'no-such-file.db'\n"),
    Request("error-two-constraints",
            "repair-size --instance pqr.db --query pqr.dc --tuple p(a) --min 1", 1, "",
            "error: expected exactly one constraint, found 2\n"),
    Request("error-two-disjuncts", "diagnose --instance pqr.db --query pqr.q", 1, "",
            "error: expected a single conjunctive query, found 2 disjuncts\n"),
    Request("error-no-atoms", "cqa --instance pqr.db --query pqr.dc --atoms empty.db", 1, "",
            "error: the atoms file contains no facts\n"),
    Request("error-graph-line", "encode-graph --graph three.txt --vertex u", 1, "",
            "error: graph file line 1: expected 'u v' or a lone vertex\n"),
]


def main() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for request in REQUESTS:
            write_files(Path(tmp), request.files)
            proc = subprocess.run(["causekit", *request.args], cwd=tmp, capture_output=True)
            got = (proc.returncode, proc.stdout.decode(errors="backslashreplace"),
                   proc.stderr.decode(errors="backslashreplace"))
            expected = (request.code, request.out, request.err)
            if got != expected:
                mismatches += 1
                print(f"{request.name} ({request.argv}):\n  expected {expected!r}\n  got      {got!r}")
    print(f"{len(REQUESTS) - mismatches} of {len(REQUESTS)} requests print their pinned bytes")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
