"""End-to-end command-line behaviour: outputs, JSON stability, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from causekit import GroundTuple, Instance, canonical_sort, serialize_instance
from causekit.cli import _render_repairs, main

from cli_requests import FILES, REQUESTS, write_files
from randgen import pqr_instance


@pytest.fixture
def files(tmp_path):
    write_files(tmp_path, FILES)
    return {name: str(tmp_path / name) for name in FILES}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("row", REQUESTS, ids=lambda row: row.name)
def test_text_output_is_pinned(tmp_path, monkeypatch, capsys, row):
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path, row.files)
    assert run(capsys, *row.args) == (row.code, row.out, row.err)


@pytest.fixture(scope="module")
def pqr_scale(tmp_path_factory):
    """1 033 tuples in 300 one-key components: the instance as written and with its
    lines shuffled, its two constraints in both orders, and one atom."""
    directory = tmp_path_factory.mktemp("pqr_scale")
    text = serialize_instance(pqr_instance(random.Random(1), 300))
    lines = text.splitlines(keepends=True)
    random.Random(2).shuffle(lines)
    rules = [":- p(X), q(X,Y).\n", ":- p(X), r(X,Y).\n"]
    write_files(directory, {"written.db": text, "shuffled.db": "".join(lines),
                            "qr.dc": "".join(rules), "rq.dc": "".join(reversed(rules)),
                            "atom.db": "q(k5,y0).\n"})
    return directory


@pytest.mark.parametrize("request_args", [
    ["mrc", "--json"],
    ["cqa", "--semantics", "c", "--atoms", "atom.db", "--json"],
    ["responsibility", "--tuple", "q(k5,y0)", "--json"],
], ids=["mrc", "cqa-c", "responsibility"])
def test_fact_and_rule_order_leave_the_json_unchanged(pqr_scale, monkeypatch, capsys,
                                                      request_args):
    monkeypatch.chdir(pqr_scale)
    outputs = {run(capsys, *request_args, "--instance", db, "--query", dc)
               for db in ("written.db", "shuffled.db") for dc in ("qr.dc", "rq.dc")}
    assert len(outputs) == 1
    code, _, err = outputs.pop()
    assert (code, err) == (0, "")


def test_c_repairs_limit_holds_at_scale(pqr_scale, monkeypatch, capsys):
    # 52 one-edge components with two minimum choices each: 2^52 c-repairs.
    monkeypatch.chdir(pqr_scale)
    argv = ["repairs", "--semantics", "c", "--limit", "1000",
            "--instance", "written.db", "--query", "qr.dc"]
    assert run(capsys, *argv) == (
        1, "", "error: resource limit exceeded: hitting-set result budget exceeded: > 1000\n")


# `main` in a process whose address space is capped at about 400 MB, the cap set
# by that process alone.
_UNDER_MEMORY_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400_000_000, resource.getrlimit(resource.RLIMIT_AS)[1]))
from causekit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_running_out_of_memory_is_one_error_line(pqr_scale):
    # Without --limit the 2^52 c-repairs are built until memory runs out.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    argv = ["repairs", "--semantics", "c", "--instance", "written.db", "--query", "qr.dc"]
    proc = subprocess.run([sys.executable, "-c", _UNDER_MEMORY_CAP, *argv], cwd=pqr_scale,
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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
