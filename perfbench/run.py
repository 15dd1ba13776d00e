"""Seeded closed-loop benchmark for causekit.

    python3 perfbench/run.py --workload chain-join --seed 1 --seconds 30 --trace 0

One client in one single-threaded process asks the next question only after
the previous one is answered. Every answer is checked against an expected
answer computed by `workloads` without the production code. With
`--trace 0` the run reports the end-to-end metrics, with every time scaled
to a nominal host speed measured by `hostspeed` probes; with `--trace 1` it
asks every question untraced and traced, back to back, and reports
per-layer self times and counts. The last line of standard output is one
JSON object; run details (failures, answer digests, spans) go to
`.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every seed question answers in under 1 s on a 2-core x86 box, so a 3 s cap
# never flips a seed question between passing and failing.
CAP_S = 3.0
# Set-up is timed 5 times: twice before the questions and three times after
# them, so that the median spans the run rather than its first seconds.
SETUP_BEFORE, SETUP_AFTER = 2, 3
SETUP_PROBES = hostspeed.WINDOW // 2 + 1  # on each side of a set-up, so its window is its own
MIN_QUESTIONS = 100  # distinct questions per pass: at least 10 beyond p90
PROBE_EVERY_S = 0.1  # a 2 ms probe every 0.1 s: 2 % of the run, WINDOW probes span ~1 s
HARD_LIMIT_FACTOR = 3  # a run that cannot finish one pass stops after 3x --seconds
CAUSEKIT_MODULES = ("support", "hitset", "causal", "repair", "diagnosis", "cqa", "cli")


class QuestionTimeout(Exception):
    """The per-question wall-clock cap fired."""


class CliLimitExit(Exception):
    """The CLI exited 1 because a `ResourceLimitError` stopped the request."""


def _alarm(signum, frame):
    raise QuestionTimeout()


# --- set-up --------------------------------------------------------------------


def _import_causekit() -> dict:
    for name in [m for m in sys.modules if m == "causekit" or m.startswith("causekit.")]:
        del sys.modules[name]
    importlib.import_module("causekit.cli")
    return {name: sys.modules[f"causekit.{name}"] for name in CAUSEKIT_MODULES} | {
        "ck": sys.modules["causekit"]
    }


def _parse_all(spec: workloads.Spec, parse) -> dict:
    return {
        "instances": {k: parse["instance"](v) for k, v in spec.instances.items()},
        "programs": {k: parse["program"](v) for k, v in spec.programs.items()},
        "facts": {k: parse["fact"](v) for k, v in spec.facts.items()},
    }


def _raw_parsers(ck) -> dict:
    return {"instance": ck.parse_instance, "program": ck.parse_program, "fact": ck.parse_fact}


def timed_setup(spec, speed: hostspeed.Speed):
    """Import causekit and parse every text: (modules, parsed texts, seconds
    scaled to the nominal host speed by probes taken just before and after).
    The caller drops the previous copy first, so peak RSS counts one."""
    gc.collect()
    speed.sample(SETUP_PROBES)
    start = time.perf_counter()
    mods = _import_causekit()
    parsed = _parse_all(spec, _raw_parsers(mods["ck"]))
    took = time.perf_counter() - start
    speed.sample(SETUP_PROBES)
    return mods, parsed, speed.scale(took, start)


# --- questions -----------------------------------------------------------------


def _set_canon(result) -> str:
    return "\n".join(sorted(str(t) for t in result))


def _fraction_canon(result) -> str:
    return f"{result.numerator}/{result.denominator}"


def _bool_canon(result) -> str:
    if not isinstance(result, bool):
        raise TypeError(f"expected a bool, got {result!r}")
    return workloads.bool_text(result)


def _cli_canon(result) -> str:
    code, out, err = result
    if code == 1 and err.startswith("error: resource limit exceeded"):
        raise CliLimitExit(err.strip())
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.strip()}")
    return out


def make_api(mods: dict, tracer: tracing.Tracer | None) -> dict:
    """The production entry points the questions call, wrapped when tracing."""
    causal, cqa, repair, cli = mods["causal"], mods["cqa"], mods["repair"], mods["cli"]

    def cli_request(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    views = {
        "actual_causes": causal.actual_causes,
        "decide_rpd": causal.decide_rpd,
        "responsibility": causal.responsibility,
        "most_responsible": causal.most_responsible,
        "consistent_answer": cqa.consistent_answer,
        "repair_size_at_least": repair.repair_size_at_least,
    }
    if tracer is None:
        return views | {"cli": cli_request}
    api = {name: tracer.wrap("views", fn) for name, fn in views.items()}
    api["cli"] = tracer.wrap("cli", cli_request, lambda r: {"bytes_out": len(r[1].encode())})
    return api


def bind(spec: workloads.Spec, parsed: dict, mods: dict, api: dict, workdir: Path) -> list:
    """(qid, call, canon, expected) per question; all lookups happen here,
    outside the timed region."""
    inst, prog, fact = parsed["instances"], parsed["programs"], parsed["facts"]
    conj = mods["cqa"].GroundConjunction
    items = []
    for q in spec.questions:
        a = q.args
        if q.op == "causes":
            call, canon = (api["actual_causes"], (inst[a[0]], prog[a[1]])), _set_canon
        elif q.op == "mrc":
            call, canon = (api["most_responsible"], (inst[a[0]], prog[a[1]])), _set_canon
        elif q.op == "resp":
            call, canon = (api["responsibility"], (inst[a[0]], prog[a[1]], fact[a[2]])), _fraction_canon
        elif q.op == "rpd":
            v = Fraction(0) if a[3] == 0 else Fraction(1, a[3])
            call, canon = (api["decide_rpd"], (inst[a[0]], prog[a[1]], fact[a[2]], v)), _bool_canon
        elif q.op == "rsal":
            dc = prog[a[1]][0]
            call, canon = (api["repair_size_at_least"], (inst[a[0]], dc, fact[a[2]], a[3])), _bool_canon
        elif q.op == "cqa":
            g = conj(tuple(fact[n] for n in a[2]))
            call, canon = (api["consistent_answer"], (inst[a[0]], prog[a[1]], g, "s")), _bool_canon
        elif q.op == "cli":
            argv = [str(workdir / x) if x in spec.files else x for x in a]
            call, canon = (api["cli"], (argv,)), _cli_canon
        else:
            raise ValueError(f"unknown question op {q.op!r}")
        items.append((q.qid, call, canon, q.expected))
    return items


def ask(item, limit_error: type):
    """One question under the wall-clock cap: (latency_s, kind, answer or detail)."""
    qid, (fn, args), canon, expected = item
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        answer = canon(result)
    except (QuestionTimeout, CliLimitExit, limit_error) as exc:
        return time.perf_counter() - start, "budget_exceeded", type(exc).__name__
    except Exception:  # noqa: BLE001  any other failure is recorded, never dropped
        return time.perf_counter() - start, "error", traceback.format_exc(limit=-2)
    return latency, ("ok" if workloads.answer_digest(answer) == expected else "wrong"), answer


class Record:
    """Outcomes of every attempt, plus the answer digest of each question's
    first attempt."""

    def __init__(self, n_questions: int):
        self.n = n_questions
        self.latencies: list[float] = []
        self.started: list[float] = []
        self.qids: list[str] = []
        self.kinds = {"ok": 0, "budget_exceeded": 0, "error": 0, "wrong": 0}
        self.failures: list[dict] = []
        self.answers: dict[str, str] = {}  # qid -> sha256 of the canonical answer

    def add(self, qid: str, started: float, latency: float, kind: str, answer: str) -> None:
        self.started.append(started)
        if qid not in self.answers:
            shown = answer if kind in ("ok", "wrong") else f"!{kind}"
            self.answers[qid] = workloads.answer_digest(shown)
        self.latencies.append(latency)
        self.qids.append(qid)
        self.kinds[kind] += 1
        if kind != "ok":
            detail = answer if kind != "wrong" else answer[:200]
            self.failures.append({"qid": qid, "kind": kind, "detail": detail,
                                  "latency_s": round(latency, 6)})

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.kinds["ok"]

    @property
    def digest(self) -> str | None:
        """sha256 over `qid<TAB>answer digest` lines in question order, once
        every question was asked."""
        if len(self.answers) < self.n:
            return None
        lines = "".join(f"{qid}\t{d}\n" for qid, d in self.answers.items())
        return hashlib.sha256(lines.encode()).hexdigest()


def run_closed_loop(items, seconds: float, limit_error, speed: hostspeed.Speed) -> Record:
    """Cycle through the questions until --seconds have passed and every
    question was asked at least once, probing the host's speed between
    questions every PROBE_EVERY_S."""
    record = Record(len(items))
    start = next_probe = time.perf_counter()
    i = 0
    while True:
        if time.perf_counter() >= next_probe:
            speed.sample()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        item = items[i % len(items)]
        record.add(item[0], time.perf_counter(), *ask(item, limit_error))
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i >= len(items) or elapsed >= HARD_LIMIT_FACTOR * seconds):
            return record


# --- reporting -----------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(record: Record, speed: hostspeed.Speed, setup_s: float) -> dict:
    """Over all attempts, each latency scaled to the nominal host speed;
    questions_per_s is the correct answers per second of scaled question
    time, failed attempts' time included."""
    scaled = [speed.scale(t, at) for t, at in zip(record.latencies, record.started)]
    cuts = statistics.quantiles(scaled, n=10, method="inclusive")
    return {
        "questions_per_s": _metric(record.kinds["ok"] / sum(scaled), "1/s"),
        "latency_p50_ms": _metric(statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": _metric(cuts[8] * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(setup_table: dict, first: dict, passes: list[dict], overhead_pct: float) -> dict:
    """Counts from the traced set-up plus the first traced pass; times are
    the per-pass mean over all traced passes (plus the set-up parse)."""

    def count(layer, key, table=first):
        return table.get(layer, {}).get(key, 0)

    def mean_self(layer):
        return statistics.fmean(count(layer, "self_s", t) for t in passes)

    question_s = statistics.fmean(count("question", "total_s", t) for t in passes)
    setup_parse = setup_table.get("parse", {})
    parse_facts = count("parse", "facts") + setup_parse.get("facts", 0)
    parse_self = mean_self("parse") + setup_parse.get("self_s", 0.0)
    enum_self = mean_self("hitset.enum")
    m = {
        "parse.calls": _metric(count("parse", "calls") + setup_parse.get("calls", 0), "count"),
        "parse.facts": _metric(parse_facts, "count"),
        "parse.self_s": _metric(parse_self, "s"),
        "parse.us_per_fact": _metric(parse_self / parse_facts * 1e6 if parse_facts else 0.0, "us/fact"),
        "support.calls": _metric(count("support", "calls"), "count"),
        "support.self_s": _metric(mean_self("support"), "s"),
        "support.sets_out": _metric(count("support", "sets_out"), "count"),
        "support.vacuous": _metric(count("support", "vacuous"), "count"),
        "hitset.build.calls": _metric(count("hitset.build", "calls"), "count"),
        "hitset.build.self_s": _metric(mean_self("hitset.build"), "s"),
        "hitset.vertices": _metric(count("hitset.build", "vertices"), "count"),
        "hitset.edges": _metric(count("hitset.build", "edges"), "count"),
        "hitset.max_edge": _metric(count("hitset.build", "max_edge"), "count"),
        "hitset.components": _metric(count("hitset.build", "components"), "count"),
        "hitset.decide.calls": _metric(count("hitset.decide", "calls"), "count"),
        "hitset.decide.self_s": _metric(mean_self("hitset.decide"), "s"),
        "hitset.enum.calls": _metric(count("hitset.enum", "calls"), "count"),
        "hitset.enum.self_s": _metric(enum_self, "s"),
        "hitset.enum.sets_out": _metric(count("hitset.enum", "sets_out"), "count"),
        "hitset.enum.sets_per_s": _metric(
            count("hitset.enum", "sets_out") / enum_self if enum_self else 0.0, "1/s"),
        "hitset.limit_errors": _metric(
            sum(count(layer, "limit_errors") for layer in ("hitset.build", "hitset.decide", "hitset.enum")),
            "count"),
        "views.calls": _metric(count("views", "calls"), "count"),
        "views.self_s": _metric(mean_self("views"), "s"),
        "cli.calls": _metric(count("cli", "calls"), "count"),
        "cli.self_s": _metric(mean_self("cli"), "s"),
        "cli.bytes_out": _metric(count("cli", "bytes_out"), "bytes"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.share"] = _metric(mean_self(layer) / question_s, "ratio")
    m["trace.overhead_pct"] = _metric(overhead_pct, "%")
    return m


def run_traced(spec, items_for, mods, seconds: float, limit_error):
    """Ask every question twice in a row, untraced and traced, in alternating
    order, and pass over the question list until --seconds is used up.
    Host speed drifts over seconds, so back-to-back pairs make the summed
    latencies of the two sides differ by the wrappers' cost only."""
    tracer = tracing.Tracer(limit_error)
    setup_span = tracer.open("setup", "parse")
    parsers = {k: tracer.wrap("parse", fn, tracing.parse_gauge) for k, fn in _raw_parsers(mods["ck"]).items()}
    parsed = _parse_all(spec, parsers)
    tracer.close(setup_span)
    setup_table = tracing.layer_table(tracer.spans)
    pairs = list(zip(items_for(parsed, make_api(mods, None)), items_for(parsed, make_api(mods, tracer))))
    record = Record(len(pairs))
    tables, side_s, side_ok = [], [0.0, 0.0], [0, 0]  # index 0 untraced, 1 traced
    start = time.perf_counter()
    while True:
        first_span = len(tracer.spans)
        for i, pair in enumerate(pairs):
            for traced in ((0, 1) if (i + len(tables)) % 2 == 0 else (1, 0)):
                item = pair[traced]
                if traced:
                    tracer.install(mods)
                    span = tracer.open("question", item[0])
                started = time.perf_counter()
                latency, kind, answer = ask(item, limit_error)
                if traced:
                    tracer.close(span)
                    tracer.uninstall()
                record.add(item[0], started, latency, kind, answer)
                side_s[traced] += latency
                side_ok[traced] += kind == "ok"
        tables.append(tracing.layer_table(tracer.spans[first_span:]))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(tables) > seconds:
            break
    plain_rate, traced_rate = (ok / took for ok, took in zip(side_ok, side_s))
    overhead = (plain_rate / traced_rate - 1) * 100 if traced_rate else 0.0
    metrics = per_layer_metrics(setup_table, tables[0], tables, overhead)
    return record, metrics, tracer, tables


# --- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _pin_hash_seed(seed: int) -> None:
    """Re-execute this process with PYTHONHASHSEED derived from --seed. Set
    iteration order then repeats for a seed, and with it the per-layer
    counts (is_s_repair, for one, stops at the first tuple it tries that
    keeps the candidate consistent)."""
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_hash_seed(args.seed)
    if not (SRC / "causekit" / "__init__.py").is_file():
        print(f"error: causekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    mods = _import_causekit()
    oracle = workloads.Oracle(mods["ck"], importlib.import_module("causekit.oracle"))
    spec = workloads.GENERATORS[args.workload](args.seed, oracle)
    mods = oracle = None  # set-up re-imports causekit; the generator's copy is not the program's
    if len(spec.questions) < MIN_QUESTIONS:
        raise ValueError(f"{args.workload}: {len(spec.questions)} questions, fewer than {MIN_QUESTIONS}")
    out_dir = ROOT / ".perfbench-out"
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, text in spec.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        setup_times, speed = [], hostspeed.Speed()
        if args.trace:
            mods = _import_causekit()
        else:
            for _ in range(SETUP_BEFORE):
                mods = parsed = None
                mods, parsed, took = timed_setup(spec, speed)
                setup_times.append(took)
        limit_error = mods["ck"].ResourceLimitError

        def items_for(parsed, api):
            return bind(spec, parsed, mods, api, workdir)

        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "cap_s": CAP_S, "questions_per_pass": len(spec.questions)}
        if args.trace:
            record, metrics, tracer, tables = run_traced(spec, items_for, mods, args.seconds, limit_error)
            origin = tracer.spans[0].start
            details |= {"layers_first_pass": tables[0], "traced_passes": len(tables),
                        "spans": [s.as_list(origin) for s in tracer.spans]}
        else:
            record = run_closed_loop(items_for(parsed, make_api(mods, None)), args.seconds, limit_error, speed)
            mods = parsed = None
            setup_times += [timed_setup(spec, speed)[2] for _ in range(SETUP_AFTER)]
            metrics = end_to_end_metrics(record, speed, statistics.median(setup_times))
            details |= {"setup_times_s": setup_times,
                        "probes": [[round(at - speed.at[0], 6), took] for at, took in zip(speed.at, speed.took)]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    details |= {"digest": record.digest, "answers": record.answers,
                "attempted": record.attempted, "kinds": record.kinds,
                "max_latency_s": max(record.latencies), "failures": record.failures,
                "attempts": [[q, round(t, 6)] for q, t in zip(record.qids, record.latencies)]}
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={record.attempted} "
          f"kinds={record.kinds} max_latency_s={max(record.latencies):.3f} "
          f"digest={record.digest} details={out_file.relative_to(ROOT)}")
    result = {
        "correct": record.kinds["wrong"] == 0 and record.kinds["error"] == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
