"""Command-line front end: file loading, report formatting, exit codes.

Exit status: 0 on success, 1 on domain errors (parse failures, unknown
tuples, resource limits), 2 on usage errors. JSON output is byte-stable
across runs for identical inputs; every collection is canonically sorted
and responsibilities are rendered as "numerator/denominator" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import causal, cqa, diagnosis, oracle, repair
from .errors import CausekitError, ResourceLimitError
from .model import Instance, canonical_sort, parse_fact, parse_instance, serialize_instance
from .query import (
    UCQ,
    DenialConstraint,
    Disjunct,
    bcq_to_dc,
    dc_to_bcq,
    dcs_to_ucq,
    format_program,
    parse_program,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        lines, payload = args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: resource limit exceeded: {exc}", file=sys.stderr)
        return 1
    except (CausekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            print(payload if isinstance(payload, str) else json.dumps(payload, separators=(",", ":")))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causekit",
        description="Causes, responsibilities, repairs, diagnoses, and consistent answers "
        "for boolean conjunctive queries over relational instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(parent, name, handler, help_=None, *, files=True):
        # Any `help`, even None, gives the command a line in its parent's help.
        p = parent.add_parser(name, **({"help": help_} if help_ else {}))
        if files:
            p.add_argument("--instance", required=True, metavar="FILE")
            p.add_argument("--query", required=True, metavar="FILE")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    cmd(sub, "causes", _cmd_causes, "list the actual causes for the query answer")

    p = cmd(sub, "responsibility", _cmd_responsibility, "responsibility of one tuple")
    p.add_argument("--tuple", required=True, metavar="T")

    p = cmd(sub, "contingency", _cmd_contingency, "minimal contingency sets of one tuple")
    p.add_argument("--tuple", required=True, metavar="T")
    p.add_argument("--limit", type=non_negative_int, metavar="N", help="abort beyond N result sets")

    cmd(sub, "mrc", _cmd_mrc, "most responsible causes")

    p = cmd(sub, "repairs", _cmd_repairs, "repairs with respect to the constraints")
    p.add_argument("--semantics", choices=("s", "c"), default="s")
    p.add_argument("--limit", type=non_negative_int, metavar="N", help="abort beyond N repairs")

    p = cmd(sub, "repair-check", _cmd_repair_check, "check a candidate subset repair")
    p.add_argument("--candidate", required=True, metavar="FILE")

    p = cmd(sub, "repair-size", _cmd_repair_size, "is there a repair of size >= M excluding T?")
    p.add_argument("--tuple", required=True, metavar="T")
    p.add_argument("--min", required=True, type=int, metavar="M", dest="minimum")

    p = cmd(sub, "cqa", _cmd_cqa, "consistent answer for a ground conjunction")
    p.add_argument("--semantics", choices=("s", "c"), default="s")
    p.add_argument("--atoms", required=True, metavar="FILE")

    p = cmd(sub, "diagnose", _cmd_diagnose, "minimal diagnoses for the observed query")
    p.add_argument("--tuple", metavar="T")
    p.add_argument("--minimality", choices=("s", "c"), default="s")

    cmd(sub, "emit-theory", _cmd_emit_theory, "print the diagnosis system description")

    p = cmd(sub, "encode-graph", _cmd_encode_graph, "encode a vertex-cover question as an instance",
            files=False)
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--vertex", required=True, metavar="V")

    o = sub.add_parser("oracle", help="brute-force reference computations")
    osub = o.add_subparsers(dest="mode", required=True)
    cmd(osub, "causes", _cmd_oracle_causes, "actual causes for the query answer")
    p = cmd(osub, "responsibility", _cmd_oracle_responsibility, "responsibility of one tuple")
    p.add_argument("--tuple", required=True, metavar="T")
    p = cmd(osub, "contingencies", _cmd_oracle_contingencies, "minimal contingency sets of one tuple")
    p.add_argument("--tuple", required=True, metavar="T")
    p = cmd(osub, "repairs", _cmd_oracle_repairs, "repairs with respect to the constraints")
    p.add_argument("--semantics", choices=("s", "c"), default="s")
    p = cmd(osub, "min-hs", _cmd_oracle_min_hs, "least size of a minimal hitting set through one tuple")
    p.add_argument("--tuple", required=True, metavar="T")
    for p in osub.choices.values():
        p.add_argument("--cap", type=non_negative_int, default=oracle.DEFAULT_CAP, metavar="N")

    return parser


def non_negative_int(text: str) -> int:
    """A `--limit` or `--cap` value; a negative one is a usage error, not a budget."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# --- input loading -----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise CausekitError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def _as_ucq(program) -> UCQ:
    if isinstance(program, UCQ):
        return program
    return dcs_to_ucq(program)


def _as_dcs(program) -> list[DenialConstraint]:
    if isinstance(program, UCQ):
        return [bcq_to_dc(d) for d in program.disjuncts]
    return program


def _as_single_dc(program) -> DenialConstraint:
    dcs = _as_dcs(program)
    if len(dcs) != 1:
        raise CausekitError(f"expected exactly one constraint, found {len(dcs)}")
    return dcs[0]


def _as_single_bcq(program) -> Disjunct:
    if isinstance(program, UCQ):
        if len(program.disjuncts) != 1:
            raise CausekitError(
                f"expected a single conjunctive query, found {len(program.disjuncts)} disjuncts"
            )
        return program.disjuncts[0]
    return dc_to_bcq(_as_single_dc(program))


def _load_query(args, view=_as_ucq) -> tuple[Instance, object]:
    """The instance, and the query file read through `view` (a UCQ by default)."""
    return parse_instance(_read(args.instance)), view(parse_program(_read(args.query)))


# --- rendering ---------------------------------------------------------------
# One renderer per answer shape, shared by a production handler and its oracle
# twin: (text lines, JSON payload), the lines joined lazily from the payload's.
# The payload is what `json.dumps` prints, except for repairs: their payload is
# the JSON text itself, joined from names encoded once, since each repair lists
# nearly the whole instance.


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _tuple_list(tuples) -> list[str]:
    return [str(t) for t in canonical_sort(tuples)]


def _named_lists(sets) -> list[list[str]]:
    """Each set's member names in canonical order, each distinct tuple named once."""
    name = {t: str(t) for t in set().union(*sets)}
    return [[name[t] for t in canonical_sort(s)] for s in sets]


def _braces(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _render_causes(causes):
    names = _tuple_list(causes)
    return names, {"causes": names}


def _render_responsibility(t, rho):
    return [str(rho)], {"tuple": str(t), "responsibility": _fraction_str(rho)}


def _render_contingencies(t, sets):
    lists = _named_lists(sets)
    return map(_braces, lists), {"tuple": str(t), "contingencies": lists}


def _render_repairs(instance, semantics, removals, as_json):
    """Repairs given by their removed sets, in the given order: the JSON text
    with `as_json`, else lazy text lines (the other one is None). Each repair
    cuts its removed positions out of one canonically ordered list of tuple
    names (sorted from the file's order, `_read`, when the instance kept it),
    or of the same names encoded once as JSON strings (escaped as
    `json.dumps` escapes them); the JSON text is one join of those pieces."""
    ordered = canonical_sort(vars(instance).get("_read") or instance.tuples)
    position = dict(zip(ordered, range(len(ordered))))
    names = list(map(str, ordered))
    cuts = [sorted(map(position.__getitem__, removed)) for removed in removals]
    if not as_json:
        return (f"removed: {_braces([names[i] for i in cut])} kept: {_braces(_cut(names, cut))}"
                for cut in cuts), None
    encoded = list(map(encode_basestring_ascii, names))
    pieces = [f'{{"semantics":{encode_basestring_ascii(semantics)},"repairs":[']
    for cut in cuts:
        kept, removed = ",".join(_cut(encoded, cut)), ",".join(map(encoded.__getitem__, cut))
        pieces += ('{"kept":[', kept, '],"removed":[', removed, "]},")
    if cuts:
        pieces[-1] = "]}"  # no comma after the last repair
    pieces.append("]}")
    return None, "".join(pieces)


def _cut(items: list[str], cut: list[int]) -> list[str]:
    """`items` without the ascending positions in `cut`."""
    kept = items.copy()
    for i in reversed(cut):
        del kept[i]
    return kept


# --- handlers ----------------------------------------------------------------


def _cmd_causes(args):
    return _render_causes(causal.actual_causes(*_load_query(args)))


def _cmd_responsibility(args):
    instance, q = _load_query(args)
    t = parse_fact(args.tuple)
    return _render_responsibility(t, causal.responsibility(instance, q, t))


def _cmd_contingency(args):
    instance, q = _load_query(args)
    t = parse_fact(args.tuple)
    sets = causal.minimal_contingencies(instance, q, t, max_results=args.limit)
    return _render_contingencies(t, sets)


def _cmd_mrc(args):
    instance, q = _load_query(args)
    top, best = causal._most_responsible(causal.hitting_framework(instance, q))
    rho = Fraction(1, best) if best else Fraction(0)
    names = _tuple_list(top)
    return names, {"most_responsible": names, "responsibility": _fraction_str(rho)}


def _cmd_repairs(args):
    instance, dcs = _load_query(args, _as_dcs)
    removals = repair.removal_sets(instance, dcs, args.semantics, max_results=args.limit)
    return _render_repairs(instance, args.semantics, removals, args.json)


def _cmd_repair_check(args):
    instance, dcs = _load_query(args, _as_dcs)
    candidate = parse_instance(_read(args.candidate))
    verdict = repair.is_s_repair(instance, dcs, candidate.tuples)
    names = _tuple_list(vars(candidate).get("_read") or candidate.tuples)
    return [str(verdict).lower()], {"candidate": names, "is_s_repair": verdict}


def _cmd_repair_size(args):
    instance, dc = _load_query(args, _as_single_dc)
    t = parse_fact(args.tuple)
    verdict = repair.repair_size_at_least(instance, dc, t, args.minimum)
    return [str(verdict).lower()], {"tuple": str(t), "min": args.minimum, "satisfied": verdict}


def _cmd_cqa(args):
    instance, dcs = _load_query(args, _as_dcs)
    atoms = canonical_sort(parse_instance(_read(args.atoms)).tuples)
    if not atoms:
        raise CausekitError("the atoms file contains no facts")
    verdict = cqa.consistent_answer(
        instance, dcs, cqa.GroundConjunction(tuple(atoms)), args.semantics
    )
    return [str(verdict).lower()], {
        "semantics": args.semantics,
        "atoms": [str(a) for a in atoms],
        "consistent": verdict,
    }


def _cmd_diagnose(args):
    instance, q = _load_query(args, _as_single_bcq)
    problem = diagnosis.build(instance, q)
    t = parse_fact(args.tuple) if args.tuple else None
    found = diagnosis.diagnoses(problem, t, args.minimality)
    deltas = _named_lists([d.delta for d in found])
    payload = {"minimality": args.minimality, "diagnoses": deltas}
    if t is not None:
        payload = {"tuple": str(t), **payload}
    return map(_braces, deltas), payload


def _cmd_emit_theory(args):
    instance, q = _load_query(args, _as_single_bcq)
    problem = diagnosis.build(instance, q)
    return problem.sd_text.splitlines(), {"theory": problem.sd_text}


def _cmd_encode_graph(args):
    vertices, edges = _parse_graph(_read(args.graph))
    instance, disjunct, t = causal.encode_graph(vertices, edges, args.vertex)
    instance_text = serialize_instance(instance)
    query_text = format_program(UCQ((disjunct,)))
    lines = instance_text.splitlines() + [""] + query_text.splitlines() + ["", str(t)]
    return lines, {"instance": instance_text, "query": query_text, "tuple": str(t)}


def _parse_graph(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """One edge per line as `u v`; a lone label is an isolated vertex. As in
    instance text, only "\n" ends a line and a comment runs from `%` to it."""
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split("%", 1)[0].split()
        if not parts:
            continue
        if len(parts) == 1:
            vertices.append(parts[0])
        elif len(parts) == 2:
            vertices.extend(parts)
            edges.append((parts[0], parts[1]))
        else:
            raise CausekitError(f"graph file line {lineno}: expected 'u v' or a lone vertex")
    return vertices, edges


def _cmd_oracle_causes(args):
    instance, q = _load_query(args)
    return _render_causes(oracle.causes(instance, q, cap=args.cap))


def _cmd_oracle_responsibility(args):
    instance, q = _load_query(args)
    t = parse_fact(args.tuple)
    return _render_responsibility(t, oracle.responsibility(instance, q, t, cap=args.cap))


def _cmd_oracle_contingencies(args):
    instance, q = _load_query(args)
    t = parse_fact(args.tuple)
    return _render_contingencies(t, oracle.contingencies(instance, q, t, cap=args.cap))


def _cmd_oracle_repairs(args):
    instance, dcs = _load_query(args, _as_dcs)
    kept_sets = oracle.repairs(instance, dcs, args.semantics, cap=args.cap)
    removals = [instance.tuples - kept for kept in kept_sets]
    return _render_repairs(instance, args.semantics, removals, args.json)


def _cmd_oracle_min_hs(args):
    instance, q = _load_query(args)
    t = parse_fact(args.tuple)
    framework = causal.hitting_framework(instance, q)
    if framework is None:
        raise CausekitError("the query holds on exogenous tuples alone; no hitting sets")
    size = oracle.min_hs(
        framework.vertices, framework.edges, forced=t, essential=True, cap=args.cap
    )
    return [str(size)], {"tuple": str(t), "min_hs_size": size}


if __name__ == "__main__":
    sys.exit(main())
