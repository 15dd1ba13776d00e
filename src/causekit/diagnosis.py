"""Consistency-based diagnosis for an unexpectedly true query.

The system description renders the instance as a first-order theory that
assumes every tuple behaves normally; the observed query answer then makes
the theory inconsistent. Diagnoses are the minimal sets of endogenous
tuples whose switch to abnormal restores consistency. All reasoning is
combinatorial (conflict sets are hit, never theorem-proved); the rendered
theory is an inspection artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .causal import _require_endogenous, hitting_framework
from .hitset import minimal_hitting_sets
from .model import GroundTuple, Instance, canonical_sort, format_constant
from .query import UCQ, Constant, DenialConstraint, Disjunct
from .repair import Repair, check_semantics, repairs
from .support import SupportFamily, endogenous_support


@dataclass(frozen=True)
class DiagnosisProblem:
    """An instance and the observed query; the system description is
    rendered when `sd_text` is first read."""

    instance: Instance
    observation: Disjunct

    @cached_property
    def sd_text(self) -> str:
        return render_theory(self.instance, self.observation)


@dataclass(frozen=True)
class Diagnosis:
    """A set of endogenous tuples flipped to abnormal."""

    delta: frozenset[GroundTuple]


def build(instance: Instance, q: Disjunct) -> DiagnosisProblem:
    """Assemble the diagnosis problem for a single boolean conjunctive query."""
    return DiagnosisProblem(instance, q)


def conflict_sets(problem: DiagnosisProblem) -> SupportFamily:
    """Minimal endogenous tuple-sets whose joint normality (with the
    exogenous tuples) contradicts the constraint under the observation."""
    return endogenous_support(UCQ((problem.observation,)), problem.instance)


def diagnoses(
    problem: DiagnosisProblem,
    t: Optional[GroundTuple] = None,
    minimality: str = "s",
) -> list[Diagnosis]:
    """The minimal diagnoses, optionally restricted to those containing t;
    "c" keeps only the cardinality-minimal ones among those."""
    minimality = check_semantics(minimality)
    instance = problem.instance
    if t is not None:
        _require_endogenous(instance, t)
    hypergraph = hitting_framework(instance, UCQ((problem.observation,)))
    if hypergraph is None:
        return []
    deltas = minimal_hitting_sets(hypergraph, forced=t, least=minimality == "c")
    return [Diagnosis(d) for d in deltas]


def repairs_from_diagnoses(
    instance: Instance,
    constraints: list[DenialConstraint],
    minimality: str = "s",
) -> list[Repair]:
    """Repairs of an all-endogenous instance read off its diagnoses: each
    minimal diagnosis is exactly the removed set of a repair. Both are the
    minimal hitting sets of the same violation hypergraph, so this is
    `repairs(instance, constraints, minimality)`."""
    return repairs(instance, constraints, minimality)


def render_theory(instance: Instance, q: Disjunct) -> str:
    """Render the system description: completion axioms with unique names,
    the constraint guarded by abnormality on endogenous positions, the
    inclusion dependencies, and the normality defaults.

    ASCII connectives, canonical tuple order, one axiom per line.
    """
    arities = instance.arities()
    for atom in q.atoms:
        arities.setdefault(atom.relation, len(atom.terms))
    relations = sorted(arities)
    constants = sorted(
        instance.constants()
        | {t.symbol for a in q.atoms for t in a.terms if isinstance(t, Constant)}
    )
    groups = instance._relations
    by_relation = {rel: canonical_sort(groups.get((rel, arities[rel]), ())) for rel in relations}
    endo_by_relation = {
        rel: [t for t in ts if t in instance.endo] for rel, ts in by_relation.items()
    }

    lines = ["% (a) predicate completion and unique names"]
    for rel in relations:
        lines.append(_completion(rel, arities[rel], by_relation[rel]))
    for rel in relations:
        lines.append(_completion(f"end_{rel}", arities[rel], endo_by_relation[rel]))
    for a, b in combinations(constants, 2):
        lines.append(f"{format_constant(a)} != {format_constant(b)}")

    lines.append("% (b) constraint under normality assumptions")
    lines.append(_guarded_constraint(q))

    lines.append("% (c) inclusion dependencies")
    for rel in relations:
        lines.append(_implication(rel, arities[rel], f"ab_{rel}", rel))
    for rel in relations:
        lines.append(_implication(rel, arities[rel], f"end_{rel}", rel))
    for rel in relations:
        lines.append(_implication(rel, arities[rel], f"ab_{rel}", f"end_{rel}"))

    lines.append("% normality defaults")
    for rel in relations:
        vars_, head = _head(f"ab_{rel}", arities[rel])
        lines.append(f"forall {' '.join(vars_)} ({head} -> false)")
    return "\n".join(lines) + "\n"


def _head(name: str, arity: int) -> tuple[list[str], str]:
    vars_ = [f"x{i + 1}" for i in range(arity)]
    return vars_, f"{name}({','.join(vars_)})"


_AND = " /\\ "
_OR = " \\/ "


def _completion(name: str, arity: int, tuples: list[GroundTuple]) -> str:
    vars_, head = _head(name, arity)
    if not tuples:
        body = "false"
    else:
        pieces = []
        for t in tuples:
            eqs = [f"{v} = {format_constant(a)}" for v, a in zip(vars_, t.args)]
            joined = _AND.join(eqs)
            pieces.append(f"({joined})" if arity > 1 else joined)
        body = _OR.join(pieces)
        if len(pieces) > 1:
            body = f"({body})"
    return f"forall {' '.join(vars_)} ({head} <-> {body})"


def _implication(rel: str, arity: int, lhs: str, rhs: str) -> str:
    vars_, _ = _head(rel, arity)
    args = ",".join(vars_)
    return f"forall {' '.join(vars_)} ({lhs}({args}) -> {rhs}({args}))"


def _guarded_constraint(q: Disjunct) -> str:
    pieces = []
    for atom in q.atoms:
        args = ",".join(str(t) for t in atom.terms)
        rel = atom.relation
        pieces.append(_AND.join((f"{rel}({args})", f"end_{rel}({args})", f"~ab_{rel}({args})")))
    body = _AND.join(pieces)
    names = [v.name for v in q.variables()]
    if names:
        return f"forall {' '.join(names)} ~({body})"
    return f"~({body})"
