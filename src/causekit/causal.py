"""Causes, contingency sets, responsibilities, and their decision problems.

A tuple is an actual cause for a query answer when some set of endogenous
tuples (its contingency set) can be removed so that removing the tuple
itself then flips the query to false. Responsibility grades causes by their
smallest contingency sets and is computed here without enumerating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import CausekitError
from .hitset import (
    Hypergraph,
    exists_hs_within,
    in_minimum_hs,
    min_hs_size,
    min_hs_size_containing,
    minimal_hitting_sets,
)
from .model import GroundTuple, Instance
from .query import UCQ, Disjunct, QueryAtom, Variable
from .support import endogenous_support


def hitting_framework(instance: Instance, q: UCQ) -> Optional[Hypergraph]:
    """The one hypergraph every view reads: vertices are the endogenous
    tuples, edges the minimal endogenous support sets. Contingencies,
    repairs (over the violation view) and diagnoses are its minimal hitting
    sets. None when the query holds on exogenous tuples alone; no edges
    when the query is false."""
    family = endogenous_support(q, instance)
    if family.vacuous:
        return None
    # The family is canonically sorted, nonempty and inside endo: no re-sort.
    return Hypergraph(instance.endo, family.sets, family._members)


def actual_causes(instance: Instance, q: UCQ) -> frozenset[GroundTuple]:
    """All endogenous tuples occurring in some minimal endogenous support set.

    Empty when the query is false or holds without endogenous help.
    """
    family = endogenous_support(q, instance)
    return frozenset() if family.vacuous else frozenset().union(*family.sets)


def minimal_contingencies(
    instance: Instance,
    q: UCQ,
    t: GroundTuple,
    *,
    max_results: Optional[int] = None,
) -> list[frozenset[GroundTuple]]:
    """All minimal contingency sets for t: remove one, and t becomes
    counterfactual. Derived from the minimal hitting sets containing t.

    May be exponentially large; responsibility never needs it.
    """
    _require_endogenous(instance, t)
    framework = hitting_framework(instance, q)
    if framework is None:
        return []
    # Taking t out of an antichain through t keeps its canonical order.
    return [h - {t} for h in minimal_hitting_sets(framework, forced=t, max_results=max_results)]


def responsibility(instance: Instance, q: UCQ, t: GroundTuple) -> Fraction:
    """1/k where k is the size of the smallest minimal hitting set through
    t; 0 when t is not a cause. Exact rational, never a float."""
    _require_endogenous(instance, t)
    framework = hitting_framework(instance, q)
    k = None if framework is None else min_hs_size_containing(framework, t)
    return Fraction(0) if k is None else Fraction(1, k)


def most_responsible(instance: Instance, q: UCQ) -> frozenset[GroundTuple]:
    """All causes attaining the maximum positive responsibility; empty iff
    there are no causes.

    A cause is most responsible exactly when some minimal hitting set of
    the overall minimum size passes through it.
    """
    return _most_responsible(hitting_framework(instance, q))[0]


def _most_responsible(framework: Optional[Hypergraph]) -> tuple[frozenset, int]:
    """The vertices that some minimum hitting set of the framework contains,
    and its size k: each has responsibility 1/k; k is 0 when there are none."""
    if framework is None:
        return frozenset(), 0
    candidates = {t for e in framework.edges for t in e}
    return frozenset(t for t in candidates if in_minimum_hs(framework, t)), min_hs_size(framework)


def decide_rpd(instance: Instance, q: UCQ, t: GroundTuple, v: Fraction) -> bool:
    """Decide whether t's responsibility strictly exceeds v.

    v must be 0 or 1/k. For v = 1/k the answer is one search, bounded at
    k-1, for a minimal hitting set through t; responsibility itself is
    never computed. Requires the query to be true in the instance.
    """
    _require_endogenous(instance, t)
    v = Fraction(v)
    if v != 0 and v.numerator != 1:
        raise CausekitError(f"threshold must be 0 or 1/k, got {v}")
    framework = hitting_framework(instance, q)
    if framework is not None and not framework.edges:
        raise CausekitError("the query is false in the instance; nothing to explain")
    if framework is None or v == 0:  # a cause is a tuple in some edge
        return framework is not None and any(t in e for e in framework.edges)
    # A tuple in no edge is in no minimal hitting set: the decision says no.
    return exists_hs_within(framework, v.denominator - 1, forced=t)


def decide_mrcd(instance: Instance, q: UCQ, t: GroundTuple) -> bool:
    """Decide whether t is a cause of maximal responsibility."""
    _require_endogenous(instance, t)
    framework = hitting_framework(instance, q)
    return framework is not None and in_minimum_hs(framework, t)


@dataclass(frozen=True)
class CauseReport:
    """Per-tuple verdict: causehood, exact responsibility, and (on request)
    the minimal contingency sets."""

    tuple: GroundTuple
    is_cause: bool
    responsibility: Fraction
    contingencies: Optional[tuple[frozenset[GroundTuple], ...]] = None


def cause_report(
    instance: Instance,
    q: UCQ,
    t: GroundTuple,
    *,
    with_contingencies: bool = False,
    max_results: Optional[int] = None,
) -> CauseReport:
    """With contingencies, they are enumerated once and responsibility is
    1/(1 + the least contingency size), or 0 when there are none."""
    if not with_contingencies:
        rho = responsibility(instance, q, t)
        return CauseReport(t, rho > 0, rho)
    sets = minimal_contingencies(instance, q, t, max_results=max_results)
    rho = Fraction(1, 1 + min(map(len, sets))) if sets else Fraction(0)
    return CauseReport(t, rho > 0, rho, tuple(sets))


def encode_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str]],
    v: str,
) -> tuple[Instance, Disjunct, GroundTuple]:
    """Encode a graph so that the responsibility of one tuple reads off the
    minimum vertex cover through a chosen vertex.

    Vertices become `ver` facts; each undirected edge becomes n copies of an
    `edges` fact under distinct labels 1..n|E| (n = vertex count), assigned
    in canonical edge order. Returns the all-endogenous instance, the query
    asking for two covered endpoints of some edge, and the tuple ver(v);
    the responsibility of ver(v) is 1 / (smallest minimal vertex cover
    through v).
    """
    vs = sorted(set(vertices))
    if v not in vs:
        raise CausekitError(f"vertex {v!r} not in the graph")
    normalized = []
    for a, b in edges:
        if a == b:
            raise CausekitError(f"self-loop at {a!r} is not supported")
        if a not in vs or b not in vs:
            raise CausekitError(f"edge ({a!r},{b!r}) mentions unknown vertices")
        normalized.append((a, b) if a < b else (b, a))
    edge_list = sorted(set(normalized))
    n = len(vs)
    facts = {GroundTuple("ver", (u,)) for u in vs}
    label = 0
    for a, b in edge_list:
        for _ in range(n):
            label += 1
            facts.add(GroundTuple("edges", (a, b, str(label))))
    instance = Instance(frozenset(facts), frozenset())
    x, y, e = Variable("V1"), Variable("V2"), Variable("E")
    disjunct = Disjunct(
        (
            QueryAtom("ver", (x,)),
            QueryAtom("ver", (y,)),
            QueryAtom("edges", (x, y, e)),
        )
    )
    return instance, disjunct, GroundTuple("ver", (v,))


def _require_endogenous(instance: Instance, t: GroundTuple) -> None:
    if t not in instance.endo:
        raise CausekitError(f"tuple {t} is not an endogenous tuple of the instance")
