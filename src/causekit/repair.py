"""Repairs with respect to denial constraints, difference sets, and repair decisions.

A subset repair keeps a maximal consistent subset of the instance; a
cardinality repair keeps a maximum one. Both are computed from the minimal
hitting sets of the violation supports rather than by subset search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .causal import _require_endogenous, hitting_framework
from .errors import CausekitError
from .hitset import Hypergraph, exists_hs_within, in_minimum_hs, minimal_hitting_sets
from .model import GroundTuple, Instance
from .query import DenialConstraint, dcs_to_ucq

SEMANTICS = ("s", "c")


@dataclass(frozen=True)
class Repair:
    """A consistent sub-instance: the kept tuples, the removed ones, and the
    minimality semantics they were computed under ("s" or "c")."""

    kept: frozenset[GroundTuple]
    removed: frozenset[GroundTuple]
    semantics: str


def check_semantics(semantics: str) -> str:
    s = semantics.lower()
    if s not in SEMANTICS:
        raise CausekitError(f"unknown repair semantics {semantics!r}; use 's' or 'c'")
    return s


def _violations(instance: Instance, constraints: list[DenialConstraint]) -> Hypergraph:
    """The violation hypergraph of the all-endogenous instance: every tuple
    is a vertex, every minimal violating set an edge. Never vacuous, since
    no tuple is exogenous."""
    return hitting_framework(instance.all_endogenous(), dcs_to_ucq(constraints))


def repairs(
    instance: Instance,
    constraints: list[DenialConstraint],
    semantics: str = "s",
    *,
    max_results: Optional[int] = None,
) -> list[Repair]:
    """All subset repairs (or the cardinality repairs) of the instance.

    The instance is treated as all-endogenous: every tuple is deletable.
    A consistent instance repairs to itself. Removal sets are exactly the
    minimal hitting sets of the violation supports.
    """
    semantics = check_semantics(semantics)
    removals = removal_sets(instance, constraints, semantics, max_results=max_results)
    everything = instance.tuples
    return [Repair(kept=everything - r, removed=r, semantics=semantics) for r in removals]


def removal_sets(
    instance: Instance,
    constraints: list[DenialConstraint],
    semantics: str = "s",
    *,
    max_results: Optional[int] = None,
) -> list[frozenset[GroundTuple]]:
    """The removed sets of `repairs`, in the same order, without the kept sets."""
    semantics = check_semantics(semantics)
    violations = _violations(instance, constraints)
    return minimal_hitting_sets(violations, least=semantics == "c", max_results=max_results)


def difference_sets(
    instance: Instance,
    constraint: DenialConstraint,
    t: GroundTuple,
    semantics: str = "s",
) -> list[frozenset[GroundTuple]]:
    """The removal sets of repairs that drop t using endogenous tuples only.

    Nonempty exactly when t is an actual cause for the constraint's
    violation view (for "s"), resp. a most responsible one (for "c").
    """
    semantics = check_semantics(semantics)
    _require_endogenous(instance, t)
    violations = _violations(instance, [constraint])
    if semantics == "c" and not in_minimum_hs(violations, t):
        return []
    removals = minimal_hitting_sets(violations, forced=t, least=semantics == "c")
    return [r for r in removals if r <= instance.endo]


def is_s_repair(
    instance: Instance,
    constraints: list[DenialConstraint],
    kept: Iterable[GroundTuple],
) -> bool:
    """Polynomial subset-repair check on the violation hypergraph: the
    removed tuples form a minimal hitting set. No edge lies inside the
    candidate, and every removed tuple is the only missing member of some
    edge."""
    candidate = frozenset(kept)
    everything = instance.tuples
    if not candidate <= everything:
        raise CausekitError("candidate repair is not a subset of the instance")
    private = set()
    for edge in _violations(instance, constraints).edges:
        missing = edge - candidate
        if not missing:
            return False
        if len(missing) == 1:
            private |= missing
    return everything - candidate <= private


def repair_size_at_least(
    instance: Instance,
    constraint: DenialConstraint,
    t: GroundTuple,
    m: int,
) -> bool:
    """Decide whether some subset repair of size at least m excludes t.

    Computed without enumerating repairs: t must be an actual cause for the
    violation view and the smallest removal set through t must leave at
    least m tuples.
    """
    if t not in instance.tuples:
        raise CausekitError(f"tuple {t} is not in the instance")
    n = len(instance)
    if m < 0 or m > n:
        raise CausekitError(f"size bound {m} outside [0, {n}]")
    return exists_hs_within(_violations(instance, [constraint]), n - m, forced=t)
