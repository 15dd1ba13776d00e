"""Consistent answers for ground conjunctions via the cause connection.

A ground conjunction holds in every subset repair exactly when none of its
atoms lies in an edge of the violation hypergraph that the repairs hit (is an
actual cause for the violation view); under cardinality repairs, when none is
a most responsible cause: one MRCD search per atom, in the atom's component.
Only projection-free, fully ground queries are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CausekitError
from .hitset import in_minimum_hs
from .model import GroundTuple, Instance
from .query import DenialConstraint
from .repair import _violations, check_semantics


@dataclass(frozen=True)
class GroundConjunction:
    """A conjunction of ground facts; the instantiation of a projection-free query."""

    atoms: tuple[GroundTuple, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise CausekitError("a ground conjunction needs at least one atom")


def consistent_answer(
    instance: Instance,
    constraints: list[DenialConstraint],
    g: GroundConjunction,
    semantics: str = "s",
) -> bool:
    """True iff the conjunction holds in every repair of the chosen semantics.

    The instance is treated as all-endogenous. Atoms absent from the
    instance simply make the answer false.
    """
    semantics = check_semantics(semantics)
    violations = _violations(instance, constraints)
    if semantics == "c":  # excluded when some minimum repair removes it: the MRCD decision
        return all(a in violations.vertices and not in_minimum_hs(violations, a) for a in g.atoms)
    excluded = frozenset().union(*violations.edges)
    return all(a in violations.vertices and a not in excluded for a in g.atoms)
