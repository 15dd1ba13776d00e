"""Naive reference implementations by exhaustive enumeration.

Everything here applies the definitions literally over bitmask-encoded
subsets and shares no machinery with the production paths: query
evaluation enumerates complete atom-to-fact combinations per disjunct
instead of backtracking, and minimality is established by checking all
candidates. Any disagreement with the clever paths indicts those paths.
Instance sizes are capped; exceeding the cap raises instead of degrading.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Optional

from .errors import CausekitError, ResourceLimitError
from .model import GroundTuple, Instance, canonical_sort
from .query import UCQ, Constant, DenialConstraint, Variable, dcs_to_ucq

DEFAULT_CAP = 14


def _require_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise ResourceLimitError(f"oracle cap exceeded: {count} {what} > {cap}")


def _witness_masks(order: list[GroundTuple], q: UCQ) -> list[int]:
    """Bitmask images of every complete match of a disjunct, by trying all
    combinations of candidate facts per atom."""
    position = {t: i for i, t in enumerate(order)}
    masks: set[int] = set()
    for disjunct in q.disjuncts:
        candidates = []
        for atom in disjunct.atoms:
            candidates.append(
                [t for t in order if t.relation == atom.relation and len(t.args) == len(atom.terms)]
            )
        for combo in product(*candidates):
            binding: dict[Variable, str] = {}
            ok = True
            for atom, fact in zip(disjunct.atoms, combo):
                for term, value in zip(atom.terms, fact.args):
                    if isinstance(term, Constant):
                        if term.symbol != value:
                            ok = False
                    elif binding.setdefault(term, value) != value:
                        ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                mask = 0
                for fact in combo:
                    mask |= 1 << position[fact]
                masks.add(mask)
    return sorted(masks)


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    kept: list[int] = []
    for m in sorted(masks, key=lambda m: (bin(m).count("1"), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _endo_layout(instance: Instance, cap: int):
    endo = canonical_sort(instance.endo)
    _require_cap(len(endo), cap, "endogenous tuples")
    order = endo + canonical_sort(instance.exo)
    return endo, order


def _valid_contingency_masks(instance: Instance, q: UCQ, t: GroundTuple, cap: int) -> list[int]:
    """All removal masks G over the endogenous tuples with t outside G such
    that the query survives removing G but not removing G plus t."""
    if t not in instance.endo:
        raise CausekitError(f"tuple {t} is not an endogenous tuple of the instance")
    endo, order = _endo_layout(instance, cap)
    witnesses = _witness_masks(order, q)
    t_bit = 1 << endo.index(t)
    valid = []
    for g in range(1 << len(endo)):
        if g & t_bit:
            continue
        if any(w & g == 0 for w in witnesses) and not any(
            w & (g | t_bit) == 0 for w in witnesses
        ):
            valid.append(g)
    return valid


def causes(instance: Instance, q: UCQ, cap: int = DEFAULT_CAP) -> frozenset[GroundTuple]:
    """Every endogenous tuple with some witnessing contingency set."""
    endo, _ = _endo_layout(instance, cap)
    return frozenset(t for t in endo if _valid_contingency_masks(instance, q, t, cap))


def responsibility(
    instance: Instance, q: UCQ, t: GroundTuple, cap: int = DEFAULT_CAP
) -> Fraction:
    """1/(1 + size of the smallest contingency set), 0 for non-causes."""
    valid = _valid_contingency_masks(instance, q, t, cap)
    if not valid:
        return Fraction(0)
    best = min(bin(g).count("1") for g in valid)
    return Fraction(1, 1 + best)


def contingencies(
    instance: Instance, q: UCQ, t: GroundTuple, cap: int = DEFAULT_CAP
) -> list[frozenset[GroundTuple]]:
    """All minimal contingency sets for t, by filtering every candidate."""
    endo, _ = _endo_layout(instance, cap)
    valid = _valid_contingency_masks(instance, q, t, cap)
    out = []
    for m in _minimal_masks(valid):
        out.append(frozenset(t for i, t in enumerate(endo) if m & (1 << i)))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def repairs(
    instance: Instance,
    constraints: list[DenialConstraint],
    semantics: str = "s",
    cap: int = DEFAULT_CAP,
) -> list[frozenset[GroundTuple]]:
    """The kept tuple-sets of all subset (or cardinality) repairs, found by
    enumerating every subset of the instance."""
    semantics = semantics.lower()
    if semantics not in ("s", "c"):
        raise CausekitError(f"unknown repair semantics {semantics!r}; use 's' or 'c'")
    order = canonical_sort(instance.tuples)
    _require_cap(len(order), cap, "tuples")
    witnesses = _witness_masks(order, dcs_to_ucq(constraints))
    n = len(order)
    consistent = [
        not any(w & ~kept == 0 for w in witnesses) for kept in range(1 << n)
    ]
    chosen: list[int] = []
    if semantics == "s":
        for kept in range(1 << n):
            if consistent[kept] and all(
                not consistent[kept | (1 << i)] for i in range(n) if not kept & (1 << i)
            ):
                chosen.append(kept)
    else:
        best = max(bin(kept).count("1") for kept in range(1 << n) if consistent[kept])
        chosen = [
            kept
            for kept in range(1 << n)
            if consistent[kept] and bin(kept).count("1") == best
        ]
    out = [
        frozenset(t for i, t in enumerate(order) if kept & (1 << i)) for kept in chosen
    ]
    return sorted(out, key=lambda s: tuple(sorted(s)))


def min_hs(
    vertices: Iterable,
    sets: Iterable[Iterable],
    forced=None,
    essential: bool = False,
    cap: int = DEFAULT_CAP + 2,
) -> Optional[int]:
    """Size of a minimum hitting set (through `forced` when given), by
    trying all vertex subsets in increasing size.

    With `essential`, `forced` must cover some set privately, i.e. the
    answer is the smallest subset-minimal hitting set through `forced`;
    without it, padding an optimal set with `forced` counts.
    """
    verts = sorted(set(vertices))
    _require_cap(len(verts), cap, "vertices")
    family = [frozenset(s) for s in sets]
    if forced is not None and forced not in verts:
        raise CausekitError(f"vertex {forced!r} not among the vertices")
    pool = [v for v in verts if v != forced] if forced is not None else verts
    base = {forced} if forced is not None else set()
    start = len(base)
    for k in range(start, len(verts) + 1):
        for combo in combinations(pool, k - len(base)):
            candidate = base | set(combo)
            if not all(candidate & s for s in family):
                continue
            if essential and forced is not None and not any(
                candidate & s == {forced} for s in family
            ):
                continue
            return k
    return None
