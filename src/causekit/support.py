"""Query evaluation and the families of minimal satisfying tuple-sets.

A support set is a minimal subset of the instance that already satisfies
some disjunct of the query. These families are the combinatorial substrate
for everything else in the package: their endogenous projections are the
hyperedges every cause computation hits against.

Homomorphisms come from a join planned per disjunct and call: atoms are
taken greedily by most bound positions (constants or variables bound
earlier), then smallest extension, then atom index, and variables are
integer slots. Each `Instance` partitions its tuples by (relation, arity)
once, as unsorted lists. A step filters its atom's extension (semijoin)
on each bound position, against the constant or the values the variable
took in the step that bound it, hashes the survivors on their joined
positions, and a depth-first run probes those tables. No table outlives
the call: whole per-instance probe tables would raise peak memory. The
images are cut to their minimal members (`minimal_sets`), each tested against
the strictly shorter kept sets filed under its members; the shortest are never
tested. The join's last step adds its images in a loop, with no call per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from .model import GroundTuple, Instance
from .query import UCQ, Constant, Disjunct, QueryAtom, Variable


@dataclass(frozen=True)
class SupportFamily:
    """An antichain of tuple-sets.

    `vacuous` marks the degenerate case where the query is satisfied by
    exogenous tuples alone: the query is true no matter which endogenous
    tuples are removed, so there are no causes. This is distinct from an
    empty family, which means the query is false.
    """

    sets: tuple[frozenset[GroundTuple], ...]
    vacuous: bool = False

    def __iter__(self) -> Iterator[frozenset[GroundTuple]]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def set_key(s: frozenset) -> tuple:
    """Canonical sort key for a set: the tuple of its sorted members."""
    return tuple(sorted(s))


def minimal_sets(sets) -> list[frozenset]:
    """The subset-minimal members of a collection, deduplicated, shortest first.
    A candidate is tested only against the strictly shorter kept sets filed
    under its members: distinct sets of one size never contain each other, so
    the shortest sets are kept untested."""
    kept: list[frozenset] = []
    filed: dict = {}
    for size, group in groupby(sorted(dict.fromkeys(sets), key=len), key=len):
        fresh = list(group) if not kept else [
            s for s in group if not any(k <= s for v in s for k in filed.get(v, ()))
        ]
        if not size:
            return fresh
        for s in fresh:
            filed.setdefault(next(iter(s)), []).append(s)
        kept += fresh
    return kept


def _images(disjunct: Disjunct, instance: Instance, stop_early: bool) -> set[frozenset]:
    """The homomorphic images of one disjunct; with stop_early, at most one."""
    extensions = instance._relations
    slot_of: dict[Variable, int] = {}
    values: list[set[str]] = []  # per slot: the values it took in the step that bound it
    run: list[tuple] = []  # per step: facts or hash table, probe on the slots, slots bound

    def rank(atom: QueryAtom) -> tuple:
        bound = sum(isinstance(t, Constant) or t in slot_of for t in atom.terms)
        return -bound, len(extensions.get((atom.relation, len(atom.terms)), ()))

    pending = list(disjunct.atoms)
    while pending:
        atom = min(pending, key=rank)  # ties go to the earliest atom
        pending.remove(atom)
        facts = extensions.get((atom.relation, len(atom.terms)), [])
        joins: list[tuple[int, int]] = []
        first: dict[Variable, int] = {}
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                facts = [f for f in facts if f.args[pos] == term.symbol]
            elif term in slot_of:
                allowed = values[slot_of[term]]
                facts = [f for f in facts if f.args[pos] in allowed]
                joins.append((pos, slot_of[term]))
            elif term in first:
                facts = [f for f in facts if f.args[pos] == f.args[first[term]]]
            else:
                first[term] = pos
        if not facts:
            return set()
        binds = []
        for term, pos in first.items():
            slot_of[term] = len(values)
            values.append({f.args[pos] for f in facts})
            binds.append((slot_of[term], pos))
        if not joins:
            run.append((facts, None, binds))
            continue
        key = itemgetter(*(pos for pos, _ in joins))
        table: dict = {}
        for f in facts:
            table.setdefault(key(f.args), []).append(f)
        run.append((table, itemgetter(*(slot for _, slot in joins)), binds))
    images: set[frozenset[GroundTuple]] = set()
    _extend(run, 0, [None] * len(values), [], images, stop_early)
    return images


def _extend(run, depth, slots, used, images, stop_early) -> bool:
    """Add the images that extend `used` by one fact per step from `depth` on
    (with stop_early, at most one); whether any was added."""
    table, probe, binds = run[depth]
    facts = table if probe is None else table.get(probe(slots), ())
    if depth == len(run) - 1:  # the last step binds no slot that is read later
        for fact in facts[:1] if stop_early else facts:
            images.add(frozenset((*used, fact)))
        return bool(facts)
    for fact in facts:
        for slot, pos in binds:
            slots[slot] = fact.args[pos]
        used.append(fact)
        found = _extend(run, depth + 1, slots, used, images, stop_early)
        used.pop()
        if found and stop_early:
            return True
    return False


def evaluate(q: UCQ, instance: Instance) -> bool:
    """True iff some disjunct has a homomorphism into the full instance."""
    return any(_images(d, instance, stop_early=True) for d in q.disjuncts)


def support_family(q: UCQ, instance: Instance) -> SupportFamily:
    """All minimal subsets of the instance satisfying some disjunct: the
    endogenous support of the view where every tuple is endogenous, which
    is never vacuous (no image is empty)."""
    return endogenous_support(q, instance.all_endogenous())


def endogenous_support(q: UCQ, instance: Instance) -> SupportFamily:
    """The minimal endogenous projections of the support sets, read off all
    join images: an image's projection contains its minimal subset's.
    If some support set lies entirely in the exogenous part, the query is
    true independently of the endogenous tuples and the vacuous marker is
    returned: there are no causes in that case.
    """
    images = set().union(*(_images(d, instance, stop_early=False) for d in q.disjuncts))
    projections = {s & instance.endo for s in images} if instance.exo else images
    if frozenset() in projections:
        return SupportFamily((), vacuous=True)
    return SupportFamily(tuple(sorted(minimal_sets(projections), key=set_key)))
