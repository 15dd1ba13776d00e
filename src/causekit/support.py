"""Query evaluation and the families of minimal satisfying tuple-sets.

A support set is a minimal subset of the instance that already satisfies
some disjunct of the query. These families are the combinatorial substrate
for everything else in the package: their endogenous projections are the
hyperedges every cause computation hits against.

Homomorphisms come from a join planned per disjunct and call: atoms are
taken greedily by most bound positions (constants or variables bound
earlier), then smallest extension, then atom index. Each `Instance`
partitions its tuples by (relation, arity) once (`Instance._relations`), in
text order or canonically, so the join never follows the hash seed. A step
filters its atom's extension (semijoin) on each bound position, against the
constant or the values the variable took in the step that bound it. The
first filter is one `compress` pass over a column (the extension's values
at that position) with the test in C; later ones scan the survivors. A
position's column is built the first time it is filtered, never at parse,
and outlives the call, kept on the instance and shared with its
all-endogenous view, because several questions read one instance; it holds
one reference per fact. The survivors are hashed on their joined positions,
and these probe tables never outlive the call: whole per-instance tables
would raise peak memory. Each step is a generator that extends the rows of
the step before by probing its table, so no step's rows are held and
`evaluate` stops at the first image. The images are cut to their minimal
members (`minimal_sets`), each tested against the strictly shorter kept
sets filed under its members; the shortest are never tested. One sort puts
them in canonical order and gives the hypergraph each one's sorted members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, groupby
from operator import itemgetter
from typing import Iterator, Optional

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
    # Each set's members, sorted, for the hypergraph to number its vertices along.
    _members: Optional[tuple[tuple, ...]] = field(default=None, compare=False, repr=False)

    def __iter__(self) -> Iterator[frozenset[GroundTuple]]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def set_key(s: frozenset) -> tuple:
    """Canonical sort key for a set: the tuple of its sorted members."""
    return tuple(sorted(s))


def _canonical_sets(sets: list[frozenset]) -> tuple[tuple, tuple]:
    """The sets in canonical order and, in that order, each one's `set_key`:
    one sort gives both."""
    keys = list(map(set_key, sets))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple(map(sets.__getitem__, order)), tuple(map(keys.__getitem__, order))


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


def _images(disjunct: Disjunct, instance: Instance) -> Iterator[frozenset[GroundTuple]]:
    """The homomorphic images of one disjunct, streamed: the plan and its
    filters run when the first image is asked for."""
    extensions, columns = instance._relations, instance._columns
    place: dict[Variable, tuple[int, int]] = {}  # per variable: the step and position that bound it
    values: dict[Variable, set[str]] = {}  # per variable: the values it took there
    rows: Iterator[tuple] = iter([()])

    def rank(atom: QueryAtom) -> tuple:
        bound = sum(isinstance(t, Constant) or t in place for t in atom.terms)
        return -bound, len(extensions.get((atom.relation, len(atom.terms)), ()))

    pending = list(disjunct.atoms)
    for step in range(len(pending)):
        atom = min(pending, key=rank)  # ties go to the earliest atom
        pending.remove(atom)
        shape = (atom.relation, len(atom.terms))
        facts = extensions.get(shape, [])
        tests, joins, repeats = [], [], []
        first: dict[Variable, int] = {}
        for pos, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                tests.append((pos, {term.symbol}))
            elif term in place:
                tests.append((pos, values[term]))
                joins.append((pos, place[term]))
            elif term in first:
                repeats.append((pos, first[term]))
            else:
                first[term] = pos
        if tests and facts:
            facts = _semijoin(columns, shape, facts, *tests[0])
        for pos, allowed in tests[1:]:
            facts = [f for f in facts if f.args[pos] in allowed]
        for pos, other in repeats:
            facts = [f for f in facts if f.args[pos] == f.args[other]]
        if not facts:
            return
        for term, pos in first.items():
            place[term] = step, pos
            values[term] = {f.args[pos] for f in facts}
        rows = _extend(rows, facts, joins)
    yield from map(frozenset, rows)


def _semijoin(columns: dict, shape: tuple, facts: list, pos: int, allowed: set) -> list:
    """The facts of a whole extension whose value at `pos` is allowed: one
    `compress` pass over that position's column, built from the extension
    the first time the position is filtered."""
    key = (*shape, pos)
    column = columns.get(key)
    if column is None:
        column = columns[key] = tuple(map(itemgetter(pos), map(itemgetter(1), facts)))
    return list(compress(facts, map(allowed.__contains__, column)))


def _extend(rows: Iterator[tuple], facts: list, joins: list) -> Iterator[tuple]:
    """Each row followed by each of the step's facts that it joins: with
    joins, those a table of the facts hashed on the joined positions holds
    under the values the row's facts have at the places that bound them."""
    if not joins:
        for row in rows:
            for fact in facts:
                yield (*row, fact)
        return
    key = itemgetter(*(pos for pos, _ in joins))
    table: dict = {}
    for f in facts:
        table.setdefault(key(f.args), []).append(f)
    if len(joins) == 1:
        [(_, (step, pos))] = joins
        probe = lambda row: row[step][1][pos]
    else:
        probe = lambda row: tuple([row[step][1][pos] for _, (step, pos) in joins])
    for row in rows:
        for fact in table.get(probe(row), ()):
            yield (*row, fact)


def evaluate(q: UCQ, instance: Instance) -> bool:
    """True iff some disjunct has a homomorphism into the full instance."""
    return any(next(_images(d, instance), None) for d in q.disjuncts)  # no image is empty


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
    images = dict.fromkeys(chain.from_iterable(_images(d, instance) for d in q.disjuncts))
    projections = dict.fromkeys(s & instance.endo for s in images) if instance.exo else images
    if frozenset() in projections:
        return SupportFamily((), vacuous=True)
    sets, members = _canonical_sets(minimal_sets(projections))
    return SupportFamily(sets, _members=members)
