"""Ground tuples, partitioned instances, canonical ordering, and the instance file format.

An instance is a finite set of ground facts split into an endogenous part
(tuples admissible as causes) and an exogenous part (fixed background
tuples). Instances are immutable after construction and safe to share.
Each lists its tuples canonically through one method, `Instance._sorted`, and
caches each view it derives (`tuples`, `_read`, `_relations`, `_columns`) on first read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, groupby, repeat
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from ._scan import BARE, FACT, GAP, NAME, TokenStream, is_constant_word, parse_atom, unquote
from .errors import CausekitError

_PLAIN_CONSTANT = re.compile(rf"{BARE}\Z")
_SPELLING = re.compile(rf"{NAME}\Z")
_PLAIN_ARGS = re.compile(rf"{BARE}(?:,{BARE})*\Z")


def format_constant(symbol: str) -> str:
    """Render a constant, quoting it when it does not match the bare grammar."""
    if _PLAIN_CONSTANT.match(symbol):
        return symbol
    escaped = symbol.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class GroundTuple(NamedTuple):
    """A ground fact, the plain tuple `(relation, args)`: hashing, equality and
    the canonical order of all serialized output (lexicographic by relation
    name, then by arguments left to right) are the tuple's own, run in C."""

    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        # One match for the common case: plain constants, none holding a comma.
        joined = ",".join(self.args)
        if joined.count(",") != len(self.args) - 1 or not _PLAIN_ARGS.match(joined):
            joined = ",".join(map(format_constant, self.args))
        return f"{self.relation}({joined})"

    def __repr__(self) -> str:
        return str(self)


def canonical_sort(tuples: Iterable[GroundTuple]) -> list[GroundTuple]:
    """Sort tuples into the canonical order used by every serialized collection."""
    return sorted(tuples)


@dataclass(frozen=True)
class Instance:
    """A database instance partitioned into endogenous and exogenous tuples.

    `spelling` maps a lower-cased relation name to the spelling first seen in
    the input; it only affects serialization and takes no part in equality.
    """

    endo: frozenset[GroundTuple]
    exo: frozenset[GroundTuple]
    spelling: Mapping[str, str] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "endo", frozenset(self.endo))
        object.__setattr__(self, "exo", frozenset(self.exo))
        overlap = self.endo & self.exo
        if overlap:
            facts = ", ".join(str(t) for t in canonical_sort(overlap))
            raise CausekitError(f"fact in both partitions: {facts}")
        # The distinct (relation, arity) pairs, gathered in C; few to check.
        tuples = (self.endo, self.exo)
        shapes = set(zip(map(itemgetter(0), chain(*tuples)), map(len, map(itemgetter(1), chain(*tuples)))))
        arities: dict[str, int] = {}
        for relation, arity in sorted(shapes):
            if arities.setdefault(relation, arity) != arity:
                raise CausekitError(
                    f"arity conflict for relation '{relation}': {arities[relation]} vs {arity}"
                )

    @cached_property
    def tuples(self) -> frozenset[GroundTuple]:
        return self.endo | self.exo if self.exo else self.endo

    @cached_property
    def _read(self) -> list[GroundTuple]:
        """Every tuple in join order: canonical, unless `_read_facts` stored text order here."""
        return sorted(self.tuples)

    def _sorted(self) -> list[GroundTuple]:
        """Every tuple in canonical order, from `_read`: one pass per sorted run."""
        return sorted(self._read)

    @cached_property
    def _relations(self) -> dict[tuple[str, int], list[GroundTuple]]:
        """The tuples by (relation, arity), in the order of `_read` (fixed once
        read, so threads that group at once agree, as the shared columns need).
        Grouped when first read, by a stable sort on the relation name (each
        has one arity), and shared with the all-endogenous view; outside equality."""
        relation = itemgetter(0)
        groups = [list(group) for _, group in groupby(sorted(self._read, key=relation), relation)]
        return {(g[0].relation, len(g[0].args)): g for g in groups}

    @cached_property
    def _columns(self) -> dict[tuple[str, int, int], tuple]:
        """The join's columns by (relation, arity, position): an extension's
        values at one position, built by `support` the first time that
        position is filtered. Shared with the all-endogenous view; outside
        equality. Every value written is a correct one, so racing readers at
        worst build a column twice."""
        return {}

    def arities(self) -> dict[str, int]:
        return {relation: arity for relation, arity in self._relations}

    def constants(self) -> set[str]:
        return {a for t in self.tuples for a in t.args}

    def all_endogenous(self) -> "Instance":
        """The same facts with every tuple treated as endogenous: this instance
        when none is exogenous, else a view of its cached union sharing its other views."""
        if not self.exo:
            return self
        view = object.__new__(Instance)
        vars(view).update(endo=self.tuples, exo=frozenset(), spelling=self.spelling, _read=self._read,
                          _relations=self._relations, _columns=self._columns)
        return view

    def __len__(self) -> int:
        return len(self.endo) + len(self.exo)


def parse_instance(text: str) -> Instance:
    """Parse instance text: facts `rel(c1,...,ck).` under optional
    `[endogenous]` / `[exogenous]` section headers.

    Facts before any header are endogenous. Duplicates within a section are
    collapsed silently; the same fact in both sections is an error, as is an
    arity conflict for a relation.

    The text is read in one split on `_scan.FACT`, which matches a header or
    a whole fact of plain words with no gaps inside, as `serialize_instance`
    writes them; the facts of each section run are built by maps in C. Any
    other text (a quoted constant or a gap inside a fact, an error, an arity
    conflict, a fact in both sections) is read again token by token, and that
    reader raises the ParseError; on text both accept they agree.
    """
    instance = _read_facts(text)
    return _parse_tokens(text) if instance is None else instance


def _read_facts(text: str) -> Instance | None:
    """The instance, or None where `_parse_tokens` has to read the text."""
    # Past the leading gap, split yields the text before the first item, then
    # per item its header, relation and arguments and the text up to the next
    # item. Each item takes the gap after it, so any text left over is text
    # this reader cannot read.
    pieces = FACT.split(text[GAP.match(text).end():])
    if any(pieces[::4]):
        return None
    sections, rels, args = pieces[1::4], pieces[2::4], pieces[3::4]
    endo: set[GroundTuple] = set()
    exo: set[GroundTuple] = set()
    read: list[GroundTuple] = []  # every run's facts in text order; `_read` drops repeats
    # The facts after each header (or before any, at -1) are one run, read by maps in C.
    heads = [-1, *compress(range(len(sections)), sections)]
    for head, end in zip(heads, [*heads[1:], len(sections)]):
        target = exo if head >= 0 and sections[head] == "exogenous" else endo
        lowered = list(map(str.lower, rels[head + 1:end]))
        # tuple.__new__ skips the NamedTuple's generated __new__, a Python function.
        argss = map(tuple, map(str.split, args[head + 1:end], repeat(",")))
        run = list(map(tuple.__new__, repeat(GroundTuple), zip(lowered, argss)))
        target.update(run)
        read += run
    names = list(filter(None, rels[::-1]))  # last-first, so the first spelling is kept
    spelling = dict(zip(map(str.lower, names), names))
    try:
        instance = Instance(frozenset(endo), frozenset(exo), spelling)
    except CausekitError:  # an arity conflict or a fact in both sections
        return None
    vars(instance)["_read"] = read if len(read) == len(instance) else list(dict.fromkeys(read))
    return instance


def _parse_tokens(text: str) -> Instance:
    """Read instance text token by token; the reader that raises ParseError."""
    stream = TokenStream(text)
    section_endo = True
    endo: set[GroundTuple] = set()
    exo: set[GroundTuple] = set()
    arities: dict[str, int] = {}
    spelling: dict[str, str] = {}
    while not stream.at_end():
        tok = stream.peek()
        if tok.text == "[":
            stream.advance()
            name = stream.peek()
            if name.text not in ("endogenous", "exogenous"):
                raise stream.error("expected section name 'endogenous' or 'exogenous'")
            stream.advance()
            stream.expect("]")
            section_endo = name.text == "endogenous"
            continue
        relation, args, where = parse_atom(stream, arities, _parse_constant)
        spelling.setdefault(relation, where.text)
        fact = GroundTuple(relation, args)
        stream.expect(".", "'.' after fact")
        target, other = (endo, exo) if section_endo else (exo, endo)
        if fact in other:
            raise stream.error(f"fact {fact} appears in both partitions", where)
        target.add(fact)
    return Instance(frozenset(endo), frozenset(exo), spelling)


def parse_fact(text: str) -> GroundTuple:
    """Parse a single fact, as used for tuples on the command line.

    The trailing period is optional.
    """
    stream = TokenStream(text)
    fact = GroundTuple(*parse_atom(stream, {}, _parse_constant)[:2])
    if stream.peek().text == ".":
        stream.advance()
    if not stream.at_end():
        raise stream.error("unexpected input after fact")
    return fact


def _parse_constant(stream: TokenStream) -> str:
    tok = stream.peek()
    if tok.kind == "quoted":
        stream.advance()
        return unquote(tok.text)
    if tok.kind == "word" and is_constant_word(tok.text):
        stream.advance()
        return tok.text
    raise stream.error("expected a constant (lower-case/digit word or quoted string)")


def serialize_instance(instance: Instance) -> str:
    """Render an instance in the file format; parsing the result round-trips.

    Relation names use the spelling first seen in parsing when it parses back.
    CausekitError is raised for a fact the format cannot spell: a relation
    outside `[a-z][a-z0-9_]*`, no arguments, or a newline in a constant.
    """
    lines: list[str] = []
    ordered = instance._sorted()

    def emit(tuples: Iterable[GroundTuple]) -> None:
        for t in tuples:
            relation_ok = _SPELLING.match(t.relation) and t.relation.lower() == t.relation
            if not (relation_ok and t.args) or any("\n" in a for a in t.args):
                raise CausekitError(f"fact {t.relation!r}{t.args!r} has no form in the instance format")
            rel = instance.spelling.get(t.relation, t.relation)
            rel = rel if _SPELLING.match(rel) and rel.lower() == t.relation else t.relation
            lines.append(f"{rel}({','.join(format_constant(a) for a in t.args)}).")

    if instance.exo and instance.endo:
        lines.append("[endogenous]")
    emit(filter(instance.endo.__contains__, ordered))
    if instance.exo:
        lines.append("[exogenous]")
        emit(filter(instance.exo.__contains__, ordered))
    return "\n".join(lines) + ("\n" if lines else "")
