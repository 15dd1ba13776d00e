"""Boolean conjunctive queries, unions thereof, denial constraints, and their rule syntax.

Rules with a head (`q :- a(X), b(X,Y).`) form one union query, one disjunct
per rule. Headless rules (`:- a(X), b(X,Y).`) are denial constraints. The
two forms are interconvertible: a denial constraint is exactly the negation
of a boolean conjunctive query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ._scan import TokenStream, is_constant_word, is_variable_word, parse_atom, unquote
from .errors import CausekitError, ParseError
from .model import format_constant


@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    symbol: str

    def __str__(self) -> str:
        return format_constant(self.symbol)


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class QueryAtom:
    relation: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Disjunct:
    """A boolean conjunctive query: an implicitly existentially closed conjunction."""

    atoms: tuple[QueryAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise CausekitError("a query disjunct needs at least one atom")

    def variables(self) -> list[Variable]:
        seen: list[Variable] = []
        for atom in self.atoms:
            for term in atom.terms:
                if isinstance(term, Variable) and term not in seen:
                    seen.append(term)
        return seen

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.atoms)


@dataclass(frozen=True)
class UCQ:
    """A union of boolean conjunctive queries."""

    disjuncts: tuple[Disjunct, ...]

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise CausekitError("a union query needs at least one disjunct")

    def width(self) -> int:
        """Maximum atom count over the disjuncts; bounds every support set."""
        return max(len(d.atoms) for d in self.disjuncts)


@dataclass(frozen=True)
class DenialConstraint:
    """A universally closed negated conjunction of atoms."""

    atoms: tuple[QueryAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise CausekitError("a denial constraint needs at least one atom")

    def __str__(self) -> str:
        return f":- {', '.join(str(a) for a in self.atoms)}."


def bcq_to_dc(q: Disjunct) -> DenialConstraint:
    """The denial constraint forbidding exactly this query; involutive with dc_to_bcq."""
    return DenialConstraint(q.atoms)


def dc_to_bcq(dc: DenialConstraint) -> Disjunct:
    """The violation view of a denial constraint: the query witnessing its violation."""
    return Disjunct(dc.atoms)


def dcs_to_ucq(constraints: list[DenialConstraint]) -> UCQ:
    """The union of the violation views of a nonempty constraint list, in order."""
    if not constraints:
        raise CausekitError("cannot build a violation view from an empty constraint list")
    return UCQ(tuple(Disjunct(dc.atoms) for dc in constraints))


def parse_program(text: str) -> UCQ | list[DenialConstraint]:
    """Parse rule text into a union query or a list of denial constraints.

    All headed rules must share one head name; mixing headed and headless
    rules in one program is an error, as is an empty program.
    """
    stream = TokenStream(text)
    bodies: list[tuple[QueryAtom, ...]] = []
    arities: dict[str, int] = {}
    first_head: str | None = None
    saw_headless = False
    while not stream.at_end():
        tok = stream.peek()
        if tok.text == ":-":
            saw_headless = True
        else:
            if tok.kind != "word" or not tok.text[0].isalpha():
                raise stream.error(f"expected a rule head or ':-', found {tok.text!r}")
            stream.advance()
            head = tok.text.lower()
            if first_head is None:
                first_head = head
            elif head != first_head:
                raise stream.error(
                    f"rule head {head!r} differs from earlier head {first_head!r};"
                    " all rules of a union query share one head",
                    tok,
                )
        if first_head is not None and saw_headless:
            raise stream.error("cannot mix headed rules and denial constraints in one program", tok)
        stream.expect(":-", "':-'")
        atoms = [QueryAtom(*parse_atom(stream, arities, _parse_term)[:2])]
        while stream.peek().text == ",":
            stream.advance()
            atoms.append(QueryAtom(*parse_atom(stream, arities, _parse_term)[:2]))
        stream.expect(".", "'.' after rule")
        bodies.append(tuple(atoms))
    if not bodies:
        raise ParseError("empty program", 1, 1)
    if saw_headless:
        return [DenialConstraint(body) for body in bodies]
    return UCQ(tuple(Disjunct(body) for body in bodies))


def _parse_term(stream: TokenStream) -> Term:
    tok = stream.peek()
    if tok.kind == "quoted":
        stream.advance()
        return Constant(unquote(tok.text))
    if tok.kind == "word":
        stream.advance()
        if is_variable_word(tok.text):
            return Variable(tok.text)
        if is_constant_word(tok.text):
            return Constant(tok.text)
    raise stream.error("expected a variable or constant")


def format_program(program: UCQ | list[DenialConstraint]) -> str:
    """Render a query or constraint list back into rule syntax."""
    if isinstance(program, UCQ):
        lines = [f"q :- {', '.join(str(a) for a in d.atoms)}." for d in program.disjuncts]
    else:
        lines = [str(dc) for dc in program]
    return "\n".join(lines) + "\n"
