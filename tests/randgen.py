"""Seeded random instances, queries, and graphs for the property suites."""

import random

from causekit import Disjunct, GroundTuple, Instance, QueryAtom, UCQ, Constant, Variable

RELATIONS = (("p", 1), ("q", 2), ("r", 2))
CONSTANTS = tuple(f"c{i}" for i in range(6))
VARIABLES = tuple(Variable(n) for n in ("X", "Y", "Z", "W"))


def random_instance(
    rng: random.Random, max_endo: int = 12, max_exo: int = 4, constants=CONSTANTS
) -> Instance:
    n_endo = rng.randint(1, max_endo)
    n_exo = rng.randint(0, max_exo)
    pool = set()
    while len(pool) < n_endo + n_exo:
        rel, arity = rng.choice(RELATIONS)
        args = tuple(rng.choice(constants) for _ in range(arity))
        pool.add(GroundTuple(rel, args))
    ordered = sorted(pool)
    rng.shuffle(ordered)
    return Instance(frozenset(ordered[:n_endo]), frozenset(ordered[n_endo:]))


def random_ucq(rng: random.Random, max_disjuncts: int = 3, max_atoms: int = 3) -> UCQ:
    disjuncts = []
    for _ in range(rng.randint(1, max_disjuncts)):
        variables = VARIABLES[: rng.randint(1, 3)]
        atoms = []
        for _ in range(rng.randint(1, max_atoms)):
            rel, arity = rng.choice(RELATIONS)
            terms = tuple(
                Constant(rng.choice(CONSTANTS)) if rng.random() < 0.2 else rng.choice(variables)
                for _ in range(arity)
            )
            atoms.append(QueryAtom(rel, terms))
        disjuncts.append(Disjunct(tuple(atoms)))
    return UCQ(tuple(disjuncts))


def pqr_instance(rng: random.Random, keys: int) -> Instance:
    """An all-endogenous instance in the shape of the constraints
    `:- p(X), q(X,Y).` and `:- p(X), r(X,Y).`: per key one p fact, 1-3 q facts
    and, with probability 1/2, an r fact, so each key is its own violation
    component. 3 000 keys with seed 1 give 10 562 tuples."""
    facts = []
    for k in range(keys):
        x = f"k{k}"
        facts.append(GroundTuple("p", (x,)))
        facts += [GroundTuple("q", (x, f"y{j}")) for j in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            facts.append(GroundTuple("r", (x, "z")))
    return Instance(frozenset(facts), frozenset())


def random_graph(rng: random.Random, max_vertices: int):
    """A simple graph with at least one edge; returns (vertices, edges)."""
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    candidates = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
    rng.shuffle(candidates)
    count = rng.randint(1, max(1, len(candidates) // 2))
    return vertices, sorted(candidates[:count])


def pick_covered_vertex(rng: random.Random, edges):
    """A vertex that occurs in some edge, so covers through it are meaningful."""
    endpoints = sorted({u for e in edges for u in e})
    return rng.choice(endpoints)
