"""Seeded workload generators and their independently computed expected answers.

Every instance is a disjoint union of small blocks (at most 12 tuples, each
over its own constants) plus, where the workload wants size, a bulk of
tuples that take part in no support set. Expected answers come from
`causekit.oracle` applied to one block at a time and are composed across
blocks by additivity, which holds because every query disjunct and every
denial constraint used here is connected:

- causes of the union are the union of the blocks' causes;
- the smallest minimal hitting set through t is t's own block optimum plus
  the minimum cover of every other block, and a block's minimum cover is
  1 / (its largest responsibility);
- minimal hitting sets (repair removal sets, diagnoses) of the union are
  the products of the blocks' minimal hitting sets.

Nothing here calls a production function to compute an expected answer: the
oracle only receives plain `Instance`/`UCQ`/`DenialConstraint` values built
from the generator's own fact tuples.

A spec is plain data (texts plus questions) so the runner can time the
parsing of every text separately from generating it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# A fact is (relation, args); a query is a list of disjuncts, each a list of
# (relation, terms) atoms where upper-case terms are variables.
CHAIN_Q1 = [[("s", ("X",)), ("r", ("X", "Y")), ("s", ("Y",))]]
CHAIN_Q2 = CHAIN_Q1 + [[("s", ("X",)), ("r", ("X", "Y")), ("r", ("Y", "X"))]]
MATCH_Q = [[("a", ("X",)), ("b", ("X",))]]
GRAPH_Q = [[("ver", ("V1",)), ("ver", ("V2",)), ("edges", ("V1", "V2", "E"))]]
PQR_DCS = [[("p", ("X",)), ("q", ("X", "Y"))], [("p", ("X",)), ("r", ("X", "Y"))]]
PQ_DC = PQR_DCS[:1]


@dataclass
class Question:
    qid: str
    op: str  # causes | rpd | cqa | resp | mrc | rsal | cli
    args: tuple
    expected: str  # given as the canonical answer, kept as its digest

    def __post_init__(self):
        self.expected = answer_digest(self.expected)


@dataclass
class Spec:
    instances: dict[str, str] = field(default_factory=dict)
    programs: dict[str, str] = field(default_factory=dict)
    facts: dict[str, str] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)  # written once for CLI requests
    questions: list[Question] = field(default_factory=list)

    def fact(self, f) -> str:
        """Register a fact text for parsing and return its name."""
        name = fact_text(f)
        self.facts[name] = name
        return name


# --- text rendering (constants are always plain words) ------------------------


def fact_text(f) -> str:
    return f"{f[0]}({','.join(f[1])})"


def instance_text(endo, exo=()) -> str:
    lines = ["[endogenous]"] + [fact_text(f) + "." for f in sorted(endo)]
    if exo:
        lines += ["[exogenous]"] + [fact_text(f) + "." for f in sorted(exo)]
    return "\n".join(lines) + "\n"


def program_text(query, head: str = "q") -> str:
    """Rules with the given head, or denial constraints when head is empty."""
    prefix = f"{head} " if head else ""
    return "".join(f"{prefix}:- {', '.join(fact_text(a) for a in d)}.\n" for d in query)


def set_text(facts) -> str:
    """Canonical answer for a set of tuples: sorted rendered facts."""
    return "\n".join(sorted(fact_text(f) for f in facts))


def bool_text(value: bool) -> str:
    return "true" if value else "false"


def answer_digest(answer: str) -> str:
    return hashlib.sha256(answer.encode()).hexdigest()


# --- oracle adapters -----------------------------------------------------------


class Oracle:
    """`causekit.oracle` on plain fact tuples; results come back as facts."""

    def __init__(self, ck, oracle_module):
        self.ck = ck
        self.oracle = oracle_module

    def instance(self, endo, exo=()):
        g = self.ck.GroundTuple
        return self.ck.Instance(
            frozenset(g(r, a) for r, a in endo), frozenset(g(r, a) for r, a in exo)
        )

    def ucq(self, query):
        ck = self.ck
        term = lambda t: ck.Variable(t) if t[0].isupper() else ck.Constant(t)  # noqa: E731
        return ck.UCQ(tuple(
            ck.Disjunct(tuple(ck.QueryAtom(rel, tuple(term(t) for t in terms)) for rel, terms in d))
            for d in query
        ))

    def dcs(self, query):
        return [self.ck.DenialConstraint(d.atoms) for d in self.ucq(query).disjuncts]

    def causes(self, block, query) -> set:
        endo, exo = block
        found = self.oracle.causes(self.instance(endo, exo), self.ucq(query))
        return {(t.relation, t.args) for t in found}

    def responsibilities(self, block, query) -> dict:
        endo, exo = block
        inst, q = self.instance(endo, exo), self.ucq(query)
        g = self.ck.GroundTuple
        return {f: self.oracle.responsibility(inst, q, g(*f)) for f in endo}

    def repairs(self, facts, dcs, semantics: str) -> list[frozenset]:
        """Kept sets of the block's repairs."""
        kept = self.oracle.repairs(self.instance(facts), self.dcs(dcs), semantics)
        return [frozenset((t.relation, t.args) for t in k) for k in kept]

    def contingencies(self, facts, query, f) -> list[frozenset]:
        found = self.oracle.contingencies(
            self.instance(facts), self.ucq(query), self.ck.GroundTuple(*f)
        )
        return [frozenset((t.relation, t.args) for t in s) for s in found]

    def min_hs_through(self, vertices, edges, v) -> int:
        return self.oracle.min_hs(vertices, [frozenset(e) for e in edges], forced=v, essential=True)


# --- chain-join ----------------------------------------------------------------

# Each instance has a block with two s-tuples and one with a single s-tuple.
# The seed's join scans every r tuple for every pair of s-tuples, so |s| is
# held at 3 and the bulk of r tuples sets the instance size: 13 instances
# from 1 000 to 3 000 tuples.
CHAIN_SIZES = tuple(1000 + 2000 * i // 12 for i in range(13))
BLOCK_S_COUNTS = (2, 1)
EXO_SHARE = 0.2


def _chain_block(rng: random.Random, tag: str, m: int):
    """m s-constants with up to two r edges among them, a two-cycle through
    a constant without s (a support of the second disjunct only) and a
    dangling edge that is never a cause."""
    xs = [f"{tag}x{i}" for i in range(m)]
    z, w = f"{tag}z", f"{tag}w"
    r_facts = set(rng.sample([("r", (a, b)) for a in xs for b in xs], min(2, m * m)))
    a = rng.choice(xs)
    r_facts |= {("r", (a, z)), ("r", (z, a)), ("r", (rng.choice(xs), w))}
    exo = {f for f in sorted(r_facts) if rng.random() < 0.25}
    endo = {("s", (x,)) for x in xs} | (r_facts - exo)
    return endo, exo


def chain_join(seed: int, oracle: Oracle) -> Spec:
    rng = random.Random(seed)
    spec = Spec()
    queries = {"Q1": CHAIN_Q1, "Q2": CHAIN_Q2}
    for name, query in queries.items():
        spec.programs[name] = program_text(query)
        spec.programs[f"D{name[1]}"] = program_text(query, head="")
    per_instance = []
    for i, size in enumerate(CHAIN_SIZES):
        blocks = [_chain_block(rng, f"c{i}b{j}", m) for j, m in enumerate(BLOCK_S_COUNTS)]
        endo = set().union(*(b[0] for b in blocks))
        exo = set().union(*(b[1] for b in blocks))
        bulk = [("r", (f"c{i}u{k}", f"c{i}v{k}")) for k in range(size - len(endo) - len(exo))]
        n_exo = round(EXO_SHARE * size) - len(exo)
        exo |= set(bulk[:n_exo])
        endo |= set(bulk[n_exo:])
        iname = f"I{i}"
        spec.instances[iname] = instance_text(endo, exo)
        everything = endo | exo
        qs = []
        cqa_true = rng.random() < 0.5
        for qname, query in queries.items():
            causes = set().union(*(oracle.causes(b, query) for b in blocks))
            view = set().union(*(oracle.causes((b[0] | b[1], ()), query) for b in blocks))
            non_causes = sorted(endo - causes)
            qs.append(Question(f"{iname}.{qname}.causes", "causes", (iname, qname), set_text(causes)))
            t = rng.choice(sorted(causes))
            qs.append(Question(f"{iname}.{qname}.rpd0+", "rpd", (iname, qname, spec.fact(t), 0), "true"))
            t = rng.choice(non_causes)
            qs.append(Question(f"{iname}.{qname}.rpd0-", "rpd", (iname, qname, spec.fact(t), 0), "false"))
            atoms = rng.sample(sorted(everything - view), 2)
            if not cqa_true:
                atoms[1] = rng.choice(sorted(view))
            cqa_true = not cqa_true
            expected = all(a in everything and a not in view for a in atoms)
            qs.append(Question(
                f"{iname}.{qname}.cqa", "cqa",
                (iname, f"D{qname[1]}", tuple(spec.fact(a) for a in atoms)), bool_text(expected),
            ))
        per_instance.append(qs)
    spec.questions = _round_robin(per_instance)
    return spec


# --- cover-decide --------------------------------------------------------------

MATCH_KS = tuple(range(8, 17))
MATCH_MRC_MAX_K = 14  # most_responsible on M_16 costs ~0.5 s on the seed; keep tails in check
GADGET_COUNTS = (2, 2, 3, 3, 4, 4)
GADGET_MRC_MAX = 3
GRAPH_SIZES = (5, 6, 7, 8, 9, 10)


def _gadget(rng: random.Random, tag: str):
    """A chain gadget: an s-path x0..x3 of three r edges plus one random extra
    edge (self-loop, back edge, or a dangling edge that is never a cause).
    Self-loops and back edges touch x1 or x2, so the minimum cover is
    {s(x1), s(x2)} and a union of g gadgets has minimum cover exactly 2g."""
    xs = [f"{tag}x{i}" for i in range(4)]
    facts = {("s", (x,)) for x in xs} | {("r", (xs[i], xs[i + 1])) for i in range(3)}
    inner = rng.choice(xs[1:3])
    kind = rng.choice(("loop", "back", "dangle"))
    if kind == "loop":
        facts.add(("r", (inner, inner)))
    elif kind == "back":
        facts.add(("r", (inner, rng.choice([x for x in xs if x != inner]))))
    else:
        facts.add(("r", (rng.choice(xs), f"{tag}w")))
    return facts


def _composed_responsibility(tables: list[dict], f) -> Fraction:
    """Responsibility of f in the union of blocks whose per-tuple oracle
    responsibilities are given; every block has at least one support."""
    covers = [1 / max(t.values()) for t in tables]
    for table, cover in zip(tables, covers):
        if f in table:
            rho = table[f]
            if rho == 0:
                return Fraction(0)
            return Fraction(1) / (1 / rho + sum(covers) - cover)
    raise KeyError(f)


def _resp_questions(spec, iname, qname, dname, everything, rho_of, t, mrc_answer):
    """Responsibility-style questions on one cause t with responsibility 1/k;
    most_responsible too when its expected answer is given."""
    k = int(1 / rho_of(t))
    n = len(everything)
    ft = spec.fact(t)
    qs = [
        Question(f"{iname}.resp.{ft}", "resp", (iname, qname, ft), f"1/{k}"),
        Question(f"{iname}.rpd.at", "rpd", (iname, qname, ft, k), "false"),
        Question(f"{iname}.rpd.beyond", "rpd", (iname, qname, ft, k + 1), "true"),
        Question(f"{iname}.rsal.at", "rsal", (iname, dname, ft, n - k), "true"),
        Question(f"{iname}.rsal.beyond", "rsal", (iname, dname, ft, n - k + 1), "false"),
    ]
    if mrc_answer is not None:
        qs.append(Question(f"{iname}.mrc", "mrc", (iname, qname), set_text(mrc_answer)))
    return qs


def cover_decide(seed: int, oracle: Oracle) -> Spec:
    rng = random.Random(seed)
    spec = Spec()
    spec.programs.update(
        QM=program_text(MATCH_Q), DM=program_text(MATCH_Q, head=""),
        QC=program_text(CHAIN_Q1), DC=program_text(CHAIN_Q1, head=""),
        QG=program_text(GRAPH_Q),
    )
    per_instance = []

    # Matching families M_k: every tuple has responsibility 1/k (closed form).
    for k in MATCH_KS:
        iname = f"M{k}"
        facts = {(rel, (str(i),)) for i in range(1, k + 1) for rel in ("a", "b")}
        spec.instances[iname] = instance_text(facts)
        t = (rng.choice("ab"), (str(rng.randint(1, k)),))
        mrc = facts if k <= MATCH_MRC_MAX_K else None
        per_instance.append(_resp_questions(
            spec, iname, "QM", "DM", facts, lambda f, k=k: Fraction(1, k), t, mrc
        ))

    # Unions of all-endogenous chain gadgets, composed per gadget.
    for u, count in enumerate(GADGET_COUNTS):
        iname = f"U{u}"
        gadgets = [_gadget(rng, f"u{u}g{j}") for j in range(count)]
        tables = [oracle.responsibilities((g, ()), CHAIN_Q1) for g in gadgets]
        everything = set().union(*gadgets)
        spec.instances[iname] = instance_text(everything)
        rho = {f: _composed_responsibility(tables, f) for f in everything}
        causes = sorted(f for f in everything if rho[f] > 0)
        top = max(rho.values())
        mrc = {f for f in causes if rho[f] == top} if count <= GADGET_MRC_MAX else None
        qs = _resp_questions(spec, iname, "QC", "DC", everything, rho.__getitem__,
                             rng.choice(causes), mrc)
        non_causes = sorted(everything - set(causes))
        if non_causes:
            ft = spec.fact(rng.choice(non_causes))
            qs.append(Question(f"{iname}.resp.{ft}", "resp", (iname, "QC", ft), "0/1"))
            qs.append(Question(f"{iname}.rpd0-", "rpd", (iname, "QC", ft, 0), "false"))
        per_instance.append(qs)

    # encode_graph instances: expected answer from oracle.min_hs on the graph itself.
    for n in GRAPH_SIZES:
        iname = f"G{n}"
        vertices = [f"v{i}" for i in range(n)]
        pairs = list(itertools.combinations(vertices, 2))
        edges = sorted(rng.sample(pairs, n + n // 2))
        v = rng.choice(sorted({x for e in edges for x in e}))
        spec.instances[iname] = _encoded_graph_text(vertices, edges)
        k = oracle.min_hs_through(vertices, edges, v)
        ft = spec.fact(("ver", (v,)))
        per_instance.append([
            Question(f"{iname}.resp", "resp", (iname, "QG", ft), f"1/{k}"),
            Question(f"{iname}.rpd.at", "rpd", (iname, "QG", ft, k), "false"),
            Question(f"{iname}.rpd.beyond", "rpd", (iname, "QG", ft, k + 1), "true"),
        ])
    spec.questions = _round_robin(per_instance)
    return spec


def _encoded_graph_text(vertices, edges) -> str:
    """The documented `encode_graph` layout: ver(u) facts, and n copies of
    each edge under labels 1..n|E| in canonical edge order."""
    facts = {("ver", (u,)) for u in vertices}
    labels = itertools.count(1)
    for a, b in edges:
        for _ in vertices:
            facts.add(("edges", (a, b, str(next(labels)))))
    return instance_text(facts)


# --- repair-enum ---------------------------------------------------------------

# (violation components g, consistent bulk tuples) per instance: 2^g s-repairs.
REPAIR_SHAPES = ((6, 150), (7, 150), (6, 250), (7, 200)) * 3


def _star_block(rng: random.Random, tag: str):
    """One violation component: p(a) with 1-3 q/r leaves, plus 0-2 consistent
    q tuples pointing back at the block's constants."""
    a = f"{tag}a"
    leaves = [(rng.choice("qr"), (a, f"{tag}l{i}")) for i in range(rng.randint(1, 3))]
    noise = [("q", (f"{tag}l0", a))] if rng.random() < 0.5 else []
    return {("p", (a,))} | set(leaves) | set(noise)


def _product_sets(choices: list[list[frozenset]]) -> list[frozenset]:
    return [frozenset().union(*combo) for combo in itertools.product(*choices)]


def _sorted_sets(sets) -> list[list[str]]:
    """Sets in the CLI's canonical order: by their sorted member tuples."""
    return [[fact_text(f) for f in key] for key in sorted(tuple(sorted(s)) for s in sets)]


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def repair_enum(seed: int, oracle: Oracle) -> Spec:
    rng = random.Random(seed)
    spec = Spec()
    spec.programs["DCS"] = spec.files["dcs.txt"] = program_text(PQR_DCS, head="")
    spec.programs["DC1"] = spec.files["dc1.txt"] = program_text(PQ_DC, head="")
    ucq = PQR_DCS  # the violation view: one disjunct per constraint
    per_instance = []
    for i, (g, bulk_size) in enumerate(REPAIR_SHAPES):
        blocks = [_star_block(rng, f"e{i}b{j}") for j in range(g)]
        bulk = {(rng.choice("qr"), (f"e{i}u{k}", f"e{i}w{k}")) for k in range(bulk_size)}
        everything = set().union(bulk, *blocks)
        iname = f"R{i}"
        ifile = f"{iname}.txt"
        spec.instances[iname] = spec.files[ifile] = instance_text(everything)
        s_kept = [oracle.repairs(b, PQR_DCS, "s") for b in blocks]
        c_kept = [oracle.repairs(b, PQR_DCS, "c") for b in blocks]
        mhs = [[frozenset(b) - k for k in kept] for b, kept in zip(blocks, s_kept)]
        base = ["--instance", ifile, "--query", "dcs.txt", "--json"]
        qs = []
        for sem, kept in (("s", s_kept), ("c", c_kept)):
            removed = _product_sets([[frozenset(b) - k for k in ks] for b, ks in zip(blocks, kept)])
            payload = {"semantics": sem, "repairs": [
                {"kept": [fact_text(f) for f in sorted(everything - set(r))],
                 "removed": [fact_text(f) for f in r]}
                for r in (sorted(s) for s in sorted(removed, key=lambda s: tuple(sorted(s))))
            ]}
            qs.append(Question(f"{iname}.repairs-{sem}", "cli",
                               ("repairs", *base, "--semantics", sem), _dumps(payload)))

        for j in rng.sample(range(g), 2):
            t = rng.choice(sorted(blocks[j]))
            own = oracle.contingencies(blocks[j], ucq, t)
            others = [m for jj, m in enumerate(mhs) if jj != j]
            sets = _product_sets([own] + others) if own else []
            payload = {"tuple": fact_text(t), "contingencies": _sorted_sets(sets)}
            qs.append(Question(f"{iname}.contingency.{fact_text(t)}", "cli",
                               ("contingency", *base, "--tuple", fact_text(t)), _dumps(payload)))

        diag = _product_sets([[frozenset(b) - k for k in oracle.repairs(b, PQ_DC, "s")] for b in blocks])
        qs.append(Question(f"{iname}.diagnose", "cli",
                           ("diagnose", "--instance", ifile, "--query", "dc1.txt", "--json"),
                           _dumps({"minimality": "s", "diagnoses": _sorted_sets(diag)})))

        for verdict in (True, False):
            kept = set(bulk)
            for b, ks in zip(blocks, s_kept):
                kept |= rng.choice(ks)
            if not verdict:
                j = rng.randrange(g)
                flaw = rng.choice(("bulk", "extra"))
                if flaw == "bulk":
                    kept.discard(rng.choice(sorted(bulk)))
                else:  # drop one more tuple of a block than its repair does
                    kept.discard(rng.choice(sorted(kept & blocks[j])))
            expected = bulk <= kept and all((kept & b) in ks for b, ks in zip(blocks, s_kept))
            cname = f"{iname}.cand{int(verdict)}"
            spec.instances[cname] = spec.files[f"{cname}.txt"] = instance_text(kept)
            payload = {"candidate": [fact_text(f) for f in sorted(kept)], "is_s_repair": expected}
            qs.append(Question(f"{cname}.repair-check", "cli",
                               ("repair-check", *base, "--candidate", f"{cname}.txt"), _dumps(payload)))

        causes = set().union(*(oracle.causes((b, ()), ucq) for b in blocks))
        for verdict in (True, False):
            atoms = rng.sample(sorted(bulk), 2)
            if not verdict:
                atoms[1] = rng.choice(sorted(causes))
            expected = all(a in everything and a not in causes for a in atoms)
            aname = f"{iname}.atoms{int(verdict)}"
            spec.instances[aname] = spec.files[f"{aname}.txt"] = instance_text(atoms)
            payload = {"semantics": "s", "atoms": [fact_text(a) for a in sorted(atoms)],
                       "consistent": expected}
            qs.append(Question(f"{aname}.cqa", "cli",
                               ("cqa", *base, "--semantics", "s", "--atoms", f"{aname}.txt"),
                               _dumps(payload)))
        per_instance.append(qs)
    spec.questions = _round_robin(per_instance)
    return spec


def _round_robin(groups: list[list[Question]]) -> list[Question]:
    """Interleave per-instance question lists so that every prefix of a pass
    mixes instances and question kinds."""
    out = []
    for row in itertools.zip_longest(*groups):
        out.extend(q for q in row if q is not None)
    return out


GENERATORS = {"chain-join": chain_join, "cover-decide": cover_decide, "repair-enum": repair_enum}
WORKLOADS = tuple(GENERATORS)
