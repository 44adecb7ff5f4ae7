"""Seeded job lists for the two benchmark workloads, with their oracles.

A job is one verdict-producing pipeline: a declaration document (text), a
command and its flags, and what an oracle outside homfib expects of the
stable JSON report.  Every document is generated here from the seed; homfib
only ever receives the text.

The seed decides generator and element names, the order of declarations,
of elements, of products in a monoid table and of the jobs in a pass.  It
does not decide the isomorphism type or size of any input, nor the order
homfib sorts generators into (names are handed out ascending), so every
pass of one workload does the same work and a run's timings compare with a
run on another seed.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Name prefixes never start with "s": "s<digits>" is a degeneracy prefix in
# the declaration format.
_PREFIXES = "abcdefghijklmnopqrtuvwxyz"


def load_oracles():
    """tests/oracles.py, the repository's independent reference computations."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("homfib_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Job:
    """One pipeline run and the report the oracle expects from it."""

    label: str                  # stable description, independent of the seed
    command: str
    text: str                   # the declaration document homfib parses
    flags: dict
    exit_code: int              # 0 when every check passes, 1 otherwise
    checks: dict = field(default_factory=dict)   # check name -> verdict
    rows: list | None = None    # [(space, degree, free_rank, torsion)]
    golden: str | None = None   # exact stable JSON, when a golden exists

    def problem(self, out: str) -> str | None:
        """Why the stable report `out` is wrong, or None when it is right."""
        if self.golden is not None:
            return None if out == self.golden else "differs from its golden file"
        data = json.loads(out)
        verdicts = {c["name"]: c["verdict"] for c in data["checks"]}
        exit_code = 0 if all(verdicts.values()) else 1
        if exit_code != self.exit_code:
            return f"exit code {exit_code}, expected {self.exit_code}"
        for name, verdict in self.checks.items():
            if verdicts.get(name) is not verdict:
                return f"check {name!r} is {verdicts.get(name)}, expected {verdict}"
        if self.rows is not None:
            got = [(h["space"], h["degree"], h["free_rank"], tuple(sorted(h["torsion"])))
                   for h in data["homology"]]
            if got != self.rows:
                return f"homology rows {got}, expected {self.rows}"
        return None


class Names:
    """Fresh identifiers in a seeded order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice(_PREFIXES) + str(self.rng.randrange(100_000))
            if name not in self.used:
                self.used.add(name)
                return name

    def table(self, items) -> dict:
        """Fresh names for items, ascending in the items' order.

        homfib orders generators and elements by name; handing names out
        in ascending order keeps that order, and so the work done, the
        same for every seed.
        """
        items = list(items)
        return dict(zip(items, sorted(self.fresh() for _ in items)))


# ---------------------------------------------------------------------------
# monoids
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> dict:
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


# Two of the six non-group monoids of order three, fixed so that every seed
# builds the same structures.  Element 0 is the unit.
#   zero_z2:    Z/2 = {0, 1} with an adjoined zero 2.
#   left_zeros: 1 and 2 are left zeros, x.y = x.
NON_GROUP = {
    "zero_z2": {(1, 1): 0, (1, 2): 2, (2, 1): 2, (2, 2): 2},
    "left_zeros": {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 2},
}


def non_group_table(name: str) -> dict:
    table = {(a, 0): a for a in range(3)} | {(0, a): a for a in range(3)}
    return table | NON_GROUP[name]


def every_element_bijective(table: dict) -> bool:
    elements = {a for a, _ in table}
    return all(len({table[(a, b)] for b in elements}) == len(elements) for a in elements)


def bar_rows(oracles, space: str, table: dict, unit, up_to: int) -> list:
    """Nontrivial homology rows of the nerve of a monoid, from the bar complex."""
    rows = []
    for k, (rank, torsion) in enumerate(oracles.bar_resolution_homology(table, unit, up_to)):
        if rank or torsion:
            rows.append((space, k, rank, tuple(sorted(torsion))))
    return rows


def monoid_document(rng: random.Random, table: dict, unit) -> tuple[str, str, dict]:
    """A `monoid` declaration of `table` under seeded names and order.

    Returns the text, the monoid's name and the new name of each element.
    """
    names = Names(rng)
    name = names.fresh()
    elements = sorted({a for a, _ in table}, key=repr)
    rename = names.table(elements)
    shown = list(elements)
    rng.shuffle(shown)
    products = [(a, b) for (a, b) in table if unit not in (a, b)]
    rng.shuffle(products)
    lines = [f"monoid {name} {{",
             "  elements " + ", ".join(rename[e] for e in shown) + ";",
             f"  unit {rename[unit]};",
             "  mul {"]
    lines += [f"    {rename[a]}.{rename[b]} = {rename[table[(a, b)]]};"
              for a, b in products]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n", name, rename


def monoid_job(rng, oracles, command: str, label: str, table: dict, N: int) -> Job:
    """A monoid with unit 0; rows come from the bar complex of its table."""
    text, name, rename = monoid_document(rng, table, 0)
    renamed = {(rename[a], rename[b]): rename[c] for (a, b), c in table.items()}
    rows = bar_rows(oracles, f"B{name}", renamed, rename[0], N - 1)
    checks = {}
    exit_code = 0
    if command == "group-completion":
        # For a group every gate passes.  For any other finite monoid some
        # element does not act bijectively on the restriction diagram, so
        # gate 1 fails, and with it the verdict.
        bijective = every_element_bijective(table)
        checks = {"gate: morphism-actions": bijective}
        exit_code = 0 if bijective else 1
    return Job(label, command, text, {"target": name, "max_dim": N}, exit_code, checks, rows)


def fixture_job(command: str, fixture: str, flags: dict, golden: str | None = None,
                **expect) -> Job:
    text = (FIXTURES / fixture).read_text()
    label = f"{command} {flags['target']} N={flags['max_dim']} ({fixture})"
    if golden is not None:
        golden = (FIXTURES / "golden" / golden).read_text().strip()
        return Job(label + " golden", command, text, flags, 0, golden=golden)
    return Job(label, command, text, flags, **expect)


# ---------------------------------------------------------------------------
# simplicial sets, written out as declarations
# ---------------------------------------------------------------------------

@dataclass
class Space:
    """A simplicial set as declared: generators by degree, faces, degeneracies.

    faces[g] lists (word, generator) pairs for d_0 .. d_n; a word is a
    strictly decreasing degeneracy sequence, as in `s1 s0 v`.
    """

    gens: dict[int, list]
    faces: dict

    def text(self, name: str, label: dict) -> str:
        lines = [f"sset {name} {{"]
        for k in sorted(self.gens):
            for g in self.gens[k]:
                faces = ", ".join(_ref_text(w, h, label) for w, h in self.faces.get(g, ()))
                lines.append(f"  {label[g]} : dim {k} faces [{faces}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _ref_text(word, gen, label) -> str:
    return " ".join([f"s{a}" for a in word] + [label[gen]])


def presentation(letters: list[str], relators: list[list[str]]) -> Space:
    """The 2-complex of a group presentation, one vertex and a fan per relator.

    A letter is a loop edge; an inverse letter `a-` is a second loop tied to
    `a` by a triangle through the degenerate edge at the vertex.  Relator r
    of length L is a disc: a hub vertex, L spokes and L triangles.
    """
    gens = {0: ["v"], 1: [], 2: []}
    faces = {}
    inverses = sorted({t[:-1] for rel in relators for t in rel if t.endswith("-")})
    for a in letters:
        gens[1].append(("e", a))
        faces[("e", a)] = [((), "v"), ((), "v")]
    for a in inverses:
        gens[1].append(("einv", a))
        faces[("einv", a)] = [((), "v"), ((), "v")]
        gens[2].append(("inv", a))
        faces[("inv", a)] = [((), ("e", a)), ((0,), "v"), ((), ("einv", a))]
    for r, rel in enumerate(relators):
        hub = ("hub", r)
        gens[0].append(hub)
        for t in range(len(rel)):
            gens[1].append(("spoke", r, t))
            faces[("spoke", r, t)] = [((), "v"), ((), hub)]
        for t, tok in enumerate(rel):
            edge = ("einv", tok[:-1]) if tok.endswith("-") else ("e", tok)
            gens[2].append(("tri", r, t))
            faces[("tri", r, t)] = [((), edge), ((), ("spoke", r, (t + 1) % len(rel))),
                                    ((), ("spoke", r, t))]
    return Space(gens, faces)


def simplex_times(n: int, vertices: int, simplices: list[tuple]) -> tuple[Space, Space, dict]:
    """Delta[n] x F for an ordered simplicial complex F, with the projection.

    F has vertices 0..vertices-1 and the given simplices (vertex tuples,
    closed under faces).  The product is the ordered simplicial complex of
    strictly increasing chains of pairs (i, x) in the product order whose
    F-coordinates span a simplex of F.  Returns (Delta[n] x F, Delta[n],
    projection), the projection mapping a chain to its weakly increasing
    sequence of Delta[n]-vertices in degeneracy normal form.
    """
    in_f = {tuple(sorted(set(s))) for s in simplices} | {(x,) for x in range(vertices)}
    points = [(i, x) for i in range(n + 1) for x in range(vertices)]
    chains = {0: [(p,) for p in points]}
    dim = 0
    while chains[dim]:
        nxt = []
        for ch in chains[dim]:
            i, x = ch[-1]
            for p in points:
                if p[0] >= i and p[1] >= x and p != ch[-1] \
                        and tuple(sorted({q[1] for q in ch} | {p[1]})) in in_f:
                    nxt.append(ch + (p,))
        dim += 1
        chains[dim] = nxt
    del chains[dim]
    total = Space(chains, {ch: [((), ch[:j] + ch[j + 1:]) for j in range(len(ch))]
                           for d in range(1, dim) for ch in chains[d]})
    base = Space({d: list(itertools.combinations(range(n + 1), d + 1)) for d in range(n + 1)},
                 {c: [((), c[:i] + c[i + 1:]) for i in range(len(c))]
                  for d in range(1, n + 1) for c in itertools.combinations(range(n + 1), d + 1)})
    projection = {}
    for d in chains:
        for ch in chains[d]:
            seq = [p[0] for p in ch]
            word = tuple(t for t in range(len(seq) - 1) if seq[t] == seq[t + 1])[::-1]
            projection[ch] = (word, tuple(sorted(set(seq))))
    return total, base, projection


def _labels(rng: random.Random, space: Space, names: Names) -> dict:
    gens = [g for k in sorted(space.gens) for g in space.gens[k]]
    label = names.table(gens)
    for k in space.gens:
        rng.shuffle(space.gens[k])
    return label


def subdivide_job(rng, label: str, space: Space, rows: list[tuple], N: int = 4) -> Job:
    """Both checks pass and Sd X has the homology of X."""
    names = Names(rng)
    name = names.fresh()
    text = space.text(name, _labels(rng, space, names))
    expected = [(f"Sd {name}", k, rank, torsion) for k, rank, torsion in rows]
    return Job(label, "subdivide", text, {"target": name, "max_dim": N}, 0, rows=expected)


def projection_job(rng, command: str, label: str, n: int, fiber: tuple, fiber_rows: list,
                   N: int = 4) -> Job:
    """star-lemma and barycenter on Delta[n] x F -> Delta[n]: every check passes."""
    total, base, projection = simplex_times(n, *fiber)
    names = Names(rng)
    e_name, b_name, p_name = names.fresh(), names.fresh(), names.fresh()
    e_label, b_label = _labels(rng, total, names), _labels(rng, base, names)
    maps = [f"  {e_label[g]} -> {_ref_text(*projection[g], b_label)};"
            for k in sorted(total.gens) for g in total.gens[k]]
    text = (total.text(e_name, e_label) + base.text(b_name, b_label)
            + f"map {p_name} : {e_name} -> {b_name} {{\n" + "\n".join(maps) + "\n}\n")
    rows = [] if command == "star-lemma" else \
        [("barycenter preimage", k, rank, torsion) for k, rank, torsion in fiber_rows]
    return Job(label, command, text, {"target": p_name, "max_dim": N}, 0, rows=rows)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------
#
# A pass's jobs, sorted by cost, form three groups: cheap jobs, a middle
# group of similar jobs around the median and a top group of one job type
# around the 90th percentile.  The percentiles are taken over a pass's
# jobs, so the nearest-rank p50 lands inside the middle group and p90
# inside the top group, never on the gap between two groups.  Jobs of
# several seconds leave too few passes in a run for steady figures and are
# left out.

CIRCLE = ((3, [(0, 1), (0, 2), (1, 2)]), [(0, 1, ()), (1, 1, ())])


def group_completion(rng, oracles) -> list[Job]:
    """Four-gate group-completion checks: the fibration layer dominates.

    Three small subdivision jobs ride along, so that the subdivision layer
    is measured too.
    """
    m2 = {("u", "u"): "u", ("u", "e"): "e", ("e", "u"): "e", ("e", "e"): "e"}

    def m2_flat(N: int) -> Job:
        return fixture_job("group-completion", "idem.hfd",
                           {"target": "M2", "diagram": "flat", "max_dim": N}, exit_code=0,
                           checks={f"gate: {g}": True for g in (
                               "morphism-actions", "levelwise-projections",
                               "d0-fiber-maps", "realized-fibration")},
                           rows=bar_rows(oracles, "BM2", m2, "u", N - 1))

    gc = "group-completion"
    # cheap: the smallest group, the non-group monoids (exit 1), subdivision
    jobs = [monoid_job(rng, oracles, gc, "Z/2 N=2", cyclic_table(2), 2)]
    jobs += [monoid_job(rng, oracles, gc, f"{name} N=2", non_group_table(name), 2)
             for name in NON_GROUP]
    jobs.append(subdivide_job(rng, "torus",
                              presentation(["a", "b"], [["a", "b", "a-", "b-"]]),
                              [(0, 1, ()), (1, 2, ()), (2, 1, ())]))
    jobs += [projection_job(rng, command, "Delta[1] x circle", 1, *CIRCLE)
             for command in ("star-lemma", "barycenter")]
    # middle: about half a second each
    jobs += [monoid_job(rng, oracles, gc, "Z/2 N=3", cyclic_table(2), 3) for _ in range(5)]
    jobs += [m2_flat(3) for _ in range(4)]
    # top: the largest group, a little above the middle jobs
    jobs += [monoid_job(rng, oracles, gc, "Z/4 N=2", cyclic_table(4), 2) for _ in range(3)]
    return jobs


def classify(rng, oracles) -> list[Job]:
    """Classifying spaces: large products under thick_realize, no pullbacks."""
    cl = "classify"
    jobs = [
        fixture_job(cl, "z2.hfd", {"target": "Z2", "max_dim": 3}, golden="classify_Z2.json"),
        monoid_job(rng, oracles, cl, "Z/2 N=4", cyclic_table(2), 4),
    ]
    # middle: a quarter of a second or so
    jobs += [monoid_job(rng, oracles, cl, "Z/2 N=5", cyclic_table(2), 5),
             monoid_job(rng, oracles, cl, "Z/3 N=4", cyclic_table(3), 4)]
    jobs += [monoid_job(rng, oracles, cl, f"{name} N=4", non_group_table(name), 4)
             for name in NON_GROUP for _ in range(2)]
    # top: the largest products
    jobs += [monoid_job(rng, oracles, cl, "Z/2 N=6", cyclic_table(2), 6) for _ in range(2)]
    return jobs


WORKLOADS = {
    "group-completion": group_completion,
    "classify": classify,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, load_oracles())
    rng.shuffle(jobs)
    return jobs
