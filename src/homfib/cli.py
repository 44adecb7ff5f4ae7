"""Command surface and machine-readable reports.

Every command produces a Report whose JSON rendering is the contract:

    {command, params, valid_up_to, checks: [{name, verdict, witnesses}],
     homology: [{space, degree, free_rank, torsion}], timing_ms}

Reports are deterministic given a document and flags; timing_ms is the one
field outside the byte-for-byte guarantee and is zeroed under --stable.
--seed is recorded in params and draws nothing.  No environment variable
is read.

Exit codes: 0 when every verdict in the report passed, 1 when some verdict
failed, 2 on parse or usage errors, 3 on an internal error.  Inputs that a
command cannot trust are usage errors naming their first problem: an sset
handed to homology or subdivide, or the source or target of a map handed
to check-weakfib, star-lemma or barycenter, must satisfy the simplicial
identities; that map must be simplicial; a --diagram for group-completion
must be over the target monoid, its values must be simplicial sets with
action maps between them, and it must be lawful.  validate reports such
problems as a failed verdict instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
import time
from dataclasses import dataclass, field

from . import borel as bor
from . import subdivision as sub
from .dsl import Document, DslError, parse
from .fibration import weak_fibration_check
from .homology import homology, is_acyclic, is_homology_iso, is_prime
from .sset import (
    SimplicialMap,
    SimplicialSet,
    is_isomorphism,
    standard_simplex,
    validate,
    validate_map,
)

COMMANDS = ("homology", "check-weakfib", "subdivide", "star-lemma", "barycenter",
            "borel", "classify", "group-completion", "validate")
# commands whose constructions need at least one simplicial level
_LEVELED = ("borel", "classify", "group-completion")


@dataclass
class Report:
    command: str
    params: dict
    valid_up_to: int
    checks: list[dict] = field(default_factory=list)
    homology: list[dict] = field(default_factory=list)
    timing_ms: int = 0

    @property
    def all_pass(self) -> bool:
        return all(c["verdict"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "valid_up_to": self.valid_up_to,
            "checks": self.checks,
            "homology": self.homology,
            "timing_ms": self.timing_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(data["command"], data["params"], data["valid_up_to"],
                   data["checks"], data["homology"], data["timing_ms"])


def emit(report: Report, fmt: str = "json", stable: bool = False) -> str:
    """Render a report; JSON is the machine contract, text is cosmetic."""
    data = report.to_dict()
    if stable:
        data["timing_ms"] = 0
    if fmt == "json":
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    lines = [f"command: {report.command}"]
    for key in sorted(report.params):
        lines.append(f"  {key} = {report.params[key]}")
    lines.append(f"valid up to degree {report.valid_up_to}")
    for c in report.checks:
        mark = "PASS" if c["verdict"] else "FAIL"
        witness = f"  [{'; '.join(c['witnesses'])}]" if c["witnesses"] else ""
        lines.append(f"  {mark} {c['name']}{witness}")
    for h in report.homology:
        torsion = " + ".join(f"Z/{d}" for d in h["torsion"])
        free = " + ".join(["Z"] * h["free_rank"])
        group = " + ".join(x for x in (free, torsion) if x) or "0"
        lines.append(f"  H_{h['degree']}({h['space']}) = {group}")
    if not stable:
        lines.append(f"took {report.timing_ms} ms")
    return "\n".join(lines)


def parse_report(text: str) -> Report:
    return Report.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

class CommandError(ValueError):
    pass


def _coefficients(flag: str) -> int:
    """The ring's characteristic, 0 for Z.  Only the canonical spellings are
    accepted, Z and Zp with p in ASCII digits and no leading zero, so that
    one ring gives one report."""
    match = re.fullmatch(r"Z([1-9][0-9]*)?", flag)
    if match:
        p = int(match[1] or 0)
        if p == 0 or is_prime(p):
            return p
    raise CommandError(f"bad coefficient ring {flag!r} (use Z or Zp, p prime)")


def _homology_rows(space_name: str, X: SimplicialSet, up_to: int,
                   coefficients: int) -> list[dict]:
    """One row per nontrivial group; absent degrees are zero."""
    rows = []
    for k in range(up_to + 1):
        h = homology(X, k, coefficients)
        if h.is_trivial():
            continue
        rows.append({"space": space_name, "degree": k,
                     "free_rank": h.free_rank, "torsion": list(h.torsion)})
    return rows


def _check(name: str, verdict: bool, witnesses=()) -> dict:
    return {"name": name, "verdict": bool(verdict),
            "witnesses": [str(w) for w in witnesses]}


def _need(doc: Document, table: str, name: str):
    pool = getattr(doc, table)
    if name not in pool:
        raise CommandError(f"no {table[:-1]} named {name!r} in the document")
    return pool[name]


def _simplicial_set(doc: Document, name: str) -> SimplicialSet:
    """The declared sset, refused unless its faces satisfy the simplicial identities."""
    X = _need(doc, "ssets", name)
    report = validate(X)
    if not report.ok:
        raise CommandError(f"sset {name!r} is not a simplicial set: {report.problems[0]}")
    return X


def _simplicial_map(doc: Document, name: str) -> SimplicialMap:
    """The declared map, refused unless its source and target are simplicial
    sets and it commutes with every face operator."""
    f = _need(doc, "maps", name)
    for sset_name, X in doc.ssets.items():
        if X is f.source or X is f.target:
            _simplicial_set(doc, sset_name)
    report = validate_map(f)
    if not report.ok:
        raise CommandError(f"map {name!r} is not simplicial: {report.problems[0]}")
    return f


def _lawful_diagram(doc: Document, name: str, monoid: str) -> bor.Diagram:
    """The declared diagram, refused unless it is over the named monoid, its
    values and action maps are well formed, and it satisfies the unit and
    composition laws."""
    diag = _need(doc, "diagrams", name)
    if diag.category is not doc.categories[monoid]:
        over = next(n for n, c in doc.categories.items() if c is diag.category)
        raise CommandError(f"diagram {name!r} is over monoid {over!r}, not {monoid!r}")
    problems = bor.validate_diagram(diag)
    if problems:
        raise CommandError(f"diagram {name!r} is not lawful: {problems[0]}")
    return diag


def _standardize(f: SimplicialMap) -> SimplicialMap:
    """Compose with the unique vertex-order isomorphism onto Delta[n]."""
    B = f.target
    n = B.max_dim
    delta = standard_simplex(n)
    if B == delta:
        return f
    tops = B.gens(n)
    if len(tops) != 1:
        raise CommandError("target is not a standard simplex (no unique top cell)")
    order = [v.gen for v in B.vertices_of(B.ref(tops[0]))]
    if len(set(order)) != n + 1:
        raise CommandError("target is not a standard simplex (repeated vertices)")
    position = {v: t for t, v in enumerate(order)}
    assignment = {}
    for g in B.all_gens():
        vs = [r.gen for r in B.vertices_of(B.ref(g))]
        if len(set(vs)) != len(vs) or any(v not in position for v in vs):
            raise CommandError("target is not a standard simplex")
        assignment[g] = delta.ref(tuple(sorted(position[v] for v in vs)))
    iso = SimplicialMap(B, delta, assignment)
    if not is_isomorphism(iso):
        raise CommandError("target is not isomorphic to a standard simplex")
    return iso.compose(f)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run(command: str, doc: Document, flags: dict) -> Report:
    """Execute one pipeline; deterministic for a fixed document and flags."""
    started = time.monotonic()
    n_bound = int(flags.get("max_dim", 4))
    least = 1 if command in _LEVELED else 0
    if n_bound < least:
        raise CommandError(f"--max-dim must be at least {least} for {command}, not {n_bound}")
    coefficients = _coefficients(flags.get("coefficients", "Z"))
    deep = bool(flags.get("deep_ops", False))
    target = flags.get("target", "")
    params = {"target": target, "max_dim": n_bound,
              "coefficients": flags.get("coefficients", "Z"),
              "deep_ops": deep, "seed": flags.get("seed")}
    checks: list[dict] = []
    rows: list[dict] = []

    if command == "validate":
        valid_up_to = n_bound - 1
        if target in doc.ssets:
            report = validate(doc.ssets[target])
            checks.append(_check(f"sset {target} well-formed", report.ok,
                                 report.problems[:5]))
        elif target in doc.maps:
            report = validate_map(doc.maps[target])
            checks.append(_check(f"map {target} simplicial", report.ok,
                                 report.problems[:5]))
        elif target in doc.diagrams:
            problems = bor.validate_diagram(doc.diagrams[target])
            checks.append(_check(f"diagram {target} lawful", not problems,
                                 problems[:5]))
        elif target in doc.categories:
            problems = bor.validate_category(doc.categories[target])
            checks.append(_check(f"monoid {target} lawful", not problems,
                                 problems[:5]))
        else:
            raise CommandError(f"nothing named {target!r} to validate")

    elif command == "homology":
        X = _simplicial_set(doc, target)
        up_to = min(n_bound, X.max_dim)
        valid_up_to = X.max_dim - 1
        rows = _homology_rows(target, X, up_to, coefficients)

    elif command == "check-weakfib":
        f = _simplicial_map(doc, target)
        up_to = max(0, min(n_bound, f.source.max_dim))
        valid_up_to = up_to
        report = weak_fibration_check(f, up_to, deep_ops=deep)
        checks.append(_check("weak homology fibration", report.verdict,
                             [f"({c.sigma!r}, {c.op}) at degree "
                              f"{[t.degree for t in c.certificates if not t.ok]}"
                              for c in report.failures()[:5]]))

    elif command == "subdivide":
        X = _simplicial_set(doc, target)
        s = sub.sd(X)
        up_to = min(n_bound, X.max_dim)
        valid_up_to = X.max_dim - 1
        ok, certs = is_homology_iso(s.last_vertex, up_to, coefficients)
        checks.append(_check("last-vertex map is a homology isomorphism", ok,
                             [f"degree {c.degree}" for c in certs if not c.ok]))
        checks.append(_check("subdivision validates", validate(s.space).ok))
        rows = _homology_rows(f"Sd {target}", s.space, up_to, coefficients)

    elif command == "star-lemma":
        f = _standardize(_simplicial_map(doc, target))
        sf = sub.sd_over_simplex(f)
        up_to = min(n_bound, f.source.max_dim)
        valid_up_to = f.source.max_dim - 1
        for size in range(1, sf.n + 2):
            for alpha in itertools.combinations(range(sf.n + 1), size):
                try:
                    ret = sub.star_retraction(sf, alpha)
                except ValueError:
                    checks.append(_check(f"alpha={alpha}: ESt empty (skipped)", True))
                    continue
                ri = ret.retraction.compose(ret.inclusion)
                exact_r = all(ri.assignment[g] == ret.fiber.ref(g)
                              for g in ret.fiber.all_gens())
                h0 = ret.homotopy.compose(sub.cylinder_end(ret, 0))
                h1 = ret.homotopy.compose(sub.cylinder_end(ret, 1))
                ir = ret.inclusion.compose(ret.retraction)
                exact_h = (h0.assignment == ir.assignment
                           and all(h1.assignment[g] == ret.est_space.ref(g)
                                   for g in ret.est_space.all_gens()))
                iso, certs = is_homology_iso(ret.inclusion, up_to, coefficients)
                checks.append(_check(f"alpha={alpha}: retraction exact", exact_r))
                checks.append(_check(f"alpha={alpha}: homotopy ends exact", exact_h))
                checks.append(_check(f"alpha={alpha}: fiber inclusion homology iso",
                                     iso,
                                     [f"degree {c.degree}" for c in certs if not c.ok]))

    elif command == "barycenter":
        f = _standardize(_simplicial_map(doc, target))
        E = f.source
        up_to = min(n_bound, E.max_dim)
        valid_up_to = E.max_dim - 1
        weak = weak_fibration_check(f, up_to)
        checks.append(_check("weak homology fibration", weak.verdict,
                             [f"{c.sigma!r},{c.op}" for c in weak.failures()[:5]]))
        sf = sub.sd_over_simplex(f)
        bp = sub.barycenter_preimage(sf)
        same = all(homology(bp, k, coefficients).summary()
                   == homology(E, k, coefficients).summary()
                   for k in range(up_to + 1))
        checks.append(_check("barycenter preimage matches total space homology",
                             same))
        rows = _homology_rows("barycenter preimage", bp, up_to, coefficients)

    elif command == "borel":
        cat = _need(doc, "categories", target)
        diag = bor.restriction_diagram(cat, "1")
        bc = bor.borel_total(cat, diag, n_bound)
        valid_up_to = n_bound - 1
        checks.append(_check("restriction Borel construction is acyclic",
                             is_acyclic(bc.total.space, valid_up_to)))
        rows = _homology_rows(f"E_{target} M_1", bc.total.space, valid_up_to,
                              coefficients)

    elif command == "classify":
        cat = _need(doc, "categories", target)
        r = bor.classifying_space(cat, n_bound)
        valid_up_to = n_bound - 1
        rows = _homology_rows(f"B{target}", r.space, valid_up_to, coefficients)

    elif command == "group-completion":
        cat = _need(doc, "categories", target)
        if flags.get("diagram"):
            diag = _lawful_diagram(doc, flags["diagram"], target)
        else:
            diag = bor.restriction_diagram(cat, "1")
        valid_up_to = n_bound - 1
        report = bor.group_completion_check(cat, diag, n_bound)
        for gate in report.gates:
            checks.append(_check(f"gate: {gate.name}", gate.ok,
                                 [str(w) for w in gate.witnesses[:5]]))
        rows = _homology_rows(f"B{target}", report.construction.base.space,
                              valid_up_to, coefficients)

    else:
        raise CommandError(f"unknown command {command!r}")

    took = int((time.monotonic() - started) * 1000)
    return Report(command, params, valid_up_to, checks, rows, took)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="homfib",
        description="homology fibration pipelines over a declaration file")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("target", help="declared name the command operates on")
    ap.add_argument("-f", "--file", required=True, help="declaration file")
    ap.add_argument("--max-dim", type=int, default=4, dest="max_dim",
                    help="truncation bound (default 4)")
    ap.add_argument("--coefficients", default="Z",
                    help="Z or Zp for a prime p (default Z)")
    ap.add_argument("--format", default="text", choices=("json", "text"))
    ap.add_argument("--deep-ops", action="store_true", dest="deep_ops",
                    help="audit all operator words, not just generators")
    ap.add_argument("--seed", default=None,
                    help="recorded in the report's params; draws nothing")
    ap.add_argument("--stable", action="store_true",
                    help="zero out timing for byte-reproducible output")
    ap.add_argument("--diagram", default=None,
                    help="diagram name for group-completion (default: restriction)")
    args = ap.parse_args(argv)

    flags = {
        "target": args.target,
        "max_dim": args.max_dim,
        "coefficients": args.coefficients,
        "deep_ops": args.deep_ops,
        "seed": args.seed,
        "diagram": args.diagram,
    }
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = parse(fh.read())
        report = run(args.command, doc, flags)
    except OSError:
        print(f"homfib: cannot open {args.file!r}", file=sys.stderr)
        return 2
    except DslError as exc:
        print(f"homfib: {args.file}:{exc}", file=sys.stderr)
        return 2
    except (CommandError, ValueError) as exc:
        print(f"homfib: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a verdict: keep it off exit 1
        message = " ".join(str(exc).split())
        print(f"homfib: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    print(emit(report, args.format, stable=args.stable))
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
