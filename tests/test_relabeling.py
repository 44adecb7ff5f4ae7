"""Whole CLI reports are invariant under relabeling of identifiers.

Each pinned command line runs again on its fixture with every identifier
renamed by a seeded bijection onto fresh names.  Keywords, the `s<digits>`
names a face expression reads as degeneracies, the command's target and
its --diagram stay.  A report without witnesses holds only invariants, so
its `--stable` JSON and exit code are unchanged; witnesses name simplices,
so a report with some keeps its exit code, check names and verdicts.
"""

import contextlib
import io
import json
import random
import re
import string

import pytest

from homfib import cli

from test_stable_outputs import FIXTURES, PINNED

LINES = [line for line, _, _ in PINNED if "--max-dim 5" not in line]
KEYWORDS = {"sset", "map", "monoid", "diagram", "dim", "faces", "elements", "unit", "mul",
            "over", "F", "act"}
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEGENERACY = re.compile(r"s\d+")


def relabel(text: str, keep: set[str], seed: int) -> str:
    """The declarations with each renamable identifier sent to a fresh one."""
    text = re.sub(r"#[^\n]*", "", text)
    names = sorted({m.group() for m in IDENT.finditer(text)} - KEYWORDS - keep)
    names = [name for name in names if not DEGENERACY.fullmatch(name)]
    rng, fresh = random.Random(seed), set()
    while len(fresh) < len(names):
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in KEYWORDS | keep and not DEGENERACY.fullmatch(name):
            fresh.add(name)
    mapping = dict(zip(names, rng.sample(sorted(fresh), len(fresh))))
    return IDENT.sub(lambda m: mapping.get(m.group(), m.group()), text)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json", "--stable"])
    return code, out.getvalue()


@pytest.mark.parametrize("line", LINES)
def test_report_is_invariant_under_relabeling(line, tmp_path):
    argv = line.split()
    at = argv.index("-f") + 1
    fixture = FIXTURES / argv[at]
    keep = {argv[1]} | ({argv[argv.index("--diagram") + 1]} if "--diagram" in argv else set())
    code, original = run(argv[:at] + [str(fixture)] + argv[at + 1:])
    checks = json.loads(original)["checks"]
    for seed in range(3):
        path = tmp_path / f"relabeled{seed}.hfd"
        path.write_text(relabel(fixture.read_text(), keep, seed))
        renamed_code, renamed = run(argv[:at] + [str(path)] + argv[at + 1:])
        assert renamed_code == code, seed
        if any(c["witnesses"] for c in checks):
            assert [(c["name"], c["verdict"]) for c in json.loads(renamed)["checks"]] \
                == [(c["name"], c["verdict"]) for c in checks], seed
        else:
            assert renamed == original, seed
