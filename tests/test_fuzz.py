"""Seeded fuzzing of the exit-code contract.

Every command line ends in exit 0 when its verdicts pass, 1 when one
fails and 2 on a parse or usage error; exit 3 marks an internal error and
an escaping traceback is a defect.  The inputs are mutants of the fixture
files and of corpus.ROUND_DOCUMENT (a diagram with a circle value and a map
whose source has a 2-simplex), alone or joined: character-level edits,
identifier swaps that keep the syntax valid, so that declarations refer to
the wrong things, and face lists put in another order, which breaks the
simplicial identities of a 2-simplex.  A mutant that parses runs through
all nine commands at --max-dim <= 3; one that does not parse runs through
one of them, since every command stops at the same parse error.  A
command whose sset, or whose map's source or target, fails validation
must refuse it as not a simplicial set rather than compute on it.  Byte
mutants put a sequence that is not UTF-8 into a document; every command
refuses them as a parse error at the line and column of the first bad
byte.  The seeds are fixed, so a failure reproduces, and the cases
together take a few seconds.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest

from homfib import cli
from homfib.dsl import DslError, parse
from homfib.sset import validate

from corpus import ROUND_DOCUMENT

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.hfd"))
TEXTS = [path.read_text() for path in FIXTURES] + [ROUND_DOCUMENT]
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
FACE_LIST = re.compile(r"faces \[([^\]]*,[^\]]*)\]")
DECLARED = re.compile(r"\b(sset|map|monoid|diagram)\s+([A-Za-z_][A-Za-z0-9_]*)")
KEYWORDS = {"sset", "map", "monoid", "diagram", "dim", "faces", "elements", "unit",
            "mul", "over", "F", "act"}
# the kind of declaration each command reads; validate reads any
TARGET_KIND = {"homology": "sset", "subdivide": "sset", "check-weakfib": "map",
               "star-lemma": "map", "barycenter": "map", "borel": "monoid",
               "classify": "monoid", "group-completion": "monoid", "validate": None}
ALPHABET = "{}[]();:,.->=# \n0123456789sdimfacesuetxyv_"
CASES = 200


def declared(text: str, kind: str | None) -> list[str]:
    return [name for k, name in DECLARED.findall(text) if kind in (None, k)]


def document(rng: random.Random) -> str:
    """Some of the fixtures joined, skipping any that would declare a name
    twice, so that one document can hold two monoids, a diagram over the
    other one, or maps between spaces of different files."""
    text, names = "", set()
    for fixture in rng.sample(TEXTS, rng.randint(1, len(TEXTS))):
        if not names & set(declared(fixture, None)):
            text += fixture + "\n"
            names |= set(declared(fixture, None))
    return text


def char_mutant(rng: random.Random, text: str) -> str:
    """text with one or two deleted, inserted, replaced or repeated
    characters, or a dimension or degeneracy index changed inside valid
    syntax."""
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text))
        edit = rng.randrange(5)
        numbers = [m.start(1) for m in re.finditer(r"\b(?:s|dim )(\d)", text)]
        if edit == 4 and numbers:
            at = rng.choice(numbers)
            text = text[:at] + rng.choice("0123456789") + text[at + 1:]
        elif edit == 0:
            text = text[:at] + text[at + 1:]
        elif edit == 1:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif edit == 2:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
        else:
            text = text[:at] + text[at:at + rng.randint(1, 12)] + text[at:]
    return text


def identifier_swap(rng: random.Random, text: str) -> str:
    """text with one or two names replaced by other names from it; keywords
    and comments stay."""
    text = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    for _ in range(rng.randint(1, 2)):
        spots = [m for m in IDENT.finditer(text)
                 if m.group() not in KEYWORDS and not re.fullmatch(r"s\d+", m.group())]
        spot = rng.choice(spots)
        other = rng.choice(spots).group()
        text = text[:spot.start()] + other + text[spot.end():]
    return text


def face_shuffle(rng: random.Random, text: str) -> str:
    """text with the entries of one face list of two or more faces put in
    another order; it still parses, but a simplex of dimension 2 or more
    may no longer satisfy the simplicial identities."""
    spots = list(FACE_LIST.finditer(text))
    if not spots:
        return text
    spot = rng.choice(spots)
    entries = [entry.strip() for entry in spot.group(1).split(",")]
    rng.shuffle(entries)
    return text[:spot.start(1)] + ", ".join(entries) + text[spot.end(1):]


def malformed_target(doc, command: str, name: str) -> bool:
    """Whether the command reads an sset that fails validation: its target
    sset, or the source or target of its target map."""
    kind = TARGET_KIND[command]
    if kind == "sset" and name in doc.ssets:
        spaces = [doc.ssets[name]]
    elif kind == "map" and name in doc.maps:
        spaces = [doc.maps[name].source, doc.maps[name].target]
    else:
        return False
    return not all(validate(X).ok for X in spaces)


def command_line(rng: random.Random, command: str, text: str) -> list[str]:
    """command on a name of the kind it reads, with drawn flags."""
    names = declared(text, TARGET_KIND[command]) or IDENT.findall(text) or ["nothing"]
    argv = [command, rng.choice(names), "--max-dim", str(rng.randint(0, 3)),
            "--coefficients", rng.choice(["Z", "Z", "Z", "Z2", "Z3", "Z4"]),
            "--format", rng.choice(["json", "text"])]
    if rng.random() < 0.1:
        argv.append("--deep-ops")
    if command == "group-completion" and rng.random() < 0.5:
        argv += ["--diagram", rng.choice(declared(text, "diagram") or names)]
    return argv


def run_main(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse refuses a malformed command line
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("mutate,seed", [(char_mutant, 6101), (identifier_swap, 6102),
                                         (face_shuffle, 6103)])
def test_fuzzed_documents_keep_the_exit_code_contract(mutate, seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "fuzz.hfd"
    seen, malformed = set(), 0
    # a shuffled document nearly always parses and runs all nine commands,
    # so a quarter of the cases take as long
    for case in range(CASES // 4 if mutate is face_shuffle else CASES):
        text = mutate(rng, document(rng))
        path.write_text(text)
        try:
            doc = parse(text)
            commands = cli.COMMANDS
        except DslError:   # every command stops at the same parse error
            doc, commands = None, [cli.COMMANDS[case % len(cli.COMMANDS)]]
        for command in commands:
            argv = command_line(rng, command, text)
            code, err = run_main(argv[:2] + ["-f", str(path)] + argv[2:])
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err, text)
            seen.add(code)
            if doc is not None and malformed_target(doc, command, argv[1]):
                # refused before any work, whatever the flags would ask for
                code, err = run_main([command, argv[1], "-f", str(path)])
                assert code == 2 and "is not a simplicial set" in err, (argv, code, err, text)
                malformed += 1
    # the mutants reach passing and failing verdicts as well as refusals
    assert seen == {0, 1, 2}
    if mutate is face_shuffle:
        assert malformed


# a stray byte, a truncated sequence, an overlong encoding, a surrogate and
# a code point above U+10FFFF; none decodes from its first byte on
INVALID_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xc0\xaf", b"\xed\xa0\x80",
                b"\xf4\x90\x80\x80"]


def test_invalid_utf8_is_a_parse_error(tmp_path):
    rng = random.Random(6104)
    path = tmp_path / "fuzz.hfd"
    for case in range(CASES // 4):
        text = document(rng)
        at = rng.randrange(len(text) + 1)
        bad = rng.choice(INVALID_UTF8)
        path.write_bytes(text[:at].encode() + bad + text[at:].encode())
        command = cli.COMMANDS[case % len(cli.COMMANDS)]
        argv = command_line(rng, command, text)
        code, err = run_main(argv[:2] + ["-f", str(path)] + argv[2:])
        before = text[:at]
        line, col = before.count("\n") + 1, at - before.rfind("\n")
        assert code == 2, (argv, code, err, at, bad)
        assert err == f"homfib: {path}:{line}:{col}: invalid UTF-8 byte 0x{bad[:1].hex()}\n"
