import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import homfib as hf
from homfib import cli
from homfib.cli import CommandError, Report, emit, main, parse_report, run
from homfib.dsl import Document, DslError, parse, tokenize
from homfib.fibration import weak_fibration_check
from homfib.snf import SmithForm

from corpus import CONE_DOCUMENT, MOORE_DOCUMENT
from test_fuzz import TEXTS, char_mutant

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CIRCLE = """
sset circle {
  v : dim 0 faces [];
  e : dim 1 faces [v, v];
}
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_circle():
    doc = parse(CIRCLE)
    X = doc.ssets["circle"]
    assert X.counts() == (1, 1)
    assert hf.validate(X).ok


def test_parse_degenerate_face_expression():
    doc = parse("""
    sset cone {
      v : dim 0 faces [];
      w : dim 0 faces [];
      e : dim 1 faces [w, v];
      t : dim 2 faces [e, e, s0 v];
    }
    """)
    X = doc.ssets["cone"]
    assert X.faces["t"][2].word == (0,)
    assert hf.validate(X).ok


def test_parse_nested_degeneracies():
    doc = parse("""
    sset x {
      v : dim 0 faces [];
      e : dim 1 faces [v, v];
      f : dim 2 faces [e, e, s0 v];
      c : dim 3 faces [f, f, s1 s0 v, s0 e];
    }
    """)
    assert doc.ssets["x"].faces["c"][2].word == (1, 0)


def test_duplicate_sset_name_positioned():
    with pytest.raises(DslError) as err:
        parse(CIRCLE + CIRCLE)
    assert "duplicate sset name" in str(err.value)


def test_unknown_face_gets_suggestion():
    with pytest.raises(DslError) as err:
        parse("""
        sset x {
          vertex : dim 0 faces [];
          e : dim 1 faces [vertex, vortex];
        }
        """)
    assert "vortex" in str(err.value) and "vertex" in str(err.value)


def test_wrong_face_count_rejected():
    with pytest.raises(DslError) as err:
        parse("sset x { v : dim 0 faces []; e : dim 1 faces [v]; }")
    assert "needs 2 faces" in str(err.value)


def test_wrong_dimension_rejected():
    with pytest.raises(DslError):
        parse("""
        sset x {
          v : dim 0 faces [];
          e : dim 1 faces [v, v];
          t : dim 2 faces [e, e, v];
        }
        """)


def test_syntax_error_has_position():
    with pytest.raises(DslError) as err:
        parse("sset x { v : dim 0 faces [] }")  # missing semicolon
    assert err.value.line == 1


def test_parse_map():
    doc = parse(CIRCLE + """
    map fold : circle -> circle { v -> v; e -> s0 v; }
    """)
    f = doc.maps["fold"]
    assert hf.validate_map(f).ok


def test_map_missing_assignment_rejected():
    with pytest.raises(DslError) as err:
        parse(CIRCLE + "map f : circle -> circle { v -> v; }")
    assert "misses images" in str(err.value)


def test_map_dimension_mismatch_rejected():
    with pytest.raises(DslError):
        parse(CIRCLE + "map f : circle -> circle { v -> v; e -> v; }")


@pytest.mark.parametrize("body", [
    "map m : circle -> circle { v -> s3 v; e -> e; }",
    "sset bad { v : dim 0 faces []; e : dim 1 faces [s3 v, v]; }",
])
def test_out_of_range_degeneracy_positioned(body, capsys, tmp_path):
    # a map image and a face list report the same mistake the same way
    with pytest.raises(DslError) as err:
        parse(CIRCLE + body)
    assert "s_3 out of range" in str(err.value)
    assert (err.value.line, err.value.col) == (6, body.index("s3 v") + 4)
    path = tmp_path / "bad.hfd"
    path.write_text(CIRCLE + body)
    assert main(["homology", "circle", "-f", str(path)]) == 2
    assert "bad.hfd:6:" in capsys.readouterr().err


def test_parse_monoid_and_unit_autofill():
    doc = parse("""
    monoid Z2 { elements u, t; unit u; mul { t.t = u; } }
    """)
    table = doc.monoids["Z2"]["table"]
    assert table[("u", "t")] == "t" and table[("t", "u")] == "t"
    assert "Z2" in doc.categories


def test_monoid_bad_table_rejected():
    with pytest.raises(DslError) as err:
        parse("monoid bad { elements u, a, b; unit u; mul { a.a = b; a.b = a; b.a = a; b.b = a; } }")
    assert "associativity" in str(err.value)


def test_parse_diagram():
    doc = parse("""
    monoid M { elements u, e; unit u; mul { e.e = e; } }
    sset pair { x : dim 0 faces []; y : dim 0 faces []; }
    map swap : pair -> pair { x -> y; y -> x; }
    diagram D over M { F(1) = pair; act(1,1): e -> swap; }
    """)
    diag = doc.diagrams["D"]
    from homfib.borel import validate_diagram
    # e.e = e but swap.swap = id: the declared action is NOT lawful
    assert validate_diagram(diag)


def test_parse_lawful_diagram():
    doc = parse("""
    monoid M { elements u, e; unit u; mul { e.e = e; } }
    sset pair { x : dim 0 faces []; y : dim 0 faces []; }
    map collapse : pair -> pair { x -> y; y -> y; }
    diagram D over M { F(1) = pair; act(1,1): e -> collapse; }
    """)
    from homfib.borel import validate_diagram
    assert validate_diagram(doc.diagrams["D"]) == []


def test_diagram_missing_action_rejected():
    with pytest.raises(DslError) as err:
        parse("""
        monoid M { elements u, e; unit u; mul { e.e = e; } }
        sset pt { x : dim 0 faces []; }
        diagram D over M { F(1) = pt; }
        """)
    assert "misses act" in str(err.value)


Z2_CIRCLE = CIRCLE + """
monoid Z2 { elements u, t; unit u; mul { t.t = u; } }
sset pt { x : dim 0 faces []; }
map fold : circle -> circle { v -> v; e -> s0 v; }
map idc : circle -> circle { v -> v; e -> e; }
"""


@pytest.mark.parametrize("target,body,culprit,message", [
    ("m", "map m : circle -> circle { v -> v; e -> e; e -> s0 v; }", "e -> s0 v",
     "duplicate image of 'e'"),
    ("Z3", "monoid Z3 { elements u, t; unit u; mul { t.t = u; t.t = t; } }", "t.t = t",
     "duplicate product t.t"),
    ("D", "diagram D over Z2 { F(1) = pt; F(1) = circle; act(1,1): t -> fold; }",
     "F(1) = circle", "duplicate value F(1)"),
    ("D", "diagram D over Z2 { F(1) = circle; act(1,1): t -> fold; act(1,1): t -> idc; }",
     "act(1,1): t -> idc", "duplicate action act(1,1): t"),
    ("D", "diagram D over Z2 { F(1) = circle; act(1,1): t -> idc; act(1,1): u -> fold; }",
     "u -> fold", "the unit 'u' acts as the identity"),
])
def test_second_declaration_and_unit_action_refused(target, body, culprit, message,
                                                    capsys, tmp_path):
    # the parser kept the last of two entries, or dropped the unit's act,
    # and validate passed the declaration
    text = Z2_CIRCLE + body
    with pytest.raises(DslError) as err:
        parse(text)
    assert message in str(err.value)
    before = text[:text.rindex(culprit)]
    assert (err.value.line, err.value.col) == (before.count("\n") + 1,
                                               len(before) - before.rfind("\n"))
    path = tmp_path / "twice.hfd"
    path.write_text(text)
    assert main(["validate", target, "-f", str(path)]) == 2
    assert "twice.hfd:" in capsys.readouterr().err


def test_comments_and_whitespace_insensitive():
    doc = parse("sset   x{v:dim 0 faces[];# trailing\n e:dim 1 faces[v,v];}")
    assert doc.ssets["x"].counts() == (1, 1)


def test_garbage_rejected_with_position():
    with pytest.raises(DslError):
        parse("what is this")
    with pytest.raises(DslError):
        parse("sset x { v : dim 0 faces []; } !")


MARKS = {"->", "{", "}", "[", "]", "(", ")", ":", ";", ",", ".", "="}
IDENT_CHAR = re.compile(r"[A-Za-z0-9_]")


def starts_a_token(text: str, at: int) -> bool:
    ch = text[at]
    return (ch in " \t\r\n#{}[]():;,.=" or text.startswith("->", at)
            or re.match(r"[A-Za-z_]", ch) is not None or ch.isdecimal())


def assert_tokenized_to_specification(text: str):
    """tokenize against the token rules of the dsl docstring alone."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    try:
        tokens = tokenize(text)
    except DslError as exc:
        # the first character that starts no token: not in a comment, and
        # everything before it made of tokens
        at = line_starts[exc.line - 1] + exc.col - 1
        assert not starts_a_token(text, at), (exc, text)
        assert "#" not in text[line_starts[exc.line - 1]:at], (exc, text)
        assert str(exc) == f"{exc.line}:{exc.col}: unexpected character {text[at]!r}"
        assert_tokenized_to_specification(text[:at])
        return
    gap = 0
    for tok in tokens + [None]:
        at = len(text) if tok is None else line_starts[tok.line - 1] + tok.col - 1
        assert at >= gap, (tok, text)                 # in order, no overlap
        while gap < at:                               # blanks, newlines, comments
            if text[gap] == "#":
                newline = text.find("\n", gap)
                gap = len(text) if newline < 0 else newline
                assert gap <= at, (tok, text)         # no token inside a comment
            else:
                assert text[gap] in " \t\r\n", (gap, text)
                gap += 1
        if tok is None:
            break
        gap = at + len(tok.text)
        assert text[at:gap] == tok.text, (tok, text)
        if tok.kind == "punct":
            assert tok.text in MARKS
        elif tok.kind == "ident":
            assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text)
            assert gap == len(text) or not IDENT_CHAR.match(text[gap]), (tok, text)
        else:
            assert tok.kind == "int" and tok.text.isdecimal()
            assert gap == len(text) or not text[gap].isdecimal(), (tok, text)
        assert "-" not in tok.text or tok.text == "->"


def test_tokenize_meets_its_specification():
    texts = TEXTS + [CONE_DOCUMENT, MOORE_DOCUMENT]
    rng = random.Random(6104)
    mutants = [char_mutant(rng, rng.choice(texts)) for _ in range(1200)]
    # characters the mutants never insert: a form feed, a letter and a digit
    # outside ASCII, and '!'
    odd = [text[:at] + rng.choice("\f\u00e9\u0663!") + text[at:]
           for text in rng.sample(mutants, 400) for at in [rng.randrange(len(text))]]
    for text in texts + mutants + odd:
        assert_tokenized_to_specification(text)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_roundtrip_field_for_field():
    doc = parse(CIRCLE)
    report = run("homology", doc, {"target": "circle"})
    again = parse_report(emit(report, "json"))
    assert again.to_dict() == report.to_dict()


def test_json_emission_deterministic():
    doc = parse(CIRCLE)
    a = emit(run("homology", doc, {"target": "circle"}), "json", stable=True)
    b = emit(run("homology", doc, {"target": "circle"}), "json", stable=True)
    assert a == b


def test_empty_checks_report():
    r = Report("homology", {}, 0)
    assert '"checks":[]' in emit(r, "json")


def test_text_format_renders():
    doc = parse(CIRCLE)
    text = emit(run("homology", doc, {"target": "circle"}), "text", stable=True)
    assert "  H_1(circle) = Z" in text.splitlines()


def test_text_format_names_the_coefficient_ring():
    # over Z3 the free summand of H_1 is Z/3; the JSON report stays as it is
    doc = parse(CIRCLE)
    report = run("homology", doc, {"target": "circle", "coefficients": "Z3"})
    lines = emit(report, "text", stable=True).splitlines()
    assert "  H_0(circle) = Z/3" in lines and "  H_1(circle) = Z/3" in lines
    assert report.homology[1]["free_rank"] == 1 and report.homology[1]["torsion"] == []


def test_homology_command_mod_p():
    doc = parse(CIRCLE)
    report = run("homology", doc, {"target": "circle", "coefficients": "Z2"})
    assert report.homology[1]["free_rank"] == 1


def test_bad_coefficients_rejected():
    doc = parse(CIRCLE)
    with pytest.raises(CommandError):
        run("homology", doc, {"target": "circle", "coefficients": "Q"})


@pytest.mark.parametrize("flag", ["Z02", "Z03", "Z0", "Z1", "Z٣", "Z²", "Z 3", "Z3 ", "z3", "Z+3"])
def test_noncanonical_coefficients_exit_2(flag, capsys):
    # one ring, one spelling: Z02 would run as Z/2 but record "Z02", and the
    # digits of other scripts read as ASCII ones
    argv = ["homology", "circle", "-f", str(FIXTURES / "circle.hfd")]
    assert main(argv + ["--coefficients", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad coefficient ring {flag!r}" in captured.err


@pytest.mark.parametrize("flag", ["Z1000000000000000001", "Z18446744073709551629",
                                  "Z" + "1" * 5000],
                         ids=["composite", "prime_from_2_to_the_64", "5000_digits"])
def test_large_moduli_exit_2(flag, capsys):
    # 10^18 + 1 is composite; 2^64 + 13 is prime but from 2^64 on no modulus
    # is taken; a modulus of 5,000 digits is refused before it is read
    argv = ["homology", "circle", "-f", str(FIXTURES / "circle.hfd")]
    assert main(argv + ["--coefficients", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad coefficient ring {flag!r}" in captured.err


def test_a_large_prime_modulus_is_tested_at_once(capsys):
    # 10^18 + 3 is prime; trial division up to its square root ran for
    # longer than 20 s
    argv = ["homology", "circle", "-f", str(FIXTURES / "circle.hfd"),
            "--coefficients", "Z1000000000000000003", "--format", "json", "--stable"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["coefficients"] == "Z1000000000000000003"
    assert [row["free_rank"] for row in report["homology"]] == [1, 1]


@pytest.mark.parametrize("flag", ["Z", "Z2", "Z3", "Z13"])
def test_canonical_coefficients_recorded(flag, capsys):
    argv = ["homology", "circle", "-f", str(FIXTURES / "circle.hfd")]
    assert main(argv + ["--coefficients", flag, "--format", "json", "--stable"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["coefficients"] == flag


def test_unknown_target_rejected():
    doc = parse(CIRCLE)
    with pytest.raises(CommandError):
        run("homology", doc, {"target": "nope"})


@pytest.mark.parametrize("argv,keyword,name", [
    (["classify", "Z3"], "monoid", "Z3"),
    (["homology", "disc"], "sset", "disc"),
    (["check-weakfib", "squash"], "map", "squash"),
    (["group-completion", "M2", "--diagram", "square"], "diagram", "square"),
])
def test_missing_name_is_named_by_its_keyword(argv, keyword, name, capsys):
    assert main(argv + ["-f", str(FIXTURES / "idem.hfd")]) == 2
    assert capsys.readouterr().err == f"homfib: no {keyword} named {name!r} in the document\n"


def test_unknown_command_rejected():
    with pytest.raises(CommandError):
        run("frobnicate", parse(CIRCLE), {"target": "circle"})


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------

GOLDEN_RUNS = [
    ("homology", "circle", "circle.hfd", {}),
    ("check-weakfib", "collapse_circle_to_interval", "collapse.hfd", {}),
    ("classify", "Z2", "z2.hfd", {}),
    ("barycenter", "double_interval", "bundle.hfd", {}),
    ("validate", "cone", "degenerate_face.hfd", {}),
]


@pytest.mark.parametrize("command,target,fixture,extra", GOLDEN_RUNS)
def test_fixture_matches_golden(command, target, fixture, extra):
    doc = parse((FIXTURES / fixture).read_text())
    flags = {"target": target, "max_dim": 3, **extra}
    got = emit(run(command, doc, flags), "json", stable=True)
    golden = (FIXTURES / "golden" / f"{command}_{target}.json").read_text().strip()
    assert got == golden


def test_group_completion_golden():
    doc = parse((FIXTURES / "z2.hfd").read_text())
    got = emit(run("group-completion", doc, {"target": "Z2", "max_dim": 2}),
               "json", stable=True)
    golden = (FIXTURES / "golden" / "group-completion_Z2.json").read_text().strip()
    assert got == golden


@pytest.mark.parametrize("command,max_dim,golden", [
    ("group-completion", 2, "group-completion_Z2.json"),
    ("classify", 3, "classify_Z2.json"),
])
def test_golden_bytes_do_not_depend_on_hash_seed(command, max_dim, golden):
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    expected = (FIXTURES / "golden" / golden).read_text()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run(
            [sys.executable, "-m", "homfib.cli", command, "Z2",
             "-f", str(FIXTURES / "z2.hfd"), "--max-dim", str(max_dim),
             "--format", "json", "--stable"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out == expected, f"PYTHONHASHSEED={seed}"


def test_all_fixture_files_parse_and_validate():
    for path in sorted(FIXTURES.glob("*.hfd")):
        doc = parse(path.read_text())
        for name, X in doc.ssets.items():
            assert hf.validate(X).ok, f"{path.name}:{name}"
        for name, f in doc.maps.items():
            assert hf.validate_map(f).ok, f"{path.name}:{name}"


# ---------------------------------------------------------------------------
# the executable
# ---------------------------------------------------------------------------

def test_main_exit_codes(capsys):
    circle = str(FIXTURES / "circle.hfd")
    assert main(["homology", "circle", "-f", circle]) == 0
    collapse = str(FIXTURES / "collapse.hfd")
    assert main(["check-weakfib", "collapse_circle_to_interval",
                 "-f", collapse]) == 1
    capsys.readouterr()


def test_main_reports_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.hfd"
    bad.write_text("sset x { broken }")
    assert main(["homology", "x", "-f", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.hfd" in err


@pytest.mark.parametrize("data,message", [
    (b"sset c {\n  v : dim 0 faces [];\xff\n}", "2:22: invalid UTF-8 byte 0xff"),
    # a truncated sequence is refused at its first byte, and the column
    # counts characters, a two-byte one included, as a parse error's does
    (b"sset c {\r\n  v : dim 0 faces []; # \xc3\xa9\xe2\x82\n}",
     "2:26: invalid UTF-8 byte 0xe2"),
    (b"\xed\xa0\x80sset c {}", "1:1: invalid UTF-8 byte 0xed"),
])
def test_main_refuses_a_byte_that_is_not_utf8(data, message, capsys, tmp_path):
    bad = tmp_path / "bad.hfd"
    bad.write_bytes(data)
    assert main(["homology", "c", "-f", str(bad)]) == 2
    assert capsys.readouterr().err == f"homfib: {bad}:{message}\n"


def test_main_reads_every_newline_convention(capsys, tmp_path):
    # the position of a parse error counts a CR LF or a lone CR as one
    # newline, as a file opened in text mode does
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "lines.hfd"
        path.write_bytes(newline.join(["sset c {", "  v : dim 0 faces [];",
                                        "  e : dim 1 faces [v, w];", "}"]).encode())
        assert main(["homology", "c", "-f", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"homfib: {path}:3:23: ")


def test_main_missing_file(capsys):
    assert main(["homology", "x", "-f", "/nonexistent.hfd"]) == 2
    capsys.readouterr()


def test_main_json_format(capsys):
    circle = str(FIXTURES / "circle.hfd")
    assert main(["homology", "circle", "-f", circle, "--format", "json",
                 "--stable"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["command"] == "homology"


def test_homology_rows_skip_trivial_groups():
    doc = parse("""
    sset sphere2 {
      p0 : dim 0 faces []; p1 : dim 0 faces []; p2 : dim 0 faces []; p3 : dim 0 faces [];
      e01 : dim 1 faces [p1, p0]; e02 : dim 1 faces [p2, p0]; e03 : dim 1 faces [p3, p0];
      e12 : dim 1 faces [p2, p1]; e13 : dim 1 faces [p3, p1]; e23 : dim 1 faces [p3, p2];
      t012 : dim 2 faces [e12, e02, e01];
      t013 : dim 2 faces [e13, e03, e01];
      t023 : dim 2 faces [e23, e03, e02];
      t123 : dim 2 faces [e23, e13, e12];
    }
    """)
    report = run("homology", doc, {"target": "sphere2"})
    assert [(r["degree"], r["free_rank"]) for r in report.homology] == [(0, 1), (2, 1)]


def test_main_deep_ops_flag(capsys):
    bundle = str(FIXTURES / "bundle.hfd")
    assert main(["check-weakfib", "double_interval", "-f", bundle,
                 "--deep-ops", "--format", "json", "--stable"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["params"]["deep_ops"] is True


@pytest.mark.parametrize("argv", [
    ["barycenter", "double_interval", "-f", str(FIXTURES / "bundle.hfd")],
    ["group-completion", "Z2", "-f", str(FIXTURES / "z2.hfd"), "--max-dim", "2"],
])
def test_deep_ops_flag_reaches_the_weak_check(argv, monkeypatch, capsys):
    seen = []

    def spy(p, up_to, deep_ops=False, coefficients=0):
        seen.append((deep_ops, coefficients))
        return weak_fibration_check(p, up_to, deep_ops=deep_ops, coefficients=coefficients)

    monkeypatch.setattr(cli, "weak_fibration_check", spy)
    monkeypatch.setattr(hf.borel, "weak_fibration_check", spy)
    assert main(argv + ["--deep-ops", "--format", "json", "--stable"]) == 0
    assert seen == [(True, 0)]
    assert json.loads(capsys.readouterr().out)["params"]["deep_ops"] is True
    assert main(argv + ["--coefficients", "Z3"]) == 0
    assert seen[1:] == [(False, 3)]


# {p} -> E, the comparison over the face a of the interval, is a homology
# isomorphism over Z/2 alone, where E, the Moore space M(Z/3, 1) with a
# whisker, is acyclic; over Z/3 it fails in degree 2 as well.
@pytest.mark.parametrize("ring,code,witnesses", [
    ("Z", 1, ["(<ab>, ('d', 1)) at degree [1]"]),
    ("Z2", 0, []),
    ("Z3", 1, ["(<ab>, ('d', 1)) at degree [1, 2]"]),
])
def test_weak_checks_run_over_the_coefficients(ring, code, witnesses, tmp_path, capsys):
    path = tmp_path / "moore.hfd"
    path.write_text(MOORE_DOCUMENT)
    flags = ["-f", str(path), "--coefficients", ring, "--format", "json", "--stable"]
    assert main(["check-weakfib", "q"] + flags) == code
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["witnesses"] == witnesses
    assert main(["barycenter", "q"] + flags) == code
    assert all(c["verdict"] for c in json.loads(capsys.readouterr().out)["checks"]) == (not code)


# Collapsing E onto a point is a homology equivalence over Z/2 alone, so
# the group completion holds for the diagram `crushed` over Z/2 and fails
# its first gate over Z and Z/3.
@pytest.mark.parametrize("ring,passed", [("Z", False), ("Z2", True), ("Z3", False)])
def test_group_completion_runs_over_the_coefficients(ring, passed):
    report = run("group-completion", parse(MOORE_DOCUMENT),
                 {"target": "M2", "diagram": "crushed", "max_dim": 2, "coefficients": ring})
    assert [c["verdict"] for c in report.checks] == [passed, True, passed, passed]


def test_group_completion_with_declared_diagram():
    doc = parse((FIXTURES / "idem.hfd").read_text())
    got = emit(run("group-completion", doc,
                   {"target": "M2", "diagram": "flat", "max_dim": 2}),
               "json", stable=True)
    golden = (FIXTURES / "golden" / "group-completion_M2.json").read_text().strip()
    assert got == golden
    report = run("group-completion", doc,
                 {"target": "M2", "diagram": "flat", "max_dim": 2})
    assert report.all_pass


def test_composite_coefficient_ring_rejected():
    doc = parse(CIRCLE)
    with pytest.raises(CommandError):
        run("homology", doc, {"target": "circle", "coefficients": "Z4"})


@pytest.mark.parametrize("command,target,fixture,max_dim", [
    ("homology", "circle", "circle.hfd", -1),
    ("validate", "cone", "degenerate_face.hfd", -1),
    ("borel", "Z2", "z2.hfd", -2),
    ("borel", "Z2", "z2.hfd", 0),
    ("classify", "Z2", "z2.hfd", 0),
    ("group-completion", "Z2", "z2.hfd", 0),
])
def test_max_dim_out_of_range_is_usage_error(command, target, fixture, max_dim, capsys):
    path = str(FIXTURES / fixture)
    assert main([command, target, "-f", path, "--max-dim", str(max_dim)]) == 2
    assert "--max-dim must be at least" in capsys.readouterr().err


def test_max_dim_lower_limits_accepted(capsys):
    assert main(["homology", "circle", "-f", str(FIXTURES / "circle.hfd"),
                 "--max-dim", "0"]) == 0
    assert main(["classify", "Z2", "-f", str(FIXTURES / "z2.hfd"), "--max-dim", "1"]) == 0
    capsys.readouterr()


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(command, doc, flags):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["homology", "circle", "-f", str(FIXTURES / "circle.hfd")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "homfib: internal error: RuntimeError: boom second line\n"


def test_an_internal_value_error_is_not_a_refusal(monkeypatch, capsys):
    # only CommandError and DslError refuse an input (exit 2); a ValueError
    # from inside homfib, such as a failed d d = 0 check, is a defect
    # the package exports a function named homology, so reach the module by path
    homology_module = importlib.import_module("homfib.homology")

    def broken(X):
        raise ValueError("boundary squared is nonzero in degree 2")

    monkeypatch.setattr(homology_module, "normalized_chains", broken)
    assert main(["homology", "circle", "-f", str(FIXTURES / "circle.hfd")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("homfib: internal error: ValueError: "
                            "boundary squared is nonzero in degree 2\n")


def test_a_cycle_form_that_disagrees_with_its_boundary_exits_3(monkeypatch, capsys):
    # the induced maps of subdivide's iso test read cycle bases, so the
    # cycle form is made and checked against the boundary forms' factors
    homology_module = importlib.import_module("homfib.homology")
    real = homology_module._boundary_form

    def doubled(X, k):
        form = real(X, k)
        return SmithForm([2 * d for d in form.diagonal], form.rank, form.shape,
                         form._row_ops, form._col_ops)

    monkeypatch.setattr(homology_module, "_boundary_form", doubled)
    assert main(["subdivide", "circle", "-f", str(FIXTURES / "circle.hfd")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("homfib: internal error: ValueError: the boundary's Smith form "
                            "in cycle coordinates disagrees with its invariant factors\n")


NOT_SIMPLICIAL = """
sset a {
  p : dim 0 faces [];
  q : dim 0 faces [];
  e : dim 1 faces [q, p];
}

sset b {
  x : dim 0 faces [];
  y : dim 0 faces [];
  xy : dim 1 faces [y, x];
}

map f : a -> b { p -> x; q -> x; e -> xy; }
"""


def test_validate_flags_non_simplicial_map(capsys, tmp_path):
    path = tmp_path / "f.hfd"
    path.write_text(NOT_SIMPLICIAL)
    assert main(["validate", "f", "-f", str(path), "--format", "json", "--stable"]) == 1
    check, = json.loads(capsys.readouterr().out)["checks"]
    assert check["witnesses"] == ["'e': f(d_0 x) = <x> but d_0 f(x) = <y>"]


@pytest.mark.parametrize("command", ["check-weakfib", "star-lemma", "barycenter"])
def test_non_simplicial_map_is_refused(command, capsys, tmp_path):
    # d_0 e = q goes to x, but d_0 xy = y: no check may run on such a map
    path = tmp_path / "f.hfd"
    path.write_text(NOT_SIMPLICIAL)
    assert main([command, "f", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("homfib: map 'f' is not simplicial: "
                            "'e': f(d_0 x) = <x> but d_0 f(x) = <y>\n")


POINT_INTO_INTERVAL = """
sset pt { p : dim 0 faces []; }
sset interval { a : dim 0 faces []; b : dim 0 faces []; ab : dim 1 faces [b, a]; }
map at_a : pt -> interval { p -> a; }
"""


def test_star_lemma_skips_a_star_with_an_empty_preimage(capsys, tmp_path):
    # pt lies over the vertex a alone, so nothing of Sd pt lies over the
    # stars of b and of the edge: each is one passing "skipped" check
    path = tmp_path / "at_a.hfd"
    path.write_text(POINT_INTO_INTERVAL)
    assert main(["star-lemma", "at_a", "-f", str(path), "--format", "json", "--stable"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["verdict"], c["witnesses"]) for c in checks] == [
        ("alpha=(0,): retraction exact", True, []),
        ("alpha=(0,): homotopy ends exact", True, []),
        ("alpha=(0,): fiber inclusion homology iso", True, []),
        ("alpha=(1,): ESt empty (skipped)", True, []),
        ("alpha=(0, 1): ESt empty (skipped)", True, [])]


MALFORMED = """
sset bad {
  a : dim 0 faces [];
  b : dim 0 faces [];
  c : dim 0 faces [];
  e : dim 1 faces [b, a];
  f : dim 1 faces [c, b];
  g : dim 1 faces [c, a];
  t : dim 2 faces [e, g, f];
}

sset good {
  a : dim 0 faces [];
  b : dim 0 faces [];
  c : dim 0 faces [];
  e : dim 1 faces [b, a];
  f : dim 1 faces [c, b];
  g : dim 1 faces [c, a];
  t : dim 2 faces [f, g, e];
}

map id : bad -> bad { a -> a; b -> b; c -> c; e -> e; f -> f; g -> g; t -> t; }
map into : good -> bad { a -> a; b -> b; c -> c; e -> e; f -> f; g -> g; t -> t; }
map onto : bad -> good { a -> a; b -> b; c -> c; e -> e; f -> f; g -> g; t -> t; }
"""
BAD_TRIANGLE = "homfib: sset 'bad' is not a simplicial set: 't': d_0 d_1 = <c> but d_0 d_0 = <b>\n"


@pytest.mark.parametrize("command,target", [
    ("homology", "bad"), ("subdivide", "bad"),
    ("check-weakfib", "id"), ("check-weakfib", "into"), ("check-weakfib", "onto"),
    ("star-lemma", "into"), ("star-lemma", "onto"), ("barycenter", "id")])
def test_malformed_sset_is_refused(command, target, capsys, tmp_path):
    # t's faces give a boundary whose boundary is zero, so homology alone
    # would not notice that d_0 d_1 t differs from d_0 d_0 t
    path = tmp_path / "bad.hfd"
    path.write_text(MALFORMED)
    assert main([command, target, "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BAD_TRIANGLE


def test_malformed_sset_still_validates_to_a_verdict(capsys, tmp_path):
    path = tmp_path / "bad.hfd"
    path.write_text(MALFORMED)
    assert main(["validate", "bad", "-f", str(path), "--format", "json"]) == 1
    check, = json.loads(capsys.readouterr().out)["checks"]
    assert len(check["witnesses"]) == 3
    assert main(["homology", "good", "-f", str(path)]) == 0
    capsys.readouterr()


DIAGRAMS = (FIXTURES / "idem.hfd").read_text() + (FIXTURES / "z2.hfd").read_text() + """
map squash : pair -> pair { x -> x; y -> x; }

diagram unlawful over Z2 {
  F(1) = pair;
  act(1,1): t -> squash;
}
"""


def test_diagram_over_another_monoid_is_refused(capsys, tmp_path):
    path = tmp_path / "diagrams.hfd"
    path.write_text(DIAGRAMS)
    assert main(["group-completion", "Z2", "-f", str(path), "--diagram", "flat",
                 "--max-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "homfib: diagram 'flat' is over monoid 'M2', not 'Z2'\n"
    assert main(["group-completion", "M2", "-f", str(path), "--diagram", "flat",
                 "--max-dim", "2"]) == 0
    capsys.readouterr()


def test_unlawful_diagram_is_refused(capsys, tmp_path):
    # squash after squash is squash, not the action of t.t = u
    path = tmp_path / "diagrams.hfd"
    path.write_text(DIAGRAMS)
    assert main(["group-completion", "Z2", "-f", str(path), "--diagram", "unlawful",
                 "--max-dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("homfib: diagram 'unlawful' is not lawful: action compatibility "
                            "fails at (<t>, <t>, <y>) over ('1', '1', '1')\n")
    assert main(["validate", "unlawful", "-f", str(path)]) == 1
    capsys.readouterr()


MALFORMED_VALUE = (FIXTURES / "z2.hfd").read_text() + """
sset tri {
  a : dim 0 faces [];
  b : dim 0 faces [];
  c : dim 0 faces [];
  e : dim 1 faces [b, a];
  f : dim 1 faces [c, a];
  g : dim 1 faces [c, b];
  t : dim 2 faces [e, g, f];
}

map id : tri -> tri { a -> a; b -> b; c -> c; e -> e; f -> f; g -> g; t -> t; }

diagram D over Z2 {
  F(1) = tri;
  act(1,1): t -> id;
}
"""
BAD_VALUE = "F('1') is not a simplicial set: 't': d_0 d_1 = <c> but d_0 d_0 = <b>"


def test_diagram_with_malformed_value_fails_validation(capsys, tmp_path):
    # the laws hold, since t acts as the identity; the value itself breaks
    # a simplicial identity, which validate must name
    path = tmp_path / "d.hfd"
    path.write_text(MALFORMED_VALUE)
    assert main(["validate", "D", "-f", str(path), "--format", "json"]) == 1
    check, = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "diagram D lawful" and not check["verdict"]
    assert check["witnesses"] == [BAD_VALUE]


def test_diagram_with_malformed_value_is_refused(capsys, tmp_path):
    # before the values were validated, the chain layer stopped with
    # "boundary squared is nonzero in degree 2", naming no declaration
    path = tmp_path / "d.hfd"
    path.write_text(MALFORMED_VALUE)
    assert main(["group-completion", "Z2", "-f", str(path), "--diagram", "D",
                 "--max-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"homfib: diagram 'D' is not lawful: {BAD_VALUE}\n"
