"""Byte identity of the command line's `--format json --stable` reports.

Each command's report is pinned by its SHA-256 digest and exit code.  The
digests were taken before the Eilenberg-Zilber enumerator replaced the
simplex scans of `pullback` and `product_many`; a change that keeps every
verdict, certificate and generator order keeps them.  A deliberate change
of a report updates the digest here and says why.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from homfib import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (command line without --format/--stable, exit code, sha256 of stdout)
PINNED = [
    # the README commands
    ("homology circle -f circle.hfd", 0,
     "b7c998398561e84ba0509ab1ae35e40e476aba074866ae4c6077fbe5633e3010"),
    ("check-weakfib collapse_circle_to_interval -f collapse.hfd", 1,
     "dbefd503ec3fa6c531e53da95126206da35284b9d1f94941b75f385edfac09be"),
    ("subdivide circle -f circle.hfd", 0,
     "f2f5d145a9d6387848acf8b561d03aa9c630827692df0b8c2391c0d3e81a7168"),
    ("star-lemma double_interval -f bundle.hfd", 0,
     "700c4a96d062899bdbd651c9689e2c31f6932a8a67883b90f3065161b4fe707a"),
    ("barycenter double_interval -f bundle.hfd", 0,
     "8231ac90a7ac5e6e46593de6123ee17881e538032bc0584645d857c460281931"),
    ("borel Z2 -f z2.hfd --max-dim 4", 0,
     "f2d8d2271b29aeb8428587a0c83b7b83bf51057947a2f427ebb692e17c0407db"),
    ("classify Z2 -f z2.hfd --max-dim 6", 0,
     "8869039fd3fba7e5b79769f2028bfacb42bea392c176fd9fc03aa53eab760b02"),
    ("group-completion Z2 -f z2.hfd --max-dim 4", 0,
     "11f1a4b5489021c81705153bf56f8f6b705c751af98ae0f0dbc67c3a67eda32d"),
    ("validate cone -f degenerate_face.hfd", 0,
     "f8fd84bdbf2adf20e54f2877806e7b66aedca4575191826c4d56921449b9ea0a"),
    # audits, coefficients, another monoid and diagram
    ("check-weakfib collapse_circle_to_interval -f collapse.hfd --deep-ops", 1,
     "60900d9ad27ea6d1a646d5f351a82f6aa319013f8b6a812c74184aa8537a45b9"),
    ("barycenter double_interval -f bundle.hfd --deep-ops", 0,
     "ef887145d40e100c8b7d63645635bfa0ccc1fb6ccfd4d9c4663557a0ffb48520"),
    ("group-completion M2 -f idem.hfd --max-dim 3", 1,
     "972b0e12bb4d58c0a1bc8be411dd36bf5fa07095aa36ff664c5c7674c74ad99b"),
    ("group-completion M2 -f idem.hfd --max-dim 3 --diagram flat", 0,
     "f60f238e8a11c28b521c76d2913916b2191bf0417528bcad2d99fcf9bef1b137"),
    ("group-completion Z2 -f z2.hfd --max-dim 3 --coefficients Z3", 0,
     "489389fd2359d895d367ebebf5d1541303647893f0dfa779e92cf4959796daeb"),
    ("group-completion Z2 -f z2.hfd --max-dim 3 --deep-ops", 0,
     "884eeb2a87880a6eb5d3717e0a268d43f6afb10ea53910d470d056598beb8675"),
    ("group-completion Z2 -f z2.hfd --max-dim 4 --coefficients Z3", 0,
     "6ee66f846c25495d87ffd5a88803a6d974c03e476a1b15b599ca2d04cf60eb34"),
    ("homology circle -f circle.hfd --coefficients Z2", 0,
     "ee6f88da79434c1fda9272fd873e4ad25e6fc4a2a4d326497bcd428d7fdf3504"),
    # the largest preimages a command builds in about a second
    ("group-completion Z2 -f z2.hfd --max-dim 5", 0,
     "76b5bfbc3ae3f09c76d401485138ee09f2e90a485456699a38156b94c98e3e45"),
    # realizations of a non-group monoid, with a diagram
    ("classify M2 -f idem.hfd --max-dim 5", 0,
     "0276b4ea19bba9ff1b79002cbf8b8d6c3ddadbb66f6cc74360ed71ec0736fd62"),
    ("borel M2 -f idem.hfd --max-dim 3", 0,
     "634cf96b7ceaf7df9b9005037960460ee76667add22751430388489754db3bd3"),
]

# three-element monoids, declared by MONOIDS below: Z/3 and the two
# non-group monoids of the classify benchmark, Z/2 with an adjoined zero and
# the monoid whose two non-units are left zeros
MONOID_PINNED = [
    ("classify Z3 -f z3.hfd --max-dim 4", 0,
     "4c4c227ee6f0b883284c1cd29a039257cee580fb7e7e1aceee47496a1374d546"),
    ("classify ZeroZ2 -f zero_z2.hfd --max-dim 4", 0,
     "41deaba0e1405c17a6860bf92cb8e080acea2bf012884b941ec224bfb33829ea"),
    ("classify LeftZeros -f left_zeros.hfd --max-dim 4", 0,
     "3beeccb117b70c415dbac890112fcb760fbde78ed01ac316de0ebba62b123561"),
]

MONOIDS = {
    "z3.hfd": "monoid Z3 { elements u, a, b; unit u;\n"
              "  mul { a.a = b; a.b = u; b.a = u; b.b = a; } }\n",
    "zero_z2.hfd": "monoid ZeroZ2 { elements u, t, z; unit u;\n"
                   "  mul { t.t = u; t.z = z; z.t = z; z.z = z; } }\n",
    "left_zeros.hfd": "monoid LeftZeros { elements u, a, b; unit u;\n"
                      "  mul { a.a = a; a.b = a; b.a = b; b.b = b; } }\n",
}


def stable_report(line: str, directory: Path = FIXTURES) -> tuple[int, str]:
    """Exit code and stdout digest of one command line, its file resolved
    in directory."""
    argv = line.split() + ["--format", "json", "--stable"]
    argv[argv.index("-f") + 1] = str(directory / argv[argv.index("-f") + 1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("line,code,digest", PINNED, ids=[p[0] for p in PINNED])
def test_stable_report_is_pinned(line, code, digest):
    assert stable_report(line) == (code, digest)


@pytest.mark.parametrize("line,code,digest", MONOID_PINNED, ids=[p[0] for p in MONOID_PINNED])
def test_monoid_report_is_pinned(line, code, digest, tmp_path):
    for name, text in MONOIDS.items():
        (tmp_path / name).write_text(text)
    assert stable_report(line, tmp_path) == (code, digest)
