"""The benchmark's binding checks, run with the unit tests.

perfbench/tracer.py rebinds each traced homfib function in every namespace
that binds it.  A traced function that is renamed or deleted, or a module
that stops binding one, leaves the tracer counting nothing there.  The
selftest's static checks take a fraction of a second, so they run here;
its traced runs of whole workloads take minutes and stay in
`python3 perfbench/selftest.py`.  These tests read perfbench/ and write
nothing into it.
"""

import importlib.util
import sys
from pathlib import Path

from homfib import cli, dsl

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_selftest(monkeypatch):
    """perfbench/selftest.py as a module; its `from tracer import` finds
    perfbench/tracer.py, and no bytecode is written next to either."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_lists_the_tracer_metrics(monkeypatch):
    assert load_selftest(monkeypatch).check_benchmark_json() == []


def test_tracer_rebinds_and_restores_every_binding_site(monkeypatch):
    assert load_selftest(monkeypatch).check_binding_sites() == []


def test_gate_four_reaches_the_traced_strong_check(monkeypatch):
    # the tracer predicts calls of the strong check on group-completion,
    # which reach it through borel's binding
    load_selftest(monkeypatch)
    from tracer import Tracer

    tracer = Tracer()
    doc = dsl.parse((ROOT / "fixtures" / "z2.hfd").read_text())
    with tracer.job(0):
        report = cli.run("group-completion", doc, {"target": "Z2", "max_dim": 2})
    assert report.all_pass
    assert "homfib.borel.strong_check_via_known_fiber" in \
        tracer.sites["fibration.strong_check_via_known_fiber"]
    assert tracer.calls["fibration.strong_check_via_known_fiber"] == 1
    assert tracer.calls["fibration.weak_fibration_check"] == 1
