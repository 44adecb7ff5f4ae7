"""Self-test of the benchmark: binding sites, predictions, determinism.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Checks, and exits 1 on any failure:
  * BENCHMARK.json lists exactly the per-layer metrics the tracer reports;
  * while a job is traced, every homfib namespace that binds a wrapped
    function binds the wrapper (fibration.pullback, homology.smith_normal_form,
    borel.weak_fibration_check, cli.is_homology_iso, ...), and every
    original binding is back afterwards;
  * a traced run of each workload, made twice in fresh processes, is
    correct, records calls of each wrapped function exactly on the workloads
    tracer.WRAPPED predicts, and repeats every counter exactly.
The traced runs take a few minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import WORKLOADS, WRAPPED, Tracer, per_layer_metrics  # noqa: E402


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != per_layer_metrics():
        return ["BENCHMARK.json per_layer differs from tracer.per_layer_metrics()"]
    return []


def check_binding_sites() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from homfib import cli, dsl  # noqa: F401  (with homfib, every module)

    modules = {n: m for n, m in sys.modules.items() if n == "homfib" or n.startswith("homfib.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}

    def binding(w):
        owner, _, attr = w.qualname.rpartition(".")
        namespace = vars(modules[f"homfib.{w.module}"])
        return namespace[owner].__dict__ if owner else namespace, attr

    originals = {w.name: binding(w)[0][binding(w)[1]] for w in WRAPPED}
    problems = []
    with Tracer().job(0):
        for w in WRAPPED:
            namespace, attr = binding(w)
            if namespace[attr] is originals[w.name]:
                problems.append(f"{w.name} is not wrapped")
            for name, snapshot in before.items():
                for key, value in snapshot.items():
                    if value is originals[w.name] and getattr(modules[name], key) is value:
                        problems.append(f"{name}.{key} still binds the unwrapped {w.name}")
        for site in ("homfib.fibration.pullback", "homfib.homology.smith_normal_form",
                     "homfib.borel.weak_fibration_check", "homfib.cli.is_homology_iso"):
            module, _, attr = site.rpartition(".")
            if getattr(modules[module], attr) is before[module][attr]:
                problems.append(f"{site} is not wrapped")
    for w in WRAPPED:
        namespace, attr = binding(w)
        if namespace[attr] is not originals[w.name]:
            problems.append(f"{w.name} was not restored")
    for name, module in modules.items():
        if any(getattr(module, k) is not v for k, v in before[name].items()):
            problems.append(f"{name} was not restored")
    return problems


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_workload(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = [f"{workload}: run {i} is not correct"
                for i, r in enumerate((first, second), 1) if not r["correct"]]
    units = per_layer_metrics()
    for name, (unit, _) in units.items():
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if unit != "s" and a != b:
            problems.append(f"{workload}: {name} is {a}, then {b}")
    for w in WRAPPED:
        calls = first["metrics"][f"{w.name}.calls"]["value"]
        if workload in w.on and not calls:
            problems.append(f"{workload}: {w.name} records no calls")
        if workload in w.off and calls:
            problems.append(f"{workload}: {w.name} records {calls} calls, predicted none")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = ap.parse_args()
    problems = check_benchmark_json() + check_binding_sites()
    for workload in args.workload:
        problems += check_workload(workload, args.seed)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
