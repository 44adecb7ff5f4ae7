"""Spans and work counters around homfib's public functions, from outside.

homfib itself records nothing.  While a job is traced, every function in
WRAPPED is replaced by a timing wrapper in each namespace that binds it:
homfib imports with `from .x import y`, so `fibration.pullback`,
`homology.smith_normal_form` or `cli.is_homology_iso` are separate
bindings of one function and all of them are rebound.  Methods are
rebound on their class.  Leaving the job restores every original binding.

A span is (span id, parent span id, job id, name, start, duration); a
function's self time is its duration minus the durations of the spans it
directly caused.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

WORKLOADS = ("group-completion", "classify")


@dataclass(frozen=True)
class Wrapped:
    """A traced function and the prediction written down before measuring.

    moves: the end-to-end metrics a cheaper call should improve;
    on: workloads on which the function must record calls;
    off: workloads on which it must record none.
    """

    module: str
    qualname: str
    moves: tuple[str, ...]
    on: tuple[str, ...]
    off: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


GC, CL = WORKLOADS
WRAPPED = (
    # sset: simplex arithmetic, products and pullbacks
    Wrapped("sset", "pullback", ("verdicts_per_s", "verdict_s.p90"), (GC,), (CL,)),
    Wrapped("sset", "product_many", ("verdicts_per_s", "peak_rss_mb"), (CL, GC)),
    Wrapped("sset", "validate", ("verdict_s.p50",), (GC,)),
    # fibration: preimages dp(sigma) and comparison maps
    Wrapped("fibration", "weak_fibration_check", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("fibration", "strong_check_via_known_fiber", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("fibration", "PreimageCalculator.record", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("fibration", "PreimageCalculator.comparison", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("fibration", "classify_image", ("verdicts_per_s",), (GC,), (CL,)),
    # homology: normalized chains, homology groups, iso certificates
    Wrapped("homology", "is_homology_iso", ("verdict_s.p50",), (GC,)),
    Wrapped("homology", "homology", ("verdict_s.p50",), WORKLOADS),
    Wrapped("homology", "normalized_chains", ("verdict_s.p50",), WORKLOADS),
    Wrapped("homology", "induced", ("verdict_s.p50",), (GC,)),
    Wrapped("homology", "induced_map_kernel_cokernel", ("verdict_s.p50",), (GC,)),
    # no job of these workloads reaches is_acyclic; a change that starts
    # calling it shows up as calls where none were predicted
    Wrapped("homology", "is_acyclic", ("verdict_s.p50",), (), WORKLOADS),
    # snf: many tiny matrices on group-completion, few on classify
    Wrapped("snf", "smith_normal_form", ("verdicts_per_s", "verdict_s.p90"), WORKLOADS),
    # borel: Borel constructions, realizations, the four gates
    Wrapped("borel", "group_completion_check", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("borel", "borel_total", ("verdicts_per_s",), (GC,), (CL,)),
    Wrapped("borel", "classifying_space", ("verdicts_per_s",), (CL,), (GC,)),
    Wrapped("borel", "thick_realize", ("verdicts_per_s",), (CL, GC)),
    Wrapped("borel", "vertex_fiber_isomorphic", ("verdicts_per_s",), (GC,), (CL,)),
    # subdivision: the subdivide, star-lemma and barycenter jobs of group-completion
    Wrapped("subdivision", "sd", ("verdict_s.p50",), (GC,), (CL,)),
    Wrapped("subdivision", "sd_over_simplex", ("verdict_s.p50",), (GC,), (CL,)),
    Wrapped("subdivision", "star_retraction", ("verdict_s.p50",), (GC,), (CL,)),
    Wrapped("subdivision", "barycenter_preimage", ("verdict_s.p50",), (GC,), (CL,)),
    # the declaration format and the command surface
    Wrapped("dsl", "parse", ("setup_s", "verdict_s.p50"), WORKLOADS),
    Wrapped("cli", "run", ("verdict_s.p50",), WORKLOADS),
    Wrapped("cli", "emit", ("verdict_s.p50",), WORKLOADS),
)

# Counters beyond calls and times: name -> (unit, better, what it counts).
COUNTERS = {
    "sset.pullback.gens_out": ("count", "lower", "generators of all pullbacks built"),
    "sset.product_many.gens_out": ("count", "lower", "generators of all products built"),
    "fibration.comparisons": ("count", "lower", "comparison checks made by weak checks"),
    "fibration.preimage_dup_ratio": (
        "ratio", "lower", "preimages built per distinct (map, sigma, bound) in a job"),
    "homology.chain_rank_sum": ("count", "lower", "chain ranks of all complexes built"),
    "homology.certificates": ("count", "lower", "iso certificates returned"),
    "snf.zero_calls": ("count", "lower", "Smith forms of zero matrices"),
    "snf.zero_share": ("ratio", "lower", "share of Smith forms on zero matrices"),
    "snf.nnz_in": ("count", "lower", "nonzero entries handed to Smith forms"),
    "snf.max_cells": ("count", "lower", "largest rows x cols handed to a Smith form"),
    "dsl.parse.bytes": ("bytes", "lower", "declaration bytes parsed"),
    "cli.emit.bytes": ("bytes", "lower", "report bytes emitted"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric a traced run reports: name -> (unit, better)."""
    out = {}
    for w in WRAPPED:
        out[f"{w.name}.calls"] = ("count", "lower")
        out[f"{w.name}.s"] = ("s", "lower")
        out[f"{w.name}.self_s"] = ("s", "lower")
    out.update({name: spec[:2] for name, spec in COUNTERS.items()})
    out["trace_overhead_s"] = ("s", "lower")
    return out


def _bucket(n: int) -> str:
    """Power-of-two range holding n: 0, 1, 2-3, 4-7, ..."""
    if n < 2:
        return str(n)
    low = 1 << (n.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


class Tracer:
    """Collects spans and counters of traced jobs in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.snf_shapes: dict[str, list] = {}   # "RxC zero|nonzero" -> [calls, seconds]
        self.sites: dict[str, list[str]] = {}   # function -> rebound names
        self.origin = time.perf_counter()
        self._stack: list[list] = []
        self._job = None
        self._max_cells = 0
        self._preimage_keys: set = set()
        self._complexes: dict[int, object] = {}

    # -- installing and removing the wrappers ------------------------------

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: rebind every wrapped function, then restore."""
        modules = [m for n, m in sys.modules.items()
                   if n == "homfib" or n.startswith("homfib.")]
        installed = []
        try:
            for w in WRAPPED:
                module = sys.modules[f"homfib.{w.module}"]
                owner_name, _, attr = w.qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    sites = [(owner, attr)]
                else:
                    original = getattr(module, attr)
                    sites = [(m, k) for m in modules for k, v in vars(m).items()
                             if v is original]
                self.sites[w.name] = sorted(f"{getattr(o, '__name__', o)}.{a}"
                                            for o, a in sites)
                wrapper = self._wrap(w.name, original)
                for owner, attr in sites:
                    setattr(owner, attr, wrapper)
                    installed.append((owner, attr, original))
            self._job = job_id
            yield
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)
            self._job = None
            self._stack.clear()
            self._preimage_keys.clear()
            self._complexes.clear()

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args) if before else None
            parent = stack[-1] if stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)     # reserve the id, filled on exit
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self.spans[frame[0]] = (frame[0], parent[0] if parent else None, self._job,
                                        name, start - self.origin, duration)
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if parent:
                    parent[1] += duration
            if after:
                after(self, args, result, state, duration)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out = {}
        for w in WRAPPED:
            out[f"{w.name}.calls"] = self.calls[w.name]
            out[f"{w.name}.s"] = self.total[w.name]
            out[f"{w.name}.self_s"] = self.self_time[w.name]
        c = self.counters
        out.update({name: c[name] for name in COUNTERS})
        built, distinct = c["preimages_built"], c["preimages_distinct"]
        out["fibration.preimage_dup_ratio"] = built / distinct if distinct else 0
        snf_calls = self.calls["snf.smith_normal_form"]
        out["snf.zero_share"] = c["snf.zero_calls"] / snf_calls if snf_calls else 0
        out["snf.max_cells"] = self._max_cells
        out["trace_overhead_s"] = overhead_s
        return out

    def shape_histogram(self) -> list[dict]:
        """SNF calls by shape bucket, largest total time first."""
        rows = []
        for key, (calls, seconds) in self.snf_shapes.items():
            shape, kind = key.split(" ")
            rows.append({"shape": shape, "kind": kind, "calls": calls, "s": seconds})
        return sorted(rows, key=lambda r: (-r["s"], r["shape"], r["kind"]))


# -- counters, per wrapped function --------------------------------------------

def _snf_before(tr: Tracer, args):
    m = args[0]
    nnz = m.nnz()
    cells = m.nrows * m.ncols
    tr.counters["snf.nnz_in"] += nnz
    tr.counters["snf.zero_calls"] += nnz == 0
    tr._max_cells = max(tr._max_cells, cells)
    kind = "zero" if nnz == 0 else "nonzero"
    return f"{_bucket(m.nrows)}x{_bucket(m.ncols)} {kind}"


def _snf_after(tr: Tracer, args, result, key, duration):
    entry = tr.snf_shapes.setdefault(key, [0, 0.0])
    entry[0] += 1
    entry[1] += duration


def _record_before(tr: Tracer, args):
    return tr.calls["sset.pullback"]


def _record_after(tr: Tracer, args, result, pullbacks_before, duration):
    # record() builds a preimage exactly when it calls pullback; the
    # distinct key says how many of those builds a job really needed.
    if tr.calls["sset.pullback"] > pullbacks_before:
        calc, sigma = args[0], args[1]
        tr.counters["preimages_built"] += 1
        key = (tr._job, id(calc.p), sigma, calc.max_dim)
        if key not in tr._preimage_keys:
            tr._preimage_keys.add(key)
            tr.counters["preimages_distinct"] += 1


def _chains_after(tr: Tracer, args, cc, state, duration):
    # normalized_chains memoizes on the space; count each complex once.
    if id(cc) not in tr._complexes:
        tr._complexes[id(cc)] = cc
        tr.counters["homology.chain_rank_sum"] += sum(cc.dim(k) for k in range(cc.max_dim + 1))


def _count(name, measure):
    def after(tr: Tracer, args, result, state, duration):
        tr.counters[name] += measure(args, result)
    return after


_BEFORE = {
    "snf.smith_normal_form": _snf_before,
    "fibration.PreimageCalculator.record": _record_before,
}
_AFTER = {
    "snf.smith_normal_form": _snf_after,
    "fibration.PreimageCalculator.record": _record_after,
    "homology.normalized_chains": _chains_after,
    "sset.pullback": _count("sset.pullback.gens_out", lambda a, r: r.space.gen_count()),
    "sset.product_many": _count("sset.product_many.gens_out", lambda a, r: r.space.gen_count()),
    "fibration.weak_fibration_check": _count("fibration.comparisons", lambda a, r: len(r.checks)),
    "homology.is_homology_iso": _count("homology.certificates", lambda a, r: len(r[1])),
    "dsl.parse": _count("dsl.parse.bytes", lambda a, r: len(a[0].encode())),
    "cli.emit": _count("cli.emit.bytes", lambda a, r: len(r.encode())),
}
