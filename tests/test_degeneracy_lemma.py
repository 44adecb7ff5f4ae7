"""The degeneracy lemma behind the face-only weak check.

weak_fibration_check computes the face comparisons only; each degeneracy
comparison rests on a homotopy h: [n+1] x [1] -> [n+1] certified on the
poset.  These tests hold the lemma to the comparisons it replaces, on the
corpus, the Borel projections and random maps, and hold the poset
certificate to the simplicial homotopy it stands for.
"""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

import homfib as hf
from homfib import subdivision as sub
from homfib.borel import borel_total, from_monoid, restriction_diagram
from homfib.fibration import (
    ComparisonCheck,
    degeneracy_homotopy,
    degeneracy_lemma_holds,
    preimage_calculator,
    weak_fibration_check,
)
from homfib.sset import (
    SimplicialMap,
    identity_map,
    monotone_of_ref,
    ref_from_monotone,
    standard_map,
    tuple_into,
)

from corpus import corpus_maps
from oracles import cyclic_table
from strategies import maps_to_simplex

fibration_module = importlib.import_module("homfib.fibration")


def borel_projections():
    idem = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    cats = {"Z2": from_monoid(cyclic_table(2), 0), "Z3": from_monoid(cyclic_table(3), 0),
            "M2": from_monoid(idem, "1")}
    bounds = {"Z2": (2, 3), "Z3": (2,), "M2": (2, 3)}
    return {f"borel_{name}_{N}": borel_total(cat, restriction_diagram(cat, "1"), N).pi
            for name, cat in cats.items() for N in bounds[name]}


def lemma_maps():
    return {**corpus_maps(), **borel_projections()}


def generating_comparisons(sigma):
    """(op, rho, phi) for the faces, then the degeneracies, of a base simplex;
    the comparison made from (rho, phi) runs dp(rho . phi) -> dp(rho)."""
    yield from fibration_module._face_comparisons(sigma)
    for i in range(sigma.dim + 1):
        yield fibration_module._degeneracy_comparison(sigma, i)


def checks_with_degeneracies(p, up_to):
    """The weak check with every degeneracy comparison computed, in order."""
    calc = preimage_calculator(p, up_to + 1)
    checks = []
    for g in p.target.all_gens():
        sigma = p.target.ref(g)
        for op, rho, phi in generating_comparisons(sigma):
            ok, certs = hf.is_homology_iso(calc.comparison(rho, phi), up_to)
            checks.append(ComparisonCheck(sigma, op, ok, certs))
    return checks


def assert_lemma_holds(p, up_to, coefficients=(0,)):
    B = p.target
    calc = preimage_calculator(p, up_to + 1)
    for g in B.all_gens():
        for op, rho, phi in generating_comparisons(B.ref(g)):
            if op[0] == "s":
                f = calc.comparison(rho, phi)
                for q in coefficients:
                    assert hf.is_homology_iso(f, up_to, q)[0], (g, op, q)
    full = checks_with_degeneracies(p, up_to)
    report = weak_fibration_check(p, up_to)
    assert report.checks == [c for c in full if c.op[0] == "d"]
    assert report.verdict == all(c.ok for c in full)
    assert report.verdict == weak_fibration_check(p, up_to, deep_ops=True).verdict
    dims = {B.dim_of[g] for g in B.all_gens()}
    assert report.lemma == {(n, i): True for n in dims for i in range(n + 1)}


@pytest.mark.parametrize("name", sorted(lemma_maps()))
def test_degeneracy_comparisons_hold_over_corpus_and_borel(name):
    p = lemma_maps()[name]
    up_to = max(0, min(p.source.max_dim, 2))
    assert_lemma_holds(p, up_to, (0, 2, 3))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_degeneracy_comparisons_hold_on_random_maps(data, m):
    p = data.draw(maps_to_simplex(m))
    assert_lemma_holds(p, p.source.max_dim)


def test_failing_certificate_restores_the_degeneracy_comparisons(monkeypatch):
    # the weak check never rests on an unchecked lemma: with every
    # certificate refused it computes the ('s', i) comparisons again and
    # reports exactly the checks it made with them
    maps = {name: p for name, p in lemma_maps().items() if not name.endswith("_3")}
    expected = {name: checks_with_degeneracies(p, 1) for name, p in maps.items()}
    monkeypatch.setattr(fibration_module, "degeneracy_lemma_holds", lambda n, i, h: False)
    for name, p in maps.items():
        report = weak_fibration_check(p, 1)
        assert report.checks == expected[name], name
        assert report.verdict == all(c.ok for c in expected[name])
        assert report.failures() == [c for c in expected[name] if not c.ok]
        assert report.lemma and not any(report.lemma.values())
    assert not weak_fibration_check(maps["collapse"], 1).verdict


def test_certificate_is_checked_once_per_dimension_and_index(monkeypatch):
    calls = []
    real = fibration_module.degeneracy_lemma_holds

    def counting(n, i, h):
        calls.append((n, i))
        return real(n, i, h)

    monkeypatch.setattr(fibration_module, "degeneracy_lemma_holds", counting)
    p = borel_projections()["borel_Z2_3"]
    report = weak_fibration_check(p, 2)
    assert sorted(calls) == sorted(report.lemma) == \
        [(n, i) for n in range(4) for i in range(n + 1)]
    assert not any(c.op[0] == "s" for c in report.checks)
    calls.clear()
    assert weak_fibration_check(p, 2, deep_ops=True).lemma == {} and not calls


# ---------------------------------------------------------------------------
# the poset certificate against the simplicial homotopy
# ---------------------------------------------------------------------------

def simplicial_certificate(n, i, h):
    """The lemma checked on Delta[n+1] x Delta[1] itself.

    h, a table on [n+1] x [1], must define a simplicial map H onto
    Delta[n+1] that passes validate_map, with H(-, 0) = id and
    H(-, 1) = delta^i sigma^i exactly, and sigma^i H = sigma^i pr.
    """
    top = hf.standard_simplex(n + 1)
    cyl = hf.product(top, hf.standard_simplex(1))
    P = cyl.space
    assignment = {}
    for gen in P.all_gens():
        a, b = gen
        values = [h[u, t] for u, t in zip(monotone_of_ref(a), monotone_of_ref(b))]
        if any(not 0 <= v <= n + 1 for v in values) \
                or any(x > y for x, y in zip(values, values[1:])):
            return False   # no simplex of Delta[n+1] has these vertices
        assignment[gen] = ref_from_monotone(values)
    H = SimplicialMap(P, top, assignment)
    if not hf.validate_map(H).ok:
        return False
    codeg = standard_map(n + 1, n, [v - (v > i) for v in range(n + 2)], top)
    section = standard_map(n, n + 1, [v for v in range(n + 2) if v != i], target=top)
    ends = [SimplicialMap(top, P, {
        g: tuple_into(P, (top.ref(g), ref_from_monotone([t] * (top.dim_of[g] + 1))))
        for g in top.all_gens()}) for t in (0, 1)]
    return (H.compose(ends[0]).assignment == identity_map(top).assignment
            and H.compose(ends[1]).assignment == section.compose(codeg).assignment
            and codeg.compose(H).assignment == codeg.compose(cyl.projections[0]).assignment)


def mutants(n, i):
    """Homotopies that must be refused, by name."""
    h = degeneracy_homotopy(n, i)
    out = {
        "moves i to i-1": {**h, (i, 1): i - 1},
        "swapped ends": {(v, t): h[v, 1 - t] for v, t in h},
    }
    if n >= 1:
        out["moves every vertex up"] = {(v, t): min(v + t, n + 1) for v, t in h}
    if i + 1 <= n:
        out["moves i+1 to i+2, not fibred"] = degeneracy_homotopy(n, i + 1)
    if i >= 1:
        out["also moves i-1, not fibred"] = {**h, (i - 1, 1): i}
    return out


@pytest.mark.parametrize("n", range(4))
def test_poset_certificate_agrees_with_simplicial_homotopy(n):
    for i in range(n + 1):
        h = degeneracy_homotopy(n, i)
        assert degeneracy_lemma_holds(n, i, h)
        assert simplicial_certificate(n, i, h)
        for name, bad in mutants(n, i).items():
            assert not degeneracy_lemma_holds(n, i, bad), (n, i, name)
            assert not simplicial_certificate(n, i, bad), (n, i, name)


def test_certificate_refuses_each_mutant_for_large_n():
    for n in range(4, 12):
        for i in range(n + 1):
            assert degeneracy_lemma_holds(n, i, degeneracy_homotopy(n, i))
            assert not any(degeneracy_lemma_holds(n, i, bad)
                           for bad in mutants(n, i).values())


# ---------------------------------------------------------------------------
# the paper's comparison of definitions
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_weak_fibrations_over_a_simplex_have_barycenter_fibre_of_total_space(data, m):
    # over Delta[m] the face-only weak check is the McDuff-Segal
    # definition; when it passes, the preimage of the barycenter carries
    # the homology of the whole total space
    p = data.draw(maps_to_simplex(m))
    E = p.source
    if not weak_fibration_check(p, E.max_dim).verdict:
        return
    bp = sub.barycenter_preimage(sub.sd_over_simplex(p))
    for k in range(E.max_dim + 1):
        assert hf.homology(bp, k).summary() == hf.homology(E, k).summary()
