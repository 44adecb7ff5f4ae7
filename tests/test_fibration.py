import importlib
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import homfib as hf
from homfib import cli, dsl
from homfib.fibration import (
    ComparisonCheck,
    KnownFiberSpec,
    PreimageCalculator,
    classify_image,
    dp,
    dp_along,
    fiber_homology_over_contractible,
    preimage_calculator,
    pullback_fibration,
    record_last_vertex_lemma,
    strong_check_via_known_fiber,
    vertex_components,
    weak_fibration_check,
    WeakFibrationReport,
)
from homfib.borel import borel_total, from_monoid, restriction_diagram, telescope_diagram
from homfib.homology import chain_map_images
from homfib.sset import (
    PositionMap,
    SimplexRef,
    SimplicialMap,
    constant_map,
    monotone_of_ref,
    ref_from_monotone,
    tuple_into,
)

from corpus import (CONE_DOCUMENT, MOORE_DOCUMENT, ROUND_DOCUMENT, collapse_circle_to_interval,
                    corpus_maps, projection_over_simplex, two_points)
from oracles import cyclic_table, weak_check_oracle
from strategies import complex_over_simplex, maps_of_ssets, maps_to_simplex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the package exports a function named homology, so reach the modules by path
homology_module = importlib.import_module("homfib.homology")
fibration_module = importlib.import_module("homfib.fibration")
borel_module = importlib.import_module("homfib.borel")
snf_module = importlib.import_module("homfib.snf")


def generating_comparisons(sigma):
    """(op, rho, phi) for the faces, then the degeneracies, of a base simplex;
    the comparison made from (rho, phi) runs dp(rho . phi) -> dp(rho)."""
    yield from fibration_module._face_comparisons(sigma)
    for i in range(sigma.dim + 1):
        yield fibration_module._degeneracy_comparison(sigma, i)


# ---------------------------------------------------------------------------
# dp
# ---------------------------------------------------------------------------

def test_dp_of_identity_is_simplex():
    B = hf.standard_simplex(2)
    rec = dp(hf.identity_map(B), B.ref((0, 1, 2)))
    assert hf.is_acyclic(rec.space, 1)
    assert hf.validate(rec.space).ok
    # base projection is an isomorphism onto Delta[2]
    assert hf.is_homology_iso(rec.to_left, 1)[0]


def test_dp_of_projection_is_simplex_times_fiber():
    p = projection_over_simplex(1, two_points())
    B = p.target
    rec = dp(p, B.ref((0, 1)))
    assert [hf.homology(rec.space, k).summary() for k in (0, 1)] == [(2, ()), (0, ())]
    prod = hf.product(hf.standard_simplex(1), two_points())
    assert rec.space.counts()[:2] == prod.space.counts()[:2]


def test_dp_collapse_circle():
    # the edge preimage is the whole circle, the vertex preimages are not
    p = collapse_circle_to_interval()
    B = p.target
    edge = dp(p, B.ref((0, 1)))
    assert hf.homology(edge.space, 1).summary() == (1, ())
    v0 = dp(p, B.ref((0,)))
    assert hf.homology(v0.space, 1).summary() == (0, ())
    assert hf.homology(v0.space, 0).summary() == (1, ())
    v1 = dp(p, B.ref((1,)))
    assert v1.space.counts()[0] == 1


def test_dp_of_degenerate_simplex():
    p = hf.cyclic_cover_map(6, 3)
    B = p.target
    s_edge = hf.degenerate(B.ref(("e", 0)), 0)
    rec = dp(p, s_edge)
    assert hf.validate(rec.space).ok
    assert hf.homology(rec.space, 0).summary() == (2, ())


def test_dp_rejects_foreign_simplex():
    p = hf.cyclic_cover_map(6, 3)
    with pytest.raises(ValueError):
        dp(p, SimplexRef("nope", (), 0))


def test_dp_along_identity_recovers_total_space():
    p = hf.cyclic_cover_map(6, 3)
    pb = dp_along(p, hf.identity_map(p.target))
    assert pb.space.counts()[:2] == p.source.counts()
    assert all(c == 0 for c in pb.space.counts()[2:])
    ok, _ = hf.is_homology_iso(pb.to_right, 1)
    assert ok


def test_dp_along_vertex_inclusion_is_fiber():
    p = hf.cyclic_cover_map(6, 3)
    B = p.target
    v = SimplicialMap(hf.point(), B, {(0,): B.ref(("v", 0))})
    pb = dp_along(p, v)
    assert pb.space.counts()[0] == 2


def test_dp_along_preserves_coproducts():
    p = hf.cyclic_cover_map(6, 3)
    B = p.target
    two, injs = hf.disjoint_union([hf.point(), hf.point()])
    f = SimplicialMap(two, B, {(0, (0,)): B.ref(("v", 0)), (1, (0,)): B.ref(("v", 1))})
    pb = dp_along(p, f)
    assert pb.space.counts()[0] == 4
    assert hf.homology(pb.space, 0).summary() == (4, ())


# ---------------------------------------------------------------------------
# weak fibration checker
# ---------------------------------------------------------------------------

def test_projection_is_weak_fibration():
    p = projection_over_simplex(1, two_points())
    report = weak_fibration_check(p, 1)
    assert report.verdict
    assert not report.failures()


def test_projection_with_circle_fiber():
    p = projection_over_simplex(1, hf.boundary(2))
    assert weak_fibration_check(p, 1).verdict


def test_covering_is_weak_fibration():
    assert weak_fibration_check(hf.cyclic_cover_map(6, 3), 1).verdict


def test_collapse_fails_with_witness_at_degree_one():
    report = weak_fibration_check(collapse_circle_to_interval(), 1)
    assert not report.verdict
    edge_failures = [c for c in report.failures()
                     if c.sigma.gen == (0, 1) and c.op == ("d", 1)]
    assert edge_failures
    bad_degrees = [cert.degree for cert in edge_failures[0].certificates if not cert.ok]
    assert bad_degrees == [1]


def test_deep_ops_audit_agrees_on_small_cases():
    p = projection_over_simplex(1, two_points())
    assert weak_fibration_check(p, 1, deep_ops=True).verdict
    assert not weak_fibration_check(collapse_circle_to_interval(), 1, deep_ops=True).verdict


def test_weak_check_invariant_under_isomorphism():
    # precompose the covering with a rotation isomorphism of the 6-gon
    p = hf.cyclic_cover_map(6, 3)
    c6 = p.source
    rot = SimplicialMap(c6, c6, {
        **{("v", t): c6.ref(("v", (t + 2) % 6)) for t in range(6)},
        **{("e", t): c6.ref(("e", (t + 2) % 6)) for t in range(6)},
    })
    assert hf.validate_map(rot).ok
    assert weak_fibration_check(p.compose(rot), 1).verdict


# ---------------------------------------------------------------------------
# pullback stability
# ---------------------------------------------------------------------------

def test_pullback_along_identity_is_same_map():
    p = hf.cyclic_cover_map(6, 3)
    pulled = pullback_fibration(p, hf.identity_map(p.target))
    assert pulled.map.source.counts()[:2] == p.source.counts()
    assert weak_fibration_check(pulled.map, 1).verdict


def test_pullback_cover_along_cover():
    p = hf.cyclic_cover_map(6, 3)
    f = hf.cyclic_cover_map(12, 3)
    pulled = pullback_fibration(p, f)
    assert pulled.map.source.counts()[0] == 24
    assert weak_fibration_check(pulled.map, 1).verdict


def test_pullback_along_vertex_inclusion():
    p = hf.cyclic_cover_map(6, 3)
    B = p.target
    v = SimplicialMap(hf.point(), B, {(0,): B.ref(("v", 0))})
    pulled = pullback_fibration(p, v)
    assert weak_fibration_check(pulled.map, 1).verdict


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data(), st.integers(1, 2))
def test_weak_fibrations_are_stable_under_pullback(data, m):
    # the preimage of a simplex tau of K under the pulled-back map is
    # dp(f tau), and its face comparisons are comparisons of p, degenerate
    # f tau included; f is not a representing map
    p = data.draw(maps_to_simplex(m))
    up_to = p.source.max_dim
    assume(weak_fibration_check(p, up_to).verdict)
    f = data.draw(maps_to_simplex(m))
    pulled = pullback_fibration(p, f)
    assert hf.validate(pulled.map.source).ok and hf.validate_map(pulled.map).ok
    assert weak_fibration_check(pulled.map, min(up_to, f.source.max_dim)).verdict


# ---------------------------------------------------------------------------
# contractible bases
# ---------------------------------------------------------------------------

def test_product_over_simplex_table():
    p = projection_over_simplex(2, two_points())
    report = fiber_homology_over_contractible(p, 1)
    assert report.verdict
    assert report.table == [(2, ()), (0, ())]
    assert not report.warnings


def test_identity_of_simplex_table():
    p = hf.identity_map(hf.standard_simplex(3))
    report = fiber_homology_over_contractible(p, 2)
    assert report.verdict
    assert report.table == [(1, ()), (0, ()), (0, ())]


def test_suspension_of_acyclic_over_interval():
    A = hf.presentation_complex(["a"], [["a"]])
    SA, f = hf.suspension(A)
    report = fiber_homology_over_contractible(f, 2)
    assert report.verdict
    assert report.table == [(1, ()), (0, ()), (0, ())]


def test_warns_on_bad_base():
    p = hf.identity_map(hf.boundary(2))
    report = fiber_homology_over_contractible(p, 0)
    assert report.warnings


# ---------------------------------------------------------------------------
# known fibers
# ---------------------------------------------------------------------------

def test_strong_check_covering():
    p = hf.cyclic_cover_map(6, 3)
    spec = KnownFiberSpec(("v", 0), two_points(), "covering fiber")
    report = strong_check_via_known_fiber(p, spec, 1)
    assert report.verdict and report.fiber_table_ok


def test_strong_check_product():
    p = projection_over_simplex(2, two_points())
    spec = KnownFiberSpec((0,), two_points(), "product fiber")
    assert strong_check_via_known_fiber(p, spec, 1).verdict


def test_checks_on_one_map_share_preimages():
    # the weak check builds every dp(sigma) at bound up_to + 1; the strong
    # check and dp at that bound reuse those records instead of rebuilding
    p = hf.cyclic_cover_map(6, 3)
    assert weak_fibration_check(p, 1).verdict
    calc = preimage_calculator(p, 2)
    built = dict(calc._records)
    spec = KnownFiberSpec(("v", 0), two_points(), "covering fiber")
    assert strong_check_via_known_fiber(p, spec, 1).verdict
    assert calc._records == built
    sigma = p.target.ref(("e", 0))
    assert dp(p, sigma, max_dim=2) is built[sigma]
    assert preimage_calculator(p, 1) is not calc


def test_comparison_refuses_a_vertex_table_that_is_not_monotone():
    p = hf.cyclic_cover_map(6, 3)
    with pytest.raises(ValueError, match="not monotone"):
        PreimageCalculator(p, 2).comparison(p.target.ref(("e", 0)), (1, 0))


def test_certificates_are_fresh_per_call():
    # no certificate or list is shared between calls, and a built check's
    # are its own; the faces one call deduces share one list of passing
    # certificates.  The collapse fails, and the Z/2 Borel projection
    # passes with the faces of its 2-simplices deduced, not built
    def objects(checks):
        return [id(x) for check in checks for cert in check.certificates
                for x in (cert, cert.kernel, cert.cokernel)]

    for p, up_to, verdict, deduced in ((collapse_circle_to_interval(), 1, False, 0),
                                       (borel_projection("Z/2", 3), 2, True, 46)):
        first = weak_fibration_check(p, up_to)
        second = weak_fibration_check(p, up_to)
        assert first == second and first.verdict == verdict
        assert not set(objects(first.checks)) & set(objects(second.checks))
        lists = Counter(id(check.certificates) for check in first.checks)
        shared = [check for check in first.checks if lists[id(check.certificates)] > 1]
        assert len(shared) == deduced
        built = [check for check in first.checks if lists[id(check.certificates)] == 1]
        assert len(set(objects(built))) == len(objects(built))
        certs = [cert for check in first.checks for cert in check.certificates]
        for cert in certs:
            cert.kernel.append(-1)
            cert.cokernel.append(-1)
        assert weak_fibration_check(p, up_to) == second
        assert all(-1 not in cert.kernel + cert.cokernel
                   for check in second.checks for cert in check.certificates)


def test_group_completion_work_counts(monkeypatch):
    # each distinct dp(sigma) is pulled back once per map and bound, and
    # the job makes at most 250 Smith forms.  Only face comparisons build
    # preimages, so no dp(s_i sigma) is pulled back: 20 pullbacks, where
    # 69 were built with the degeneracies.  Only the pullbacks build
    # representing maps, one per record; a comparison reads the one face of
    # rho it needs with restrict, where comparisons made 82 representing
    # maps before.  Gate 4's strong check reads what the weak check
    # certified: its 14 vertex comparisons dp(sigma(0)) -> dp(sigma)
    # compose from certified ones, so no comparison is built once the weak
    # check has returned, where 14 were.  The projection satisfies the
    # last-vertex lemma, so the weak check builds only each edge's vertex
    # inclusion dp(e(0)) -> dp(e), the action of u and of t, and decides
    # every other face from those: fibration makes 2 iso tests and pulls
    # back 7 preimages (the vertex, 2 edges, and 4 for the levels), each
    # with one representing map.  Gate 4 reads the vertex fibre at the
    # construction's bound, on the calculator the weak and strong checks
    # use, so the projection keeps one calculator; reading it at F's
    # dimension took a second calculator, 8 pullbacks and 8 representing
    # maps.  It made 16 iso tests and 20 pullbacks on 19 simplices deciding
    # faces on the vertex inclusions dp(sigma(0)) -> dp(sigma) of 4
    # 2-simplices and 8 3-simplices, 48 building every face, and 62 before
    # the strong check read what the weak check certified.  No preimage of
    # dimension >= 2 is left on the projection's calculator, and no space
    # keeps a table of its simplices' faces.
    snf_calls, pullbacks, representing, made = [], [], [], []
    isos, late_comparisons, weak_done, projection = [0], [0], [False], []
    real_snf = homology_module.smith_normal_form
    real_pullback = fibration_module.pullback
    real_representing = fibration_module.representing_map
    real_iso = fibration_module.is_homology_iso
    real_comparison = PreimageCalculator.comparison
    real_weak = borel_module.weak_fibration_check

    def counting_iso(*args, **kwargs):
        isos[0] += 1
        return real_iso(*args, **kwargs)

    def counting_comparison(self, rho, phi):
        late_comparisons[0] += weak_done[0]
        made.append((rho, phi))
        return real_comparison(self, rho, phi)

    def watched_weak(*args, **kwargs):
        report = real_weak(*args, **kwargs)
        weak_done[0] = True
        projection.append(args[0])
        return report

    def counting_representing(B, ref, domain=None):
        representing.append((B, ref))
        return real_representing(B, ref, domain)

    def counting_snf(m):
        snf_calls.append(m)
        return real_snf(m)

    def counting_pullback(f, g, N=None):
        sigma = f.assignment[tuple(range(f.source.max_dim + 1))]
        pullbacks.append((g, sigma, N))
        return real_pullback(f, g, N)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting_snf)
    monkeypatch.setattr(fibration_module, "pullback", counting_pullback)
    monkeypatch.setattr(fibration_module, "representing_map", counting_representing)
    monkeypatch.setattr(fibration_module, "is_homology_iso", counting_iso)
    monkeypatch.setattr(PreimageCalculator, "comparison", counting_comparison)
    monkeypatch.setattr(borel_module, "weak_fibration_check", watched_weak)
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    report = cli.run("group-completion", doc, {"target": "Z2", "max_dim": 3})
    assert report.all_pass and weak_done[0]
    assert isos[0] == 2
    assert late_comparisons[0] == 0
    # a passing check builds no comparison into a simplex of dimension >= 2
    assert [(rho.dim, phi) for rho, phi in made] == [(1, (0,)), (1, (0,))]
    assert len(snf_calls) <= 250
    assert len(pullbacks) == 7
    assert len({(id(g), sigma, N) for g, sigma, N in pullbacks}) == 7
    assert not any(sigma.is_degenerate() for _, sigma, _ in pullbacks)
    assert len(representing) == len({(id(B), sigma) for B, sigma in representing}) == 7
    assert not any("representing" in B._cache for B, _ in representing)
    [pi] = projection
    assert preimage_calculator(pi, 3).retracts
    calculators = [calc for key, calc in pi._cache.items() if key[0] == "preimages"]
    assert calculators == [preimage_calculator(pi, 3)]
    assert max(sigma.dim for calc in calculators for sigma in calc._records) == 1


def test_comparisons_build_no_standard_maps(monkeypatch):
    # a comparison's phi is its vertex table, so no standard map between
    # standard simplices is built: building phi and a representing map per
    # comparison made 318 simplicial maps on this job, 62 of them standard
    # maps.  A face comparison is a PositionMap whose assignment nobody
    # reads, and the legs of a pullback or a product are built when read,
    # which the weak check never does: 23 maps, where 164 were built with
    # the comparisons as assignments and every leg built eagerly, 36
    # before the weak check decided faces by the last-vertex lemma, and 24
    # while gate 4 read the vertex fibre on a calculator of its own, whose
    # pullback built one more representing map.
    built, standard, assigned = [0], [0], [0]
    real_init = SimplicialMap.__init__
    real_assignment = PositionMap.assignment.func

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    def counting_assignment(self):
        assigned[0] += 1
        return real_assignment(self)

    def counting_standard(real):
        def standard_map(*args, **kwargs):
            standard[0] += 1
            return real(*args, **kwargs)
        return standard_map

    monkeypatch.setattr(SimplicialMap, "__init__", counting_init)
    counted = cached_property(counting_assignment)
    counted.__set_name__(PositionMap, "assignment")
    monkeypatch.setattr(PositionMap, "assignment", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("homfib") and hasattr(module, "standard_map"):
            monkeypatch.setattr(module, "standard_map", counting_standard(module.standard_map))
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    report = cli.run("group-completion", doc, {"target": "Z2", "max_dim": 3})
    assert report.all_pass
    assert standard[0] == 0
    assert built[0] == 23
    assert assigned[0] == 0


def pullback_work(monkeypatch, fixture, target):
    """(simplices built and tested inside pullback, generators it kept)
    over group-completion on the fixture's monoid at N = 3, and whether
    every gate passed."""
    work, kept, inside = [0], [0], [False]
    real_init = SimplexRef.__init__
    real_call = SimplicialMap.__call__
    real_pullback = fibration_module.pullback

    def counting_init(self, *args, **kwargs):
        work[0] += inside[0]
        real_init(self, *args, **kwargs)

    def counting_call(self, ref):
        work[0] += inside[0]
        return real_call(self, ref)

    def counting_pullback(f, g, N=None):
        inside[0] = True
        try:
            result = real_pullback(f, g, N)
        finally:
            inside[0] = False
        kept[0] += result.space.gen_count()
        return result

    monkeypatch.setattr(SimplexRef, "__init__", counting_init)
    monkeypatch.setattr(SimplicialMap, "__call__", counting_call)
    monkeypatch.setattr(fibration_module, "pullback", counting_pullback)
    doc = dsl.parse((FIXTURES / fixture).read_text())
    report = cli.run("group-completion", doc, {"target": target, "max_dim": 3})
    return work[0], kept[0], report.all_pass


def test_pullback_work_is_bounded_by_its_output(monkeypatch):
    # pullback lists the nondegenerate pairs from the generators, so the
    # simplices it builds (SimplexRefs made) and tests (simplices mapped
    # to the base) stay below one per generator it keeps: 146 for 198 on
    # this job, as preimages share the cells over common faces; 149 for 200
    # while gate 4 pulled back the vertex fibre a second time.  Its
    # actions of e fail, so the faces over them, and their preimages of
    # 2- and 3-simplices, are built.  Scanning every simplex of Delta[n]
    # and of E, degenerate ones included, built 2,274 and tested 835, 9.7
    # per generator, on the Z2 job when it kept 320 generators too.
    assert pullback_work(monkeypatch, "idem.hfd", "M2") == (146, 198, False)


def test_pullback_work_on_vertex_and_edge_preimages(monkeypatch):
    # a passing group-completion check pulls back the preimages of
    # vertices and edges only: 22 generators for 27 simplices, where each
    # pullback's own few simplices outweigh its output.  It was 189 for
    # 320 with the preimages of 2- and 3-simplices, and 24 for 30 while
    # gate 4 pulled back the vertex fibre a second time.
    assert pullback_work(monkeypatch, "z2.hfd", "Z2") == (27, 22, True)


def test_group_completion_builds_only_the_transforms_it_reads(monkeypatch):
    # The job reads homology in degrees 0..2 of three spaces: the
    # diagram's value X0 = F(1), two points, whose actions of u and t make
    # the two iso tests of the morphism-actions gate; the vertex preimage
    # that the known-fibre check compares with it (summaries); and B Z2
    # (the homology rows).  The 33 Smith forms are:
    # - 12 boundary forms, one per boundary d_0..d_3 of each space, each
    #   read by both degrees it touches;
    # - 1 cycle-coordinate form, for X0's degree 0, the one basis the
    #   induced maps read that is not empty; X0's empty bases in degrees 1
    #   and 2 and the summaries of the other two spaces make none;
    # - 18 for the 6 induced maps (2 iso tests through degree 2): one of
    #   [matrix | target relations], whose diagonal presents the cokernel
    #   and whose kernel columns the kernel, one for the syzygies and one
    #   for the kernel's presentation;
    # - 2 for the two comparisons of the weak check, dp(vertex) -> dp(edge)
    #   for the two faces of B Z2's edge, two points into four vertices
    #   and two edges, which the relative rule decides through up_to + 1
    #   = 3: the quotient's d_1, the 2 x 2 of its two vertices and two
    #   edges.  A quotient boundary with no row or no column is zero and
    #   gets no form: its d_2 and d_3 (no cell in degrees 2 and 3), and the
    #   boundary above the top degree, zero by truncation.  A form of each
    #   of those would make 39.
    # The 16 transforms built on first read are V of the first two forms
    # of each induced map (12), and for X0's degree 0, the one with a
    # nonzero basis, V1 and V1^-1 of d_0 and U2 and U2^-1 of its cycle
    # form (4).  The 12 cokernels, two per induced map, read a diagonal
    # alone.  A summary builds none: carrying d_{k+1} into cycle
    # coordinates for B Z2's rows built V1^-1 of its d_1 and d_2 too.  The
    # relative rule reads its forms' diagonals alone, so builds none.
    replays, snf_forms, diagonal_reads, relative_forms = [], [], [], []
    real_replay = snf_module._replay
    real_snf = homology_module.smith_normal_form
    real_cokernel = homology_module._cokernel
    real_relative = homology_module.relative_complex_collapses

    def counting_replay(*args):
        replays.append(args)
        return real_replay(*args)

    def counting_snf(m):
        snf_forms.append(real_snf(m))
        return snf_forms[-1]

    def cokernel(form):
        before = len(replays)
        out = real_cokernel(form)
        diagonal_reads.append(len(replays) - before)
        return out

    def relative(*args):
        before = len(snf_forms)
        out = real_relative(*args)
        relative_forms.extend(snf_forms[before:])
        return out

    monkeypatch.setattr(snf_module, "_replay", counting_replay)
    monkeypatch.setattr(homology_module, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology_module, "_cokernel", cokernel)
    monkeypatch.setattr(homology_module, "relative_complex_collapses", relative)
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    report = cli.run("group-completion", doc, {"target": "Z2", "max_dim": 3})
    assert report.all_pass
    assert len(snf_forms) == 33
    assert len(relative_forms) == 2 and not any(form._built for form in relative_forms)
    assert len(replays) == 16
    assert all(len(form._built) <= 2 for form in snf_forms)
    assert sum(len(form._built) for form in snf_forms) == 16
    assert len(diagonal_reads) == 12 and not any(diagonal_reads)


def test_comparison_rejects_a_composite_ring():
    p = hf.cyclic_cover_map(6, 3)
    f = preimage_calculator(p, 2).comparison(p.target.ref(("e", 0)), (0,))
    with pytest.raises(ValueError, match="coefficients must be the integers or Z/p "
                                         "for a prime p, not 4"):
        hf.is_homology_iso(f, 1, coefficients=4)


def test_strong_check_detects_wrong_fiber():
    p = hf.cyclic_cover_map(6, 3)
    spec = KnownFiberSpec(("v", 0), hf.point(), "wrong fiber")
    report = strong_check_via_known_fiber(p, spec, 1)
    assert not report.verdict and not report.fiber_table_ok


def test_strong_check_runs_over_the_coefficients():
    # the point is q's fibre over a; over b it is M(Z/3, 1), acyclic over Z/2
    q = dsl.parse(MOORE_DOCUMENT).maps["q"]
    spec = KnownFiberSpec("a", hf.point(), "point")
    assert not strong_check_via_known_fiber(q, spec, 2).verdict
    report = strong_check_via_known_fiber(q, spec, 2, coefficients=2)
    assert report.verdict and report.declared_table == [(1, ()), (0, ()), (0, ())]
    assert [ok for _, ok in report.vertex_comparisons] == [True, True, True]


def test_vertex_components():
    du, _ = hf.disjoint_union([hf.cyclic_graph(3), hf.standard_simplex(1)])
    comps = vertex_components(du)
    assert len(set(comps.values())) == 2


# ---------------------------------------------------------------------------
# functoriality of the comparisons
# ---------------------------------------------------------------------------

def test_comparison_composition_matches_composite_word():
    # dp is functorial: the comparison for a composite equals the composite
    # of comparisons, generator-wise
    p = hf.cyclic_cover_map(6, 3)
    B = p.target
    sigma = B.ref(("e", 0))
    calc = PreimageCalculator(p, 2)
    via_word = calc.comparison(sigma, (1,))
    # the same vertex inclusion reached in two steps: s_0 then d_0 d_0
    assert hf.validate_map(via_word).ok
    src = via_word.source
    dst = via_word.target
    assert dst.counts()[0] >= src.counts()[0]


def test_dp_comparison_functorial_on_composite_words():
    # the comparison for a composite operator equals the composite of the
    # comparisons, generator for generator
    p = projection_over_simplex(2, two_points())
    B = p.target
    sigma = B.ref((0, 1, 2))
    calc = PreimageCalculator(p, 2)
    outer = calc.comparison(sigma, (0, 1))          # delta^2: [1] -> [2]
    edge = B.face(sigma, 2)
    inner = calc.comparison(edge, (0,))             # delta^1: [0] -> [1]
    direct = calc.comparison(sigma, (0,))           # their composite
    assert direct.assignment == outer.compose(inner).assignment


def test_suspension_of_point_over_interval_has_point_fibers():
    s, f = hf.suspension(hf.point())
    report = fiber_homology_over_contractible(f, 1)
    assert report.verdict
    assert report.table == [(1, ()), (0, ())]


def test_dp_collapse_edge_is_whole_circle():
    p = collapse_circle_to_interval()
    rec = dp(p, p.target.ref((0, 1)), max_dim=1)
    assert rec.space.counts() == (3, 3)


def test_dp_record_carries_neighbor_comparisons():
    # the neighbours of dp(sigma): ('d', i) runs dp(d_i sigma) -> dp(sigma),
    # ('s', i) is the section dp(sigma) -> dp(s_i sigma)
    p = hf.cyclic_cover_map(6, 3)
    sigma = p.target.ref(("e", 0))
    rec = dp(p, sigma, max_dim=2)
    calc = preimage_calculator(p, 2)
    maps = {op: calc.comparison(rho, phi) for op, rho, phi in generating_comparisons(sigma)}
    assert set(maps) == {("d", 0), ("d", 1), ("s", 0), ("s", 1)}
    # face comparisons land in dp(sigma), sections leave from it
    assert all(maps["d", i].target is rec.space for i in (0, 1))
    assert all(maps["s", i].source is rec.space for i in (0, 1))
    for m in maps.values():
        assert hf.validate_map(m).ok


# ---------------------------------------------------------------------------
# an independent verdict oracle for the weak check
# ---------------------------------------------------------------------------

IDEMPOTENT = {("u", "u"): "u", ("u", "e"): "e", ("e", "u"): "e", ("e", "e"): "e"}
MONOIDS = {"Z/2": (cyclic_table(2), 0), "Z/3": (cyclic_table(3), 0), "idempotent": (IDEMPOTENT, "u")}


def borel_projection(monoid, N):
    cat = from_monoid(*MONOIDS[monoid])
    return borel_total(cat, restriction_diagram(cat, "1"), N).pi


def library_verdicts(p, up_to):
    """weak_fibration_check's checks as ((sigma, op), failing degrees)."""
    report = weak_fibration_check(p, up_to)
    assert all(report.lemma.values())
    checks = [((c.sigma, c.op), [t.degree for t in c.certificates if not t.ok])
              for c in report.checks]
    assert report.verdict == (not any(degrees for _, degrees in checks))
    return checks


def assert_matches_oracle(p, up_to):
    assert library_verdicts(p, up_to) == weak_check_oracle(p, up_to)


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_weak_check_matches_the_dense_oracle_on_the_corpus(name):
    p = corpus_maps()[name]
    for up_to in range(p.source.max_dim + 1):
        assert_matches_oracle(p, up_to)


@pytest.mark.parametrize("monoid,N", [(m, N) for m in MONOIDS for N in (1, 2, 3)])
def test_weak_check_matches_the_dense_oracle_on_borel_projections(monoid, N):
    # the idempotent monoid's projection fails: e does not act invertibly
    p = borel_projection(monoid, N)
    checks = weak_check_oracle(p, N - 1)
    assert library_verdicts(p, N - 1) == checks
    assert any(degrees for _, degrees in checks) == (monoid == "idempotent")


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_weak_check_matches_the_dense_oracle_on_maps_to_simplices(data, m):
    p = data.draw(maps_to_simplex(m))
    assert_matches_oracle(p, data.draw(st.integers(0, p.source.max_dim)))


@settings(max_examples=40, deadline=None)
@given(maps_of_ssets(), st.integers(0, 1))
def test_weak_check_matches_the_dense_oracle_on_other_bases(p, up_to):
    assert_matches_oracle(p, up_to)


def test_the_oracle_sees_a_failure_in_each_degree():
    # the collapse of the circle onto an interval fails at degree 1 only,
    # over both ends; two points over the end 0 of an interval fail at
    # degree 0, over d_0 only
    assert [degrees for _, degrees in weak_check_oracle(collapse_circle_to_interval(), 1)] \
        == [[1], [1]]
    d1 = hf.standard_simplex(1)
    p = SimplicialMap(two_points(), d1, {g: d1.ref((0,)) for g in two_points().all_gens()})
    assert [degrees for _, degrees in weak_check_oracle(p, 0)] == [[0], []]


# ---------------------------------------------------------------------------
# faces decided on vertex inclusions: the report of building every face
# ---------------------------------------------------------------------------

ZERO_Z2 = {("u", x): x for x in "utz"} | {(x, "u"): x for x in "utz"} | {
    ("t", "t"): "u", ("t", "z"): "z", ("z", "t"): "z", ("z", "z"): "z"}
LEFT_ZEROS = {("u", x): x for x in "uab"} | {(x, "u"): x for x in "uab"} | {
    (x, y): x for x in "ab" for y in "ab"}
DEDUCTION_MONOIDS = {**MONOIDS, "zero_z2": (ZERO_Z2, "u"), "left_zeros": (LEFT_ZEROS, "u")}
RINGS = (0, 2, 3)


def report_fields(report):
    """Everything a weak check reports: verdict, lemma, and per check its
    simplex, operator, verdict and certificates."""
    return (report.verdict, report.up_to, report.lemma,
            [(c.sigma, c.op, c.ok, [(t.degree, t.kernel, t.cokernel, t.ok)
                                    for t in c.certificates]) for c in report.checks])


def every_face_built(p, up_to, coefficients):
    """report_fields of the weak check made by building every face
    comparison dp(d_i sigma) -> dp(sigma), and each degeneracy comparison
    whose certificate fails, on a fresh calculator."""
    calc = PreimageCalculator(p, up_to + 1)
    checks, lemma = [], {}
    for g in p.target.all_gens():
        sigma = p.target.ref(g)
        for op, rho, phi in fibration_module._weak_comparisons(sigma, lemma):
            ok, certs = hf.is_homology_iso(calc.comparison(rho, phi), up_to, coefficients)
            checks.append(ComparisonCheck(sigma, op, ok, certs))
    return report_fields(WeakFibrationReport(all(c.ok for c in checks), up_to, checks, lemma))


def assert_deductions_match(p, up_tos):
    for up_to in up_tos:
        for ring in RINGS:
            report = weak_fibration_check(p, up_to, coefficients=ring)
            assert report_fields(report) == every_face_built(p, up_to, ring), (up_to, ring)


@pytest.mark.parametrize("name", sorted(corpus_maps()) + ["moore_q"])
def test_deduced_faces_match_every_face_built_on_the_corpus(name):
    p = dsl.parse(MOORE_DOCUMENT).maps["q"] if name == "moore_q" else corpus_maps()[name]
    assert_deductions_match(p, range(p.source.max_dim + 1))


def lemma_constructions():
    """name -> (category, diagram) of the Borel constructions whose
    projections satisfy the last-vertex lemma: restriction diagrams of
    groups and of non-group monoids, and diagrams with a discrete, a
    telescope, a circle and a cone value."""
    cases = {}
    for name, table in {**DEDUCTION_MONOIDS, "Z/4": (cyclic_table(4), 0)}.items():
        cat = from_monoid(*table)
        cases[name] = (cat, restriction_diagram(cat, "1"))
    idem = dsl.parse((FIXTURES / "idem.hfd").read_text())
    m2 = idem.categories["M2"]
    cases["M2 flat"] = (m2, idem.diagrams["flat"])
    cases["M2 telescope"] = (m2, telescope_diagram(m2, "e", 2)[0])
    for name, document in (("round", ROUND_DOCUMENT), ("still", CONE_DOCUMENT)):
        doc = dsl.parse(document)
        cases[name] = (doc.categories["Z2"], doc.diagrams[name])
    return cases


@pytest.mark.parametrize("monoid,N", [(m, N) for m in lemma_constructions() for N in (1, 2, 3)])
def test_deduced_faces_match_every_face_built_on_borel_projections(monoid, N):
    # the faces deduced by the last-vertex lemma are the faces built, and
    # every vertex inclusion V(sigma, n) onto the last vertex, which the
    # weak check never builds, is an isomorphism, over Z, Z/2 and Z/3, at
    # every bound b <= N through degree b - 1; above N the lemma is not
    # recorded
    p = borel_total(*lemma_constructions()[monoid], N).pi
    assert [preimage_calculator(p, b).retracts for b in range(1, N + 2)] == [True] * N + [False]
    assert_deductions_match(p, range(N))
    for b in range(1, N + 1):
        calc = PreimageCalculator(p, b)
        for g in p.target.all_gens():
            sigma = p.target.ref(g)
            if sigma.dim:
                for ring in RINGS:
                    assert hf.is_homology_iso(calc.comparison(sigma, (sigma.dim,)), b - 1, ring)[0]


@settings(max_examples=40, deadline=None)
@given(maps_of_ssets(), st.integers(0, 1))
def test_deduced_faces_match_every_face_built_on_other_bases(p, up_to):
    assert_deductions_match(p, [up_to])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 3))
def test_deduced_faces_match_every_face_built_on_maps_to_simplices(data, m):
    p = data.draw(maps_to_simplex(m))
    assert_deductions_match(p, [data.draw(st.integers(0, p.source.max_dim))])


CONE_ON_A_CIRCLE = [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                    (0, 1, 2), (0, 1, 3), (1, 2, 3)]


def loop_over_an_edge():
    """E -> Delta[2] with vertices x, a, c over 0, 1, 2, a loop l at a over
    the degenerate edge 11, edges u, u2: x -> a over 01, w: a -> c over 12
    and z: x -> c over 02, a triangle (l, u, u2) over 011 and triangles
    (w, z, u), (w, z, u2) over 012.  E is acyclic, the preimages of the
    vertex 1, of the edge 01 and of the edge 12 are circles, and the
    preimage of the vertex 2 is a point."""
    x, a, c = (SimplexRef(v) for v in "xac")
    l, u, u2, w, z = (SimplexRef(e, (), 1) for e in ("l", "u", "u2", "w", "z"))
    E = hf.SimplicialSet(2, {0: ["x", "a", "c"], 1: ["l", "u", "u2", "w", "z"],
                             2: ["alpha", "b1", "b2"]},
                         {"l": (a, a), "u": (a, x), "u2": (a, x), "w": (c, a), "z": (c, x),
                          "alpha": (l, u, u2), "b1": (w, z, u), "b2": (w, z, u2)})
    over = {"x": (0,), "a": (1,), "c": (2,), "l": (1, 1), "u": (0, 1), "u2": (0, 1),
            "w": (1, 2), "z": (0, 2), "alpha": (0, 1, 1), "b1": (0, 1, 2), "b2": (0, 1, 2)}
    return SimplicialMap(E, hf.standard_simplex(2),
                         {g: ref_from_monotone(v) for g, v in over.items()})


@pytest.mark.parametrize("p,failing", [
    # a point over the vertex 0: V(sigma, 2), the empty preimage of the
    # vertex 2 into a point, fails in degree 0, so every face of sigma is
    # built, and d_0 sigma, the empty preimage of the edge 12, fails
    (complex_over_simplex([(0,)], (0,), 2),
     [((0, 1), ("d", 0), [0]), ((0, 2), ("d", 0), [0]), ((0, 1, 2), ("d", 0), [0])]),
    # Delta[2] over the vertex 2: every premise of d_2 sigma but V(e, 0),
    # the empty preimage of the vertex 1 into Delta[2], holds for the edge
    # e = sigma|{1, 2}, and d_2 sigma, the empty preimage of the edge 01,
    # fails in degree 0
    (complex_over_simplex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)], (2, 2, 2), 2),
     [((0, 2), ("d", 1), [0]), ((1, 2), ("d", 1), [0]), ((0, 1, 2), ("d", 2), [0])]),
    # the cone with apex 1 on the hollow triangle 0-2-3, by 0 -> 0, 1 -> 1
    # and 2, 3 -> 2: every premise of d_1 sigma but V(d_1 sigma, 1), the
    # interval 2-3 into the circle 0-2-3, holds, and d_1 sigma fails in
    # degree 1
    (complex_over_simplex(CONE_ON_A_CIRCLE, (0, 1, 2, 2), 2),
     [((0, 2), ("d", 0), [1]), ((0, 2), ("d", 1), [1]), ((0, 1, 2), ("d", 1), [1])]),
    # every premise of d_2 sigma but V(e, 1), the point c into the circle
    # over the edge e = sigma|{1, 2}, holds, and d_2 sigma, a circle into
    # the acyclic E, fails in degree 1
    (loop_over_an_edge(),
     [((0, 1), ("d", 1), [1]), ((1, 2), ("d", 0), [1]), ((0, 1, 2), ("d", 0), [1]),
      ((0, 1, 2), ("d", 2), [1])]),
], ids=["point_over_0", "point_over_2", "cone_on_a_circle", "loop_over_an_edge"])
def test_a_failing_face_premise_keeps_the_faces_built(p, failing):
    # V(sigma, 2) is built in each, and holds in all but point_over_0, so a
    # deduction that skipped the failing premise would report the failing
    # face of sigma as passing
    report = weak_fibration_check(p, 1)
    assert [(c.sigma.gen, c.op, [t.degree for t in c.certificates if not t.ok])
            for c in report.checks if not c.ok] == failing
    assert_deductions_match(p, [0, 1])


def test_a_degenerate_face_is_the_only_face_built(monkeypatch):
    # the cone's triangle t has the degenerate face d_2 t = s0 v, so no
    # premise about it is recorded: d_2 t is built, and d_0 t and d_1 t,
    # through the edge e whose vertex inclusion V(e, 1) is recorded, are
    # deduced from V(t, 2), over the identity (all pass) and over a point
    # sent to w (d_2 t and the edge's d_1 fail)
    cone = dsl.parse((FIXTURES / "degenerate_face.hfd").read_text()).ssets["cone"]
    point = hf.point()
    over_w = SimplicialMap(point, cone, {g: cone.ref("w") for g in point.all_gens()})
    t = cone.ref("t")
    made = []
    real_comparison = PreimageCalculator.comparison

    def watched(self, rho, phi):
        made.append((rho, phi))
        return real_comparison(self, rho, phi)

    monkeypatch.setattr(PreimageCalculator, "comparison", watched)
    for p, failing in ((hf.identity_map(cone), []),
                       (over_w, [("e", ("d", 1)), ("t", ("d", 2))])):
        for ring in RINGS:
            made.clear()
            report = weak_fibration_check(p, 1, coefficients=ring)
            assert [(c.sigma.gen, c.op) for c in report.checks if not c.ok] == failing
            assert [phi for rho, phi in made if rho == t] == [(2,), (0, 1)]
            assert report_fields(report) == every_face_built(p, 1, ring)


# ---------------------------------------------------------------------------
# the last-vertex lemma: when its hypotheses fail, faces are built
# ---------------------------------------------------------------------------

def first_vertex_homotopy(n):
    """h(v, 0) = v and h(v, 1) = 0: monotone, but it lowers every vertex but 0."""
    return {(v, t): 0 if t else v for v in range(n + 1) for t in (0, 1)}


def test_retraction_certificate_accepts_only_the_last_vertex_homotopy():
    for n in range(6):
        h = fibration_module.last_vertex_homotopy(n)
        assert fibration_module.retraction_lemma_holds(n, h)
        if n:
            assert not fibration_module.retraction_lemma_holds(n, first_vertex_homotopy(n))
            # the identity at both ends never reaches the last vertex
            assert not fibration_module.retraction_lemma_holds(
                n, {(v, t): v for v in range(n + 1) for t in (0, 1)})


def watched_comparisons(monkeypatch):
    """The list of (rho, phi) that PreimageCalculator.comparison is called
    with from now on."""
    made = []
    real_comparison = PreimageCalculator.comparison
    monkeypatch.setattr(PreimageCalculator, "comparison",
                        lambda self, rho, phi: made.append((rho, phi)) or
                        real_comparison(self, rho, phi))
    return made


def assert_faces_built(p, N, made):
    """The weak check through N - 1 on p builds V(sigma, n) for an
    n-simplex, n >= 2, as without the lemma, and reports every face built."""
    assert not preimage_calculator(p, N).retracts
    made.clear()
    assert_deductions_match(p, [N - 1])
    assert any(rho.dim >= 2 and phi == (rho.dim,) for rho, phi in made)


def twisted(space):
    """A Borel space isomorphic to space by y -> t^n y on the fibre slot of
    level n, t the swap of the two elements of Z/2: every face d_i of a
    level with i >= 1 then moves the fibre slot, and the space is still a
    simplicial space, with the same projection to the base."""
    swap = {SimplexRef(0): SimplexRef(1), SimplexRef(1): SimplexRef(0)}
    moved = []
    for n, X in enumerate(space.levels):
        ids = {g: k for k, g in enumerate(X.all_gens())}
        moved.append([ids[comp, refs[:-1] + (swap[refs[-1]],)] if n % 2 else k
                      for k, (comp, refs) in enumerate(X.all_gens())])
    tables = [[]] + [[[moved[n - 1][table[moved[n][k]]] for k in range(len(table))]
                      for table in space.face_tables[n]] for n in range(1, space.top + 1)]
    return borel_module.SimplicialSpace(space.levels, tables)


def test_a_face_that_moves_the_fibre_slot_keeps_the_faces_built(monkeypatch):
    made = watched_comparisons(monkeypatch)
    cat = from_monoid(*MONOIDS["Z/2"])
    diag = restriction_diagram(cat, "1")
    real_space = borel_module.borel_space
    monkeypatch.setattr(borel_module, "borel_space", lambda c, d, N: twisted(
        real_space(c, d, N)) if d is diag else real_space(c, d, N))
    construction = borel_total(cat, diag, 3)
    assert borel_module.validate_simplicial_space(construction.total_space) == []
    assert not borel_module.last_vertex_lemma_holds(construction)
    assert_faces_built(construction.pi, 3, made)
    assert weak_fibration_check(construction.pi, 2).verdict


def test_a_failing_retraction_certificate_keeps_the_faces_built(monkeypatch):
    # with the homotopy to the first vertex in place of the last, the
    # certificate fails on the poset and the lemma is not used
    made = watched_comparisons(monkeypatch)
    monkeypatch.setattr(borel_module, "last_vertex_homotopy", first_vertex_homotopy)
    for name in ("Z/2", "left_zeros"):
        cat, diag = lemma_constructions()[name]
        assert_faces_built(borel_total(cat, diag, 3).pi, 3, made)


def test_a_degenerate_edge_leaves_the_last_face_built():
    # no Borel projection whose lemma holds has a degenerate face, so the
    # lemma is recorded by hand on the inclusion of an edge e into a triangle t
    # whose d_0 is s0 w: dp(t) is the hollow triangle, and d_2 t, through
    # the degenerate edge t|{1, 2}, is built and fails in degree 1
    v, w, e = SimplexRef("v"), SimplexRef("w"), SimplexRef("e", (), 1)
    E = hf.SimplicialSet(1, {0: ["v", "w"], 1: ["e"]}, {"e": (w, v)})
    B = hf.SimplicialSet(2, {0: ["v", "w"], 1: ["e"], 2: ["t"]},
                         {"e": (w, v), "t": (SimplexRef("w", (0,), 1), e, e)})
    assert hf.validate(B).ok
    p = SimplicialMap(E, B, {g: B.ref(g) for g in E.all_gens()})
    record_last_vertex_lemma(p, 2)
    report = weak_fibration_check(p, 1)
    [last] = [c for c in report.checks if c.sigma.gen == "t" and c.op == ("d", 2)]
    assert not last.ok and [t.degree for t in last.certificates if not t.ok] == [1]
    fields = (last.sigma, last.op, last.ok,
              [(t.degree, t.kernel, t.cokernel, t.ok) for t in last.certificates])
    assert fields in every_face_built(p, 1, 0)[3]


# ---------------------------------------------------------------------------
# the strong check reads what a passing weak check certified
# ---------------------------------------------------------------------------

def certification_maps():
    """name -> (a function that builds the map afresh, the degrees to check
    through, whether the deep_ops audit runs too).  A Borel projection is
    checked through N - 1, as gate 4 does, and at N = 3 without the audit,
    which takes seconds there."""
    out = {name: (lambda name=name: corpus_maps()[name],
                  range(min(p.source.max_dim, 1) + 1), True)
           for name, p in corpus_maps().items()}
    out.update({f"borel_{m}_{N}": (lambda m=m, N=N: borel_projection(m, N), [N - 1], N < 3)
                for m in MONOIDS for N in (1, 2, 3)})
    out["moore_q"] = (lambda: dsl.parse(MOORE_DOCUMENT).maps["q"], range(3), True)
    return out


def component_vertices(B):
    """One vertex of each component of B."""
    firsts = {}
    for v, comp in vertex_components(B).items():
        firsts.setdefault(comp, v)
    return list(firsts.values())


@pytest.mark.parametrize("name", sorted(certification_maps()))
def test_certified_vertex_comparisons_are_isomorphisms(name):
    # the comparisons dp(sigma(0)) -> dp(sigma) that the strong check takes
    # as isomorphisms after a passing weak check, computed directly; and
    # the strong report on the certified map equals the one on the map
    # built again, which no weak check has certified.  Certificates hold
    # per bound and ring, so one map takes every pair in turn.
    build, degrees, audit = certification_maps()[name]
    fresh = build()
    B = fresh.target
    specs = {up_to: [KnownFiberSpec(v, dp(fresh, B.ref(v), up_to + 1).space)
                     for v in component_vertices(B)] for up_to in degrees}
    for deep_ops in (False, True)[:1 + audit]:
        p = build()
        for up_to in degrees:
            calc = preimage_calculator(p, up_to + 1)
            for ring in (0, 2, 3):
                weak = weak_fibration_check(p, up_to, deep_ops=deep_ops, coefficients=ring)
                assert (ring in calc.certified) == weak.verdict
                if not weak.verdict:
                    continue
                for g in B.all_gens():
                    sigma = B.ref(g)
                    if sigma.dim:
                        f = calc.comparison(sigma, (0,))
                        assert hf.is_homology_iso(f, up_to, ring)[0], (up_to, ring, sigma)
                for spec in specs[up_to]:
                    assert strong_check_via_known_fiber(p, spec, up_to, ring) == \
                        strong_check_via_known_fiber(fresh, spec, up_to, ring)


def test_certification_never_crosses_a_bound_or_a_ring():
    # a pass through degree 0 certifies nothing at bound 2, and a failing
    # pass over Z/2 nothing at all: the strong check through degree 1
    # computes the edge's comparison, which fails, as the weak check
    # through degree 1 does
    spec = KnownFiberSpec((0,), hf.point())
    for fail_over_z2 in (False, True):
        p = collapse_circle_to_interval()
        assert weak_fibration_check(p, 0).verdict
        if fail_over_z2:
            assert not weak_fibration_check(p, 1, coefficients=2).verdict
        report = strong_check_via_known_fiber(p, spec, 1)
        assert report.fiber_table_ok and not report.verdict
        assert [sigma.gen for sigma, ok in report.vertex_comparisons if not ok] == [(0, 1)]
        assert not preimage_calculator(p, 2).certified
    # q passes over Z/2 through degree 2, and its edge's comparison still
    # fails over Z, where dp(ab) has H_1 = Z/3
    q = dsl.parse(MOORE_DOCUMENT).maps["q"]
    assert weak_fibration_check(q, 2, coefficients=2).verdict
    report = strong_check_via_known_fiber(q, KnownFiberSpec("a", hf.point()), 2)
    assert [(sigma.gen, ok) for sigma, ok in report.vertex_comparisons] == \
        [("a", True), ("b", False), ("ab", False)]


# ---------------------------------------------------------------------------
# face comparisons as generator positions
# ---------------------------------------------------------------------------

def map_built_comparison(calc, rho, phi):
    """The comparison dp(rho . phi) -> dp(rho) built generator by generator."""
    dst = calc.record(rho)
    src = calc.record(classify_image(calc.p.target, rho, phi))
    return SimplicialMap(src.space, dst.space, {
        (a, b): tuple_into(dst.space, (ref_from_monotone(phi[v] for v in monotone_of_ref(a)), b))
        for a, b in src.space.all_gens()})


def assert_positions_match_maps(p, up_to):
    """Every coface comparison the checks make (faces, the strong check's
    (0,), degeneracy sections) gives the chain map of the map-built one."""
    calc = PreimageCalculator(p, up_to + 1)
    B = p.target
    made = 0
    for g in B.all_gens():
        sigma = B.ref(g)
        cases = list(generating_comparisons(sigma))
        if sigma.dim:
            cases.append((None, sigma, (0,)))
        for _, rho, phi in cases:
            f, built = calc.comparison(rho, phi), map_built_comparison(calc, rho, phi)
            assert isinstance(f, PositionMap)
            for k in range(-1, up_to + 3):
                assert f.images(k) == chain_map_images(built, k)
            assert f.assignment == built.assignment
            made += 1
    return made


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_positions_match_the_map_built_comparisons_on_the_corpus(name):
    p = corpus_maps()[name]
    assert assert_positions_match_maps(p, p.source.max_dim)


@pytest.mark.parametrize("monoid,N", [(m, N) for m in MONOIDS for N in (1, 2, 3)])
def test_positions_match_the_map_built_comparisons_on_borel_projections(monoid, N):
    assert assert_positions_match_maps(borel_projection(monoid, N), N - 1)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_positions_match_the_map_built_comparisons_on_random_maps(data, m):
    p = data.draw(st.one_of(maps_to_simplex(m), maps_of_ssets()))
    assert_positions_match_maps(p, data.draw(st.integers(0, 2)))


def test_a_position_list_of_the_wrong_length_is_refused():
    p = hf.cyclic_cover_map(6, 3)
    calc = PreimageCalculator(p, 2)
    f = calc.comparison(p.target.ref(("e", 0)), (1,))
    short = PositionMap(f.source, f.target, lambda k: f.images(k)[1:])
    with pytest.raises(RuntimeError, match="positions for the"):
        hf.is_homology_iso(short, 1)
    assert hf.is_homology_iso(f, 1)[0]
    assert f.images(-1) == f.images(3) == []
