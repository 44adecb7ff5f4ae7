import pytest

import homfib as hf
from homfib.borel import (
    BorelConstruction,
    Telescope,
    borel_level,
    borel_space,
    borel_total,
    build_category,
    classifying_space,
    constant_diagram,
    constant_space,
    discrete_space,
    from_monoid,
    group_completion_check,
    realize_map,
    restriction_diagram,
    telescope_diagram,
    thick_realize,
    trivial_diagram,
    validate_category,
    validate_diagram,
    validate_simplicial_space,
    vertex_fiber_isomorphic,
)
from homfib.sset import SimplexRef, SimplicialMap, apply_degeneracies

from oracles import bar_resolution_homology, cyclic_table


def z2_category():
    return from_monoid(cyclic_table(2), 0)


def z3_category():
    return from_monoid(cyclic_table(3), 0)


def idem_category():
    table = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}
    return from_monoid(table, "1")


# ---------------------------------------------------------------------------
# categories and diagrams
# ---------------------------------------------------------------------------

def test_from_monoid_trivial():
    cat = from_monoid({("e", "e"): "e"}, "e")
    assert cat.hom("1", "1").counts() == (1,)
    assert validate_category(cat) == []


def test_from_monoid_z2():
    cat = z2_category()
    assert cat.hom("1", "1").counts() == (2,)
    assert validate_category(cat) == []


def test_from_monoid_idempotent():
    assert validate_category(idem_category()) == []


def test_from_monoid_rejects_nonassociative():
    table = {(a, b): 0 for a in range(2) for b in range(2)}
    table[(0, 0)] = 0
    table[(0, 1)] = 1
    table[(1, 0)] = 1
    table[(1, 1)] = 1  # 1*1=1 but unit is 0: (1,1) breaks nothing; break unit law
    table[(0, 1)] = 0
    with pytest.raises(ValueError):
        from_monoid(table, 0)


def test_from_monoid_rejects_incomplete():
    with pytest.raises(ValueError):
        from_monoid({(0, 0): 0, (0, 1): 1, (1, 0): 1}, 0)


def test_trivial_and_restriction_diagrams_lawful():
    for cat in (z2_category(), z3_category(), idem_category()):
        assert validate_diagram(trivial_diagram(cat)) == []
        assert validate_diagram(restriction_diagram(cat, "1")) == []


def test_restriction_rejects_unknown_object():
    with pytest.raises(ValueError):
        restriction_diagram(z2_category(), "2")


# ---------------------------------------------------------------------------
# Borel levels
# ---------------------------------------------------------------------------

def test_trivial_diagram_level_zero_is_object_set():
    cat = z2_category()
    lvl = borel_level(cat, trivial_diagram(cat), 0, 2)
    assert lvl.counts()[0] == 1


def test_z2_trivial_level_three_has_eight_points():
    cat = z2_category()
    lvl = borel_level(cat, trivial_diagram(cat), 3, 3)
    assert lvl.counts()[0] == 8
    assert all(c == 0 for c in lvl.counts()[1:])


def test_z2_regular_level_two():
    cat = z2_category()
    lvl = borel_level(cat, restriction_diagram(cat, "1"), 2, 2)
    assert lvl.counts()[0] == 8


def test_borel_space_satisfies_simplicial_identities():
    cat = z2_category()
    for diag in (trivial_diagram(cat), restriction_diagram(cat, "1")):
        space = borel_space(cat, diag, 3)
        assert validate_simplicial_space(space) == []


def test_d0_uses_the_action():
    cat = z2_category()
    diag = restriction_diagram(cat, "1")
    space = borel_space(cat, diag, 2)
    lvl1 = space.levels[1]
    # (f_1, x) with d_0 = x * f_1
    gen = (("1", "1"), (SimplexRef(1, (), 0), SimplexRef(1, (), 0)))
    image = space.face_maps[1][0].assignment[gen]
    assert image.gen == (("1",), (SimplexRef(0, (), 0),))


# ---------------------------------------------------------------------------
# thick realization
# ---------------------------------------------------------------------------

def test_fat_point_stage_one_is_circle():
    r = thick_realize(constant_space(hf.point(), 1), 1)
    assert r.space.counts() == (1, 1)
    assert hf.homology(r.space, 1).summary() == (1, ())


@pytest.mark.parametrize("N", [2, 3, 4])
def test_fat_point_acyclic_below_stage(N):
    r = thick_realize(constant_space(hf.point(), N), N)
    assert hf.validate(r.space).ok
    assert hf.is_acyclic(r.space, N - 1)


def test_realization_filtration_stabilizes():
    cat = z2_category()
    space4 = borel_space(cat, trivial_diagram(cat), 4)
    r3 = thick_realize(borel_space(cat, trivial_diagram(cat), 3), 3)
    r4 = thick_realize(space4, 4)
    for k in range(3):
        assert hf.homology(r3.space, k).summary() == hf.homology(r4.space, k).summary()


def test_subspace_at_stage():
    r = thick_realize(constant_space(hf.point(), 3), 3)
    sub = r.subspace_at_stage(1)
    assert sub.counts()[:2] == (1, 1)
    assert hf.homology(sub, 1).summary() == (1, ())


def test_classifying_space_z2_matches_bar_oracle():
    cat = z2_category()
    r = classifying_space(cat, 6)
    got = [hf.homology(r.space, k).summary() for k in range(6)]
    assert got == bar_resolution_homology(cyclic_table(2), 0, 5)


def test_classifying_space_z3_matches_bar_oracle():
    cat = z3_category()
    r = classifying_space(cat, 4)
    got = [hf.homology(r.space, k).summary() for k in range(4)]
    assert got == bar_resolution_homology(cyclic_table(3), 0, 3)


def test_classifying_space_trivial_monoid_acyclic():
    cat = from_monoid({("e", "e"): "e"}, "e")
    r = classifying_space(cat, 4)
    assert hf.is_acyclic(r.space, 3)


def test_trivial_diagram_total_is_base():
    # E_M T = B M by construction, generator for generator
    cat = z2_category()
    bc = borel_total(cat, trivial_diagram(cat), 3)
    assert bc.total.space.generators == bc.base.space.generators


# ---------------------------------------------------------------------------
# the projection and its fibers
# ---------------------------------------------------------------------------

def test_pi_is_valid_and_realization_validates():
    cat = z2_category()
    bc = borel_total(cat, restriction_diagram(cat, "1"), 3)
    assert hf.validate(bc.total.space).ok
    assert hf.validate(bc.base.space).ok
    assert hf.validate_map(bc.pi).ok


def test_total_space_of_restriction_is_acyclic():
    for cat in (z2_category(), z3_category(), idem_category()):
        bc = borel_total(cat, restriction_diagram(cat, "1"), 3)
        assert hf.is_acyclic(bc.total.space, 2)


def test_vertex_fiber_isomorphic_to_diagram_value():
    cat = z2_category()
    for diag in (restriction_diagram(cat, "1"), trivial_diagram(cat)):
        bc = borel_total(cat, diag, 3)
        assert vertex_fiber_isomorphic(bc, "1")


def test_fiber_inclusion_valid():
    cat = z2_category()
    bc = borel_total(cat, restriction_diagram(cat, "1"), 3)
    assert hf.validate_map(bc.fiber_inclusion("1")).ok


# ---------------------------------------------------------------------------
# telescopes
# ---------------------------------------------------------------------------

def test_telescope_of_identity_keeps_homology():
    cat = z2_category()
    hom = cat.hom("1", "1")
    step = hf.identity_map(hom)
    tel = Telescope(hom, step, 4)
    assert hf.validate(tel.space).ok
    assert hf.homology(tel.space, 0).summary() == (2, ())
    assert hf.homology(tel.space, 1).summary() == (0, ())


def test_telescope_of_invertible_step_two_lines():
    diag, tels = telescope_diagram(z2_category(), 1, 4)
    tel = tels["1"]
    assert hf.homology(tel.space, 0).summary() == (2, ())
    assert hf.homology(tel.space, 1).summary() == (0, ())
    assert validate_diagram(diag) == []


def test_telescope_idempotent_strict_model():
    # the strict finite telescope retracts onto its last copy, so the
    # non-image element contributes a fresh component at every stage
    diag, tels = telescope_diagram(idem_category(), "e", 4)
    tel = tels["1"]
    assert hf.validate(tel.space).ok
    assert hf.homology(tel.space, 0).summary() == (2, ())
    assert hf.homology(tel.space, 1).summary() == (0, ())
    assert validate_diagram(diag) == []


def test_telescope_stability():
    for stages in (2, 3):
        d1, t1 = telescope_diagram(idem_category(), "e", stages)
        d2, t2 = telescope_diagram(idem_category(), "e", stages + 1)
        for k in (0, 1):
            assert (hf.homology(t1["1"].space, k).summary()
                    == hf.homology(t2["1"].space, k).summary())


def test_telescope_rejects_bad_vertex():
    with pytest.raises(ValueError):
        telescope_diagram(z2_category(), 7, 3)


def test_stage_inclusions_are_valid():
    cat = z2_category()
    hom = cat.hom("1", "1")
    tel = Telescope(hom, hf.identity_map(hom), 3)
    for t in range(3):
        assert hf.validate_map(tel.stage_inclusion(t)).ok


# ---------------------------------------------------------------------------
# group completion gates
# ---------------------------------------------------------------------------

def test_gates_pass_for_z2_restriction():
    cat = z2_category()
    rep = group_completion_check(cat, restriction_diagram(cat, "1"), 3)
    assert rep.verdict, [(g.name, g.witnesses) for g in rep.gates if not g.ok]


def test_gates_pass_for_idempotent_constant_pair():
    cat = idem_category()
    rep = group_completion_check(cat, constant_diagram(cat, discrete_space(["a", "b"])), 3)
    assert rep.verdict


def test_gates_fail_on_corrupted_action():
    # the restriction action of the idempotent monoid collapses both points,
    # which is exactly a hypothesis-gate failure naming the morphism
    cat = idem_category()
    rep = group_completion_check(cat, restriction_diagram(cat, "1"), 2)
    assert not rep.verdict
    gate = rep.gates[0]
    assert gate.name == "morphism-actions" and not gate.ok
    assert ("1", "1", "e") in gate.witnesses


def two_object_category(indiscrete: bool):
    """Objects a and b.  Indiscrete: one morphism (i, j) between any two
    objects, (i, i) the identity.  Otherwise only the identities."""
    objects = ("a", "b")
    homs = {(i, j): discrete_space([(i, j)] if indiscrete or i == j else [])
            for i in objects for j in objects}

    def compose_gen(i, j, k, g, f):
        return apply_degeneracies(SimplexRef((i, k), (), 0), tuple(range(g.dim - 1, -1, -1)))

    return build_category(objects, homs, {i: (i, i) for i in objects}, compose_gen)


@pytest.mark.parametrize("indiscrete,diagram", [
    (True, "trivial"), (True, "a"), (True, "b"), (False, "trivial"), (False, "a")])
def test_gates_pass_for_two_object_categories(indiscrete, diagram):
    # the levelwise gate picks its base vertex from hom(i_{t+1}, i_t): for
    # two objects that hom-set may hold no identity, or nothing at all
    cat = two_object_category(indiscrete)
    assert validate_category(cat) == []
    diag = trivial_diagram(cat) if diagram == "trivial" else restriction_diagram(cat, diagram)
    assert validate_diagram(diag) == []
    rep = group_completion_check(cat, diag, 2)
    assert [g.name for g in rep.gates] == [
        "morphism-actions", "levelwise-projections", "d0-fiber-maps", "realized-fibration"]
    assert rep.verdict, [(g.name, g.witnesses) for g in rep.gates if not g.ok]


def test_realize_map_of_levelwise_identity():
    cat = z2_category()
    space = borel_space(cat, trivial_diagram(cat), 2)
    r = thick_realize(space, 2)
    ident = realize_map(r, r, [hf.identity_map(l) for l in space.levels])
    assert all(ident.assignment[g] == r.space.ref(g) for g in r.space.all_gens())


def test_realize_map_with_degenerate_classes():
    # the constant map Delta[1] -> point sends (s0 (0,), (0, 1)) to a class
    # that is degenerate in the realization of the constant point
    X = hf.standard_simplex(1)
    rx = thick_realize(constant_space(X, 2), 2)
    rp = thick_realize(constant_space(hf.point(), 2), 2)
    collapse = hf.sset.constant_map(X, hf.point(), (0,))
    f = realize_map(rx, rp, [collapse] * 3)
    assert hf.validate_map(f).ok
    image = f.assignment[("c", 0, (SimplexRef((0,), (0,), 1), X.ref((0, 1))))]
    assert image == rp.space.ref(("c", 0, (SimplexRef((0,)), SimplexRef((0,)))), (0,))
    assert image.dim == 1


def test_stage_zero_inclusion_valid():
    cat = z2_category()
    bc = borel_total(cat, restriction_diagram(cat, "1"), 2)
    incl = bc.total.stage_zero_inclusion()
    assert hf.validate_map(incl).ok
