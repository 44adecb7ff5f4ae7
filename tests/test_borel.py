import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homfib as hf
from homfib import borel as borel_module
from homfib import cli, dsl
from homfib import sset as sset_module
from homfib.borel import (
    BorelConstruction,
    Diagram,
    Telescope,
    SimplicialSpace,
    ThickRealization,
    borel_level,
    borel_space,
    borel_total,
    build_category,
    build_diagram,
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
from homfib.sset import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracies,
    factor_common,
    monotone_of_ref,
    ref_from_monotone,
    tuple_into,
)

from oracles import bar_resolution_homology, cyclic_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


def test_validate_diagram_names_actions_that_leave_their_values():
    # every law holds vacuously on the stray point, so only the check that
    # each action map runs hom(i, j) x F(j) -> F(i) can see these
    cat = z2_category()
    pair, other = discrete_space(["x", "y"]), discrete_space(["x", "z"])
    stray = build_diagram(cat, {"1": pair},
                          lambda i, j, f, x: SimplexRef("z", x.word, x.dim))
    assert validate_diagram(stray)[0] == \
        "action ('1', '1'): image <z> of (<0>, <x>) is not in F('1')"
    moved = Diagram(cat, {"1": other}, stray.actions, stray.action_products)
    assert validate_diagram(moved) == ["action ('1', '1') does not land in F('1')"]
    elsewhere = hf.product(cat.hom("1", "1"), other).space
    act = SimplicialMap(elsewhere, pair, {gen: pair.ref("x") for gen in elsewhere.all_gens()})
    crossed = Diagram(cat, {"1": pair}, {("1", "1"): act}, {("1", "1"): elsewhere})
    assert validate_diagram(crossed)[0] == \
        "action ('1', '1'): (<0>, <z>) is not in hom('1', '1') x F('1')"


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


def test_fiber_onto_preimage_refuses_a_lift_that_is_not_a_bijection():
    # the check behind gate 2 and vertex_fiber_isomorphic: sending both
    # points of F(1) = hom(1, 1) to one simplex of the preimage must fail
    cat = z2_category()
    bc = borel_total(cat, restriction_diagram(cat, "1"), 2)
    F, vertex = bc.diagram.value("1"), bc.base_vertex_ref("1")
    lifts = bc.fiber_inclusion("1").assignment
    assert borel_module._fiber_onto_preimage(F, bc.pi, vertex, lifts)
    one = lifts[F.gens(0)[0]]
    assert not borel_module._fiber_onto_preimage(F, bc.pi, vertex, dict.fromkeys(lifts, one))


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


# ---------------------------------------------------------------------------
# reference enumerations: whole products, naive component tuples
# ---------------------------------------------------------------------------

def naive_component_space(components, N):
    """Reference Borel level: every tuple of factor simplices of each tag,
    dropped when all its words share an index, faces taken factor by factor,
    sorted by the SimplicialSet constructor."""
    generators = {d: [] for d in range(N + 1)}
    for tag, spaces in components.items():
        for d in range(N + 1):
            for combo in itertools.product(*(list(X.refs_of_dim(d)) for X in spaces)):
                if not set(combo[0].word).intersection(*(r.word for r in combo[1:])):
                    generators[d].append((tag, combo))
    S = SimplicialSet(N, generators, {})
    S.faces.update({
        (tag, refs): tuple(
            tuple_into(S, tuple(X.face(r, t) for X, r in zip(components[tag], refs)),
                       component=tag)
            for t in range(S.dim_of[(tag, refs)] + 1))
        for tag, refs in S.all_gens() if S.dim_of[(tag, refs)] >= 1})
    return S


def level_components(cat, diag, n):
    """Tag (i_0, ..., i_n) -> [hom(i_n, i_{n-1}), ..., hom(i_1, i_0), F(i_0)]."""
    return {comp: [cat.hom(comp[n - t], comp[n - t - 1]) for t in range(n)]
            + [diag.value(comp[0])]
            for comp in itertools.product(cat.objects, repeat=n + 1)}


def filtering_realization(source, N):
    """Reference thick realization: the whole product Delta[n] x X_n at every
    stage, kept where the Delta[n] part is a degeneracy of the top simplex,
    faces read off the product's face table, sorted by the SimplicialSet
    constructor.  Returns the space and the stage of each generator."""
    generators, faces, stage_of = {d: [] for d in range(N + 1)}, {}, {}
    for n in range(N + 1):
        P = hf.product(hf.standard_simplex(n), source.levels[n], N).space
        for pg in P.all_gens():
            if pg[0].gen != tuple(range(n + 1)):
                continue
            gen = ("c", n, pg)
            generators[P.dim_of[pg]].append(gen)
            stage_of[gen] = n
            if P.dim_of[pg]:
                faces[gen] = tuple(realized_class(source, n, r) for r in P.faces[pg])
    return SimplicialSet(N, generators, faces), stage_of


def realized_class(source, n, r):
    """The realization's class of a simplex r of Delta[n] x X_n: the level
    part goes down through d_v for each vertex v its Delta[n] part misses."""
    a, b = (apply_degeneracies(x, r.word) for x in r.gen)
    m = n
    for v in range(n, -1, -1):
        if v not in a.gen:
            b = source.face_maps[m][v](b)
            m -= 1
    word, core = factor_common((SimplexRef(tuple(range(m + 1)), a.word, a.dim), b))
    return SimplexRef(("c", m, core), word, r.dim)


def assert_matches_references(cat, diag, N):
    for n in range(N + 1):
        level = borel_level(cat, diag, n, N)
        ref = naive_component_space(level_components(cat, diag, n), N)
        assert level.generators == ref.generators   # same generators, same order
        assert level.faces == ref.faces
    source = borel_space(cat, diag, N)
    r = thick_realize(source, N)
    space, stage_of = filtering_realization(source, N)
    assert r.space.generators == space.generators
    assert r.space.faces == space.faces
    assert r.stage_of == stage_of
    assert hf.validate(r.space).ok


def interval_category():
    """One object, hom = Delta[1] under the pointwise minimum of vertex
    sequences, unit the vertex 1: Borel levels are products of several
    positive-dimensional factors, so their faces carry degeneracy words."""
    def compose_gen(i, j, k, g, f):
        return ref_from_monotone(map(min, monotone_of_ref(g), monotone_of_ref(f)))

    return build_category(["1"], {("1", "1"): hf.standard_simplex(1)}, {"1": (1,)},
                          compose_gen)


def cone():
    """A triangle with one degenerate face: faces of level simplices over it
    carry degeneracy words."""
    v, w, e = SimplexRef("v"), SimplexRef("w"), SimplexRef("e", (), 1)
    return SimplicialSet(2, {0: ["v", "w"], 1: ["e"], 2: ["t"]},
                         {"e": (w, v), "t": (e, e, SimplexRef("v", (0,), 1))})


def reference_cases():
    """name -> (category, diagram) for the reference comparisons."""
    cats = {"Z2": z2_category(), "Z3": z3_category(), "idempotent": idem_category(),
            "interval": interval_category(), "indiscrete a,b": two_object_category(True),
            "discrete a,b": two_object_category(False)}
    cases = {f"{name} trivial": (cat, trivial_diagram(cat)) for name, cat in cats.items()}
    cases.update({f"{name} restriction to {obj}": (cat, restriction_diagram(cat, obj))
                  for name, cat in cats.items() for obj in cat.objects})
    cases["Z2 constant cone"] = (cats["Z2"], constant_diagram(cats["Z2"], cone()))
    cases["idempotent telescope"] = (
        cats["idempotent"], telescope_diagram(cats["idempotent"], "e", 2)[0])
    return cases


# the interval levels at N = 4 (Delta[1]^5 and more) are too large for the
# whole-product reference
@pytest.mark.parametrize("case,N", [(name, N) for name in reference_cases() for N in (1, 2, 3, 4)
                                    if not (name.startswith("interval") and N == 4)])
def test_levels_and_realization_match_references(case, N):
    assert_matches_references(*reference_cases()[case], N)


def test_interval_category_is_lawful():
    cat = interval_category()
    assert validate_category(cat) == []
    assert validate_diagram(restriction_diagram(cat, "1")) == []


def _monoid_tables(size):
    """Every associative multiplication on range(size) with unit 0."""
    free = [(a, b) for a in range(1, size) for b in range(1, size)]
    tables = []
    for values in itertools.product(range(size), repeat=len(free)):
        table = {(a, b): a if b == 0 else b for a in range(size) for b in range(size)
                 if 0 in (a, b)}
        table.update(zip(free, values))
        if all(table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
               for a, b, c in itertools.product(range(size), repeat=3)):
            tables.append(table)
    return tables


MONOID_TABLES = _monoid_tables(2) + _monoid_tables(3)


@st.composite
def monoid_tables(draw):
    """A random associative monoid table on 2 or 3 elements, as (table, unit).

    The elements get distinct names drawn as strings, ints or tuples, so
    that their canonical order differs from the table's structure.
    """
    table = draw(st.sampled_from(MONOID_TABLES))
    size = max(a for a, _ in table) + 1
    names = draw(st.lists(st.sampled_from(["u", "a", "b", 0, 1, 5, (0,), (1, "x")]),
                          min_size=size, max_size=size, unique=True))
    return {(names[a], names[b]): names[c] for (a, b), c in table.items()}, names[0]


def test_monoid_tables_are_all_the_small_monoids():
    # up to isomorphism there are 2 monoids of order 2 and 7 of order 3
    # (OEIS A058129); an isomorphism fixes the unit 0, so on three elements
    # it is the identity or the swap of 1 and 2
    swap = {0: 0, 1: 2, 2: 1}
    classes = {min(tuple(sorted(t.items())),
                   tuple(sorted(((swap[a], swap[b]), swap[c]) for (a, b), c in t.items())))
               for t in _monoid_tables(3)}
    assert len(_monoid_tables(2)) == 2
    assert len(classes) == 7
    for table in MONOID_TABLES:
        assert validate_category(from_monoid(table, 0)) == []


@settings(max_examples=25, deadline=None)
@given(monoid_tables(), st.integers(1, 3), st.booleans())
def test_random_monoids_match_references(monoid, N, restricted):
    table, unit = monoid
    cat = from_monoid(table, unit)
    diag = restriction_diagram(cat, "1") if restricted else trivial_diagram(cat)
    assert_matches_references(cat, diag, N)


def test_classify_work_counts(monkeypatch):
    # products are built for the composition, the trivial action and one
    # Borel level per stage, 37 generators in all; the realization
    # enumerates its cells itself, and whole products Delta[n] x X_n would
    # add 651 generators.  Nothing reads the Borel degeneracy maps, so none
    # is built (10 were), and every face of a realization cell is read from
    # the cells' rows, with no assemble call (128 were made).  1,204
    # SimplexRefs were made when the degeneracy maps were built, each
    # degeneracy letter made one and each face of a cell was assembled.
    built, degeneracies, assembled, refs = [], [0], [0], [0]
    real = sset_module.product_many
    real_degeneracy = borel_module._borel_degeneracy
    real_assemble = ThickRealization.assemble
    real_init = SimplexRef.__init__

    def counting(spaces, N=None):
        result = real(spaces, N)
        built.append(result.space.gen_count())
        return result

    def counting_degeneracy(*args):
        degeneracies[0] += 1
        return real_degeneracy(*args)

    def counting_assemble(self, *args):
        assembled[0] += 1
        return real_assemble(self, *args)

    def counting_init(self, *args):
        refs[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(sset_module, "product_many", counting)
    monkeypatch.setattr(borel_module, "product_many", counting, raising=False)
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    monkeypatch.setattr(borel_module, "_borel_degeneracy", counting_degeneracy)
    monkeypatch.setattr(ThickRealization, "assemble", counting_assemble)
    monkeypatch.setattr(SimplexRef, "__init__", counting_init)
    report = cli.run("classify", doc, {"target": "Z2", "max_dim": 4})
    monkeypatch.undo()
    assert [row["torsion"] for row in report.homology] == [[], [2], [2]]
    assert built == [4, 2, 1, 2, 4, 8, 16]
    assert degeneracies[0] == 0
    assert assembled[0] == 0
    assert refs[0] == 307


def test_degeneracy_maps_are_built_when_read():
    cat = z2_category()
    space = borel_space(cat, trivial_diagram(cat), 3)
    assert "degeneracy_maps" not in vars(space)
    assert validate_simplicial_space(space) == []
    assert [len(maps) for maps in space.degeneracy_maps] == [1, 2, 3, 0]
    assert space.degeneracy_maps[1][0] is space.degeneracy_maps[1][0]
    # the lists of maps the constructor used to take are refused at once
    with pytest.raises(TypeError, match="degeneracy is a function"):
        SimplicialSpace(space.levels, space.face_maps, space.degeneracy_maps)
