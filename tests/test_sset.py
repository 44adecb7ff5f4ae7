import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import homfib as hf
from homfib.sset import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracies,
    constant_map,
    degenerate,
    factor_common,
    full_word,
    monotone_of_ref,
    ref_from_monotone,
    tuple_into,
    word_insert,
    word_is_normal,
)

from corpus import corpus_maps
from oracles import product_nondegenerate_counts
from strategies import maps_to_simplex, random_ssets


# ---------------------------------------------------------------------------
# SimplexRef value semantics
# ---------------------------------------------------------------------------

# a 2-simplex s1 (a, b) whose generator is a pair of refs, one of them
# nested again, as in products of products
NESTED = SimplexRef((SimplexRef(((0, 1), "x"), (0,), 1), SimplexRef(SimplexRef("v"), (), 1)),
                    (1,), 2)
REFS = [SimplexRef("v"), SimplexRef(3), SimplexRef((0, 1), (1, 0), 3), NESTED]


def test_simplex_ref_hash_is_the_field_tuple_hash():
    for r in REFS:
        assert hash(r) == hash((r.gen, r.word, r.dim))


def test_simplex_ref_never_equals_its_field_tuple():
    for r in REFS:
        fields = (r.gen, r.word, r.dim)
        assert r != fields and fields != r and not r == fields
        assert len({r, fields}) == 2
    assert SimplexRef((0, 1), (0,), 2) == SimplexRef((0, 1), (0,), 2)
    assert SimplexRef((0, 1), (0,), 2) != SimplexRef((0, 1), (1,), 2)
    assert SimplexRef(0, (), 0) != SimplexRef(0, (), 1)


def test_simplex_ref_is_immutable():
    r = SimplexRef("v")
    for name in ("gen", "word", "dim", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
    with pytest.raises(AttributeError):
        del r.gen
    assert r == SimplexRef("v") and hash(r) == hash(("v", (), 0))


def test_simplex_ref_repr():
    assert repr(SimplexRef("v")) == "<v>"
    assert repr(SimplexRef((0, 1), (1, 0), 3)) == "<s1 s0 (0, 1)>"
    assert repr(NESTED) == "<s1 (<s0 ((0, 1), 'x')>, <<v>>)>"


@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)),
    lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    copy.deepcopy,
    copy.copy,
])
def test_simplex_ref_round_trips(round_trip):
    for r in REFS:
        back = round_trip(r)
        assert back == r and hash(back) == hash(r) and repr(back) == repr(r)
    assert round_trip(NESTED).gen[1].gen == SimplexRef("v")
    X = hf.product(hf.boundary(2), hf.standard_simplex(1), 2).space
    Y = round_trip(X)
    assert Y == X and hf.validate(Y).ok


def test_ref_returns_the_space_own_generator():
    X = hf.product(hf.boundary(2), hf.standard_simplex(1), 2).space
    for k in range(X.max_dim + 1):
        for g in X.gens(k):
            twin = pickle.loads(pickle.dumps(g))
            assert twin == g and twin is not g
            assert X.ref(twin).gen is g
            r = X.ref(twin, (0,))
            assert r.gen is g and r == SimplexRef(g, (0,), k + 1)


# ---------------------------------------------------------------------------
# operator arithmetic against the monotone-map model
# ---------------------------------------------------------------------------

def monotone_apply(values, op):
    kind, i = op
    if kind == "d":
        return values[:i] + values[i + 1:]
    return values[: i + 1] + values[i:]


ops_strategy = st.lists(st.tuples(st.sampled_from("ds"), st.integers(0, 6)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), ops_strategy)
def test_operator_words_match_monotone_maps(n, ops):
    X = hf.standard_simplex(n)
    ref = X.ref(tuple(range(n + 1)))
    values = tuple(range(n + 1))
    for op in ops:
        kind, i = op
        if kind == "d" and (ref.dim == 0 or i > ref.dim):
            return
        if kind == "s" and i > ref.dim:
            return
        ref = hf.apply_operator(X, ref, op)
        values = monotone_apply(values, op)
    assert word_is_normal(ref.word)
    assert monotone_of_ref(ref) == values
    assert ref_from_monotone(values) == ref


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=5))
def test_word_insert_stays_normal(indices):
    word = ()
    dim = 6
    for j in indices:
        j = min(j, dim)
        word = word_insert(word, j)
        dim += 1
        assert word_is_normal(word)


# ---------------------------------------------------------------------------
# one-step operators against letter-by-letter references
# ---------------------------------------------------------------------------

def degeneracies_by_letters(ref, word):
    """Reference apply_degeneracies: one s_j at a time, innermost first."""
    for a in reversed(tuple(word)):
        ref = degenerate(ref, a)
    return ref


def common_by_rounds(refs):
    """Reference factor_common: strip the largest shared index, then look
    for shared indices again."""
    refs = list(refs)
    outer = []
    while True:
        common = set(refs[0].word).intersection(*(r.word for r in refs[1:]))
        if not common:
            return tuple(outer), tuple(refs)
        c = max(common)
        outer.append(c)
        refs = [SimplexRef(r.gen, tuple(a - 1 if a > c else a for a in r.word if a != c),
                           r.dim - 1) for r in refs]


def outcome(f, *args):
    """f(*args) with its fields, or the type of what it raised."""
    try:
        value = f(*args)
    except Exception as exc:  # the references raise what the operators must
        return type(exc)
    if isinstance(value, SimplexRef):
        return value, value.gen, value.word, value.dim
    return value, [(r.gen, r.word, r.dim) for r in value[1]]


@st.composite
def normal_refs(draw, dim=None):
    """A simplex in normal form: a generator of dimension p under a normal
    word that is in range, of dimension dim when given."""
    n = draw(st.integers(0, 5)) if dim is None else dim
    p = draw(st.integers(0, n))
    word = tuple(sorted(draw(st.permutations(range(n)))[:n - p], reverse=True))
    return SimplexRef(draw(st.sampled_from(["x", ("y", 1), 7])), word, n)


# normal words in range and out of range, words out of order or repeating a
# letter, and negative letters
words_strategy = st.one_of(
    st.sets(st.integers(0, 7), max_size=4).map(lambda w: tuple(sorted(w, reverse=True))),
    st.lists(st.integers(-1, 7), max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(normal_refs(), words_strategy)
def test_apply_degeneracies_matches_letters(ref, word):
    assert outcome(apply_degeneracies, ref, word) == outcome(degeneracies_by_letters, ref, word)
    assert outcome(apply_degeneracies, ref, list(word)) == outcome(degeneracies_by_letters,
                                                                   ref, word)


def test_apply_degeneracies_one_step_path_is_guarded():
    v, e = SimplexRef("v"), SimplexRef("e", (), 1)
    assert apply_degeneracies(v, (1, 0)) == SimplexRef("v", (1, 0), 2)
    # words out of order or repeating a letter are normalized
    assert apply_degeneracies(e, (0, 1)) == SimplexRef("e", (2, 0), 3)
    assert apply_degeneracies(e, (1, 1)) == SimplexRef("e", (2, 1), 3)
    for word in [(2, 0), (0, 1), (1, 1), (0, -1), (3,)]:
        with pytest.raises(IndexError):
            apply_degeneracies(v, word)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(1, 3), st.booleans())
def test_factor_common_matches_rounds(data, n, k, as_list):
    refs = [data.draw(normal_refs(n)) for _ in range(k)]
    given_refs = refs if as_list else tuple(refs)
    assert outcome(factor_common, given_refs) == outcome(common_by_rounds, refs)


def test_factor_common_strips_every_shared_index():
    a = SimplexRef("a", (4, 2, 1), 5)
    b = SimplexRef("b", (4, 3, 1), 5)
    assert factor_common((a, b)) == ((4, 1), (SimplexRef("a", (1,), 3), SimplexRef("b", (2,), 3)))
    assert factor_common((a, SimplexRef("c", (), 5))) == ((), (a, SimplexRef("c", (), 5)))


@pytest.mark.parametrize("in_order", [True, False])
def test_simplicial_map_refuses_wrong_image_dimension(in_order):
    X = hf.standard_simplex(2)
    Y = hf.point()
    right = {g: Y.ref((0,), full_word(X.dim_of[g])) for g in X.all_gens()}
    keys = list(right) if in_order else list(reversed(right))
    assert SimplicialMap(X, Y, {g: right[g] for g in keys}).assignment == right
    wrong = {g: right[g] for g in keys}
    wrong[(0, 1)] = Y.ref((0,))
    with pytest.raises(ValueError, match=r"image of \(0, 1\) has dimension 0, want 1"):
        SimplicialMap(X, Y, wrong)


def test_apply_operator_identities():
    X = hf.standard_simplex(2)
    v = X.ref((0,))
    assert X.face(hf.degenerate(v, 0), 0) == v
    top = X.ref((0, 1, 2))
    assert X.face(top, 0) == X.ref((1, 2))
    assert hf.degenerate(hf.degenerate(v, 0), 0) == SimplexRef((0,), (1, 0), 2)
    with pytest.raises(IndexError):
        X.face(top, 3)


def test_vertices_of():
    X = hf.standard_simplex(3)
    top = X.ref((0, 1, 2, 3))
    assert [r.gen for r in X.vertices_of(top)] == [(0,), (1,), (2,), (3,)]


# ---------------------------------------------------------------------------
# standard simplices, boundaries, validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,counts", [(0, (1,)), (2, (3, 3, 1)), (3, (4, 6, 4, 1))])
def test_standard_simplex_counts(n, counts):
    X = hf.standard_simplex(n)
    assert X.counts() == counts
    assert hf.validate(X).ok


@pytest.mark.parametrize("n,counts", [(1, (2,)), (2, (3, 3)), (3, (4, 6, 4))])
def test_boundary_counts(n, counts):
    X = hf.boundary(n)
    assert X.counts() == counts
    assert hf.validate(X).ok


def test_boundary_of_point_rejected():
    with pytest.raises(ValueError):
        hf.boundary(0)


def test_validate_flags_swapped_faces():
    good = hf.standard_simplex(2)
    faces = dict(good.faces)
    d = faces[(0, 1, 2)]
    faces[(0, 1, 2)] = (d[1], d[0], d[2])
    bad = SimplicialSet(2, {k: good.gens(k) for k in range(3)}, faces)
    report = hf.validate(bad)
    assert not report.ok
    assert any("d_" in p for p in report.problems)


def test_validate_map_checks_vertex_images():
    bad = SimplicialMap(hf.point(), hf.standard_simplex(1),
                        {(0,): SimplexRef("nowhere", (), 0)})
    assert hf.validate_map(bad).problems == [
        "(0,): image <nowhere> not in target"]
    good = SimplicialMap(hf.point(), hf.standard_simplex(1),
                         {(0,): SimplexRef((1,), (), 0)})
    assert hf.validate_map(good).ok


def test_validate_flags_dangling_reference():
    bad = SimplicialSet(1, {0: ["v"], 1: ["e"]},
                        {"e": (SimplexRef("v", (), 0), SimplexRef("ghost", (), 0))})
    assert not hf.validate(bad).ok


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_square_counts():
    d1 = hf.standard_simplex(1)
    p = hf.product(d1, d1, 2)
    assert p.space.counts() == (4, 5, 2)
    assert p.space.counts() == product_nondegenerate_counts((2, 1), (2, 1), 2)
    assert hf.validate(p.space).ok
    for pr in p.projections:
        assert hf.validate_map(pr).ok


def test_product_with_point_is_isomorphism():
    X = hf.boundary(2)
    p = hf.product(X, hf.point(), 3)
    assert hf.is_isomorphism(p.projections[0])


def test_product_symmetry_swap():
    X, Y = hf.standard_simplex(1), hf.boundary(2)
    pxy = hf.product(X, Y, 2)
    pyx = hf.product(Y, X, 2)
    swap = SimplicialMap(pxy.space, pyx.space,
                         {(a, b): pyx.space.ref((b, a)) for (a, b) in pxy.space.all_gens()})
    assert hf.is_isomorphism(swap)


def test_product_euler_multiplicative():
    p = hf.product(hf.standard_simplex(1), hf.boundary(2), 2)
    assert hf.euler_characteristic(p.space) == 0
    assert p.space.counts() == product_nondegenerate_counts((2, 1), (3, 3), 2)


def test_empty_product_is_point():
    p = hf.product_many([])
    assert p.space.counts() == (1,)


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------

def test_pullback_over_point_is_product():
    X, Y, pt = hf.boundary(2), hf.standard_simplex(1), hf.point()
    pb = hf.pullback(constant_map(X, pt, (0,)), constant_map(Y, pt, (0,)), 2)
    pr = hf.product(X, Y, 2)
    assert pb.space.counts() == pr.space.counts()
    assert hf.validate(pb.space).ok
    # the commuting square holds on every generator
    for g in pb.space.all_gens():
        a, b = g
        assert pb.to_left.assignment[g] == a and pb.to_right.assignment[g] == b


def test_pullback_vertex_preimage():
    B = hf.standard_simplex(1)
    v = SimplicialMap(hf.point(), B, {(0,): B.ref((0,))})
    pb = hf.pullback(v, hf.identity_map(B))
    assert pb.space.counts()[0] == 1
    assert all(c == 0 for c in pb.space.counts()[1:])


def test_pullback_disjoint_vertices_empty():
    B = hf.standard_simplex(1)
    v0 = SimplicialMap(hf.point(), B, {(0,): B.ref((0,))})
    v1 = SimplicialMap(hf.point(), B, {(0,): B.ref((1,))})
    pb = hf.pullback(v0, v1)
    assert pb.space.is_empty()


def scan_pullback(f, g, N):
    """Reference fiber product: scan every n-simplex of both sources."""
    X, Y = f.source, g.source
    generators = {k: [] for k in range(N + 1)}
    for n in range(N + 1):
        by_image = {}
        for a in X.refs_of_dim(n):
            by_image.setdefault(f(a), []).append(a)
        for b in Y.refs_of_dim(n):
            for a in by_image.get(g(b), ()):
                if not (set(a.word) & set(b.word)):
                    generators[n].append((a, b))
    P = SimplicialSet(N, generators, {})
    P.faces.update({
        gen: tuple(tuple_into(P, (X.face(gen[0], i), Y.face(gen[1], i)))
                   for i in range(P.dim_of[gen] + 1))
        for gen in P.all_gens() if P.dim_of[gen] >= 1})
    return P


def assert_pullback_matches_scan(f, g, N):
    pb = hf.pullback(f, g, N)
    ref = scan_pullback(f, g, N)
    assert pb.space.generators == ref.generators   # same generators, same order
    assert pb.space.faces == ref.faces
    assert hf.validate(pb.space).ok
    for gen in pb.space.all_gens():
        assert pb.to_left.assignment[gen] == gen[0]
        assert pb.to_right.assignment[gen] == gen[1]


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_pullback_matches_scan_over_corpus(name):
    p = corpus_maps()[name]
    B = p.target
    for n in range(B.max_dim + 2):
        for sigma in B.refs_of_dim(n):
            assert_pullback_matches_scan(hf.representing_map(B, sigma), p, n + 1)
    assert_pullback_matches_scan(p, p, 2)
    assert_pullback_matches_scan(hf.identity_map(B), p, 2)


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_pullback_cells_shared_through_one_simplex_match_scan(name):
    # one Delta[n] per dimension, as a PreimageCalculator holds them: its
    # cells are reused across base simplices (degenerate ones give the
    # same generator another kappa), bounds, and right legs met in turn
    p = corpus_maps()[name]
    B = p.target
    ident = hf.identity_map(B)
    deltas = [hf.standard_simplex(n) for n in range(B.max_dim + 2)]
    for g in (p, p, ident, p):
        for n, delta in enumerate(deltas):
            for sigma in B.refs_of_dim(n):
                for N in (n + 1, n + 2):
                    assert_pullback_matches_scan(hf.representing_map(B, sigma, delta), g, N)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(0, 3))
def test_pullback_matches_scan_on_random_maps(data, m, N):
    f = data.draw(maps_to_simplex(m))
    g = data.draw(maps_to_simplex(m))
    assert hf.validate(f.source).ok and hf.validate_map(f).ok
    assert_pullback_matches_scan(f, g, N)
    sigma = data.draw(st.sampled_from(list(f.target.refs_of_dim(data.draw(st.integers(0, m + 1))))))
    assert_pullback_matches_scan(hf.representing_map(f.target, sigma), g, N)


def sorting_product(spaces, N):
    """Reference product: the same combos, sorted by the SimplicialSet constructor."""
    generators = {n: [combo for combo in itertools.product(*(list(X.refs_of_dim(n)) for X in spaces))
                      if not set(combo[0].word).intersection(*(r.word for r in combo[1:]))]
                  for n in range(N + 1)}
    P = SimplicialSet(N, generators, {})
    P.faces.update({
        gen: tuple(tuple_into(P, tuple(X.face(r, i) for X, r in zip(spaces, gen)))
                   for i in range(P.dim_of[gen] + 1))
        for gen in P.all_gens() if P.dim_of[gen] >= 1})
    return P


def assert_product_matches_sorting(spaces, N):
    P = hf.product_many(spaces, N).space
    ref = sorting_product(spaces, N)
    assert P.generators == ref.generators   # same generators, same order
    assert P.faces == ref.faces
    assert hf.validate(P).ok


def product_corpus():
    from corpus import subdivision_corpus
    spaces = dict(subdivision_corpus())
    spaces.update({f"source of {name}": f.source for name, f in corpus_maps().items()})
    return spaces


@pytest.mark.parametrize("name", sorted(product_corpus()))
def test_product_matches_sorting_reference_over_corpus(name):
    X = product_corpus()[name]
    d1, pair = hf.standard_simplex(1), hf.disjoint_union([hf.point(), hf.point()])[0]
    assert_product_matches_sorting([X], X.max_dim)
    assert_product_matches_sorting([X, d1], min(X.max_dim + 1, 3))
    assert_product_matches_sorting([d1, X], min(X.max_dim + 1, 3))
    assert_product_matches_sorting([X, X], 2)
    assert_product_matches_sorting([hf.boundary(2), X, pair], 2)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(0, 3))
def test_product_matches_sorting_reference_on_random_spaces(data, m, N):
    K = data.draw(maps_to_simplex(m)).source
    L = data.draw(maps_to_simplex(m)).source
    assert_product_matches_sorting([K, L], N)
    assert_product_matches_sorting([L, hf.standard_simplex(m), K], min(N, 2))


@settings(max_examples=40, deadline=None)
@given(random_ssets(), random_ssets(), st.integers(0, 3))
def test_product_matches_sorting_reference_on_face_table_spaces(X, Y, N):
    # faces may be degenerate, and more than one generator may share its
    # boundary
    assert_product_matches_sorting([X, Y], N)
    assert_product_matches_sorting([Y, X, X], min(N, 2))


@settings(max_examples=40, deadline=None)
@given(st.data(), random_ssets(), random_ssets(max_dim=2), st.integers(0, 3))
def test_pullback_matches_scan_on_face_table_spaces(data, B, C, N):
    def simplex():
        return data.draw(st.sampled_from(list(B.refs_of_dim(data.draw(st.integers(0, 2))))))

    # legs whose images are degenerate simplices with degenerate faces,
    # the identity, and a product projection
    f, g = hf.representing_map(B, simplex()), hf.representing_map(B, simplex())
    assert_pullback_matches_scan(f, g, N)
    assert_pullback_matches_scan(f, hf.identity_map(B), N)
    assert_pullback_matches_scan(g, hf.product(B, C, 2).projections[0], min(N, 2))


# ---------------------------------------------------------------------------
# pushouts, coproducts
# ---------------------------------------------------------------------------

def test_pushout_of_empty_is_disjoint_union():
    X, Y = hf.standard_simplex(1), hf.boundary(2)
    e = hf.empty_space(0)
    po = hf.pushout(SimplicialMap(e, X, {}), SimplicialMap(e, Y, {}))
    du, _ = hf.disjoint_union([X, Y])
    assert po.space.counts() == du.counts()


def test_pushout_interval_ends_to_point_is_circle():
    d1, bd1, pt = hf.standard_simplex(1), hf.boundary(1), hf.point()
    po = hf.pushout(hf.inclusion_map(bd1, d1), constant_map(bd1, pt, (0,)))
    assert po.space.counts() == (1, 1)
    assert hf.validate(po.space).ok
    assert hf.validate_map(po.from_left).ok and hf.validate_map(po.from_right).ok


def test_pushout_fold_two_endpoints():
    pt = hf.point()
    d1 = hf.standard_simplex(1)
    two, _ = hf.disjoint_union([pt, pt])
    ends = SimplicialMap(two, d1, {(0, (0,)): d1.ref((0,)), (1, (0,)): d1.ref((1,))})
    po = hf.pushout(ends, constant_map(two, pt, (0,)))
    assert po.space.counts() == (1, 1)


def test_pushout_rejects_noninjective_leg():
    pt = hf.point()
    d1 = hf.standard_simplex(1)
    two, _ = hf.disjoint_union([pt, pt])
    bad = SimplicialMap(two, d1, {(0, (0,)): d1.ref((0,)), (1, (0,)): d1.ref((0,))})
    with pytest.raises(ValueError):
        hf.pushout(bad, hf.identity_map(two))


def test_disjoint_union_counts_and_empty():
    assert hf.disjoint_union([])[0].is_empty()
    du, injs = hf.disjoint_union([hf.point(), hf.point()])
    assert du.counts() == (2,)
    du2, _ = hf.disjoint_union([hf.standard_simplex(1), hf.boundary(2)])
    assert du2.counts() == (5, 4)
    for inj in injs:
        assert hf.validate_map(inj).ok


# ---------------------------------------------------------------------------
# presentation complexes, suspensions
# ---------------------------------------------------------------------------

def test_presentation_disc():
    X = hf.presentation_complex(["a"], [["a"]])
    assert hf.validate(X).ok
    assert hf.is_acyclic(X, 1)


def test_presentation_circle():
    X = hf.presentation_complex(["a"], [])
    assert hf.homology(X, 1).summary() == (1, ())


def test_presentation_rejects_empty_relator():
    with pytest.raises(ValueError):
        hf.presentation_complex(["a"], [[]])


def test_presentation_rejects_unknown_letter():
    with pytest.raises(ValueError):
        hf.presentation_complex(["a"], [["b"]])


def test_suspension_of_two_points_is_circle():
    two, _ = hf.disjoint_union([hf.point(), hf.point()])
    s, to_interval = hf.suspension(two)
    assert hf.validate(s).ok
    assert hf.validate_map(to_interval).ok
    assert hf.homology(s, 1).summary() == (1, ())


def test_suspension_of_point_contractible():
    s, to_interval = hf.suspension(hf.point())
    assert hf.is_acyclic(s, 1)
    assert hf.validate_map(to_interval).ok


def test_suspension_of_empty_rejected():
    with pytest.raises(ValueError):
        hf.suspension(hf.empty_space())


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def test_representing_map_of_degenerate_simplex():
    B = hf.standard_simplex(1)
    ref = hf.degenerate(B.ref((0, 1)), 0)
    f = hf.representing_map(B, ref)
    assert hf.validate_map(f).ok
    assert f.assignment[(0, 1, 2)] == ref


def fresh_representing_assignment(B, sigma):
    """Each face of sigma by its chain of face operators, built from scratch."""
    n = sigma.dim
    out = {}
    for g in hf.standard_simplex(n).all_gens():
        r = sigma
        for i in range(n, -1, -1):
            if i not in g:
                r = B.face(r, i)
        out[g] = r
    return out


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_memoized_representing_map_matches_fresh_build(name):
    B = corpus_maps()[name].target
    for n in range(B.max_dim + 2):
        delta = hf.standard_simplex(n)
        for sigma in B.refs_of_dim(n):
            fresh = fresh_representing_assignment(B, sigma)
            first = hf.representing_map(B, sigma, delta)
            again = hf.representing_map(B, sigma)
            assert first.assignment == fresh
            assert again.assignment == fresh
            assert first.source is delta and again.source == delta
            assert first.target is B and again.target is B
            assert hf.validate_map(again).ok


def test_cover_map_valid():
    f = hf.cyclic_cover_map(12, 3)
    assert hf.validate_map(f).ok


def test_map_composition():
    f = hf.cyclic_cover_map(12, 6)
    g = hf.cyclic_cover_map(6, 3)
    gf = g.compose(f)
    assert hf.validate_map(gf).ok
    assert gf.assignment == hf.cyclic_cover_map(12, 3).assignment


def test_pullback_square_commutes_exactly():
    f = hf.cyclic_cover_map(6, 3)
    g = hf.cyclic_cover_map(12, 3)
    pb = hf.pullback(f, g, 2)
    left = f.compose(pb.to_left)
    right = g.compose(pb.to_right)
    assert left.assignment == right.assignment


def test_boundary_four_validates_clean():
    assert hf.validate(hf.boundary(4)).ok


@pytest.mark.parametrize("xname,yname", [
    ("delta1", "sphere1"), ("delta1", "delta2"), ("two", "sphere1"),
])
def test_euler_characteristic_multiplicative(xname, yname):
    spaces = {
        "delta1": hf.standard_simplex(1),
        "delta2": hf.standard_simplex(2),
        "sphere1": hf.boundary(2),
        "two": hf.disjoint_union([hf.point(), hf.point()])[0],
    }
    X, Y = spaces[xname], spaces[yname]
    p = hf.product(X, Y)  # full bound: the characteristic is exact
    assert hf.euler_characteristic(p.space) == \
        hf.euler_characteristic(X) * hf.euler_characteristic(Y)
