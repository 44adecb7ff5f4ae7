import importlib
import itertools
import random
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homfib as hf
from homfib import cli, dsl
from homfib.borel import classifying_space
from homfib.homology import (InducedMap, _boundary_form, _degree_data, chain_map_images,
                             induced_map_kernel_cokernel, is_prime, normalized_chains,
                             relative_complex_collapses)
from homfib.sset import PositionMap, SimplexRef, SimplicialMap, SimplicialSet, constant_map

from corpus import MOORE_DOCUMENT, corpus_maps, one_vertex_circle
from oracles import (bar_resolution_homology, cyclic_table, dense_mod_p_iso_dims,
                     homology_from_boundaries, relative_homology_vanishes)
from strategies import maps_of_ssets, presentation_complexes

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the modules, not the functions of the same name that homfib exports
homology_module = importlib.import_module("homfib.homology")
snf_module = importlib.import_module("homfib.snf")


def summaries(X, upto):
    return [hf.homology(X, k).summary() for k in range(upto + 1)]


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

def test_interval_boundary_matrix():
    cc = normalized_chains(hf.standard_simplex(1))
    assert cc.boundary(1).to_dense() == [[-1], [1]]


def test_circle_boundary_matrix_columns():
    cc = normalized_chains(hf.boundary(2))
    m = cc.boundary(1)
    assert m.nrows == 3 and m.ncols == 3
    for j in range(3):
        col = sorted(m.column(j).values())
        assert col == [-1, 1]


def test_boundary_squared_zero_is_enforced():
    # normalized_chains raises if d d != 0; build a healthy space and check
    X = hf.standard_simplex(3)
    cc = normalized_chains(X)
    for k in range(2, 4):
        assert cc.boundary(k - 1).matmul(cc.boundary(k)).is_zero()
    # a triangle whose three faces are one edge e: v -> w is no simplicial
    # set, and its boundary e - e + e = e has boundary w - v
    v, w, e = SimplexRef("v", (), 0), SimplexRef("w", (), 0), SimplexRef("e", (), 1)
    bad = SimplicialSet(2, {0: ["v", "w"], 1: ["e"], 2: ["t"]}, {"e": (w, v), "t": (e, e, e)})
    with pytest.raises(ValueError, match="boundary squared is nonzero in degree 2"):
        normalized_chains(bad)


def test_degenerate_faces_contribute_zero():
    # circle with one vertex: both faces of the edge hit the same vertex
    X = SimplicialSet(1, {0: ["v"], 1: ["e"]},
                      {"e": (SimplexRef("v", (), 0), SimplexRef("v", (), 0))})
    cc = normalized_chains(X)
    assert cc.boundary(1).is_zero()
    assert hf.homology(X, 1).summary() == (1, ())


# ---------------------------------------------------------------------------
# homology groups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_homology(n):
    X = hf.boundary(n + 1)
    expected = [(1, ())] + [(0, ())] * (n - 1) + [(1, ())]
    assert summaries(X, n) == expected


def test_sphere_homology_against_dense_oracle():
    X = hf.boundary(3)
    cc = normalized_chains(X)
    for k in range(3):
        d_k = cc.boundary(k).to_dense() if k >= 1 else []
        d_k1 = cc.boundary(k + 1).to_dense()
        assert hf.homology(X, k).summary() == homology_from_boundaries(d_k, d_k1, cc.dim(k))


def test_homology_validity_flag():
    X = hf.boundary(2)
    assert hf.homology(X, 0).valid
    assert not hf.homology(X, 1).valid  # max_dim is 1, so degree 1 is at the bound


def test_basis_elements_are_cycles():
    # over Z the basis cycles have zero boundary; over Z/p, zero mod p
    spaces = [hf.boundary(2), hf.boundary(3),
              hf.presentation_complex(["a", "b"], [["a", "b", "a-", "b-"]]),
              hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]]),
              hf.presentation_complex(["a"], [["a"] * 6])]
    for X in spaces:
        cc = normalized_chains(X)
        for p in (0, 2, 3, 5):
            for k in range(1, X.max_dim + 1):
                h = hf.homology(X, k, coefficients=p)
                m = cc.boundary(k)
                # the basis is built when read, one cycle per invariant
                assert "basis" not in vars(h)
                assert len(h.basis) == h.free_rank + len(h.torsion)
                for cycle in h.basis:
                    vec = {X.gens(k).index(g): v for g, v in cycle.items()}
                    assert all(v % p == 0 if p else v == 0
                               for v in m.apply(vec).values())


def test_is_prime_is_exact_below_2_to_the_64():
    # against trial division, then on strong pseudoprimes to the first
    # witnesses (2047 to base 2, 3215031751 to 2, 3, 5 and 7,
    # 3825123056546413051 to every prime up to 23), and the primes next to
    # the bound
    assert [p for p in range(-3, 10_000) if is_prime(p)] == \
        [p for p in range(2, 10_000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    for n in (2047, 3215031751, 3825123056546413051, 10 ** 18 + 1):
        assert not is_prime(n), n
    for p in (10 ** 18 + 3, 2 ** 61 - 1, 2 ** 64 - 59):
        assert is_prime(p), p
    with pytest.raises(ValueError, match="no exact primality test"):
        is_prime(2 ** 64 + 13)


@pytest.mark.parametrize("ring", [2 ** 64 + 13, 10 ** 18 + 1, 1, -3])
def test_homology_refuses_a_ring_that_is_no_prime_below_2_to_the_64(ring):
    with pytest.raises(ValueError, match="coefficients must be the integers or Z/p "
                                         f"for a prime p, not {ring}"):
        hf.homology(hf.boundary(2), 1, coefficients=ring)


def test_chains_refuse_a_face_of_another_degree():
    # e names the edge f as its d_1; its row would be f's place among the
    # vertices, past their end
    X = SimplicialSet(1, {0: ["a", "b"], 1: ["e", "f"]},
                      {"e": (SimplexRef("a", (), 0), SimplexRef("f", (), 0)),
                       "f": (SimplexRef("a", (), 0), SimplexRef("b", (), 0))})
    with pytest.raises(ValueError, match="a face of a 1-simplex is no generator of degree 0"):
        normalized_chains(X)


def test_chain_map_images_refuse_an_image_of_another_degree():
    # the vertex v is sent to a simplex that claims dimension 0 but names
    # the edge e of the circle
    point, circle = hf.point(), one_vertex_circle()
    f = SimplicialMap(point, circle, {point.gens(0)[0]: SimplexRef("e", (), 0)})
    with pytest.raises(ValueError, match="an image of a 0-simplex is no generator of degree 0"):
        chain_map_images(f, 0)


def test_torus_like_presentation():
    X = hf.presentation_complex(["a", "b"], [["a", "b", "a-", "b-"]])
    assert summaries(X, 2) == [(1, ()), (2, ()), (1, ())]


def test_klein_bottle_presentation():
    X = hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]])
    assert summaries(X, 2) == [(1, ()), (1, (2,)), (0, ())]


def test_homology_invariant_under_relabeling():
    X = hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]])
    relabeled = SimplicialSet(
        X.max_dim,
        {k: [("w", g) for g in X.gens(k)] for k in range(X.max_dim + 1)},
        {("w", g): tuple(SimplexRef(("w", r.gen), r.word, r.dim) for r in X.faces[g])
         for g in X.all_gens() if X.dim_of[g] >= 1})
    for k in range(3):
        assert hf.homology(relabeled, k).summary() == hf.homology(X, k).summary()


def test_empty_space_homology():
    e = hf.empty_space(1)
    assert hf.homology(e, 0).is_trivial()
    assert not hf.is_acyclic(e, 1)


# ---------------------------------------------------------------------------
# group homology oracle (for the classifying-space pipeline)
# ---------------------------------------------------------------------------

def test_bar_resolution_z2():
    table = bar_resolution_homology(cyclic_table(2), 0, 5)
    assert table == [(1, ()), (0, (2,)), (0, ()), (0, (2,)), (0, ()), (0, (2,))]


def test_bar_resolution_z3():
    table = bar_resolution_homology(cyclic_table(3), 0, 3)
    assert table == [(1, ()), (0, (3,)), (0, ()), (0, (3,))]


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

def test_induced_identity():
    X = hf.boundary(2)
    for k in (0, 1):
        ind = hf.induced(hf.identity_map(X), k)
        n = len(ind.src_invariants)
        expected = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        assert ind.matrix == expected


def test_induced_double_cover_multiplies_by_two():
    f = hf.cyclic_cover_map(6, 3)
    ind = hf.induced(f, 1)
    assert ind.src_invariants == [0] and ind.dst_invariants == [0]
    assert ind.matrix in ([[2]], [[-2]])


def test_induced_point_inclusion():
    d1 = hf.standard_simplex(1)
    f = SimplicialMap(hf.point(), d1, {(0,): d1.ref((0,))})
    ok, _ = hf.is_homology_iso(f, 0)
    assert ok


def test_chain_map_drops_degenerate_images():
    # collapse of an interval to a point sends the edge to a degeneracy
    d1, pt = hf.standard_simplex(1), hf.point()
    f = hf.sset.constant_map(d1, pt, (0,))
    assert chain_map_images(f, 1) == [None]
    assert chain_map_images(f, 0) == [0, 0]


def test_induced_functorial_on_covers():
    f = hf.cyclic_cover_map(12, 6)
    g = hf.cyclic_cover_map(6, 3)
    gf = g.compose(f)
    for k in (0, 1):
        left = hf.induced(gf, k)
        right = hf.induced(g, k).compose(hf.induced(f, k))
        assert left.matrix == right.matrix


# ---------------------------------------------------------------------------
# isomorphism predicate
# ---------------------------------------------------------------------------

def test_iso_identity_true():
    ok, certs = hf.is_homology_iso(hf.identity_map(hf.boundary(3)), 2)
    assert ok and all(c.ok for c in certs)


def test_iso_double_cover_false_with_z2_cokernel():
    ok, certs = hf.is_homology_iso(hf.cyclic_cover_map(6, 3), 1)
    assert not ok
    assert certs[0].ok
    assert certs[1].cokernel == [2] and not certs[1].ok


def test_iso_detects_torsion_mismatch():
    # Z -> Z by identity on rank but wrong torsion: collapse Klein bottle H_1
    klein = hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]])
    circle = hf.presentation_complex(["a"], [])
    assignment = {}
    for g in klein.all_gens():
        k = klein.dim_of[g]
        if g == ("e", "a"):
            assignment[g] = circle.ref(("e", "a"))
        elif k == 0:
            assignment[g] = circle.ref("v")
        else:
            word = tuple(range(k - 1, -1, -1))
            assignment[g] = SimplexRef("v", word, k)
    f = SimplicialMap(klein, circle, assignment)
    if hf.validate_map(f).ok:
        ok, _ = hf.is_homology_iso(f, 1)
        assert not ok


def _killed(orders, d):
    """How many elements d kills in a group with the given element orders."""
    return sum(1 for o in orders if d % o == 0)


def test_kernel_and_cokernel_against_brute_force_on_finite_groups():
    # a finite abelian group is known up to isomorphism by how many
    # elements each d kills: sum_i Z/n_i has prod_i gcd(d, n_i) of them
    rng = random.Random(3109)
    for _ in range(150):
        src = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 3))]
        dst = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 3))]
        # every homomorphism Z/a -> Z/b sends 1 to a multiple of b / gcd(a, b)
        matrix = [[rng.randrange(gcd(a, b)) * (b // gcd(a, b)) for b in dst] for a in src]
        kernel, cokernel = induced_map_kernel_cokernel(InducedMap(1, matrix, src, dst))
        assert 0 not in kernel and 0 not in cokernel
        xs = list(itertools.product(*map(range, src)))
        ys = list(itertools.product(*map(range, dst)))

        def f(x):
            return tuple(sum(col[j] * v for col, v in zip(matrix, x)) % b
                         for j, b in enumerate(dst))

        def times(d, y, mods):
            return tuple(d * v % n for v, n in zip(y, mods))

        image = {f(x) for x in xs}
        zero = (0,) * len(src)
        kernel_orders = [next(d for d in range(1, 37) if times(d, x, src) == zero)
                         for x in xs if not any(f(x))]
        coset_orders = [next(d for d in range(1, 37) if times(d, y, dst) in image)
                        for y in ys]
        for d in range(1, 37):
            assert _killed(kernel_orders, d) == prod(gcd(d, n) for n in kernel)
            assert _killed(coset_orders, d) == len(image) * prod(gcd(d, n) for n in cokernel)


def test_iso_closed_under_composition_on_corpus():
    f = hf.cyclic_cover_map(6, 6)
    g = hf.identity_map(hf.cyclic_graph(6))
    ok_f, _ = hf.is_homology_iso(f, 1)
    ok_g, _ = hf.is_homology_iso(g, 1)
    ok_gf, _ = hf.is_homology_iso(g.compose(f), 1)
    assert ok_f and ok_g and ok_gf


# ---------------------------------------------------------------------------
# acyclicity
# ---------------------------------------------------------------------------

def test_is_acyclic_cases():
    assert hf.is_acyclic(hf.standard_simplex(5), 4)
    assert not hf.is_acyclic(hf.boundary(2), 1)
    ico = hf.presentation_complex(
        ["s", "t"],
        [["s", "s", "s", "s-", "t-", "s-", "t-"],
         ["t", "t", "t", "t", "t", "s-", "t-", "s-", "t-"]])
    assert hf.is_acyclic(ico, 2)


# ---------------------------------------------------------------------------
# universal coefficients consistency
# ---------------------------------------------------------------------------

corpus = st.sampled_from(["sphere2", "sphere3", "klein", "torus", "circle", "disc"])


def corpus_space(name):
    return {
        "sphere2": lambda: hf.boundary(3),
        "sphere3": lambda: hf.boundary(4),
        "klein": lambda: hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]]),
        "torus": lambda: hf.presentation_complex(["a", "b"], [["a", "b", "a-", "b-"]]),
        "circle": lambda: hf.cyclic_graph(3),
        "disc": lambda: hf.presentation_complex(["a"], [["a"]]),
    }[name]()


@settings(max_examples=20, deadline=None)
@given(corpus, st.sampled_from([2, 3]))
def test_universal_coefficients_consistency(name, p):
    X = corpus_space(name)
    for k in range(X.max_dim + 1):
        hz = hf.homology(X, k)
        hz_prev = hf.homology(X, k - 1) if k else None
        hp = hf.homology(X, k, coefficients=p)
        expected = hz.free_rank
        expected += sum(1 for d in hz.torsion if d % p == 0)
        if hz_prev is not None:
            expected += sum(1 for d in hz_prev.torsion if d % p == 0)
        assert hp.free_rank == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(presentation_complexes())
def test_random_presentations_against_dense_oracle(X):
    cc = normalized_chains(X)
    integral = []
    for k in range(X.max_dim + 1):
        d_k = cc.boundary(k).to_dense() if k >= 1 else []
        d_k1 = cc.boundary(k + 1).to_dense()
        integral.append(hf.homology(X, k).summary())
        assert integral[k] == homology_from_boundaries(d_k, d_k1, cc.dim(k))
    # universal coefficients: H_k(X; Z/p) has rank the free rank plus the
    # torsion of degrees k and k-1 that p divides; its basis is made of
    # cycles mod p
    for p in (2, 3, 5):
        for k, (free_rank, torsion) in enumerate(integral):
            below = integral[k - 1][1] if k else ()
            expected = free_rank + sum(1 for d in torsion + below if d % p == 0)
            group = hf.homology(X, k, coefficients=p)
            assert group.free_rank == expected, (p, k)
            assert len(group.basis) == expected, (p, k)
            for cycle in group.basis:
                image = cc.boundary(k).apply({X.gens(k).index(g): v for g, v in cycle.items()})
                assert all(v % p == 0 for v in image.values()), (p, k)


def test_mod_p_iso_on_identity():
    X = hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]])
    ok, _ = hf.is_homology_iso(hf.identity_map(X), 2, coefficients=2)
    assert ok


def test_mod_p_detects_failure():
    ok, _ = hf.is_homology_iso(hf.cyclic_cover_map(6, 3), 1, coefficients=2)
    assert not ok


def test_icosahedral_abelianization_unimodular():
    # independent route to H_1 = 0: the abelianized relator matrix of the
    # binary icosahedral presentation has determinant -1
    from oracles import bareiss_det
    relators = [["s", "s", "s", "s-", "t-", "s-", "t-"],
                ["t", "t", "t", "t", "t", "s-", "t-", "s-", "t-"]]
    letters = ["s", "t"]
    matrix = []
    for rel in relators:
        row = [0, 0]
        for tok in rel:
            sign = -1 if tok.endswith("-") else 1
            row[letters.index(tok.rstrip("-"))] += sign
        matrix.append(row)
    assert abs(bareiss_det(matrix)) == 1
    ico = hf.presentation_complex(letters, relators)
    assert hf.homology(ico, 1).is_trivial()


def test_projective_plane_presentation():
    rp2 = hf.presentation_complex(["a"], [["a", "a"]])
    assert summaries(rp2, 2) == [(1, ()), (0, (2,)), (0, ())]
    mod2 = [hf.homology(rp2, k, coefficients=2).summary() for k in range(3)]
    assert mod2 == [(1, ()), (1, ()), (1, ())]


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        hf.homology(hf.boundary(2), 1, coefficients=4)


def test_ring_is_checked_outside_the_degree_range():
    message = "coefficients must be the integers or Z/p for a prime p, not 4"
    for k in (-1, 1, 5):
        with pytest.raises(ValueError, match=message):
            hf.homology(hf.boundary(2), k, coefficients=4)


def test_group_names_its_ring():
    rp2 = hf.presentation_complex(["a"], [["a", "a"]])
    mod2 = hf.homology(rp2, 1, coefficients=2)
    assert repr(mod2) == "H_1 = Z/2" and mod2.invariants == [2]
    assert repr(hf.homology(rp2, 2, coefficients=3)) == "H_2 = 0"
    assert repr(hf.homology(hf.boundary(2), 1)) == "H_1 = Z"
    assert hf.homology(hf.boundary(2), 1).invariants == [0]


# ---------------------------------------------------------------------------
# mod-p coefficients against known answers
# ---------------------------------------------------------------------------

def iso_over(f, up_to, p):
    return hf.is_homology_iso(f, up_to, coefficients=p)[0]


def certificates(f, up_to, p):
    return [(c.kernel, c.cokernel) for c in hf.is_homology_iso(f, up_to, coefficients=p)[1]]


def test_double_cover_iso_exactly_away_from_two():
    f = hf.cyclic_cover_map(6, 3)
    assert not iso_over(f, 1, 0)
    assert not iso_over(f, 1, 2)
    assert iso_over(f, 1, 3)
    assert iso_over(f, 1, 5)
    # H_1 is Z/2 on both sides over Z/2, and the cover multiplies by 2
    assert certificates(f, 1, 2) == [([], []), ([2], [2])]


def test_mod_p_certificate_holds_the_missing_class():
    f = hf.sset.constant_map(hf.point(), hf.cyclic_graph(3), ("v", 0))
    assert certificates(f, 1, 2) == [([], []), ([], [2])]


def assert_certificates_match_dense_oracle(f):
    up_to = min(f.source.max_dim, f.target.max_dim)
    for p in (2, 3):
        expected = [([p] * a, [p] * b) for a, b in dense_mod_p_iso_dims(f, up_to, p)]
        assert certificates(f, up_to, p) == expected, p


def assert_universal_coefficients(f):
    # wherever f is a homology isomorphism over Z through a degree, it is
    # one over every Z/p through that degree
    up_to = min(f.source.max_dim, f.target.max_dim)
    over_z = hf.is_homology_iso(f, up_to)[1]
    through = next((c.degree for c in over_z if not c.ok), up_to + 1)
    for p in (2, 3):
        assert all(c.ok for c in hf.is_homology_iso(f, up_to, coefficients=p)[1][:through]), p


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_mod_p_certificates_on_the_corpus(name):
    f = corpus_maps()[name]
    assert_certificates_match_dense_oracle(f)
    assert_universal_coefficients(f)


def test_mod_p_certificates_on_the_moore_map():
    # the fibre over b is M(Z/3, 1): over Z/3 both H_1 and H_2 of E map
    # to zero, over Z/2 q is an isomorphism
    q = dsl.parse(MOORE_DOCUMENT).maps["q"]
    assert certificates(q, 2, 3) == [([], []), ([3], []), ([3], [])]
    assert certificates(q, 2, 2) == [([], []), ([], []), ([], [])]
    assert_certificates_match_dense_oracle(q)
    assert_universal_coefficients(q)


@settings(max_examples=40, deadline=None)
@given(maps_of_ssets())
def test_mod_p_certificates_on_random_maps(f):
    assert_certificates_match_dense_oracle(f)
    assert_universal_coefficients(f)


def test_triple_cover_iso_exactly_away_from_three():
    f = hf.cyclic_cover_map(9, 3)
    assert not iso_over(f, 1, 3)
    assert iso_over(f, 1, 2)


def test_projective_plane_to_simplex_iso_exactly_away_from_two():
    rp2 = hf.presentation_complex(["a"], [["a", "a"]])
    f = hf.sset.constant_map(rp2, hf.standard_simplex(3), (0,))
    assert not iso_over(f, 2, 2)
    assert iso_over(f, 2, 3)


def test_moore_space_of_z6_mod_p_ranks():
    moore = hf.presentation_complex(["a"], [["a"] * 6])
    for p, ranks in ((2, [1, 1, 1]), (3, [1, 1, 1]), (5, [1, 0, 0])):
        got = [hf.homology(moore, k, coefficients=p).free_rank for k in range(3)]
        assert got == ranks, p


# ---------------------------------------------------------------------------
# relative complexes
# ---------------------------------------------------------------------------

def by_induced_maps(f, up_to, ring):
    """is_homology_iso on f rebuilt as a plain SimplicialMap, which the
    induced maps alone decide."""
    return hf.is_homology_iso(SimplicialMap(f.source, f.target, f.assignment), up_to,
                              coefficients=ring)


def assert_relative_rule(f):
    # over Z and over Z/p the rule holds exactly when the homology of
    # C(X)/C(A) vanishes through up_to + 1, as the dense oracle reads it;
    # where it holds, the induced maps agree in every degree, and by
    # universal coefficients a collapse over Z is one over every Z/p
    for up_to in range(f.target.max_dim):
        collapses = {}
        for ring in (0, 2, 3):
            collapses[ring] = relative_complex_collapses(f, up_to, ring)
            vanishes = relative_homology_vanishes(f, up_to + 1, ring)
            assert collapses[ring] == bool(vanishes), (up_to, ring)
            if collapses[ring]:
                ok, certs = by_induced_maps(f, up_to, ring)
                assert ok and all(c.ok for c in certs), (up_to, ring)
        assert not collapses[0] or all(collapses.values()), up_to


def vertex_inclusion(X):
    """The first vertex of X as a map from the point."""
    return constant_map(hf.point(), X, X.gens(0)[0])


@pytest.mark.parametrize("name", sorted(corpus_maps()))
def test_relative_rule_on_the_corpus(name):
    f = corpus_maps()[name]
    assert_relative_rule(f)
    assert_relative_rule(vertex_inclusion(f.target))


def test_relative_rule_on_the_moore_map():
    q = dsl.parse(MOORE_DOCUMENT).maps["q"]
    assert_relative_rule(q)
    assert_relative_rule(vertex_inclusion(q.source))


@settings(max_examples=40, deadline=None)
@given(maps_of_ssets())
def test_relative_rule_on_random_maps(f):
    assert_relative_rule(f)
    if f.target.gens(0):
        assert_relative_rule(vertex_inclusion(f.target))


@pytest.mark.parametrize("monoid", ["Z2", "Z3", "idempotent"])
def test_relative_rule_on_borel_comparisons(monoid):
    from homfib.borel import borel_total, from_monoid, restriction_diagram
    from homfib.fibration import preimage_calculator

    table = {"Z2": cyclic_table(2), "Z3": cyclic_table(3),
             "idempotent": {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"}}
    cat = from_monoid(table[monoid], "1" if monoid == "idempotent" else 0)
    decided = 0
    for N in (1, 2, 3):
        p = borel_total(cat, restriction_diagram(cat, "1"), N).pi
        calc = preimage_calculator(p, N)
        for g in p.target.all_gens():
            sigma = p.target.ref(g)
            n = sigma.dim
            if n == 0:
                continue
            # the faces d_i, then the strong check's comparison at vertex 0
            for phi in [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)] + [(0,)]:
                f = calc.comparison(sigma, phi)
                assert_relative_rule(f)
                decided += relative_complex_collapses(f, N - 1)
    assert decided


def test_relative_rule_decides_only_an_injective_subcomplex_inclusion():
    # two circles folded onto one: every boundary column is carried onto
    # its image's and no relative cell is left, but two components go to one
    circle = hf.boundary(2)
    two, _ = hf.disjoint_union([circle, circle])
    fold = PositionMap(two, circle, lambda k: [circle.gens(k).index(g) for _, g in two.gens(k)])
    # an interval beside a point, sent in order onto two points and a
    # loop: one-to-one and onto, but the interval's boundary is not carried
    # onto the loop's, which is zero
    pair, _ = hf.disjoint_union([hf.standard_simplex(1), hf.point()])
    loop, _ = hf.disjoint_union([hf.point(), hf.point(), one_vertex_circle()])
    onto_loop = PositionMap(pair, loop, lambda k: list(range(len(pair.gens(k)))))
    for f in (fold, onto_loop):
        for ring in (0, 2, 3):
            assert not relative_complex_collapses(f, 0, ring)
            assert hf.is_homology_iso(f, 0, ring) == by_induced_maps(f, 0, ring)
            assert not hf.is_homology_iso(f, 0, ring)[0]


def test_relative_rule_needs_the_target_built_through_up_to_plus_one():
    f = hf.identity_map(hf.boundary(2))
    assert relative_complex_collapses(f, 0)
    assert not relative_complex_collapses(f, 1)
    assert hf.is_homology_iso(f, 1)[0]


# ---------------------------------------------------------------------------
# one Smith form per boundary; cycle coordinates only when read
# ---------------------------------------------------------------------------

def forget_homology(*spaces):
    """Drop the homology each space keeps, its chain complex aside."""
    for X in spaces:
        for key in [key for key in X._cache
                    if isinstance(key, tuple) and key[0] in ("hom", "hdata", "dform")]:
            del X._cache[key]


def homology_reads(f, summaries_first):
    """Every group, basis, induced map and certificate of f over Z, Z/2 and
    Z/3 through the degrees both sides are built in, the summaries of
    every ring read before or after everything else."""
    up_to = min(f.source.max_dim, f.target.max_dim)
    groups = [(X, k, ring) for ring in (0, 2, 3)
              for X in (f.source, f.target) for k in range(up_to + 1)]
    out = {}

    def summaries():
        out["summaries"] = [(hf.homology(X, k, ring).summary(),
                             hf.homology(X, k, ring).invariants) for X, k, ring in groups]

    if summaries_first:
        summaries()
    for ring in (0, 2, 3):
        maps = [hf.induced(f, k, ring) for k in range(up_to + 1)]
        out[ring] = ([(ind.matrix, ind.src_invariants, ind.dst_invariants,
                       induced_map_kernel_cokernel(ind)) for ind in maps],
                     hf.is_homology_iso(f, up_to, ring))
    out["bases"] = [hf.homology(X, k, ring).basis for X, k, ring in groups]
    if not summaries_first:
        summaries()
    return out


@settings(max_examples=30, deadline=None)
@given(maps_of_ssets())
def test_read_order_changes_no_group_basis_or_certificate(f):
    # a summary reads the boundary forms alone and a basis makes the cycle
    # form on top of them; which comes first must not matter
    forget_homology(f.source, f.target)
    first = homology_reads(f, summaries_first=True)
    forget_homology(f.source, f.target)
    assert homology_reads(f, summaries_first=False) == first


@pytest.mark.parametrize("X,k,orders,tampered", [
    (hf.presentation_complex(["a"], [["a", "a"]]), 1, [1, 2], [1, 4]),
    (hf.boundary(2), 1, [0], [3]),
])
def test_the_cycle_form_checks_the_boundary_invariant_factors(X, k, orders, tampered):
    forget_homology(X)
    data = _degree_data(X, k)
    assert data.orders == orders
    data.orders = tampered
    with pytest.raises(ValueError, match="disagrees with its invariant factors"):
        hf.homology(X, k).basis
    with pytest.raises(ValueError, match="disagrees with its invariant factors"):
        data.coords({}, 0)


def test_classify_makes_one_smith_form_per_boundary(monkeypatch):
    # the homology rows of B Z2 through degree 5 read the boundaries d_0..d_6
    # once each and build no change of basis; two forms per degree, the
    # second in cycle coordinates, made 12 forms and 5 transforms
    forms, boundaries, replays = [], [], [0]
    real_snf = homology_module.smith_normal_form
    real_form = homology_module._boundary_form
    real_replay = snf_module._replay

    def counting_snf(m):
        forms.append((m, real_snf(m)))
        return forms[-1][1]

    def recording_form(X, k):
        boundaries.append((X, k))
        return real_form(X, k)

    def counting_replay(*args):
        replays[0] += 1
        return real_replay(*args)

    monkeypatch.setattr(homology_module, "smith_normal_form", counting_snf)
    monkeypatch.setattr(homology_module, "_boundary_form", recording_form)
    monkeypatch.setattr(snf_module, "_replay", counting_replay)
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    report = cli.run("classify", doc, {"target": "Z2", "max_dim": 6})
    assert [(row["degree"], row["torsion"]) for row in report.homology] == [
        (0, []), (1, [2]), (3, [2]), (5, [2])]
    spaces = {id(X): X for X, _ in boundaries}
    assert len(spaces) == 1
    [X] = spaces.values()
    assert sorted({k for _, k in boundaries}) == list(range(7))
    assert len(forms) == 7
    for k, (m, form) in enumerate(sorted(forms, key=lambda mf: mf[0].ncols)):
        assert m == normalized_chains(X).boundary(k)
        assert form is _boundary_form(X, k)
    assert replays[0] == 0


def test_sparse_unit_pivots_on_a_classifying_space_boundary():
    # B Z2's d_8 at N = 8 is 128 x 256 with one entry +-1 per face.  A unit
    # in the sparsest column of its row keeps it sparse: the least column
    # index made 1,325 row and 2,315 column operations
    doc = dsl.parse((FIXTURES / "z2.hfd").read_text())
    X = classifying_space(doc.categories["Z2"], 8).space
    form = _boundary_form(X, 8)
    assert form.shape == (128, 256) and form.rank == 86
    assert (len(form._row_ops), len(form._col_ops)) == (358, 1125)
