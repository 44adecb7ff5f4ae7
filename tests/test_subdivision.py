import importlib

import pytest

import homfib as hf
from homfib.subdivision import (
    barycenter_preimage,
    barycentric_delta,
    cube_decomposition,
    cylinder_end,
    est,
    fiber_over_vertex,
    sd,
    sd_map,
    sd_over_simplex,
    star,
    star_retraction,
)

from corpus import simplex_maps_small, subdivision_corpus

subdivision_module = importlib.import_module("homfib.subdivision")


# ---------------------------------------------------------------------------
# the subdivided simplex
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,counts", [(0, (1,)), (1, (3, 2)), (2, (7, 12, 6))])
def test_barycentric_delta_counts(n, counts):
    d = barycentric_delta(n)
    assert d.counts() == counts
    assert hf.validate(d).ok


def test_barycentric_delta_contractible():
    d = barycentric_delta(2)
    assert hf.is_acyclic(d, 1)


def test_star_of_top_face_is_point():
    for n in (1, 2, 3):
        s = star(tuple(range(n + 1)), n)
        assert s.counts()[0] == 1 and s.gen_count() == 1


def test_star_of_vertex_in_delta2():
    s = star((0,), 2)
    assert s.counts() == (4, 5, 2)
    assert hf.is_acyclic(s, 1)


def test_stars_cover_subdivision():
    for n in (1, 2, 3):
        d = barycentric_delta(n)
        covered = set()
        for k in range(1, n + 2):
            import itertools
            for alpha in itertools.combinations(range(n + 1), k):
                covered.update(star(alpha, n, d).all_gens())
        assert covered == set(d.all_gens())


# ---------------------------------------------------------------------------
# sd and the last-vertex map
# ---------------------------------------------------------------------------

def test_sd_of_interval():
    s = sd(hf.standard_simplex(1))
    assert s.space.counts() == (3, 2)
    assert hf.validate(s.space).ok


def test_sd_of_circle_is_hexagon():
    s = sd(hf.boundary(2))
    assert s.space.counts() == (6, 6)
    assert hf.validate(s.space).ok
    assert hf.validate_map(s.last_vertex).ok


@pytest.mark.parametrize("name", sorted(subdivision_corpus()))
def test_last_vertex_map_is_homology_iso(name):
    X = subdivision_corpus()[name]
    s = sd(X)
    assert hf.validate(s.space).ok
    assert hf.validate_map(s.last_vertex).ok
    up_to = max(X.max_dim - 1, 0)
    ok, certs = hf.is_homology_iso(s.last_vertex, up_to)
    assert ok, f"last-vertex map fails on {name}: {certs}"


def test_sd_functorial_on_corpus():
    f = hf.cyclic_cover_map(6, 3)
    g = hf.cyclic_cover_map(12, 6)
    s12, s6, s3 = sd(g.source), sd(f.source), sd(f.target)
    left = sd_map(f.compose(g), s12, s3)
    right = sd_map(f, s6, s3).compose(sd_map(g, s12, s6))
    assert left.assignment == right.assignment


def test_sd_map_validity():
    f = hf.cyclic_cover_map(6, 3)
    m = sd_map(f, sd(f.source), sd(f.target))
    assert hf.validate_map(m).ok


# ---------------------------------------------------------------------------
# subdivision of maps over a simplex
# ---------------------------------------------------------------------------

def test_sd_of_identity_is_iso_onto_delta_prime():
    for n in (1, 2):
        sf = sd_over_simplex(hf.identity_map(hf.standard_simplex(n)))
        assert hf.validate_map(sf.map).ok
        assert hf.is_isomorphism(sf.map)


def test_sd_over_simplex_rejects_other_targets():
    with pytest.raises(ValueError):
        sd_over_simplex(hf.cyclic_cover_map(6, 3))


def test_sd_of_projection_surjects_on_vertices():
    sf = sd_over_simplex(simplex_maps_small()["proj_d1_x_s0"])
    assert hf.validate_map(sf.map).ok
    hit = {sf.map.assignment[g].gen for g in sf.subdivision.space.gens(0)}
    assert hit == {((0,),), ((1,),), ((0, 1),)}


def test_est_of_projection_looks_like_star_times_fiber():
    sf = sd_over_simplex(simplex_maps_small()["proj_d2_x_s0"])
    e, incl = est(sf, (0,))
    assert hf.validate_map(incl).ok
    assert hf.homology(e, 0).summary() == (2, ())
    assert hf.homology(e, 1).summary() == (0, ())


# ---------------------------------------------------------------------------
# the star lemma, exactly
# ---------------------------------------------------------------------------

def all_faces(n):
    import itertools
    out = []
    for k in range(1, n + 2):
        out.extend(itertools.combinations(range(n + 1), k))
    return out


@pytest.mark.parametrize("name", sorted(simplex_maps_small()))
def test_star_retraction_exact_identities(name):
    f = simplex_maps_small()[name]
    sf = sd_over_simplex(f)
    n = sf.n
    for alpha in all_faces(n):
        try:
            ret = star_retraction(sf, alpha)
        except ValueError:
            continue  # empty ESt is allowed for non-surjective maps
        assert hf.validate_map(ret.retraction).ok
        assert hf.validate_map(ret.homotopy).ok
        # r o i = id exactly
        ri = ret.retraction.compose(ret.inclusion)
        assert all(ri.assignment[g] == ret.fiber.ref(g) for g in ret.fiber.all_gens())
        # H ends at i o r and at the identity, exactly
        h0 = ret.homotopy.compose(cylinder_end(ret, 0))
        h1 = ret.homotopy.compose(cylinder_end(ret, 1))
        ir = ret.inclusion.compose(ret.retraction)
        assert h0.assignment == ir.assignment
        assert all(h1.assignment[g] == ret.est_space.ref(g)
                   for g in ret.est_space.all_gens())
        # the inclusion of the fiber is a homology isomorphism
        ok, certs = hf.is_homology_iso(ret.inclusion, max(f.source.max_dim - 1, 0))
        assert ok, f"{name}, alpha={alpha}: {certs}"


# ---------------------------------------------------------------------------
# cube decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(simplex_maps_small()))
def test_cube_colimit_equals_sd(name):
    sf = sd_over_simplex(simplex_maps_small()[name])
    cube = cube_decomposition(sf)
    assert cube.colimit == sf.subdivision.space
    assert len(cube.objects) == 2 ** (sf.n + 1) - 1


def test_cube_shape_for_interval():
    sf = sd_over_simplex(hf.identity_map(hf.standard_simplex(1)))
    cube = cube_decomposition(sf)
    assert cube.objects == [(0,), (0, 1), (1,)]
    assert set(cube.arrows) == {((0, 1), (1,)), ((0, 1), (0,))}


def test_cube_over_delta3_projection():
    fiber, _ = hf.disjoint_union([hf.point(), hf.point()])
    pr = hf.product(hf.standard_simplex(3), fiber)
    sf = sd_over_simplex(pr.projections[0])
    cube = cube_decomposition(sf)
    assert cube.colimit == sf.subdivision.space
    assert len(cube.objects) == 15


def test_cube_decomposition_refuses_a_generator_split_in_two(monkeypatch):
    # the vertex over (1,), put into the piece over (0,) as well, lies in
    # two classes that no arrow joins: a set of class generators merged the
    # two copies, and the colimit still read as Sd E
    sf = sd_over_simplex(hf.identity_map(hf.standard_simplex(1)))
    [stray] = fiber_over_vertex(sf, (1,)).gens(0)
    real_est = subdivision_module.est

    def leaky_est(sf, alpha):
        piece, inclusion = real_est(sf, alpha)
        if alpha == (0,):
            piece = hf.full_subcomplex(sf.subdivision.space, [*piece.all_gens(), stray])
        return piece, inclusion

    monkeypatch.setattr(subdivision_module, "est", leaky_est)
    with pytest.raises(RuntimeError, match="splits a generator"):
        cube_decomposition(sf)


# ---------------------------------------------------------------------------
# barycenter preimages
# ---------------------------------------------------------------------------

def test_barycenter_preimage_of_product():
    for name in ("proj_d1_x_s0", "proj_d2_x_s0"):
        f = simplex_maps_small()[name]
        sf = sd_over_simplex(f)
        bp = barycenter_preimage(sf)
        fiber_summary = [(2, ()), (0, ())]
        assert [hf.homology(bp, k).summary() for k in (0, 1)] == fiber_summary


def test_barycenter_preimage_of_weak_fibration_matches_total_space():
    from homfib.fibration import weak_fibration_check
    for name in ("proj_d1_x_circle", "susp_disc"):
        f = simplex_maps_small()[name]
        up_to = max(f.source.max_dim - 1, 0)
        assert weak_fibration_check(f, up_to).verdict
        sf = sd_over_simplex(f)
        bp = barycenter_preimage(sf)
        want = [hf.homology(f.source, k).summary() for k in range(up_to + 1)]
        got = [hf.homology(bp, k).summary() for k in range(up_to + 1)]
        assert got == want, name


def test_barycenter_preimage_equals_top_fiber():
    sf = sd_over_simplex(simplex_maps_small()["id_delta2"])
    assert barycenter_preimage(sf).counts() == fiber_over_vertex(sf, (0, 1, 2)).counts()
