"""Shared desk-scale corpus: spaces and maps the property suites run over."""

import homfib as hf
from homfib.sset import SimplexRef, SimplicialMap, SimplicialSet, constant_map


def one_vertex_circle():
    return SimplicialSet(1, {0: ["v"], 1: ["e"]},
                         {"e": (SimplexRef("v", (), 0), SimplexRef("v", (), 0))})


def two_points():
    space, _ = hf.disjoint_union([hf.point(), hf.point()])
    return space


def torus_complex():
    return hf.presentation_complex(["a", "b"], [["a", "b", "a-", "b-"]])


def klein_complex():
    return hf.presentation_complex(["a", "b"], [["a", "b", "a", "b-"]])


def disc_complex():
    return hf.presentation_complex(["a"], [["a"]])


def icosahedral_complex():
    return hf.presentation_complex(
        ["s", "t"],
        [["s", "s", "s", "s-", "t-", "s-", "t-"],
         ["t", "t", "t", "t", "t", "s-", "t-", "s-", "t-"]])


def subdivision_corpus():
    """At least ten spaces of dimension <= 3 for subdivision invariance."""
    return {
        "point": hf.point(),
        "delta1": hf.standard_simplex(1),
        "delta2": hf.standard_simplex(2),
        "delta3": hf.standard_simplex(3),
        "sphere1": hf.boundary(2),
        "sphere2": hf.boundary(3),
        "one_vertex_circle": one_vertex_circle(),
        "hexagon": hf.cyclic_graph(6),
        "two_points": two_points(),
        "square": hf.product(hf.standard_simplex(1), hf.standard_simplex(1), 2).space,
        "torus": torus_complex(),
        "klein": klein_complex(),
    }


def collapse_circle_to_interval():
    """The circle boundary(2) squashed onto an interval; not a fibration."""
    bd2, d1 = hf.boundary(2), hf.standard_simplex(1)
    return SimplicialMap(bd2, d1, {
        (0,): d1.ref((0,)),
        (1,): d1.ref((0,)),
        (2,): d1.ref((1,)),
        (0, 1): SimplexRef((0,), (0,), 1),
        (0, 2): d1.ref((0, 1)),
        (1, 2): d1.ref((0, 1)),
    })


def projection_over_simplex(n, fiber):
    """The product projection Delta[n] x fiber -> Delta[n]."""
    pr = hf.product(hf.standard_simplex(n), fiber)
    return pr.projections[0]


def simplex_maps_small():
    """Maps over Delta[n], n <= 2, for the star-lemma corpus."""
    out = {
        "id_delta1": hf.identity_map(hf.standard_simplex(1)),
        "id_delta2": hf.identity_map(hf.standard_simplex(2)),
        "proj_d1_x_s0": projection_over_simplex(1, two_points()),
        "proj_d2_x_s0": projection_over_simplex(2, two_points()),
        "proj_d1_x_circle": projection_over_simplex(1, hf.boundary(2)),
        "susp_disc": hf.suspension(disc_complex())[1],
    }
    return out


def corpus_maps():
    """The corpus maps, the cover of the hexagon and a Borel projection."""
    from homfib.borel import borel_total, from_monoid, restriction_diagram

    from oracles import cyclic_table
    cat = from_monoid(cyclic_table(2), 0)
    maps = dict(simplex_maps_small())
    maps["collapse"] = collapse_circle_to_interval()
    maps["cover_6_3"] = hf.cyclic_cover_map(6, 3)
    maps["borel_z2"] = borel_total(cat, restriction_diagram(cat, "1"), 2).pi
    return maps


# A document in the DSL, written out by the tests rather than kept under
# fixtures/: Z/2 with a diagram `round` whose value is the one-vertex circle
# (t acts by the identity), so the Borel levels are not discrete, and a map
# `fold` whose source has a 2-simplex.
ROUND_DOCUMENT = """\
monoid Z2 {
  elements u, t;
  unit u;
  mul { t.t = u; }
}

sset ring {
  v : dim 0 faces [];
  e : dim 1 faces [v, v];
}

map turn : ring -> ring { v -> v; e -> e; }

diagram round over Z2 {
  F(1) = ring;
  act(1,1): t -> turn;
}

sset tri {
  a : dim 0 faces [];
  b : dim 0 faces [];
  c : dim 0 faces [];
  ab : dim 1 faces [b, a];
  ac : dim 1 faces [c, a];
  bc : dim 1 faces [c, b];
  abc : dim 2 faces [bc, ac, ab];
}

sset seg {
  p : dim 0 faces [];
  q : dim 0 faces [];
  pq : dim 1 faces [q, p];
}

map fold : tri -> seg {
  a -> p;  b -> p;  c -> q;
  ab -> s0 p;  ac -> pq;  bc -> pq;
  abc -> s0 pq;
}
"""


# A document in the DSL, written out by the tests rather than kept under
# fixtures/: Z/2 with a diagram `still` whose value is the cone of
# fixtures/degenerate_face.hfd (a triangle with the degenerate face s0 v),
# t acting by the identity.  Faces of its Borel levels carry degeneracy
# words, so its realization reads degenerate images from the level faces.
CONE_DOCUMENT = """\
monoid Z2 {
  elements u, t;
  unit u;
  mul { t.t = u; }
}

sset cone {
  v : dim 0 faces [];
  w : dim 0 faces [];
  e : dim 1 faces [w, v];
  t : dim 2 faces [e, e, s0 v];
}

map keep : cone -> cone { v -> v; w -> w; e -> e; t -> t; }

diagram still over Z2 {
  F(1) = cone;
  act(1,1): t -> keep;
}
"""


# A document in the DSL, written out by the tests rather than kept under
# fixtures/: a map q: E -> interval whose fibre over b is the Moore space
# M(Z/3, 1) (a loop e, a hub h, spokes k0-k2 and triangles t_i glue the
# loop three times around the hub) and whose fibre over a is the point p,
# joined to it by the edge c.  The comparison {p} -> E fails over Z and
# Z/3 and holds over Z/2, over which M(Z/3, 1) is acyclic.  The diagram
# `crushed` lets the idempotent e of M2 act on E by collapsing it onto p,
# which is a homology equivalence over Z/2 alone.
MOORE_DOCUMENT = """\
sset E {
  p : dim 0 faces [];
  v : dim 0 faces [];
  h : dim 0 faces [];
  e : dim 1 faces [v, v];
  k0 : dim 1 faces [v, h];
  k1 : dim 1 faces [v, h];
  k2 : dim 1 faces [v, h];
  c : dim 1 faces [v, p];
  t0 : dim 2 faces [e, k1, k0];
  t1 : dim 2 faces [e, k2, k1];
  t2 : dim 2 faces [e, k0, k2];
}

sset interval {
  a : dim 0 faces [];
  b : dim 0 faces [];
  ab : dim 1 faces [b, a];
}

map q : E -> interval {
  p -> a;  v -> b;  h -> b;  c -> ab;
  e -> s0 b;  k0 -> s0 b;  k1 -> s0 b;  k2 -> s0 b;
  t0 -> s1 s0 b;  t1 -> s1 s0 b;  t2 -> s1 s0 b;
}

monoid M2 {
  elements u, e;
  unit u;
  mul { e.e = e; }
}

map crush : E -> E {
  p -> p;  v -> p;  h -> p;  c -> s0 p;
  e -> s0 p;  k0 -> s0 p;  k1 -> s0 p;  k2 -> s0 p;
  t0 -> s1 s0 p;  t1 -> s1 s0 p;  t2 -> s1 s0 p;
}

diagram crushed over M2 {
  F(1) = E;
  act(1,1): e -> crush;
}
"""
