"""Hypothesis strategies shared by the property suites."""

import itertools

from hypothesis import strategies as st

import homfib as hf
from homfib.sset import SimplexRef, SimplicialMap, SimplicialSet, ref_from_monotone


@st.composite
def maps_to_simplex(draw, m):
    """A map K -> Delta[m] from a random ordered simplicial complex K.

    K has up to four vertices; its simplices are the faces of up to four
    random vertex sets of size at most three.  A weakly increasing vertex
    map makes the map simplicial.  Generator names are drawn as vertex
    tuples, strings or ints, in a random order, so that the canonical order
    of K's generators differs from its structure.
    """
    V = draw(st.integers(1, 4))
    tops = draw(st.lists(st.sets(st.integers(0, V - 1), min_size=1, max_size=3), max_size=4))
    simplices = {(v,) for v in range(V)}
    for top in tops:
        top = sorted(top)
        for k in range(1, len(top) + 1):
            simplices.update(itertools.combinations(top, k))
    simplices = sorted(simplices, key=lambda S: (len(S), S))
    kind = draw(st.sampled_from(["tuple", "str", "int", "mixed"]))
    order = draw(st.permutations(range(len(simplices))))
    label = {}
    for S, t in zip(simplices, order):
        pick = kind if kind != "mixed" else ("tuple", "str", "int")[t % 3]
        label[S] = {"tuple": S, "str": f"x{t}", "int": t}[pick]
    phi = sorted(draw(st.lists(st.integers(0, m), min_size=V, max_size=V)))
    return complex_over_simplex(simplices, phi, m, label)


def complex_over_simplex(simplices, image, m, label=None):
    """The map K -> Delta[m] from the ordered simplicial complex K on the
    given vertex tuples (closed under faces, of at most three vertices),
    vertex v going to image[v]; the simplex S is named label[S], or S."""
    name = label.__getitem__ if label else (lambda S: S)
    K = SimplicialSet(
        max(len(S) for S in simplices) - 1,
        {k: [name(S) for S in simplices if len(S) == k + 1] for k in range(3)},
        {name(S): tuple(SimplexRef(name(S[:i] + S[i + 1:]), (), len(S) - 2)
                        for i in range(len(S)))
         for S in simplices if len(S) > 1})
    return SimplicialMap(K, hf.standard_simplex(m), {
        name(S): ref_from_monotone(image[v] for v in S) for S in simplices})


@st.composite
def presentation_complexes(draw):
    """The 2-complex of a random group presentation.

    One or two generators and one or two relators of length one to five,
    inverse letters included; relators such as a a a give torsion in H_1.
    """
    letters = ["a", "b"][:draw(st.integers(1, 2))]
    token = st.sampled_from(letters + [a + "-" for a in letters])
    relators = draw(st.lists(st.lists(token, min_size=1, max_size=5), min_size=1, max_size=2))
    return hf.presentation_complex(letters, relators)


@st.composite
def random_ssets(draw, max_dim=3):
    """A finite simplicial set built degree by degree from a face table.

    Up to three vertices; then in each degree k up to max_dim at most three
    generators (two from degree 3 on).  Each generator's faces d_0..d_k are
    drawn one at a time among all (k-1)-simplices built so far, degenerate
    ones included, keeping only those that agree with the faces already
    drawn (d_j d_i = d_{i-1} d_j for j < i), which makes shared vertices
    and shared faces agree; a generator with no such choice is dropped.
    Names are strings, ints or tuples in a random order, so that the
    canonical order of the generators differs from their structure.  The
    result is filtered by validate.
    """
    names = iter(draw(st.permutations(range(16))))
    kind = draw(st.sampled_from(["str", "int", "tuple", "mixed"]))

    def name():
        t = next(names)
        pick = kind if kind != "mixed" else ("str", "int", "tuple")[t % 3]
        return {"str": f"x{t}", "int": t, "tuple": ("x", t)}[pick]

    generators = {0: [name() for _ in range(draw(st.integers(1, 3)))]}
    faces: dict = {}
    X = SimplicialSet(0, generators, faces)
    for k in range(1, max_dim + 1):
        generators[k] = []
        below = list(X.refs_of_dim(k - 1))
        for _ in range(draw(st.integers(0, 3 if k < 3 else 2))):
            chosen: list = []
            for i in range(k + 1):
                fits = [r for r in below
                        if k == 1 or all(X.face(r, j) == X.face(chosen[j], i - 1) for j in range(i))]
                if not fits:
                    break
                chosen.append(draw(st.sampled_from(fits)))
            else:
                g = name()
                generators[k].append(g)
                faces[g] = tuple(chosen)
        X = SimplicialSet(k, generators, faces)
    return draw(st.just(X).filter(lambda X: hf.validate(X).ok))


@st.composite
def maps_of_ssets(draw):
    """A map whose base need not be a simplex: the projection X x Y -> X of
    two random_ssets (truncated at 2), the identity of one, its collapse
    onto a point, or a covering of cyclic graphs C_jk -> C_k."""
    kind = draw(st.sampled_from(["projection", "identity", "collapse", "cover"]))
    if kind == "cover":
        k = draw(st.integers(1, 3))
        return hf.cyclic_cover_map(k * draw(st.integers(1, 3)), k)
    X = draw(random_ssets(max_dim=2))
    if kind == "projection":
        return hf.product(X, draw(random_ssets(max_dim=2)), 2).projections[0]
    if kind == "identity":
        return hf.identity_map(X)
    return hf.sset.constant_map(X, hf.point(), (0,))
