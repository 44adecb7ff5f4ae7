"""Barycentric subdivision, stars, and barycenter preimages.

Delta'[n] is realized as the nerve of the poset of nonempty faces of
Delta[n]: a nondegenerate q-simplex is a strictly increasing chain of q+1
faces, each face recorded by its vertex subset.  Sd X is glued from one
such block per nondegenerate generator of X: a generator of Sd X is a pair
(x, chain) where x is a nondegenerate p-generator and the chain is strict
with top face the whole of Delta[p].  Dropping the top face of a chain
walks into a face of x and renormalizes, which is exactly the defining
identification of the subdivision.

The retraction and homotopy of the star lemma are implemented by their
explicit chain formulas, so the retraction equation and the two homotopy
end conditions hold on the nose, not merely up to homotopy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .sset import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracies,
    canonical_key,
    full_subcomplex,
    full_word,
    inclusion_map,
    monotone_of_ref,
    product,
    standard_simplex,
    word_of_repeats,
    word_surjection,
)


# ---------------------------------------------------------------------------
# the subdivided simplex
# ---------------------------------------------------------------------------

def _subsets(n: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(1, n + 2):
        out.extend(itertools.combinations(range(n + 1), k))
    return out


@lru_cache(maxsize=None)
def _chains_ending_at(face: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Strict ascending chains of nonempty subsets with the given top."""
    chains = [(face,)]
    k = len(face)
    for size in range(1, k):
        for sub in itertools.combinations(face, size):
            for ch in _chains_ending_at(sub):
                chains.append(ch + (face,))
    return chains


def barycentric_delta(n: int) -> SimplicialSet:
    """Delta'[n]: the nerve of the poset of nonempty faces of Delta[n]."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    generators: dict[int, list] = {q: [] for q in range(n + 1)}
    for face in _subsets(n):
        for ch in _chains_ending_at(face):
            generators[len(ch) - 1].append(ch)
    faces = {}
    for q in range(1, n + 1):
        for ch in generators[q]:
            faces[ch] = tuple(SimplexRef(ch[:i] + ch[i + 1:], (), q - 1)
                              for i in range(q + 1))
    return SimplicialSet(n, generators, faces)


def _weak_chain_ref(chain, gen_of) -> SimplexRef:
    """Normal form of a weakly increasing chain: strip consecutive repeats."""
    return SimplexRef(gen_of(tuple(dict.fromkeys(chain))), word_of_repeats(chain), len(chain) - 1)


def sd_reduce(X: SimplicialSet, x_ref: SimplexRef, chain) -> SimplexRef:
    """Normal form of the subdivision simplex [x, chain] in Sd X.

    chain is a weakly increasing tuple of vertex subsets of Delta[dim x];
    a proper top face walks into the corresponding face of x, a degenerate
    x pushes the chain through its collapse surjection, repeats become the
    degeneracy word.
    """
    top = chain[-1]
    if len(top) != x_ref.dim + 1:
        x_ref = X.restrict(x_ref, set(top))
        pos = {v: i for i, v in enumerate(top)}
        chain = tuple(tuple(pos[v] for v in c) for c in chain)
    if x_ref.word:
        vs = word_surjection(x_ref.word, x_ref.dim)
        chain = tuple(tuple(sorted({vs[v] for v in c})) for c in chain)
        x_ref = SimplexRef(x_ref.gen, (), x_ref.gen_dim())
    gen = x_ref.gen
    return _weak_chain_ref(chain, lambda core: (gen, core))


@dataclass
class Subdivision:
    space: SimplicialSet
    last_vertex: SimplicialMap
    base: SimplicialSet


def sd(X: SimplicialSet) -> Subdivision:
    """Barycentric subdivision of X with its last-vertex map back to X."""
    full_top: dict[int, list] = {}
    for p in range(X.max_dim + 1):
        full_top[p] = _chains_ending_at(tuple(range(p + 1)))
    generators: dict[int, list] = {q: [] for q in range(X.max_dim + 1)}
    for p in range(X.max_dim + 1):
        for g in X.gens(p):
            for ch in full_top[p]:
                generators[len(ch) - 1].append((g, ch))
    S = SimplicialSet(X.max_dim, generators, {})
    faces = {}
    for q in range(1, X.max_dim + 1):
        for gen in S.gens(q):
            g, ch = gen
            entries = []
            for i in range(q):
                entries.append(SimplexRef((g, ch[:i] + ch[i + 1:]), (), q - 1))
            entries.append(sd_reduce(X, X.ref(g), ch[:-1]))
            faces[gen] = tuple(entries)
    S.faces.update(faces)

    assignment = {}
    for gen in S.all_gens():
        g, ch = gen
        values = [max(c) for c in ch]
        assignment[gen] = apply_degeneracies(X.restrict(X.ref(g), set(values)),
                                             word_of_repeats(values))
    last_vertex = SimplicialMap(S, X, assignment)
    return Subdivision(S, last_vertex, X)


def sd_map(f: SimplicialMap, src: Subdivision, dst: Subdivision) -> SimplicialMap:
    """Sd applied to a map, generator-wise: [x, chain] -> [f(x), chain]."""
    assignment = {}
    for gen in src.space.all_gens():
        g, ch = gen
        assignment[gen] = sd_reduce(dst.base, f(src.base.ref(g)), ch)
    return SimplicialMap(src.space, dst.space, assignment)


# ---------------------------------------------------------------------------
# subdivision of a map over a standard simplex
# ---------------------------------------------------------------------------

@dataclass
class SubdividedMap:
    """Sd f: Sd E -> Delta'[n] for f: E -> Delta[n], with back references."""

    map: SimplicialMap
    subdivision: Subdivision
    target: SimplicialSet   # Delta'[n]
    original: SimplicialMap
    n: int
    vertex_tables: dict     # generator x of E -> the vertex table of f(x)

    def image_chain(self, gen) -> tuple:
        """The strict chain of faces of Delta[n] under a Sd E generator."""
        return self.map.assignment[gen].gen


def sd_over_simplex(f: SimplicialMap) -> SubdividedMap:
    """Subdivide a map to a standard simplex.

    For each generator [x, chain] the composite of f with the faces of the
    chain factors uniquely as a surjection followed by an injection; the
    injections, i.e. the vertex images, form the image chain in Delta'[n].
    """
    n = f.target.max_dim
    if f.target != standard_simplex(n):
        raise ValueError("sd_over_simplex needs a standard simplex target")
    sub = sd(f.source)
    dprime = barycentric_delta(n)
    tables = {g: monotone_of_ref(r) for g, r in f.assignment.items()}
    assignment = {}
    for gen in sub.space.all_gens():
        g, ch = gen
        psi = tables[g]
        images = tuple(tuple(sorted({psi[v] for v in c})) for c in ch)
        assignment[gen] = _weak_chain_ref(images, lambda core: core)
    return SubdividedMap(SimplicialMap(sub.space, dprime, assignment),
                         sub, dprime, f, n, tables)


# ---------------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------------

def star(alpha: tuple[int, ...], n: int,
         delta_prime: SimplicialSet | None = None) -> SimplicialSet:
    """St(alpha): chains all of whose faces contain the face alpha."""
    if not alpha:
        raise ValueError("alpha must be a nonempty face")
    dprime = delta_prime if delta_prime is not None else barycentric_delta(n)
    a = set(alpha)
    keep = [ch for ch in dprime.all_gens() if all(a <= set(c) for c in ch)]
    return full_subcomplex(dprime, keep)


def est(sf: SubdividedMap, alpha: tuple[int, ...]) -> tuple[SimplicialSet, SimplicialMap]:
    """ESt(alpha): the preimage of St(alpha) under Sd f, with its inclusion."""
    a = set(alpha)
    keep = [g for g in sf.subdivision.space.all_gens()
            if all(a <= set(c) for c in sf.image_chain(g))]
    sub = full_subcomplex(sf.subdivision.space, keep)
    return sub, inclusion_map(sub, sf.subdivision.space)


def fiber_over_vertex(sf: SubdividedMap, alpha: tuple[int, ...]) -> SimplicialSet:
    """Sd f^{-1}(alpha): generators whose image chain is constant at alpha."""
    keep = [g for g in sf.subdivision.space.all_gens()
            if sf.image_chain(g) == (alpha,)]
    return full_subcomplex(sf.subdivision.space, keep)


@dataclass
class StarRetraction:
    est_space: SimplicialSet
    fiber: SimplicialSet
    retraction: SimplicialMap           # ESt(alpha) -> Sd f^{-1}(alpha)
    homotopy: SimplicialMap             # ESt(alpha) x Delta[1] -> ESt(alpha)
    cylinder: SimplicialSet
    inclusion: SimplicialMap            # fiber -> ESt(alpha)


def star_retraction(sf: SubdividedMap, alpha: tuple[int, ...]) -> StarRetraction:
    """The explicit retraction r and homotopy H of the star lemma.

    r keeps, in each face of a chain, the vertices mapping into alpha (the
    maximal sub-face over alpha); H mixes the retracted prefix of a chain
    with its original tail according to the Delta[1] coordinate.
    """
    E = sf.original.source
    est_space, _ = est(sf, alpha)
    if est_space.is_empty():
        raise ValueError("ESt(alpha) is empty")
    fiber = fiber_over_vertex(sf, alpha)
    a = set(alpha)

    def retract_chain(g, ch):
        psi = sf.vertex_tables[g]
        return tuple(tuple(v for v in c if psi[v] in a) for c in ch)

    r_assignment = {}
    for gen in est_space.all_gens():
        g, ch = gen
        r_assignment[gen] = sd_reduce(E, E.ref(g), retract_chain(g, ch))
    retraction = SimplicialMap(est_space, fiber, r_assignment)

    cyl = product(est_space, standard_simplex(1), est_space.max_dim + 1)
    h_assignment = {}
    for pair in cyl.space.all_gens():
        a_ref, b_ref = pair
        g, ch = a_ref.gen
        expanded = [ch[v] for v in word_surjection(a_ref.word, a_ref.dim)]
        levels = monotone_of_ref(b_ref)
        bar = retract_chain(g, tuple(expanded))
        mixed = tuple(bar[t] if levels[t] == 0 else expanded[t]
                      for t in range(len(expanded)))
        h_assignment[pair] = sd_reduce(E, E.ref(g), mixed)
    homotopy = SimplicialMap(cyl.space, est_space, h_assignment)
    return StarRetraction(est_space, fiber, retraction, homotopy,
                          cyl.space, inclusion_map(fiber, est_space))


def cylinder_end(ret: StarRetraction, end: int) -> SimplicialMap:
    """The end embedding ESt(alpha) -> ESt(alpha) x Delta[1]."""
    X = ret.est_space
    return SimplicialMap(X, ret.cylinder, {
        g: SimplexRef((X.ref(g), SimplexRef((end,), full_word(k), k)), (), k)
        for g, k in X.dim_of.items()})


# ---------------------------------------------------------------------------
# the cube decomposition and barycenter preimages
# ---------------------------------------------------------------------------

@dataclass
class CubeDecomposition:
    objects: list[tuple[int, ...]]
    pieces: dict[tuple[int, ...], SimplicialSet]
    arrows: dict[tuple[tuple[int, ...], tuple[int, ...]], SimplicialMap]
    colimit: SimplicialSet


def cube_decomposition(sf: SubdividedMap) -> CubeDecomposition:
    """The diagram of stars' preimages over the face category of Delta[n].

    Objects are the nonempty faces; arrows drop one vertex.  The strict
    colimit is recomputed through the identifications and must coincide
    with Sd E generator-for-generator, each generator in one class, else a
    hard error is raised.
    """
    n = sf.n
    objects = sorted(_subsets(n), key=canonical_key)
    pieces = {}
    for sigma in objects:
        pieces[sigma], _ = est(sf, sigma)
    arrows = {}
    for sigma in objects:
        if len(sigma) < 2:
            continue
        for i in range(len(sigma)):
            tau = sigma[:i] + sigma[i + 1:]
            arrows[(sigma, tau)] = inclusion_map(pieces[sigma], pieces[tau])

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in objects:
        for g in pieces[sigma].all_gens():
            parent[(sigma, g)] = (sigma, g)
    for (sigma, tau) in arrows:
        for g in pieces[sigma].all_gens():
            ra, rb = find((sigma, g)), find((tau, g))
            if ra != rb:
                parent[ra] = rb
    # arrows join only equal generators, so each class holds one; a
    # generator in two classes that no arrow joins is split by the colimit
    classes = {find(key): key[1] for key in parent}
    class_gens = set(classes.values())
    if len(classes) != len(class_gens):
        raise RuntimeError("cube colimit splits a generator of Sd E")
    sd_space = sf.subdivision.space
    if class_gens != set(sd_space.all_gens()):
        raise RuntimeError("cube colimit does not reproduce Sd E")
    colimit = full_subcomplex(sd_space, class_gens)
    return CubeDecomposition(objects, pieces, arrows, colimit)


def barycenter_preimage(sf: SubdividedMap) -> SimplicialSet:
    """The preimage of the barycenter: the fiber over the top face."""
    return fiber_over_vertex(sf, tuple(range(sf.n + 1)))
