"""Finite truncated simplicial sets in Eilenberg-Zilber normal form.

Every simplex is stored as a nondegenerate generator together with a
degeneracy word.  A word is a strictly decreasing tuple (i_1 > ... > i_k)
standing for the composite s_{i_1} s_{i_2} ... s_{i_k}; the EZ lemma makes
this representation unique, so equality of simplices is equality of
(generator, word) pairs.  All operator arithmetic goes through the
simplicial identities against this single convention.

The operators are written once, here, and the other modules call them:
full_word(d) is the word of the fully degenerate d-simplex on a vertex,
word_surjection expands a word into its monotone surjection,
word_of_repeats collapses the repeats of a monotone sequence into a word,
and SimplicialSet.restrict keeps the face spanned by some vertices.  On
top of them monotone_of_ref and ref_from_monotone turn simplices of
Delta[n] into monotone vertex tables and back.

A SimplicialSet records, per degree 0..max_dim, a finite set of generator
identifiers and, for each generator of positive degree, the tuple of its
faces d_0..d_n as SimplexRefs.  Degrees above max_dim are truncated away;
degenerate simplices above the bound still exist implicitly through words.

Simplices are looked up in dicts everywhere, so each comparison is kept
shallow:
- a SimplexRef computes its hash once, when it is made, and compares
  identity, then hash, then fields;
- X.ref(gen) hands out X's own stored generator object, so refs made by
  X.ref and tuple_into meet the keys of X's dicts (and of the index dicts
  built from X.gens) by identity, not by a walk through nested tuples;
- products and pullbacks emit their generators in canonical_key order
  directly, from per-space canonical ranks, instead of sorting by the
  recursive canonical_key;
- a space the enumerator builds ranks its own generators by its cells'
  keys, (rank, word) per factor, which are in canonical_key order
  already, so canonical_key is never called on its generators (rank_by),
  and so does a product of discrete factors.

Products, pullbacks and the cells of borel.ThickRealization come from one
enumerator, and none of them scans simplices.  By the Eilenberg-Zilber
lemma a nondegenerate simplex of a fibre product is a tuple (s_I1 x_1, ...,
s_Ik x_k) of degeneracies of nondegenerate cores x_t whose images reduce to
one core of the base.  pullback indexes each leg's source generators by
that core and the surjection kappa onto it (_core_index, kept on the map);
a product is the case where every core is the point.  The tuples over given
cores are the lattice paths of _ez_paths, which depend only on the kappas
and the bound and are kept on the map as well.  A face that drops an
interior point of a path is again such a tuple and is looked up; only one
that exposes a face of a core reads that core's face table.  top_cells is
the enumerator's public face, for the cells of Delta[n] x X over the top
simplex that a thick realization attaches.  A product's projections and a
pullback's two legs are built when first read.

A space is discrete when every generator is a vertex (is_discrete, the
one test for it).  A product of discrete factors has only vertices, the
tuples of the factors' vertices, and product_many lists them directly,
in the enumerator's order and with its keys, (rank, ()) per factor; the
thick realization of discrete levels needs no enumerator either.

A generator's id is its place in X.all_gens(), set once when the space
is made.  members(X) gives each generator its canonical rank and id, and
face_ids(X) gives X's face table by ids, None where a face is degenerate;
both are kept on X.  The enumerator and the thick realization follow
cores by these ids, and a chain complex numbers its rows by them.

A map that sends generators to generators of the same degree can be given
by positions (PositionMap): per degree, the place of each image in the
target's generator order, which is all a chain map reads.  Its assignment
is built from the positions when first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator


# ---------------------------------------------------------------------------
# Degeneracy words
# ---------------------------------------------------------------------------

def word_is_normal(word: tuple[int, ...]) -> bool:
    """True if the tuple is strictly decreasing and nonnegative."""
    return all(a > b for a, b in zip(word, word[1:])) and all(a >= 0 for a in word)


def word_insert(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Normal form of s_j applied on the outside of the word.

    Uses s_j s_i = s_{i+1} s_j for j <= i to bubble s_j inward.
    """
    out = []
    rest = list(word)
    while rest and j <= rest[0]:
        out.append(rest.pop(0) + 1)
    out.append(j)
    out.extend(rest)
    return tuple(out)


def word_face(word: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int | None]:
    """Push d_i through the word.

    Returns (new_word, residual_face_index).  The residual index is None
    when the face is absorbed by a degeneracy (d_i s_i = d_i s_{i-1}... = id).
    """
    out = []
    rest = list(word)
    while rest:
        j = rest[0]
        if i < j:
            out.append(j - 1)
            rest.pop(0)
        elif i == j or i == j + 1:
            return tuple(out + rest[1:]), None
        else:
            out.append(j)
            rest.pop(0)
            i -= 1
    return tuple(out), i


def full_word(d: int) -> tuple[int, ...]:
    """The word s_{d-1} ... s_0 of the fully degenerate d-simplex on a vertex."""
    return tuple(range(d - 1, -1, -1))


def word_surjection(word: tuple[int, ...], dim: int) -> tuple[int, ...]:
    """The monotone surjection [dim] -> [dim - len(word)] of a degeneracy
    word, as its tuple of values."""
    if not word:
        return tuple(range(dim + 1))
    values = list(range(dim - len(word) + 1))
    for a in reversed(word):
        values.insert(a, values[a])
    return tuple(values)


def word_of_repeats(seq) -> tuple[int, ...]:
    """The degeneracy word of a weakly monotone sequence: the places t
    with seq[t] = seq[t + 1], largest first."""
    return tuple(t for t in range(len(seq) - 2, -1, -1) if seq[t] == seq[t + 1])


# ---------------------------------------------------------------------------
# Simplex references
# ---------------------------------------------------------------------------

class SimplexRef:
    """A simplex: degeneracy word applied to a nondegenerate generator.

    Immutable, with its hash computed once at construction; the hash is
    hash((gen, word, dim)), so sets and dicts of refs keep their order.
    """

    __slots__ = ("gen", "word", "dim", "_hash")

    def __init__(self, gen: Any, word: tuple[int, ...] = (), dim: int = 0):
        _set_gen(self, gen)
        _set_word(self, word)
        _set_dim(self, dim)
        _set_hash(self, hash((gen, word, dim)))

    def __setattr__(self, name, value):
        raise AttributeError(f"SimplexRef is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"SimplexRef is immutable (cannot delete {name!r})")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not SimplexRef:
            return NotImplemented
        return (self._hash == other._hash and self.dim == other.dim
                and self.word == other.word and self.gen == other.gen)

    def __reduce__(self):
        return (SimplexRef, (self.gen, self.word, self.dim))

    def is_degenerate(self) -> bool:
        return bool(self.word)

    def gen_dim(self) -> int:
        return self.dim - len(self.word)

    def __repr__(self):
        if not self.word:
            return f"<{self.gen}>"
        w = " ".join(f"s{a}" for a in self.word)
        return f"<{w} {self.gen}>"


_set_gen = SimplexRef.gen.__set__
_set_word = SimplexRef.word.__set__
_set_dim = SimplexRef.dim.__set__
_set_hash = SimplexRef._hash.__set__


def canonical_key(x) -> tuple:
    """Total deterministic ordering key across the identifier types we use."""
    if isinstance(x, SimplexRef):
        return (3, canonical_key(x.gen), x.word)
    if isinstance(x, tuple):
        return (2, tuple(map(canonical_key, x)))
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, frozenset):
        return (2, tuple(sorted(canonical_key(t) for t in x)))
    return (9, repr(x))


def degenerate(ref: SimplexRef, j: int) -> SimplexRef:
    """Apply s_j to a simplex, keeping normal form."""
    if not 0 <= j <= ref.dim:
        raise IndexError(f"s_{j} out of range for dimension {ref.dim}")
    return SimplexRef(ref.gen, word_insert(ref.word, j), ref.dim + 1)


def apply_degeneracies(ref: SimplexRef, word: Iterable[int]) -> SimplexRef:
    """Apply a (normal) degeneracy word outside an arbitrary simplex.

    A normal word that is in range on a nondegenerate simplex is that
    simplex's word as it stands; any other input goes letter by letter,
    which normalizes it or raises IndexError at the first letter out of
    range.
    """
    word = tuple(word)
    if not word:
        return ref
    dim = ref.dim + len(word)
    if (not ref.word and word[0] < dim and word[-1] >= 0
            and all(a > b for a, b in zip(word, word[1:]))):
        return SimplexRef(ref.gen, word, dim)
    for a in reversed(word):
        ref = degenerate(ref, a)
    return ref


# ---------------------------------------------------------------------------
# Simplicial sets
# ---------------------------------------------------------------------------

class SimplicialSet:
    """A finite simplicial set truncated at max_dim.

    generators: per-degree tuples of identifiers (canonically sorted).
    faces: generator -> tuple of SimplexRefs (d_0..d_n), degree n >= 1.
    Instances are treated as immutable after construction.
    """

    def __init__(self, max_dim: int,
                 generators: dict[int, Iterable[Any]],
                 faces: dict[Any, tuple[SimplexRef, ...]]):
        self._fill(max_dim, {k: tuple(sorted(generators.get(k, ()), key=canonical_key))
                             for k in range(max_dim + 1)}, faces)

    @classmethod
    def _in_canonical_order(cls, max_dim: int, generators: dict[int, tuple],
                           faces: dict[Any, tuple[SimplexRef, ...]]) -> "SimplicialSet":
        """A SimplicialSet whose per-degree generator tuples are already sorted
        by canonical_key, as the constructor would sort them."""
        X = cls.__new__(cls)
        X._fill(max_dim, {k: generators.get(k, ()) for k in range(max_dim + 1)}, faces)
        return X

    def _fill(self, max_dim, generators, faces):
        self.max_dim = max_dim
        self.generators = generators
        self.faces = dict(faces)
        # each generator is hashed once: the dicts are copied degree by
        # degree, which keeps the stored hashes.  _own holds (generator,
        # degree, id) per generator.
        self._own, self.dim_of = {}, {}
        for k, gs in generators.items():
            own = {g: (g, k, i) for i, g in enumerate(gs, len(self._own))}
            self._own.update(own)
            self.dim_of.update(dict.fromkeys(own, k))
        if len(self._own) != sum(map(len, generators.values())):
            seen: set = set()
            for g in itertools.chain.from_iterable(generators.values()):
                if g in seen:
                    raise ValueError(f"duplicate generator identifier {g!r}")
                seen.add(g)
        self._cache: dict = {}

    # -- basic queries ------------------------------------------------------

    def gens(self, k: int) -> tuple:
        if k < 0 or k > self.max_dim:
            return ()
        return self.generators.get(k, ())

    def all_gens(self) -> Iterator[Any]:
        """Every generator, by degree and in each degree in order."""
        return iter(self.dim_of)

    def gen_count(self) -> int:
        return sum(len(self.gens(k)) for k in range(self.max_dim + 1))

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.gens(k)) for k in range(self.max_dim + 1))

    def ref(self, gen: Any, word: tuple[int, ...] = ()) -> SimplexRef:
        """The simplex (gen, word), on this space's own generator object."""
        gen, k, _ = self._own[gen]
        return SimplexRef(gen, word, k + len(word))

    def has_ref(self, ref: SimplexRef) -> bool:
        d = self.dim_of.get(ref.gen)
        return (d is not None and d + len(ref.word) == ref.dim
                and word_is_normal(ref.word)
                and (not ref.word or ref.word[0] <= ref.dim - 1))

    def is_empty(self) -> bool:
        return self.gen_count() == 0

    def refs_of_dim(self, n: int) -> Iterator[SimplexRef]:
        """All simplices (degenerate included) of dimension n."""
        for p in range(min(n, self.max_dim) + 1):
            for word in itertools.combinations(range(n - 1, -1, -1), n - p):
                for g in self.gens(p):
                    yield SimplexRef(g, word, n)

    # -- operators ----------------------------------------------------------

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        """d_i of any simplex, in normal form."""
        if ref.dim == 0:
            raise IndexError("a vertex has no faces")
        if not 0 <= i <= ref.dim:
            raise IndexError(f"d_{i} out of range for dimension {ref.dim}")
        word, residual = word_face(ref.word, i)
        if residual is None:
            return SimplexRef(ref.gen, word, ref.dim - 1)
        entry = self.faces[ref.gen][residual]
        return apply_degeneracies(entry, word)

    def restrict(self, ref: SimplexRef, vertices) -> SimplexRef:
        """The face of ref spanned by the given vertices of [ref.dim]: every
        other vertex is dropped, from the top down."""
        for i in range(ref.dim, -1, -1):
            if i not in vertices:
                ref = self.face(ref, i)
        return ref

    def vertices_of(self, ref: SimplexRef) -> tuple[SimplexRef, ...]:
        """The ordered tuple of vertices of a simplex."""
        return tuple(self.restrict(ref, (v,)) for v in range(ref.dim + 1))

    def __eq__(self, other):
        return (isinstance(other, SimplicialSet)
                and self.max_dim == other.max_dim
                and self.generators == other.generators
                and self.faces == other.faces)

    def __repr__(self):
        return f"SimplicialSet(max_dim={self.max_dim}, counts={self.counts()})"


def apply_operator(X: SimplicialSet, ref: SimplexRef, op: tuple[str, int]) -> SimplexRef:
    """Apply a single generating operator ('d', i) or ('s', i)."""
    kind, i = op
    if kind == "d":
        return X.face(ref, i)
    if kind == "s":
        return degenerate(ref, i)
    raise ValueError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(\n  " + "\n  ".join(self.problems) + "\n)"


def validate(X: SimplicialSet) -> ValidationReport:
    """Check face references and the simplicial identities on every generator."""
    report = ValidationReport()
    for k in range(1, X.max_dim + 1):
        for g in X.gens(k):
            entries = X.faces.get(g)
            if entries is None or len(entries) != k + 1:
                report.problems.append(f"{g!r}: expected {k + 1} faces")
                continue
            for i, r in enumerate(entries):
                if r.dim != k - 1:
                    report.problems.append(f"{g!r}: d_{i} has dimension {r.dim}, want {k - 1}")
                elif not X.has_ref(r):
                    report.problems.append(f"{g!r}: d_{i} dangles ({r!r})")
    if report.problems:
        return report
    for k in range(2, X.max_dim + 1):
        for g in X.gens(k):
            ref = X.ref(g)
            for j in range(1, k + 1):
                for i in range(j):
                    left = X.face(X.face(ref, j), i)
                    right = X.face(X.face(ref, i), j - 1)
                    if left != right:
                        report.problems.append(
                            f"{g!r}: d_{i} d_{j} = {left!r} but d_{j-1} d_{i} = {right!r}")
    return report


# ---------------------------------------------------------------------------
# Simplicial maps
# ---------------------------------------------------------------------------

class SimplicialMap:
    """A map of simplicial sets given by generator-wise SimplexRef images."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 assignment: dict[Any, SimplexRef]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        for g, r in self.assignment.items():
            if source.dim_of[g] != r.dim:
                raise ValueError(f"image of {g!r} has dimension {r.dim}, want {source.dim_of[g]}")
        self._cache: dict = {}

    def __call__(self, ref: SimplexRef) -> SimplexRef:
        return apply_degeneracies(self.assignment[ref.gen], ref.word)

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        assignment = {g: self(other.assignment[g]) for g in other.assignment}
        return SimplicialMap(other.source, self.target, assignment)

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source == other.source and self.target == other.target
                and self.assignment == other.assignment)

    def __repr__(self):
        return f"SimplicialMap({len(self.assignment)} generators)"


class PositionMap(SimplicialMap):
    """A map that sends each generator to a generator of the same degree,
    given by positions.

    positions(k) lists, for the generators of source.gens(k) in order, the
    places of their images in target.gens(k).  It is called once per
    degree, when that degree is first read through images(k); a list whose
    length is not the source's rank in that degree is an internal error.
    The assignment is built from the positions when first read.
    """

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 positions: Callable[[int], list[int]]):
        self.source = source
        self.target = target
        self._positions = positions
        self._images: dict[int, list[int]] = {}
        self._cache = {}

    def images(self, k: int) -> list[int]:
        """The degree-k positions; empty outside the source's degrees."""
        if k < 0 or k > self.source.max_dim:
            return []
        images = self._images.get(k)
        if images is None:
            images = self._positions(k)
            if len(images) != len(self.source.gens(k)):
                raise RuntimeError(
                    f"{len(images)} positions for the {len(self.source.gens(k))} "
                    f"generators of degree {k}")
            self._images[k] = images
        return images

    @cached_property
    def assignment(self) -> dict[Any, SimplexRef]:
        out = {}
        for k in range(self.source.max_dim + 1):
            gens = self.target.gens(k)
            out.update((g, SimplexRef(gens[j], (), k))
                       for g, j in zip(self.source.gens(k), self.images(k)))
        return out


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return inclusion_map(X, X)


def constant_map(X: SimplicialSet, Y: SimplicialSet, vertex: Any) -> SimplicialMap:
    return SimplicialMap(X, Y, {g: Y.ref(vertex, full_word(X.dim_of[g])) for g in X.all_gens()})


def validate_map(f: SimplicialMap) -> ValidationReport:
    """Check that f commutes with every face operator, generator-wise."""
    report = ValidationReport()
    X, Y = f.source, f.target
    for k in range(1, X.max_dim + 1):
        for g in X.gens(k):
            img = f.assignment.get(g)
            if img is None:
                report.problems.append(f"{g!r}: no image assigned")
                continue
            if not Y.has_ref(img):
                report.problems.append(f"{g!r}: image {img!r} not in target")
                continue
            for i in range(k + 1):
                lhs = f(X.face(X.ref(g), i))
                rhs = Y.face(img, i)
                if lhs != rhs:
                    report.problems.append(
                        f"{g!r}: f(d_{i} x) = {lhs!r} but d_{i} f(x) = {rhs!r}")
    for g in X.gens(0):
        img = f.assignment.get(g)
        if img is None:
            report.problems.append(f"{g!r}: no image assigned")
        elif not Y.has_ref(img):
            report.problems.append(f"{g!r}: image {img!r} not in target")
    return report


def is_isomorphism(f: SimplicialMap) -> bool:
    """True when f is a bijection on nondegenerate generators in each degree.

    Empty degrees beyond either truncation bound are ignored.
    """
    X, Y = f.source, f.target
    top = max(X.max_dim, Y.max_dim)
    cx = X.counts() + (0,) * (top - X.max_dim)
    cy = Y.counts() + (0,) * (top - Y.max_dim)
    if cx != cy:
        return False
    for k in range(X.max_dim + 1):
        images = set()
        for g in X.gens(k):
            r = f.assignment[g]
            if r.is_degenerate():
                return False
            images.add(r.gen)
        if images != set(Y.gens(k)):
            return False
    return validate_map(f).ok


# ---------------------------------------------------------------------------
# Standard simplices
# ---------------------------------------------------------------------------

def standard_simplex(n: int) -> SimplicialSet:
    """Delta[n]: nondegenerate k-simplices are the (k+1)-subsets of {0..n}."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    generators = {k: [tuple(c) for c in itertools.combinations(range(n + 1), k + 1)]
                  for k in range(n + 1)}
    faces = {}
    for k in range(1, n + 1):
        for S in generators[k]:
            faces[S] = tuple(SimplexRef(S[:i] + S[i + 1:], (), k - 1)
                             for i in range(k + 1))
    return SimplicialSet(n, generators, faces)


def boundary(n: int) -> SimplicialSet:
    """The boundary of Delta[n]: everything but the top generator."""
    if n < 1:
        raise ValueError("the boundary of a point is empty")
    full = standard_simplex(n)
    generators = {k: full.gens(k) for k in range(n)}
    faces = {g: full.faces[g] for k in range(1, n) for g in full.gens(k)}
    return SimplicialSet(n - 1, generators, faces)


def monotone_of_ref(ref: SimplexRef) -> tuple[int, ...]:
    """Decode a simplex of a standard simplex into its monotone vertex map.

    The generator must be a tuple of vertices (as produced by
    standard_simplex); the word contributes duplications.
    """
    return tuple(map(ref.gen.__getitem__, word_surjection(ref.word, ref.dim)))


def ref_from_monotone(values: Iterable[int]) -> SimplexRef:
    """Encode a monotone vertex sequence as a standard-simplex SimplexRef."""
    vs = tuple(values)
    return SimplexRef(tuple(sorted(set(vs))), word_of_repeats(vs), len(vs) - 1)


def standard_map(m: int, n: int, values: Iterable[int],
                 source: SimplicialSet | None = None,
                 target: SimplicialSet | None = None) -> SimplicialMap:
    """The simplicial map Delta[m] -> Delta[n] induced by a monotone map."""
    vs = tuple(values)
    if len(vs) != m + 1 or any(a > b for a, b in zip(vs, vs[1:])):
        raise ValueError("need a monotone sequence of length m+1")
    src = source if source is not None else standard_simplex(m)
    tgt = target if target is not None else standard_simplex(n)
    assignment = {}
    for g in src.all_gens():
        assignment[g] = ref_from_monotone(tuple(vs[v] for v in g))
    return SimplicialMap(src, tgt, assignment)


def representing_map(B: SimplicialSet, ref: SimplexRef,
                     domain: SimplicialSet | None = None) -> SimplicialMap:
    """The map Delta[n] -> B classifying a (possibly degenerate) n-simplex:
    each vertex set S of Delta[n] goes to the face of ref spanned by S.

    domain, when given, is the Delta[n] to use as the source.
    """
    dom = domain if domain is not None else standard_simplex(ref.dim)
    return SimplicialMap(dom, B, {S: B.restrict(ref, S) for S in dom.all_gens()})


# ---------------------------------------------------------------------------
# Products and pullbacks
# ---------------------------------------------------------------------------

def factor_common(refs: tuple[SimplexRef, ...]) -> tuple[tuple[int, ...], tuple[SimplexRef, ...]]:
    """EZ normal form of a simplex tuple: extract the common outer word.

    A tuple is degenerate exactly when every component word shares an index;
    stripping the shared indices, largest first, yields the normal form.
    """
    refs = tuple(refs)
    for r in refs:
        if not r.word:
            return (), refs
    common = set(refs[0].word).intersection(*(r.word for r in refs[1:]))
    if not common:
        return (), refs
    # stripping a shared index never makes two others meet, so all of them
    # go at once: each other index a drops by the shared ones below it
    outer = tuple(sorted(common, reverse=True))
    return outer, tuple(
        SimplexRef(r.gen, tuple(a - sum(c < a for c in outer) for a in r.word if a not in common),
                   r.dim - len(outer))
        for r in refs)


class ProductResult:
    """A product of factors, with its projections, built when first read."""

    def __init__(self, space: SimplicialSet, factors: list[SimplicialSet]):
        self.space = space
        self.factors = tuple(factors)

    @cached_property
    def projections(self) -> tuple[SimplicialMap, ...]:
        gens = list(self.space.all_gens())
        return tuple(SimplicialMap(self.space, X, {g: g[t] for g in gens})
                     for t, X in enumerate(self.factors))


def tuple_into(space: SimplicialSet, refs: tuple[SimplexRef, ...],
               component: Any = None) -> SimplexRef:
    """Normalize a simplex tuple into a SimplexRef of a product-style space.

    Generators of such spaces are ref tuples (optionally tagged with a
    disjoint-union component).
    """
    word, core = factor_common(refs)
    gen = core if component is None else (component, core)
    return apply_degeneracies(space.ref(gen), word)


def _ez_paths(kappas: tuple[tuple[int, ...], ...], N: int) -> list[tuple]:
    """The nondegenerate simplices over one tuple of cores, as lattice paths.

    kappas[t] is the surjection [p_t] -> [q] of factor t's core onto the
    shared core of the base.  By the Eilenberg-Zilber lemma the
    nondegenerate n-simplices (s_I1 x_1, ..., s_Ik x_k) over the cores
    x_t are the paths of n steps from the origin to (p_1, ..., p_k) through
    the points where every kappa takes one value, each step raising a
    nonempty set of coordinates by one.  Factor t's word holds the steps
    that leave coordinate t alone.

    Returns one (n, words, faces) per path with n <= N.  faces[i] is the
    index of the path with point i dropped when every coordinate value stays
    visited.  Otherwise dropping it exposes a face of a core, and faces[i]
    is (drops, words): factor t becomes d_j of its core for each (t, j) in
    drops, the other cores stay, and words are those of the shorter path.
    Its steps still raise some coordinate each, so it is nondegenerate
    unless the face of a core is.
    """
    k = len(kappas)
    ends = tuple(len(kappa) - 1 for kappa in kappas)
    found: list[tuple] = []

    def walk(points):
        here = points[-1]
        if here == ends:
            found.append(tuple(points))
            return
        if max(e - c for e, c in zip(ends, here)) > N + 1 - len(points):
            return
        movable = [t for t in range(k) if here[t] < ends[t]]
        for mask in range(1, 1 << len(movable)):
            step = list(here)
            for b, t in enumerate(movable):
                if mask >> b & 1:
                    step[t] += 1
            level = kappas[0][step[0]]
            if all(kappas[t][step[t]] == level for t in range(1, k)):
                points.append(tuple(step))
                walk(points)
                points.pop()

    def words_of(points):
        return tuple(map(word_of_repeats, zip(*points)))

    def face(points, i):
        rest = points[:i] + points[i + 1:]
        drops = tuple((t, points[i][t]) for t in range(k)
                      if not (i and points[i - 1][t] == points[i][t])
                      and not (i + 1 < len(points) and points[i + 1][t] == points[i][t]))
        return (drops, words_of(rest)) if drops else index[rest]

    walk([(0,) * k])
    index = {points: j for j, points in enumerate(found)}
    return [(len(points) - 1, words_of(points),
             tuple(face(points, i) for i in range(len(points))) if len(points) > 1 else ())
            for points in found]


def is_discrete(X: SimplicialSet) -> bool:
    """Whether every generator of X is a vertex."""
    return len(X.gens(0)) == len(X.dim_of)


def rank_by(X: SimplicialSet, keys: list) -> None:
    """Let X's canonical ranks come from keys instead of canonical_key.

    keys holds one sort key per generator, in X.all_gens() order, whose
    order, ties included, is the canonical_key order of the generators.
    They are sorted when the ranks are first read.  The enumerator's
    spaces have such keys: (rank, word) per factor.
    """
    X._cache["keys"] = keys


def members(X: SimplicialSet) -> dict[Any, tuple]:
    """Each generator of X as a member (rank, id, generator), kept on X.

    The rank is the generator's place in canonical_key order over all
    degrees of X; generators with equal keys share a rank, so a stable
    sort by rank is a stable sort by canonical_key.  The keys are those
    given to rank_by, if any, else canonical_key.  The id is the
    generator's place in X.all_gens().
    """
    found = X._cache.get("members")
    if found is None:
        gens = list(X.all_gens())
        keys = X._cache.pop("keys", None)
        if keys is None:
            keys = list(map(canonical_key, gens))
        rank, previous, r = [0] * len(gens), None, -1
        for i in sorted(range(len(gens)), key=keys.__getitem__):
            if keys[i] != previous:
                r, previous = r + 1, keys[i]
            rank[i] = r
        found = X._cache["members"] = {g: (rank[i], i, g) for i, g in enumerate(gens)}
    return found


def face_ids(X: SimplicialSet) -> list[tuple]:
    """X's face table by ids: a generator's id is its place in
    X.all_gens(), and entry g holds the ids of the faces d_0, d_1, ... of
    generator g (None for a degenerate face).  Kept on X."""
    faces = X._cache.get("face ids")
    if faces is None:
        own = X._own
        faces = X._cache["face ids"] = [
            tuple(None if r.word else own[r.gen][2] for r in X.faces.get(g, ()))
            for g in own]
    return faces


def _ez_table(kappas: tuple, N: int, paths: dict) -> tuple[list[tuple], dict]:
    """The paths of _ez_paths for these kappas and N, and the index of a
    path by its words; kept in paths."""
    table = paths.get((kappas, N))
    if table is None:
        entries = _ez_paths(kappas, N)
        table = paths[kappas, N] = (entries, {words: j for j, (_, words, _) in enumerate(entries)})
    return table


def _ez_parts(entries: list[tuple], t: int, factor: list[tuple]) -> list[tuple]:
    """Per member (rank, id, x) of factor t: its id, its simplex s_I x on
    every path, and its (rank, word) part of every path's key."""
    return [(i, [SimplexRef(x, words[t], n) for n, words, _ in entries],
             [(rank, words[t]) for _, words, _ in entries]) for rank, i, x in factor]


def _ez_group(table: tuple[list[tuple], dict], parts: list[list[tuple]]) -> list[tuple]:
    """The nondegenerate simplices over one group, on its _ez_table.

    A group is one surjection kappa per factor onto one shared core, and
    per factor the members whose images are kappa onto it, given as
    their _ez_parts on the table; a product is the case where every core
    is the point.

    Returns per tuple of cores (ids, (path index by words, row), cells):
    ids are the cores' member ids, row holds the generators (s_I1 x_1, ...,
    s_Ik x_k) over them in path order, and a cell is the list [key, gen,
    n, row, faces, ids, None] of a generator of degree n, faces being its
    path's face table and key = (rank_1, word_1, ..., rank_k, word_k), the
    generator's place in canonical_key order.  A reader of row may replace
    an entry by its generator's SimplexRef, and keeps the cell's faces in
    its last slot.
    """
    entries, by_words = table
    out = []
    for combo in itertools.product(*parts):
        ids, refs, keys = zip(*combo)
        row = list(zip(*refs))
        cells = []
        for j, (n, _, faces) in enumerate(entries):
            cells.append([sum([part[j] for part in keys], ()), row[j], n, row, faces, ids, None])
        out.append((ids, (by_words, row), cells))
    return out


def _ez_groups(groups: Iterable[tuple], N: int, paths: dict) -> Iterator[list[tuple]]:
    """_ez_group of each (kappas, members) group with a path."""
    for kappas, factors in groups:
        table = _ez_table(kappas, N, paths)
        if table[0]:
            yield _ez_group(table, [_ez_parts(table[0], t, factor)
                                    for t, factor in enumerate(factors)])


def _ez_cells(groups: Iterable[list[tuple]], N: int) -> tuple[list[list[list]], dict]:
    """The cells of some _ez_group results, per degree in canonical_key
    order, and the rows by the ids of their cores."""
    found: list[list[list]] = [[] for _ in range(N + 1)]
    rows: dict[tuple, tuple] = {}
    for group in groups:
        for ids, row, cells in group:
            rows[ids] = row
            for cell in cells:
                found[cell[2]].append(cell)
    for cells in found:
        cells.sort(key=itemgetter(0))
    return found, rows


def _by_dimension(X: SimplicialSet, N: int) -> list[tuple]:
    """X's generators through degree N as (kappa, members) pairs over the
    point: one pair per nonempty degree p, kappa the collapse of [p]."""
    ranked = members(X)
    return [((0,) * (p + 1), [ranked[x] for x in X.gens(p)])
            for p in range(min(N, X.max_dim) + 1) if X.gens(p)]


def _fibre_space(spaces: list[SimplicialSet], cells: list[list[list]], rows: dict,
                 N: int) -> SimplicialSet:
    """The simplicial set on _ez_cells' generators, with their faces.

    A face that drops an interior point of the path is read from the cell's
    row.  One that exposes faces of cores reads their ids from the factors'
    face tables and is read from the row over those cores by the shorter
    path's words; only a degenerate face of a core needs tuple_into.  A row
    entry becomes its generator's SimplexRef when first read.
    """
    P = SimplicialSet._in_canonical_order(
        N, {n: tuple(map(itemgetter(1), cells[n])) for n in range(N + 1)}, {})
    rank_by(P, [cell[0] for n in range(N + 1) for cell in cells[n]])
    tables = [face_ids(X) for X in spaces]
    for n in range(1, N + 1):
        for cell in cells[n]:
            if cell[6] is None:
                cell[6] = _cell_faces(P, spaces, tables, rows, cell)
            P.faces[cell[1]] = cell[6]
    return P


def _cell_faces(P: SimplicialSet, spaces: list[SimplicialSet], tables: list[list[tuple]],
                rows: dict, cell: list) -> tuple[SimplexRef, ...]:
    """The faces d_0..d_n of one cell of _fibre_space."""
    _, gen, n, row, faces, ids, _ = cell
    entries = []
    for i, face in enumerate(faces):
        if face.__class__ is int:
            other, j = row, face
        else:
            drops, words = face
            cores = list(ids)
            for t, j in drops:
                cores[t] = tables[t][cores[t]][j]
            if None in cores:
                entries.append(tuple_into(P, tuple(X.face(r, i) for X, r in zip(spaces, gen))))
                continue
            by_words, other = rows[tuple(cores)]
            j = by_words[words]
        if other[j].__class__ is not SimplexRef:
            other[j] = SimplexRef(other[j], (), n - 1)
        entries.append(other[j])
    return tuple(entries)


def top_cells(X: SimplicialSet, n: int, N: int, paths: dict) -> tuple[list[list[list]], dict]:
    """The nondegenerate simplices (s_I iota, s_J x) of Delta[n] x X through
    degree N whose Delta[n] part is a degeneracy of the top simplex iota.

    They come from the enumerator, iota being the only core of its factor,
    in the order product_many would give them.  Returns the cells per
    degree, each the list [key, (a, b), d, row, faces, ids, None] of
    _ez_group, and per core x of X, keyed by its id (its place in
    X.all_gens(), ids[1] of its cells), the pair (index of a path by its
    words, row) of the cells over iota and x.  faces[i] is the index in row
    of d_i (a, b) when that face is a cell over the same cores; otherwise it
    is (drops, words), and d_i (a, b) is (s_wa c, s_wb y) for words =
    (wa, wb), c being d_v iota if (0, v) is in drops and iota otherwise,
    and y being d_j x if (1, j) is in drops and x otherwise.  paths keeps
    the lattice-path tables for later calls.
    """
    top = ((0,) * (n + 1), [(0, 0, tuple(range(n + 1)))])
    groups = (zip(top, level) for level in _by_dimension(X, N))
    cells, rows = _ez_cells(_ez_groups(groups, N, paths), N)
    return cells, {x: row for (_, x), row in rows.items()}


def product_many(spaces: list[SimplicialSet], N: int | None = None) -> ProductResult:
    """Categorical product truncated at N, with projections.

    Nondegenerate n-simplices are tuples of n-simplices of the factors whose
    degeneracy words have no index in common; they are enumerated from the
    factors' generators by _ez_cells, over the point, in canonical_key
    order.  The product of discrete factors is the tuples of their vertices
    (_vertex_product).
    """
    if not spaces:
        pt = SimplicialSet(0, {0: ["*"]}, {})
        return ProductResult(pt, ())
    if N is None:
        N = sum(X.max_dim for X in spaces)
    if all(map(is_discrete, spaces)):
        return ProductResult(_vertex_product(spaces, N), spaces)
    groups = (zip(*group) for group in itertools.product(*(_by_dimension(X, N) for X in spaces)))
    return ProductResult(_fibre_space(spaces, *_ez_cells(_ez_groups(groups, N, {}), N), N), spaces)


def _vertex_product(spaces: list[SimplicialSet], N: int) -> SimplicialSet:
    """The product of discrete spaces through degree N: the tuples of their
    vertices, sorted and ranked by the keys the enumerator gives them,
    (rank, ()) per factor."""
    keys, refs = [], []
    for X in spaces:
        ranked = members(X)
        keys.append([(ranked[x][0], ()) for x in X.gens(0)])
        refs.append([SimplexRef(x, (), 0) for x in X.gens(0)])
    cells = sorted(zip(map(sum, itertools.product(*keys), itertools.repeat(())),
                       itertools.product(*refs)), key=itemgetter(0))
    P = SimplicialSet._in_canonical_order(N, {0: tuple(map(itemgetter(1), cells))}, {})
    rank_by(P, list(map(itemgetter(0), cells)))
    return P


def product(X: SimplicialSet, Y: SimplicialSet, N: int | None = None) -> ProductResult:
    return product_many([X, Y], N)


class PullbackResult:
    """A pullback P of X -> B <- Y, with its legs P -> X and P -> Y, built
    when first read."""

    def __init__(self, space: SimplicialSet, left: SimplicialSet, right: SimplicialSet):
        self.space = space
        self.left = left
        self.right = right

    @cached_property
    def to_left(self) -> SimplicialMap:
        return SimplicialMap(self.space, self.left, {g: g[0] for g in self.space.all_gens()})

    @cached_property
    def to_right(self) -> SimplicialMap:
        return SimplicialMap(self.space, self.right, {g: g[1] for g in self.space.all_gens()})


def _core_index(h: SimplicialMap) -> dict[Any, tuple]:
    """h's source generators by the core of their image, then by kappa.

    core -> ((kappa, members), ...), kappa the surjection of the image onto
    its core and members the members of h.source over it.  Built once,
    kept on h.
    """
    index = h._cache.get("cores")
    if index is None:
        by_core: dict[Any, dict] = {}
        for x, member in members(h.source).items():
            image = h.assignment[x]
            by_core.setdefault(image.gen, {}).setdefault(
                word_surjection(image.word, image.dim), []).append(member)
        index = h._cache["cores"] = {core: tuple(by_kappa.items())
                                     for core, by_kappa in by_core.items()}
    return index


def pullback(f: SimplicialMap, g: SimplicialMap, N: int | None = None) -> PullbackResult:
    """Levelwise fiber product of f and g over their common target.

    Each pair of source generators over one core of the base, one from
    each leg's core index, contributes the lattice paths of _ez_paths; the
    path tables, with g's members' simplices on them, are kept on g.
    Generators (a, b) come in canonical_key order, the order of the
    canonical ranks of a.gen and b.gen and the words.

    The cells over a generator x of f's source depend only on x, the core
    and kappa of its image, and N.  So f's source keeps them for its
    pullbacks along g, the last right leg it met: along a map p, the
    preimages of base simplices with a common face share the cells over
    it, and so do their generator objects.
    """
    if f.target is not g.target and f.target != g.target:
        raise ValueError("pullback legs must share a target")
    X, Y = f.source, g.source
    if N is None:
        N = X.max_dim + Y.max_dim
    left, right = _core_index(f), _core_index(g)
    paths = g._cache.setdefault("paths", {})
    shared = X._cache.get("pullback cells")
    if shared is None or shared[0] is not g:
        shared = X._cache["pullback cells"] = (g, {})
    # per core of the base: each path table with the right leg's parts on it
    right_parts = g._cache.setdefault("parts", {})
    groups = []
    for core, kappas in left.items():
        over = right.get(core)
        if over is None:
            continue
        built = shared[1].setdefault(core, {})
        known = right_parts.setdefault(core, {})
        for (kappa, xs), (lam, ys) in itertools.product(kappas, over):
            both = known.get((kappa, lam, N))
            if both is None:
                table = _ez_table((kappa, lam), N, paths)
                both = known[kappa, lam, N] = (table, _ez_parts(table[0], 1, ys))
            table, parts = both
            if not table[0]:
                continue
            for x in xs:
                key = (x[1], kappa, lam, N)
                group = built.get(key)
                if group is None:
                    group = built[key] = _ez_group(table, [_ez_parts(table[0], 0, [x]), parts])
                groups.append(group)
    return PullbackResult(_fibre_space([X, Y], *_ez_cells(groups, N), N), X, Y)


# ---------------------------------------------------------------------------
# Colimits
# ---------------------------------------------------------------------------

@dataclass
class PushoutResult:
    space: SimplicialSet
    from_left: SimplicialMap   # from the cofibration's codomain X
    from_right: SimplicialMap  # from Y


def pushout(i: SimplicialMap, j: SimplicialMap) -> PushoutResult:
    """Pushout of X <-i- A -j-> Y where i is injective on generators.

    The cofibration leg must send generators to distinct nondegenerate
    generators; the result keeps Y whole and adjoins the generators of X
    outside the image, rerouting faces through j.
    """
    A, X, Y = i.source, i.target, j.target
    if j.source is not A and j.source != A:
        raise ValueError("pushout legs must share a source")
    image = {}
    for a in A.all_gens():
        r = i.assignment[a]
        if r.is_degenerate():
            raise ValueError(f"cofibration leg degenerates generator {a!r}")
        if r.gen in image:
            raise ValueError(f"cofibration leg is not injective at {r.gen!r}")
        image[r.gen] = a
    kept = [g for g in X.all_gens() if g not in image]
    collide = set(kept) & set(Y.all_gens())
    xid = (lambda g: ("x", g)) if collide else (lambda g: g)
    yid = (lambda g: ("y", g)) if collide else (lambda g: g)

    N = max(X.max_dim, Y.max_dim)
    generators: dict[int, list] = {k: [] for k in range(N + 1)}
    for g in Y.all_gens():
        generators[Y.dim_of[g]].append(yid(g))
    for g in kept:
        generators[X.dim_of[g]].append(xid(g))
    P = SimplicialSet(N, generators, {})

    def route_x(r: SimplexRef) -> SimplexRef:
        a = image.get(r.gen)
        if a is None:
            return SimplexRef(xid(r.gen), r.word, r.dim)
        return apply_degeneracies(route_y(j.assignment[a]), r.word)

    def route_y(r: SimplexRef) -> SimplexRef:
        return SimplexRef(yid(r.gen), r.word, r.dim)

    faces = {}
    for g in Y.all_gens():
        if Y.dim_of[g] >= 1:
            faces[yid(g)] = tuple(route_y(r) for r in Y.faces[g])
    for g in kept:
        if X.dim_of[g] >= 1:
            faces[xid(g)] = tuple(route_x(r) for r in X.faces[g])
    P.faces.update(faces)
    from_left = SimplicialMap(X, P, {g: route_x(X.ref(g)) for g in X.all_gens()})
    from_right = SimplicialMap(Y, P, {g: route_y(Y.ref(g)) for g in Y.all_gens()})
    return PushoutResult(P, from_left, from_right)


def disjoint_union(spaces: list[SimplicialSet]) -> tuple[SimplicialSet, list[SimplicialMap]]:
    """Coproduct with injections; component t is tagged (t, generator)."""
    N = max((X.max_dim for X in spaces), default=0)
    generators: dict[int, list] = {k: [] for k in range(N + 1)}
    faces = {}
    for t, X in enumerate(spaces):
        for g in X.all_gens():
            generators[X.dim_of[g]].append((t, g))
        for g in X.all_gens():
            if X.dim_of[g] >= 1:
                faces[(t, g)] = tuple(SimplexRef((t, r.gen), r.word, r.dim)
                                      for r in X.faces[g])
    P = SimplicialSet(N, generators, faces)
    injections = [
        SimplicialMap(X, P, {g: SimplexRef((t, g), (), X.dim_of[g]) for g in X.all_gens()})
        for t, X in enumerate(spaces)
    ]
    return P, injections


def full_subcomplex(X: SimplicialSet, keep: Iterable[Any]) -> SimplicialSet:
    """The subcomplex on a face-closed set of generators (checked)."""
    keep = set(keep)
    for g in keep:
        k = X.dim_of[g]
        if k >= 1:
            for r in X.faces[g]:
                if r.gen not in keep:
                    raise ValueError(f"generator set not face-closed at {g!r}")
    generators = {k: [g for g in X.gens(k) if g in keep] for k in range(X.max_dim + 1)}
    faces = {g: X.faces[g] for g in keep if X.dim_of[g] >= 1}
    return SimplicialSet(X.max_dim, generators, faces)


def inclusion_map(sub: SimplicialSet, X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(sub, X, {g: X.ref(g) for g in sub.all_gens()})


# ---------------------------------------------------------------------------
# Presentation complexes and suspensions
# ---------------------------------------------------------------------------

def presentation_complex(letters: list[str], relators: list[list[str]]) -> SimplicialSet:
    """The 2-complex of a group presentation.

    One vertex, one loop edge per letter.  A relator is a list of tokens,
    a bare letter or letter + '-' for its inverse.  Inverse letters get an
    auxiliary loop edge tied to the original by a triangle through the
    degenerate edge, which identifies its homology class with the negative.
    Each relator of length L >= 1 is filled by a fan of L triangles around a
    hub vertex; lengths 1 and 2 need no special casing because hub spokes
    subdivide the disc (the fan uses L genuine spoke edges even then).
    """
    v = "v"
    generators: dict[int, list] = {0: [v], 1: [], 2: []}
    faces: dict[Any, tuple] = {}
    vertex = SimplexRef(v, (), 0)
    deg_edge = SimplexRef(v, (0,), 1)
    inverses = sorted({tok[:-1] for rel in relators for tok in rel if tok.endswith("-")})
    for a in letters:
        generators[1].append(("e", a))
        faces[("e", a)] = (vertex, vertex)
    for a in inverses:
        if a not in letters:
            raise ValueError(f"unknown letter {a!r} in relator")
        generators[1].append(("einv", a))
        faces[("einv", a)] = (vertex, vertex)
        generators[2].append(("inv", a))
        faces[("inv", a)] = (
            SimplexRef(("e", a), (), 1), deg_edge, SimplexRef(("einv", a), (), 1))
    for r, rel in enumerate(relators):
        if not rel:
            raise ValueError("empty relator")
        L = len(rel)
        hub = ("hub", r)
        generators[0].append(hub)
        hub_ref = SimplexRef(hub, (), 0)
        for t in range(L):
            generators[1].append(("spoke", r, t))
            faces[("spoke", r, t)] = (vertex, hub_ref)
        for t, tok in enumerate(rel):
            if tok.endswith("-"):
                edge = SimplexRef(("einv", tok[:-1]), (), 1)
            else:
                if tok not in letters:
                    raise ValueError(f"unknown letter {tok!r} in relator")
                edge = SimplexRef(("e", tok), (), 1)
            generators[2].append(("tri", r, t))
            faces[("tri", r, t)] = (
                edge,
                SimplexRef(("spoke", r, (t + 1) % L), (), 1),
                SimplexRef(("spoke", r, t), (), 1))
    return SimplicialSet(2, generators, faces)


def suspension(X: SimplicialSet) -> tuple[SimplicialSet, SimplicialMap]:
    """Unreduced suspension: the cylinder on X with each end collapsed.

    It is the pushout of the two ends X + X -> X x Delta[1] along their
    collapse onto the poles.  Returns the suspension together with its
    projection to Delta[1] (pole 0 to vertex 0, pole 1 to vertex 1).
    """
    if X.is_empty():
        raise ValueError("cannot suspend the empty simplicial set")
    interval = standard_simplex(1)
    cyl = product(X, interval, X.max_dim + 1)
    ends, _ = disjoint_union([X, X])
    poles = SimplicialSet(0, {0: ["pole0", "pole1"]}, {})
    word = {(e, g): full_word(X.dim_of[g]) for e, g in ends.all_gens()}
    S = pushout(
        SimplicialMap(ends, cyl.space, {(e, g): cyl.space.ref((X.ref(g), interval.ref((e,), w)))
                                         for (e, g), w in word.items()}),
        SimplicialMap(ends, poles, {(e, g): poles.ref(f"pole{e}", w)
                                    for (e, g), w in word.items()})).space
    down = {"pole0": interval.ref((0,)), "pole1": interval.ref((1,)), **cyl.projections[1].assignment}
    return S, SimplicialMap(S, interval, {g: down[g] for g in S.all_gens()})


def euler_characteristic(X: SimplicialSet) -> int:
    return sum((-1) ** k * len(X.gens(k)) for k in range(X.max_dim + 1))


# ---------------------------------------------------------------------------
# Small stock spaces
# ---------------------------------------------------------------------------

def point() -> SimplicialSet:
    return standard_simplex(0)


def empty_space(max_dim: int = 0) -> SimplicialSet:
    return SimplicialSet(max_dim, {}, {})


def cyclic_graph(m: int) -> SimplicialSet:
    """The circle as an m-gon: vertices 0..m-1, edge t from t to t+1 mod m."""
    if m < 1:
        raise ValueError("need at least one edge")
    generators = {0: [("v", t) for t in range(m)], 1: [("e", t) for t in range(m)]}
    faces = {("e", t): (SimplexRef(("v", (t + 1) % m), (), 0), SimplexRef(("v", t), (), 0))
             for t in range(m)}
    return SimplicialSet(1, generators, faces)


def cyclic_cover_map(m: int, k: int) -> SimplicialMap:
    """The covering of circles C_m -> C_k wrapping m/k times (k divides m)."""
    if m % k:
        raise ValueError("m must be a multiple of k")
    src, tgt = cyclic_graph(m), cyclic_graph(k)
    assignment = {}
    for t in range(m):
        assignment[("v", t)] = SimplexRef(("v", t % k), (), 0)
        assignment[("e", t)] = SimplexRef(("e", t % k), (), 1)
    return SimplicialMap(src, tgt, assignment)
