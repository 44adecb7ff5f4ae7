"""Simplex preimages and homology-fibration checkers.

For p: E -> B and a simplex sigma of B, the preimage dp(sigma) is the
pullback of the representing map Delta[n] -> B along p.  A map is checked
to be a weak homology fibration by testing, for every nondegenerate simplex
sigma and every face d_i, that the comparison dp(d_i sigma) -> dp(sigma)
induces isomorphisms in homology; this is the McDuff-Segal definition, by
face inclusions alone.  Checking generators only is enough because homology
equivalences compose; a full operator-word audit, degeneracies included,
sits behind the deep_ops flag.  A comparison's operator phi: [k] -> [m] is
its vertex table, a tuple of k + 1 values; it is a coface exactly when no
value repeats, and no map between standard simplices is built for it.

Comparisons compose: dp(rho . phi . psi) -> dp(rho . phi) -> dp(rho) is
the comparison of phi . psi, as (a, b) -> (psi(a), b) -> (phi(psi(a)), b).
By two-out-of-three, if two of the three induce isomorphisms on H_k, so
does the third, in each degree k and over any ring; the preimages are
truncated at one bound, so this holds through every degree the check
reads.  Write V(tau, v) for the vertex inclusion dp(tau(v)) -> dp(tau).
An edge's two face comparisons are its two vertex inclusions.  For sigma
of dimension n >= 2, every face pivots on the last vertex.  For i < n,
d_i sigma keeps sigma(n) as its last vertex, and dp(sigma(n)) ->
dp(d_i sigma) -> dp(sigma) is V(sigma, n): d_i sigma passes when
V(sigma, n) and V(d_i sigma, n - 1) hold.  For d_n, V(sigma, n - 1)
factors through dp(d_n sigma), whose first map is V(d_n sigma, n - 1),
and through dp(e) for the edge e = sigma|{n - 1, n}, whose first map is
V(e, 0) and whose second composes with V(e, 1) to V(sigma, n): d_n sigma
passes when V(sigma, n), V(d_n sigma, n - 1), V(e, 0) and V(e, 1) hold.
So the weak check computes one vertex inclusion V(sigma, n) per simplex
where some face's other premises are known to hold, and every face of
sigma whose premises are not.

The last-vertex lemma.  On a Borel projection pi: E -> B (borel_total),
every vertex inclusion V(sigma, n) onto the last vertex of an n-simplex
is an isomorphism on H_k for k <= bound - 1, over any ring, when four
hypotheses hold:
  (a) h: [n] x [1] -> [n], h(v, 0) = v and h(v, 1) = n, is monotone and
      never lowers a vertex;
  (b) the levels Y_m of the base are discrete;
  (c) each level projection pi_m: X_m -> Y_m keeps a simplex's component
      and morphisms and forgets only its fibre slot;
  (d) each face d_i of the total space with i >= 1 keeps the fibre slot.
Proof.  By (b) a nondegenerate n-simplex of B is a cell (iota_n, b), b a
vertex of Y_n over objects (i_0..i_n), and b_S is its face on S in [n].
A d-simplex of the thick realization E is a cell (c, x), c: [d] -> [m]
onto and x in (X_m)_d, and pi sends it to (c, pi_m x).  So a d-simplex
of dp(sigma) is a pair (a, x), a: [d] -> [n], x in (X_m)_d over b_S, S
the image of a.  By (c) x is its fibre slot y, any d-simplex of F(i_k),
k = min S = a(0): the levels are products with F(i_0) last (borel_level).
An operator theta takes (a, y) to (a theta, y'), y' the fibre slot of
x theta after the faces of X that drop the vertices of S that a theta
misses.  By (d) those at place >= 1 keep y; d_0 drops the least vertex.
So, through the simplicial identities of X (d_0 d_j = d_{j-1} d_0 and
d_0 d_1 = d_0 d_0), y' = G(a(0) <= a theta(0))(y theta) for a functor G
on the poset [n] with G(k) = F(i_k) and G(k <= k') read off d_0 on the
edge of sigma from k to k': dp(sigma) is the Grothendieck construction
of G.  dp(sigma(n)) is G(n), and V(sigma, n) is i: y -> (n, y).  Since
h is monotone and h(v, t) >= v, H((a, y), t) = (h(a, t),
G(a(0) <= h(a(0), t(0)))(y)) is a simplicial map dp(sigma) x Delta[1] ->
dp(sigma), by functoriality of G; H(-, 0) is the identity and H(-, 1)
is i r for r(a, y) = G(a(0) <= n)(y), with r i the identity.  The
truncated preimage keeps every simplex of dimension <= bound, and H
keeps dimension, so the chain homotopy it gives (Eilenberg-Zilber, over
Z and Z/p) joins the identity and i r in degrees <= bound - 1: H_k(i)
is an isomorphism with inverse H_k(r) for k <= bound - 1.  The same
holds for a degenerate simplex sigma alpha, with G alpha on [m].  The
lemma's homotopy keeps dimension, so it holds at every bound b <= N, not
only at N, the bound the levels of the construction are truncated at.
last_vertex_lemma_holds (borel) checks (a)-(d) once per construction,
without building any dp(sigma), and borel_total records on pi, by
record_last_vertex_lemma, that it holds through N; pi's calculator at any
bound 1..N then has retracts set, and bounds above N stay without the
lemma.  With retracts set, every V(tau, dim tau) is known to hold, so the
weak check builds no V(sigma, n): of the premises above it builds only
each edge's V(e, 0), and it deduces the edge's d_0.

A coface comparison dp(rho . phi) -> dp(rho) is a list of generator
positions per degree.  dp(rho . phi) is the pullback of dp(rho) along phi,
so the comparison (a, b) -> (phi(a), b) is the inclusion of the part over
the face phi spans: the generators (a, b) of dp(rho) with every vertex of
a among phi's values.  phi is injective and monotone, so it keeps the
canonical_key order of vertex tuples, and b's ranks are shared: the
comparison keeps generator order, and the images in degree k are those
generators' places in dp(rho), in order.  induced and is_homology_iso read
nothing else; the comparison's assignment is built from the positions
only when a caller reads it as a map.  is_homology_iso tries every map
on its relative complex first, and a comparison, being the inclusion of
a subcomplex, meets that rule's preconditions.  So it is first decided
on dp(rho) / dp(rho . phi), built through the same bound: where the Smith
forms of the quotient leave it no homology through up_to + 1,
H(dp(rho), dp(rho . phi)) vanishes there and, by the long exact sequence
of the pair, the comparison is an isomorphism through up_to, with no
homology of either preimage computed.  Elsewhere, every failing
comparison included, the induced maps decide (homology module
docstring).

The degeneracy comparisons cannot fail, by a homotopy lemma.  dp(s_i sigma)
is the pullback of dp(sigma) along the codegeneracy sigma^i: Delta[n+1] ->
Delta[n], and the comparison is the section (a, b) -> (delta^i a, b), with
retraction (a, b) -> (sigma^i a, b).  The homotopy h: Delta[n+1] x Delta[1]
-> Delta[n+1] that moves vertex i to i+1 at t = 1 runs from the identity to
delta^i sigma^i and satisfies sigma^i h = sigma^i pr, so (a, t, b) ->
(h(a, t), b) is a homotopy on dp(s_i sigma) from the identity to section
after retraction, for every p.  A simplicial homotopy gives a chain
homotopy over Z and Z/p (Goerss-Jardine, May), and on preimages truncated
at a bound it holds through bound - 1, the range the weak check reads.  The
nerve is fully faithful and keeps products, so h is certified exactly on
the poset [n+1] x [1]: degeneracy_lemma_holds checks it once per (n, i)
and call, and a degeneracy comparison is computed as any other whenever
its certificate fails.

Homotopy fibres are never computed: known fibres are registered explicitly
and compared against vertex preimages, which is what the weak => strong
theorem licenses.  The strong check's comparison dp(sigma(0)) -> dp(sigma)
of a simplex of dimension >= 1 is V(sigma, 0), and it composes from face
comparisons of generators and degeneracy sections.  After a weak check has
passed, every one of those holds: computed, deduced by two-out-of-three,
or covered by a lemma.  So V(sigma, 0) holds too.  A calculator records
the coefficient ring of every weak check through its bound - 1 that
passed, with or without deep_ops, and the strong check over a recorded
ring takes each V(sigma, 0) as an isomorphism without building it.  The
record holds per ring and per bound: a pass over Z/2, or at another
bound, certifies nothing over Z or at this one.

Each map keeps one PreimageCalculator per truncation bound, so all checks
on one map share the preimages they build.  The group-completion gates
read each vertex fibre at the bound the construction is truncated at, N,
which is the bound of the weak and strong checks, so a Borel projection
keeps one calculator, and builds each representing map Delta[n] -> B
once, in its record; a comparison reads the one face of rho it needs
with restrict.  A preimage pairs the
generators of Delta[n] with those of E over the same cores of B, from the
core index and path tables that pullback keeps on p.  The pairs over a
generator x of Delta[n] depend only on the face of sigma that x spans, so
they are built once per calculator and shared by the preimages of all
simplices with that face at that place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .homology import Z, IsoCertificate, homology, is_acyclic, is_homology_iso
from .sset import (
    PositionMap,
    PullbackResult,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracies,
    degenerate,
    monotone_of_ref,
    pullback,
    ref_from_monotone,
    representing_map,
    standard_simplex,
    tuple_into,
)


@dataclass
class KnownFiberSpec:
    """A declared fibre for the component of a base vertex."""

    vertex: Any               # a 0-generator of B
    fiber: SimplicialSet
    note: str = ""


class PreimageCalculator:
    """Computes and caches dp(sigma) for one map at one truncation bound, as
    the pullback of Delta[n] -> B along p: its legs to Delta[n] and to E are
    built when first read.

    certified holds the rings of the weak checks through max_dim - 1 that
    passed.
    """

    def __init__(self, p: SimplicialMap, max_dim: int | None = None):
        self.p = p
        self.max_dim = max_dim
        self.certified: set[int] = set()
        self._records: dict[SimplexRef, PullbackResult] = {}
        self._simplices: dict[int, SimplicialSet] = {}

    @property
    def retracts(self) -> bool:
        """Whether the last-vertex lemma (module docstring) is known to hold
        for p at this bound, so that every V(sigma, dim sigma) is an
        isomorphism through max_dim - 1: p records it through a bound
        at least max_dim (record_last_vertex_lemma)."""
        bound = self.p._cache.get("last vertex", 0)
        return self.max_dim is not None and 0 < self.max_dim <= bound

    def simplex(self, n: int) -> SimplicialSet:
        if n not in self._simplices:
            self._simplices[n] = standard_simplex(n)
        return self._simplices[n]

    def record(self, sigma: SimplexRef) -> PullbackResult:
        if sigma in self._records:
            return self._records[sigma]
        if not self.p.target.has_ref(sigma):
            raise ValueError(f"simplex {sigma!r} is not in the base")
        n = sigma.dim
        classifying = representing_map(self.p.target, sigma, self.simplex(n))
        bound = self.max_dim
        if bound is None:
            bound = n + self.p.source.max_dim
        pb = self._records[sigma] = pullback(classifying, self.p, bound)
        return pb

    def comparison(self, rho: SimplexRef, phi: tuple[int, ...]) -> SimplicialMap:
        """The map dp(rho . phi) -> dp(rho) over phi: [k] -> [m], a monotone
        map given by its vertex table.

        When phi is a coface, with no repeated value (every face comparison
        and every degeneracy section), it is a PositionMap: in each degree,
        the places of the generators (a, b) of dp(rho) whose vertices of a
        are all values of phi (see the module docstring).  Only a
        non-injective phi, a deep_ops word, is built generator by generator,
        with tuple_into.
        """
        dst = self.record(rho)
        src = self.record(classify_image(self.p.target, rho, phi))
        values = set(phi)
        if len(values) == len(phi):
            def positions(k):
                return [j for j, (a, _) in enumerate(dst.space.gens(k))
                        if values.issuperset(a.gen)]
            return PositionMap(src.space, dst.space, positions)
        at = phi.__getitem__
        assignment = {}
        for g in src.space.all_gens():
            a, b = g
            image = ref_from_monotone(map(at, monotone_of_ref(a)))
            assignment[g] = tuple_into(dst.space, (image, b))
        return SimplicialMap(src.space, dst.space, assignment)


def record_last_vertex_lemma(p: SimplicialMap, N: int) -> None:
    """Record that the last-vertex lemma holds for p at the bound N, and so
    at every bound 1..N (module docstring)."""
    p._cache["last vertex"] = N


def preimage_calculator(p: SimplicialMap, max_dim: int | None = None) -> PreimageCalculator:
    """The PreimageCalculator of p at this bound, built once and kept on p."""
    key = ("preimages", max_dim)
    if key not in p._cache:
        p._cache[key] = PreimageCalculator(p, max_dim)
    return p._cache[key]


def classify_image(B: SimplicialSet, rho: SimplexRef, phi: tuple[int, ...]) -> SimplexRef:
    """The simplex rho . phi: the face of rho spanned by phi's values,
    degenerated where phi repeats a value."""
    if any(a > b for a, b in zip(phi, phi[1:])):
        raise ValueError(f"vertex table {phi!r} is not monotone")
    top = ref_from_monotone(phi)
    return apply_degeneracies(B.restrict(rho, top.gen), top.word)


def dp(p: SimplicialMap, sigma: SimplexRef, max_dim: int | None = None) -> PullbackResult:
    """The preimage of a (possibly degenerate) simplex of the base."""
    return preimage_calculator(p, max_dim).record(sigma)


def dp_along(p: SimplicialMap, f: SimplicialMap, max_dim: int | None = None):
    """Preimage of an arbitrary map f: K -> B, as a pullback with projections."""
    if f.target != p.target:
        raise ValueError("dp_along needs f and p to share the base")
    return pullback(f, p, max_dim)


# ---------------------------------------------------------------------------
# weak homology fibrations
# ---------------------------------------------------------------------------

@dataclass
class ComparisonCheck:
    sigma: SimplexRef
    op: tuple[str, int] | tuple[str, tuple[int, ...]]
    ok: bool
    certificates: list[IsoCertificate]


@dataclass
class WeakFibrationReport:
    verdict: bool
    up_to: int
    checks: list[ComparisonCheck]
    # (n, i) -> whether the degeneracy lemma was certified for s_i on
    # n-simplices; certified comparisons are not in checks
    lemma: dict[tuple[int, int], bool] = field(default_factory=dict)

    def failures(self) -> list[ComparisonCheck]:
        return [c for c in self.checks if not c.ok]


def _coface(n: int, i: int) -> tuple[int, ...]:
    """The vertex table of delta^i: [n] -> [n+1], which skips i."""
    return tuple(v for v in range(n + 2) if v != i)


def _face_comparisons(sigma: SimplexRef):
    """Yield (op, rho, phi) for the faces d_i: rho = sigma, phi = delta^i."""
    n = sigma.dim
    if n >= 1:
        for i in range(n + 1):
            yield ("d", i), sigma, _coface(n - 1, i)


def _degeneracy_comparison(sigma: SimplexRef, i: int):
    """(op, rho, phi) for the degeneracy s_i: rho = s_i sigma and the section
    phi = delta^i."""
    return ("s", i), degenerate(sigma, i), _coface(sigma.dim, i)


def _operator_word_comparisons(sigma: SimplexRef):
    """All monotone operators into [n] from dimensions <= n+1 (audit mode)."""
    n = sigma.dim
    for k in range(n + 2):
        for values in itertools.combinations_with_replacement(range(n + 1), k + 1):
            yield ("word", values), sigma, values


def degeneracy_homotopy(n: int, i: int) -> dict[tuple[int, int], int]:
    """h: [n+1] x [1] -> [n+1], moving vertex i to i+1 at t = 1."""
    return {(v, t): v + (t == 1 and v == i) for v in range(n + 2) for t in (0, 1)}


def degeneracy_lemma_holds(n: int, i: int, h: dict[tuple[int, int], int]) -> bool:
    """Whether h certifies the ('s', i) comparisons over n-simplices.

    Checked on the nose on the poset [n+1] x [1], in O(n) integer
    comparisons: sigma^i delta^i = id, so the section has its retraction;
    h is monotone; h(-, 0) = id; h(-, 1) = delta^i sigma^i; and
    sigma^i h = sigma^i pr, so h lifts to every preimage of s_i sigma.
    """
    face = _coface(n, i)                          # delta^i: [n] -> [n+1]
    codeg = [v - (v > i) for v in range(n + 2)]   # sigma^i: [n+1] -> [n]
    points = range(n + 2)
    return (all(codeg[face[k]] == k for k in range(n + 1))
            and all(h[v, 0] == v and h[v, 1] == face[codeg[v]] for v in points)
            and all(h[v, 0] <= h[v, 1] for v in points)
            and all(h[v, t] <= h[v + 1, t] for v in range(n + 1) for t in (0, 1))
            and all(codeg[h[v, t]] == codeg[v] for v in points for t in (0, 1)))


def last_vertex_homotopy(n: int) -> dict[tuple[int, int], int]:
    """h: [n] x [1] -> [n], the identity at t = 0 and the last vertex n at t = 1."""
    return {(v, t): n if t else v for v in range(n + 1) for t in (0, 1)}


def retraction_lemma_holds(n: int, h: dict[tuple[int, int], int]) -> bool:
    """Whether h retracts [n] onto its last vertex as the last-vertex lemma
    needs (module docstring): on the poset [n] x [1], h(-, 0) = id,
    h(-, 1) = n, h is monotone and h(v, t) >= v."""
    points = range(n + 1)
    return (all(h[v, 0] == v and h[v, 1] == n for v in points)
            and all(h[v, 0] <= h[v, 1] for v in points)
            and all(h[v, t] <= h[v + 1, t] for v in range(n) for t in (0, 1))
            and all(h[v, t] >= v for v in points for t in (0, 1)))


def _weak_comparisons(sigma: SimplexRef, lemma: dict):
    """The faces of sigma, then each degeneracy whose certificate fails."""
    yield from _face_comparisons(sigma)
    n = sigma.dim
    for i in range(n + 1):
        if (n, i) not in lemma:
            lemma[n, i] = degeneracy_lemma_holds(n, i, degeneracy_homotopy(n, i))
        if not lemma[n, i]:
            yield _degeneracy_comparison(sigma, i)


def _face_premises(B: SimplicialSet, sigma: SimplexRef) -> list[list[tuple[SimplexRef, int]]]:
    """Per face d_i of a nondegenerate n-simplex sigma, the vertex inclusions
    V(tau, v) = dp(tau(v)) -> dp(tau) from which, with V(sigma, n), its
    comparison follows (module docstring): V(d_i sigma, n - 1), and for d_n
    also V(e, 0) and V(e, 1) for the edge e = sigma|{n - 1, n}.  An edge's
    d_0 is V(e, 1) itself, and needs nothing else."""
    n = sigma.dim
    if n < 2:
        return [[]] * n
    premises = [[(face, n - 1)] for face in B.faces[sigma.gen]]
    edge = B.restrict(sigma, (n - 1, n))
    premises[n] += [(edge, 0), (edge, 1)]
    return premises


def weak_fibration_check(p: SimplicialMap, up_to: int, deep_ops: bool = False,
                         coefficients: int = Z) -> WeakFibrationReport:
    """Test the weak homology fibration property on face comparisons.

    For a face d_i the comparison runs dp(d_i sigma) -> dp(sigma) and is
    checked through degree up_to, named by (sigma, ('d', i)).  The
    degeneracy comparisons, the sections dp(sigma) -> dp(s_i sigma), hold
    by the homotopy lemma of the module docstring; its certificate is
    checked once per (n, i) and recorded in the report's lemma, and where
    it fails the ('s', i) comparisons are computed like the faces.  With
    deep_ops every monotone operator word into [n] is checked instead,
    degeneracies included.  Every comparison is tested over the
    coefficients, Z or Z/p.  Checks come in canonical simplex order.  A
    pass certifies the coefficients on p's calculator at bound up_to + 1.

    Without deep_ops, faces are decided on vertex inclusions V(tau, v) by
    two-out-of-three, pivoting on the last vertex (module docstring).  An
    edge's faces are computed and recorded as its two vertex inclusions.
    For sigma of dimension n >= 2, V(sigma, n) is computed once when the
    other premises of some face (_face_premises) are recorded as holding;
    when it holds too, each such face is reported as passing and is not
    built; the deduced faces of one check share one list of passing
    certificates.  When p's calculator at bound up_to + 1 has retracts set
    (a Borel projection whose last-vertex lemma holds there), every
    V(tau, dim tau) is known to hold: no V(sigma, n) is built, and an
    edge's d_0 is reported as passing.  Premises are recorded for
    nondegenerate simplices only, so any other premise on a degenerate face
    or edge, a failing or unknown premise, or a failing V(sigma, n) leaves
    the face built and tested as any other comparison: every verdict,
    certificate and witness is the one building each face gives.
    """
    calc = preimage_calculator(p, up_to + 1)
    B = p.target
    retracts = calc.retracts and not deep_ops
    checks = []
    lemma: dict[tuple[int, int], bool] = {}
    # V(tau, v) -> whether it is an isomorphism through up_to, tau nondegenerate
    inclusions: dict[tuple[SimplexRef, int], bool] = {}
    # the certificates of every deduced face, shared: no reader mutates them
    passing = [IsoCertificate(k, [], [], True) for k in range(up_to + 1)]

    def holds(tau: SimplexRef, v: int) -> bool:
        return inclusions.get((tau, v), retracts and v == tau.dim)

    for g in B.all_gens():
        sigma = B.ref(g)
        n = sigma.dim
        deduced = ()
        if deep_ops:
            gens = _operator_word_comparisons(sigma)
        else:
            gens = _weak_comparisons(sigma, lemma)
            ready = [i for i, premises in enumerate(_face_premises(B, sigma))
                     if all(holds(*v) for v in premises)]
            # an edge's V(e, 1) is its d_0, built as that face
            if ready and n >= 2 and not retracts:
                inclusions[sigma, n] = is_homology_iso(
                    calc.comparison(sigma, (n,)), up_to, coefficients)[0]
            if holds(sigma, n):
                deduced = ready
        for op, rho, phi in gens:
            if op[0] == "d" and op[1] in deduced:
                ok, certs = True, passing
            else:
                ok, certs = is_homology_iso(calc.comparison(rho, phi), up_to, coefficients)
                if n == 1 and op[0] == "d":
                    inclusions[sigma, phi[0]] = ok
            checks.append(ComparisonCheck(sigma, op, ok, certs))
    verdict = all(c.ok for c in checks)
    if verdict:
        calc.certified.add(coefficients)
    return WeakFibrationReport(verdict, up_to, checks, lemma)


# ---------------------------------------------------------------------------
# pullbacks of fibrations
# ---------------------------------------------------------------------------

@dataclass
class PulledBackMap:
    map: SimplicialMap        # p': E' -> B'
    top: SimplicialMap        # E' -> E
    base_change: SimplicialMap


def pullback_fibration(p: SimplicialMap, f: SimplicialMap,
                       max_dim: int | None = None) -> PulledBackMap:
    """Pull p back along f."""
    pb = pullback(f, p, max_dim)
    return PulledBackMap(pb.to_left, pb.to_right, f)


# ---------------------------------------------------------------------------
# contractible bases and known fibres
# ---------------------------------------------------------------------------

@dataclass
class ContractibleBaseReport:
    verdict: bool
    table: list[tuple[int, tuple[int, ...]]]
    checks: list[ComparisonCheck]
    inclusion_checks: list[tuple[SimplexRef, bool]]
    warnings: list[str]


def fiber_homology_over_contractible(p: SimplicialMap, up_to: int) -> ContractibleBaseReport:
    """Over an asserted-contractible base, all preimages share one homology.

    Verifies connectivity and acyclicity of the base (warning on failure),
    runs the generating comparisons, and tests each projection
    dp(sigma) -> E; the common table is the homology of E.
    """
    B, E = p.target, p.source
    warnings = []
    if homology(B, 0).summary() != (1, ()):
        warnings.append("base is not connected")
    if not is_acyclic(B, B.max_dim):
        warnings.append("base is not acyclic through its computable range")
    weak = weak_fibration_check(p, up_to)
    inclusion_checks = []
    verdict = weak.verdict
    calc = preimage_calculator(p, up_to + 1)
    for g in B.all_gens():
        sigma = B.ref(g)
        ok, _ = is_homology_iso(calc.record(sigma).to_right, up_to)
        inclusion_checks.append((sigma, ok))
        verdict = verdict and ok
    table = [homology(E, k).summary() for k in range(up_to + 1)]
    return ContractibleBaseReport(verdict, table, weak.checks,
                                  inclusion_checks, warnings)


def vertex_components(B: SimplicialSet) -> dict[Any, int]:
    """Connected-component index for the vertices of B."""
    parent = {v: v for v in B.gens(0)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in B.gens(1):
        a, b = B.faces[e][0].gen, B.faces[e][1].gen
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    reps = {}
    out = {}
    for v in B.gens(0):
        r = find(v)
        if r not in reps:
            reps[r] = len(reps)
        out[v] = reps[r]
    return out


@dataclass
class StrongFiberReport:
    verdict: bool
    fiber_table_ok: bool
    vertex_comparisons: list[tuple[SimplexRef, bool]]
    declared_table: list[tuple[int, tuple[int, ...]]]
    vertex_table: list[tuple[int, tuple[int, ...]]]


def strong_check_via_known_fiber(p: SimplicialMap, spec: KnownFiberSpec, up_to: int,
                                 coefficients: int = Z) -> StrongFiberReport:
    """Compare every preimage in a component against a registered fibre.

    Each dp(sigma) is connected to the preimage of sigma's leading vertex by
    the canonical comparison map, and the vertex preimage is compared with
    the declared fibre by homology table; together with the weak property
    this realizes the conclusion of the weak => strong theorem on instances
    whose homotopy fibre is independently known.  Tables and comparisons
    are taken over the coefficients, Z or Z/p.

    After a weak check of p through up_to has passed over these
    coefficients, each comparison of a simplex of dimension >= 1 is taken as
    an isomorphism without being built: it composes from face comparisons,
    each computed, deduced by two-out-of-three or covered by the degeneracy
    or the last-vertex lemma, and two-out-of-three holds in each degree
    over any ring, on preimages truncated at the one bound both checks
    read (module docstring).  A pass over another ring or through another degree
    certifies none, and they are computed.
    """
    B = p.target
    components = vertex_components(B)
    if spec.vertex not in components:
        raise ValueError(f"unknown base vertex {spec.vertex!r}")
    comp = components[spec.vertex]
    calc = preimage_calculator(p, up_to + 1)
    certified = coefficients in calc.certified
    declared = [homology(spec.fiber, k, coefficients).summary() for k in range(up_to + 1)]
    base_rec = calc.record(B.ref(spec.vertex))
    vertex_table = [homology(base_rec.space, k, coefficients).summary()
                    for k in range(up_to + 1)]
    table_ok = declared == vertex_table
    comparisons = []
    verdict = table_ok
    for g in B.all_gens():
        sigma = B.ref(g)
        if components[B.restrict(sigma, (0,)).gen] != comp:
            continue
        if sigma.dim == 0:
            rec = calc.record(sigma)
            ok = [homology(rec.space, d, coefficients).summary()
                  for d in range(up_to + 1)] == declared
        else:
            ok = certified or is_homology_iso(calc.comparison(sigma, (0,)), up_to,
                                              coefficients)[0]
        comparisons.append((sigma, ok))
        verdict = verdict and ok
    return StrongFiberReport(verdict, table_ok, comparisons, declared, vertex_table)
