"""Integral and mod-p homology of finite simplicial sets.

Chains are normalized: the degree-k module is free on the nondegenerate
k-generators and faces landing on degenerate simplices contribute zero to
the boundary.  Homology groups come with explicit cycle representatives,
built when first read, which makes induced maps computable; the
isomorphism test presents the kernel and cokernel of an induced map and
reduces those presentations, so torsion is handled exactly rather than by
comparing invariants.  A caller that reads only ranks and torsion reads
homology(X, k).summary(), which builds no cycle.

Ranks and torsion come from the invariant factors of the boundary
matrices alone: H_k = Z^(n_k - r_k - r_{k+1}) plus the non-unit factors
of d_{k+1} (Dumas, Heckenbach, Saunders and Welker).  So each boundary
d_k gets one integer Smith form per space, shared by degrees k and k - 1,
and a summary reads two diagonals and builds no change of basis.  Z/p
results are read off the same forms: each query of _DegreeData takes the
ring, so there is one elimination engine and one code path for every
coefficient ring.  A cycle basis, and the coordinates an induced map
needs, come from a second form of d_{k+1} in cycle coordinates, made only
when a basis element or a coordinate first reads it, and checked
against the invariant factors.  An induced map over Z/p is presented
with relations p, so every ring's isomorphism certificate is the kernel
and cokernel of that presentation.  A Smith form builds a change of
basis only when it is read: _DegreeData reads V1, V1^-1, U2 and U2^-1
for bases and coordinates, a kernel presentation reads V, and cokernels
read the diagonal alone.

Every map f: A -> X, a face comparison or any other, is first tried on
its relative complex (relative_complex_collapses), whose own
preconditions refuse what it cannot decide.  When f's chain map carries
C(A) one-to-one onto a subcomplex of C(X), X is built through up_to + 1,
and the Smith forms of the quotient C(X)/C(A), truncated at degree
up_to + 1, leave it no homology over the ring there, then H_k(X, A) = 0
and the long exact sequence of the pair makes f an isomorphism through
up_to: every certificate is ok, and no homology of either side is
computed.  The quotient's homology is read off its forms' diagonals as a
space's is, so Smith forms are the one elimination engine here.
Otherwise, every failing comparison included, the induced maps decide.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from math import gcd
from types import MappingProxyType
from typing import Any, Callable

from .snf import IntMatrix, SmithForm, smith_normal_form
from .sset import PositionMap, SimplicialMap, SimplicialSet

Z = 0  # coefficient tag: 0 means the integers, p >= 2 means Z/p


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

@dataclass
class ChainComplex:
    """Boundary matrices of the normalized chains of a space X: column j of
    degree k is the generator X.gens(k)[j]."""

    max_dim: int
    dims: tuple[int, ...]             # degree -> number of generators
    boundaries: dict[int, IntMatrix]  # k -> matrix C_k -> C_{k-1}

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.max_dim else 0

    def boundary(self, k: int) -> IntMatrix:
        """The boundary map out of degree k (zero matrix off the range)."""
        if k in self.boundaries:
            return self.boundaries[k]
        rows = self.dim(k - 1)
        return IntMatrix(rows, self.dim(k))


def normalized_chains(X: SimplicialSet) -> ChainComplex:
    """Normalized integer chain complex of X; verifies that d d = 0.

    A generator's row is its id less the id of the first generator of its
    degree, which is its place in X.gens of that degree."""
    key = "chains"
    if key in X._cache:
        return X._cache[key]
    own, dims = X._own, X.counts()
    boundaries = {}
    first = 0  # the id of degree k - 1's first generator
    for k in range(1, X.max_dim + 1):
        columns = []
        for g in X.gens(k):
            col: dict[int, int] = {}
            sign = 1
            for r in X.faces[g]:
                if not r.word:
                    i = own[r.gen][2] - first
                    col[i] = col.get(i, 0) + sign
                sign = -sign
            columns.append(col)
        d = boundaries[k] = IntMatrix.from_columns(dims[k - 1], columns)
        # a row outside 0..dims[k-1] - 1 is a face that is no generator of
        # degree k - 1
        if d.rows and not 0 <= min(d.rows) <= max(d.rows) < dims[k - 1]:
            raise ValueError(f"a face of a {k}-simplex is no generator of degree {k - 1}")
        first += dims[k - 1]
    for k in range(2, X.max_dim + 1):
        # d d = 0 with no product matrix, one sum per row of d_{k-1}: degree
        # k - 2 has fewer generators than degree k, so a sum per column of
        # d_k makes more of them (30% slower on classify's complexes)
        above = boundaries[k].rows
        for row in boundaries[k - 1].rows.values():
            dd: dict[int, int] = {}
            for i, v in row.items():
                for j, w in above.get(i, {}).items():
                    dd[j] = dd.get(j, 0) + v * w
            if any(dd.values()):
                raise ValueError(f"boundary squared is nonzero in degree {k}")
    cc = ChainComplex(X.max_dim, dims, boundaries)
    X._cache[key] = cc
    return cc


# ---------------------------------------------------------------------------
# Homology groups over Z and Z/p
# ---------------------------------------------------------------------------

@dataclass
class HomologyGroup:
    """Rank, invariant factors and explicit cycle representatives.

    The representatives, basis, are made by cycles() when first read, as
    cycles given by generator -> coefficient.
    """

    degree: int
    free_rank: int
    torsion: list[int]
    cycles: Callable[[], list[dict[Any, int]]] = field(repr=False, compare=False)
    valid: bool
    ring: int = Z

    @cached_property
    def basis(self) -> list[dict[Any, int]]:
        return self.cycles()

    @property
    def invariants(self) -> list[int]:
        """Per basis element: its order (0 for infinite)."""
        return self.torsion + [self.ring] * self.free_rank

    def summary(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, tuple(self.torsion))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __repr__(self):
        # a free summand is a copy of the ring, and Z/0 is Z
        parts = [f"Z/{d}" if d else "Z" for d in [self.ring] * self.free_rank + self.torsion]
        return f"H_{self.degree} = " + (" + ".join(parts) if parts else "0")


def _boundary_form(X: SimplicialSet, k: int) -> SmithForm:
    """The Smith form of the boundary out of degree k, made once per space:
    degree k's homology reads it and so does degree k - 1's."""
    key = ("dform", k)
    form = X._cache.get(key)
    if form is None:
        form = X._cache[key] = smith_normal_form(normalized_chains(X).boundary(k))
    return form


class _DegreeData:
    """Homology of one degree of one chain complex, queried per ring.

    With U1 d_k V1 = D1 and D the Smith form of d_{k+1}, each made once
    per boundary by _boundary_form, H_k is Z^(n_k - r_k - r_{k+1}) plus
    Z/d for each invariant factor d of D: orders holds those factors and
    then one 0 per free summand, read off the two diagonals.  The columns
    of V1 from the rank on span the integer cycles.  Over the ring Z/r (r
    = 0 for Z, otherwise a prime) the basis is V1 e_j for each pivot j
    whose D1_jj vanishes in the ring (a cycle mod r only, of order r),
    then one generator per j with Z/orders_j (x) Z/r = Z/gcd(orders_j, r)
    nonzero, of that order.  Over Z that is no pivot and every j with
    orders_j != 1.

    Ranks and torsion read the diagonals alone, so a summary builds no
    transform.  Bases and coordinates need the cycle form, made when a
    basis element or a coordinate first reads it: U2 Y V2 = D2, where Y
    holds the boundaries of degree k+1 in the cycle coordinates (rows >=
    rank of V1^-1 d_{k+1}), and U2^-1 e_j is the generator of order
    orders_j.  Y is d_{k+1} in other bases, so D2's diagonal is orders,
    and the cycle form checks that it is.  It reads V1, V1^-1, U2 and
    U2^-1, so the other four transforms are never built.  Bases are
    cached once computed and handed out read-only, so no caller can
    change what a later read returns.

    relative_complex_collapses gives a degree of a quotient complex its
    two forms and no d_{k+1}, and reads invariants alone.
    """

    def __init__(self, snf1: SmithForm, above: SmithForm, boundary: IntMatrix | None = None):
        self._boundary = boundary
        self.snf1 = snf1
        self.rank1 = snf1.rank
        z = snf1.shape[1] - self.rank1
        self.orders = above.invariant_factors() + [0] * (z - above.rank)
        self._rings: dict[int, tuple[list[int], list[int], tuple[int, ...]]] = {}
        self._bases: dict[int, list[Mapping[int, int]]] = {}

    @cached_property
    def snf2(self) -> SmithForm:
        """The Smith form of d_{k+1} in the cycle coordinates of V1."""
        d_k1, z = self._boundary, len(self.orders)
        columns = []
        for j in range(d_k1.ncols):
            t = self.snf1.v_inv.apply(d_k1.column(j)) if j in d_k1.cols else {}
            if any(i < self.rank1 for i in t):
                raise ValueError("boundary image is not a cycle")
            columns.append({i - self.rank1: v for i, v in t.items()})
        form = smith_normal_form(IntMatrix.from_columns(z, columns))
        if form.diagonal + [0] * (z - len(form.diagonal)) != self.orders:
            raise ValueError("the boundary's Smith form in cycle coordinates "
                             "disagrees with its invariant factors")
        return form

    def _summands(self, ring: int) -> tuple[list[int], list[int], tuple[int, ...]]:
        """The pivots j of D1 and the generators j of orders that make the
        basis over the ring, and the order of each basis element."""
        found = self._rings.get(ring)
        if found is None:
            _check_ring(ring)
            diag = self.snf1.diagonal
            lows = [j for j in range(self.rank1) if not _reduce(diag[j], ring)]
            highs = [j for j, d in enumerate(self.orders) if gcd(d, ring) != 1]
            found = self._rings[ring] = (lows, highs, tuple(
                [ring] * len(lows) + [gcd(self.orders[j], ring) for j in highs]))
        return found

    def invariants(self, ring: int) -> tuple[int, ...]:
        """Per basis element over the ring: its order (0 for infinite)."""
        return self._summands(ring)[2]

    def basis(self, ring: int) -> list[Mapping[int, int]]:
        """The homology basis over the ring as cycles in chain coordinates,
        entries reduced in the ring (read-only)."""
        if ring not in self._bases:
            lows, highs, _ = self._summands(ring)
            # each transform, and the cycle form, is made only when some
            # cycle needs it
            cycles = ([self.snf1.v.column(j) for j in lows]
                      + [self.snf1.v.apply({self.rank1 + i: v for i, v
                                            in self.snf2.u_inv.column(j).items()})
                         for j in highs])
            self._bases[ring] = [MappingProxyType({i: r for i, v in c.items()
                                                   if (r := _reduce(v, ring))})
                                 for c in cycles]
        return self._bases[ring]

    def coords(self, w: Mapping[int, int], ring: int) -> list[int]:
        """Coordinates of a cycle over the ring in the basis of basis(ring)."""
        lows, highs, invariants = self._summands(ring)
        diag = self.snf1.diagonal
        t = self.snf1.v_inv.apply(w)
        if any(i < self.rank1 and _reduce(diag[i] * v, ring) for i, v in t.items()):
            raise ValueError("vector is not a cycle")
        c = self.snf2.u.apply({i - self.rank1: v for i, v in t.items() if i >= self.rank1})
        return _reduce_coords([t.get(j, 0) for j in lows] + [c.get(j, 0) for j in highs],
                              invariants)


def _degree_data(X: SimplicialSet, k: int) -> _DegreeData:
    key = ("hdata", k)
    if key not in X._cache:
        X._cache[key] = _DegreeData(_boundary_form(X, k), _boundary_form(X, k + 1),
                                    normalized_chains(X).boundary(k + 1))
    return X._cache[key]


_MODULUS_BOUND = 1 << 64  # a prime modulus is below it
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Whether p is prime, for p < 2^64: Miller-Rabin with the primes up to
    37 as witnesses, which no composite below 2^64 passes."""
    if p >= _MODULUS_BOUND:
        raise ValueError(f"no exact primality test from 2^64 on, for {p}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_ring(p: int) -> bool:
    """Whether p tags a coefficient ring: 0 for Z, or a prime below 2^64."""
    return p == Z or p < _MODULUS_BOUND and is_prime(p)


def _check_ring(ring: int) -> None:
    if not is_ring(ring):
        raise ValueError(f"coefficients must be the integers or Z/p for a prime p, not {ring}")


def homology(X: SimplicialSet, k: int, coefficients: int = Z) -> HomologyGroup:
    """H_k of X; valid is False above the truncation-guaranteed range."""
    _check_ring(coefficients)
    valid = k <= X.max_dim - 1
    if k < 0 or k > X.max_dim:
        return HomologyGroup(k, 0, [], list, valid, coefficients)
    key = ("hom", k, coefficients)
    if key in X._cache:
        return X._cache[key]
    data = _degree_data(X, k)
    inv = data.invariants(coefficients)
    cycles = partial(_named_cycles, data, X.gens(k), coefficients)
    group = HomologyGroup(k, inv.count(coefficients), [d for d in inv if d != coefficients],
                          cycles, valid, coefficients)
    X._cache[key] = group
    return group


def _named_cycles(data: _DegreeData, names: tuple, coefficients: int) -> list[dict[Any, int]]:
    """The homology basis of data as cycles on the generators' names."""
    return [{names[i]: v for i, v in c.items()} for c in data.basis(coefficients)]


def is_acyclic(X: SimplicialSet, up_to: int, coefficients: int = Z) -> bool:
    """True when the reduced homology vanishes through the given degree."""
    if X.is_empty():
        return False
    h0 = homology(X, 0, coefficients)
    if h0.summary() != (1, ()):
        return False
    return all(homology(X, k, coefficients).is_trivial() for k in range(1, up_to + 1))


# ---------------------------------------------------------------------------
# Induced maps and the isomorphism test
# ---------------------------------------------------------------------------

def chain_map_images(f: SimplicialMap, k: int) -> list[int | None]:
    """The degree-k chain map as a list: per source generator, the target
    index of its image under f, or None where the image is degenerate.  A
    PositionMap gives its positions as they are."""
    if isinstance(f, PositionMap):
        return f.images(k)
    own, targets = f.target._own, f.target.gens(k)
    # a place is an id less the first id of degree k, and one outside
    # 0..len(targets) - 1 is an image that is no generator of degree k
    first = own[targets[0]][2] if targets else 0
    images = [None if r.word else own[r.gen][2] - first
              for r in map(f.assignment.__getitem__, f.source.gens(k))]
    if any(i is not None and not 0 <= i < len(targets) for i in images):
        raise ValueError(f"an image of a {k}-simplex is no generator of degree {k}")
    return images


def _push(images: list[int | None], w: Mapping[int, int]) -> dict[int, int]:
    """A chain pushed through chain_map_images."""
    acc: dict[int, int] = {}
    for i, v in w.items():
        t = images[i]
        if v and t is not None:
            acc[t] = acc.get(t, 0) + v
    return {t: v for t, v in acc.items() if v}


@dataclass
class InducedMap:
    """Images of the source homology basis in target homology coordinates."""

    degree: int
    matrix: list[list[int]]       # one column per source generator
    src_invariants: list[int]     # order per source generator (0 = infinite)
    dst_invariants: list[int]
    ring: int = Z

    def compose(self, other: "InducedMap") -> "InducedMap":
        """self after other, reducing torsion coordinates."""
        cols = []
        for col in other.matrix:
            out = [0] * len(self.dst_invariants)
            for t, v in enumerate(col):
                for i in range(len(out)):
                    out[i] += self.matrix[t][i] * v
            cols.append(_reduce_coords(out, self.dst_invariants))
        return InducedMap(self.degree, cols, other.src_invariants,
                          self.dst_invariants, self.ring)


def _reduce(v: int, d: int) -> int:
    """v in Z/d, the integers when d is 0."""
    return v % d if d else v


def _reduce_coords(col: list[int], invariants: Sequence[int]) -> list[int]:
    return [v % d if d else v for v, d in zip(col, invariants)]


def induced(f: SimplicialMap, k: int, coefficients: int = Z) -> InducedMap:
    """The map induced by f on degree-k homology."""
    src, dst = _degree_data(f.source, k), _degree_data(f.target, k)
    images = chain_map_images(f, k)
    cols = [dst.coords(_push(images, c), coefficients) for c in src.basis(coefficients)]
    return InducedMap(k, cols, list(src.invariants(coefficients)),
                      list(dst.invariants(coefficients)), coefficients)


def _cokernel(form: SmithForm) -> list[int]:
    """Invariant factors (0 = Z) of the cokernel of the matrix form reduces."""
    factors = [d for d in form.invariant_factors() if d != 1]
    return factors + [0] * (form.shape[0] - form.rank)


def induced_map_kernel_cokernel(ind: InducedMap) -> tuple[list[int], list[int]]:
    """Invariant factors (0 = Z) of the kernel and cokernel presentations.

    One Smith form of [matrix | target relations] gives both.  Its diagonal
    presents the cokernel.  Its kernel columns, cut to the first m_x
    coordinates, span the x with (matrix)x in the image of the target
    relations; that lattice holds the source relations, since the map is
    well defined, and the kernel is it modulo them.
    """
    m_x, m_y = len(ind.src_invariants), len(ind.dst_invariants)
    form = smith_normal_form(IntMatrix.from_entries(m_y, m_x + m_y, chain(
        ((i, j, v) for j, col in enumerate(ind.matrix) for i, v in enumerate(col)),
        ((i, m_x + i, d) for i, d in enumerate(ind.dst_invariants)))))
    wcols = [{i: v for i, v in col.items() if i < m_x} for col in form.kernel_columns()]
    # generators: the lattice's spanning columns and the source relations;
    # relations: their syzygies, and the source relations set to zero
    gens = wcols + [{j: d} for j, d in enumerate(ind.src_invariants)]
    syz = smith_normal_form(IntMatrix.from_columns(m_x, gens)).kernel_columns()
    pres = IntMatrix.from_columns(
        len(gens), syz + [{len(wcols) + j: 1} for j in range(m_x)])
    return _cokernel(smith_normal_form(pres)), _cokernel(form)


# ---------------------------------------------------------------------------
# Relative complexes
# ---------------------------------------------------------------------------

def _quotient_boundary(d: IntMatrix, rows: list[int], cols: list[int]) -> IntMatrix:
    """d cut to the listed rows and columns, each renumbered by its place
    in its list."""
    place = {j: t for t, j in enumerate(cols)}
    return IntMatrix.from_entries(len(rows), len(cols), (
        (s, place[j], v) for s, i in enumerate(rows)
        for j, v in d.rows.get(i, {}).items() if j in place))


def relative_complex_collapses(f: SimplicialMap, up_to: int, coefficients: int = Z) -> bool:
    """Whether the quotient C(X)/C(A), truncated at degree up_to + 1, has
    no homology over the ring, for f: A -> X carrying C(A) onto a
    subcomplex of C(X).

    True only when f's chain map sends each generator of degrees
    0..up_to + 1 to a generator, one-to-one in each degree; each boundary
    column of A, carried through f, is the boundary column of its image, so
    C(A) maps onto a subcomplex; X is built through up_to + 1; and the
    Smith forms of the quotient's boundaries leave it no homology in
    degrees 0..up_to + 1, where nothing is a boundary in the top degree.
    Then H_k(X, A) = 0 for k <= up_to + 1, and by the long exact sequence
    of the pair f is an isomorphism on H_k for k <= up_to.  False decides
    nothing.

    The quotient's boundary out of degree k + 1 has a row per k-cell of X
    outside f's image and a column per (k + 1)-cell outside it, with X's
    entries.  Lowest degree first, _DegreeData reads each degree's
    homology over the ring off the forms of the boundaries out of and
    into it, as for a space, so the first degree with homology ends the
    test.  So the rule is exact over Z as over Z/p: n_k = r_k + r_{k+1},
    with the ranks over the ring, and over Z every invariant factor is 1.
    """
    _check_ring(coefficients)
    A, X = f.source, f.target
    top = up_to + 1
    if X.max_dim < top:
        return False
    source, target = normalized_chains(A), normalized_chains(X)
    images = [chain_map_images(f, k) for k in range(top + 1)]
    inside = [set(pos) for pos in images]
    if any(None in s or len(s) != len(pos) for s, pos in zip(inside, images)):
        return False
    left = [[i for i in range(target.dim(k)) if i not in s] for k, s in enumerate(inside)]
    n = [len(cells) for cells in left] + [0]  # nothing is left above top
    # a quotient with no homology has Euler characteristic 0: a cheap way to fail
    if sum((-1) ** k * n_k for k, n_k in enumerate(n)):
        return False
    for k in range(1, top + 1):
        d_a, d_x, below, here = source.boundary(k), target.boundary(k), images[k - 1], images[k]
        if sum(map(len, filter(None, map(d_x.cols.get, here)))) != d_a.nnz():
            return False
        for i, row in d_a.rows.items():
            image = d_x.rows.get(below[i], {})
            if list(map(image.get, map(here.__getitem__, row))) != list(row.values()):
                return False
    # a boundary with no row or no column, such as the one out of degree 0
    # or into degree top, is zero and needs no elimination
    out = SmithForm([], 0, (0, n[0]), [], [])
    for k in range(top + 1):
        into = (smith_normal_form(_quotient_boundary(target.boundary(k + 1), left[k], left[k + 1]))
                if n[k] and n[k + 1] else SmithForm([], 0, (n[k], n[k + 1]), [], []))
        if _DegreeData(out, into).invariants(coefficients):
            return False
        out = into
    return True


@dataclass
class IsoCertificate:
    degree: int
    kernel: list[int]
    cokernel: list[int]
    ok: bool


def is_homology_iso(f: SimplicialMap, up_to: int,
                    coefficients: int = Z) -> tuple[bool, list[IsoCertificate]]:
    """Degree-by-degree isomorphism test through explicit induced maps.

    Over Z/p the induced map is presented with relations p, so it is
    invertible exactly when its kernel and cokernel vanish, as over Z.
    Every map is first tried on its relative complex: where the Smith
    forms of the quotient show relative_complex_collapses, every degree
    is an isomorphism and no homology of either side is computed;
    elsewhere, a map the rule's preconditions refuse included, the
    induced maps decide, so every failing certificate comes from them.
    """
    if relative_complex_collapses(f, up_to, coefficients):
        return True, [IsoCertificate(k, [], [], True) for k in range(up_to + 1)]
    certificates = []
    verdict = True
    for k in range(up_to + 1):
        kernel, coker = induced_map_kernel_cokernel(induced(f, k, coefficients))
        ok = not kernel and not coker
        certificates.append(IsoCertificate(k, kernel, coker, ok))
        verdict = verdict and ok
    return verdict, certificates
