"""Integral and mod-p homology of finite simplicial sets.

Chains are normalized: the degree-k module is free on the nondegenerate
k-generators and faces landing on degenerate simplices contribute zero to
the boundary.  Homology groups come with explicit cycle representatives,
built when first read, which makes induced maps computable; the
isomorphism test presents the kernel and cokernel of an induced map and
reduces those presentations, so torsion is handled exactly rather than by
comparing invariants.  A caller that reads only ranks and torsion reads
homology_summary, which builds no cycle.

Z/p results are read off the same two integer Smith forms per degree that
the integral ones use (see _DegreeData), so there is one elimination
engine for every coefficient ring.  A Smith form builds a change of basis
only when it is read: _DegreeData reads V1, V1^-1, U2 and U2^-1, a kernel
presentation reads V, and cokernels and mod-p invertibility read the
diagonal alone.

A space may share a content pool (share_pool).  Its per-degree Smith
form data is then looked up by exact content, the degree and every
nonzero entry of the two boundary matrices it reads, and so are the
kernel/cokernel invariants of its induced maps, by matrix and invariants.
Both results are index-based, so they serve every space with the same
content; generator names are applied afterwards.  The pool belongs to its
owner (one per PreimageCalculator), and there is no process-wide cache.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from math import isqrt
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
    """Boundary matrices of the normalized chains, indexed by generators."""

    max_dim: int
    gens: dict[int, tuple]            # degree -> ordered generator ids
    index: dict[int, dict[Any, int]]  # degree -> generator -> column
    boundaries: dict[int, IntMatrix]  # k -> matrix C_k -> C_{k-1}

    def dim(self, k: int) -> int:
        return len(self.gens.get(k, ()))

    def boundary(self, k: int) -> IntMatrix:
        """The boundary map out of degree k (zero matrix off the range)."""
        if k in self.boundaries:
            return self.boundaries[k]
        rows = self.dim(k - 1)
        return IntMatrix(rows, self.dim(k))


def normalized_chains(X: SimplicialSet) -> ChainComplex:
    """Normalized integer chain complex of X; verifies that d d = 0."""
    key = "chains"
    if key in X._cache:
        return X._cache[key]
    gens = {k: X.gens(k) for k in range(X.max_dim + 1)}
    index = {k: {g: t for t, g in enumerate(gens[k])} for k in gens}
    boundaries = {}
    for k in range(1, X.max_dim + 1):
        columns = []
        for g in gens[k]:
            col: dict[int, int] = {}
            sign = 1
            for r in X.faces[g]:
                if not r.is_degenerate():
                    i = index[k - 1][r.gen]
                    col[i] = col.get(i, 0) + sign
                sign = -sign
            columns.append(col)
        boundaries[k] = IntMatrix.from_columns(len(gens[k - 1]), columns)
    for k in range(2, X.max_dim + 1):
        if not boundaries[k - 1].matmul(boundaries[k]).is_zero():
            raise ValueError(f"boundary squared is nonzero in degree {k}")
    cc = ChainComplex(X.max_dim, gens, index, boundaries)
    X._cache[key] = cc
    return cc


# ---------------------------------------------------------------------------
# Homology groups over Z
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
        return self.torsion + [0] * self.free_rank

    def summary(self) -> tuple[int, tuple[int, ...]]:
        return (self.free_rank, tuple(self.torsion))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return f"H_{self.degree} = " + (" + ".join(parts) if parts else "0")


class _DegreeData:
    """SNF bookkeeping for one degree of one complex.

    With U1 d_k V1 = D1 and U2 Y V2 = D2, where Y holds the boundaries of
    degree k+1 in the cycle coordinates (rows >= rank of V1^-1 d_{k+1}),
    the columns of V1 from the rank on span the integer cycles and U2^-1
    e_j is a homology generator of order D2_jj.  Over Z/p the same forms
    give a basis: V1 e_j for j < rank with p | D1_jj (cycles mod p only),
    then the kept generators whose order p divides (0 counts).

    Only V1, V1^-1, U2 and U2^-1 are read, so the other four transforms
    are never built.  Cycles are kept once computed and handed out
    read-only, because a content pool shares this object between spaces.
    """

    def __init__(self, cc: ChainComplex, k: int):
        self.k = k
        self.n = cc.dim(k)
        d_k = cc.boundary(k) if k >= 1 else IntMatrix(0, self.n)
        d_k1 = cc.boundary(k + 1)
        self.snf1 = smith_normal_form(d_k)
        self.rank1 = self.snf1.rank
        self.z = self.n - self.rank1
        columns = []
        for j in range(d_k1.ncols):
            t = self.snf1.v_inv.apply(d_k1.column(j)) if j in d_k1.cols else {}
            if any(i < self.rank1 for i in t):
                raise ValueError("boundary image is not a cycle")
            columns.append({i - self.rank1: v for i, v in t.items()})
        self.snf2 = smith_normal_form(IntMatrix.from_columns(self.z, columns))
        self.rank2 = self.snf2.rank
        # generator j of ker/im has order diag[j] (0 beyond the rank);
        # order-1 generators are dropped.
        orders = list(self.snf2.diagonal) + [0] * (self.z - len(self.snf2.diagonal))
        self.kept = [j for j in range(self.z) if orders[j] != 1]
        self.orders = [orders[j] for j in self.kept]
        self._cycles: dict[int, Mapping[int, int]] = {}

    def cycle_of(self, j: int) -> Mapping[int, int]:
        """The j-th kept generator as a cycle in chain coordinates (read-only)."""
        cycle = self._cycles.get(j)
        if cycle is None:
            col = self.snf2.u_inv.column(self.kept[j])
            shifted = {self.rank1 + i: v for i, v in col.items()}
            cycle = self._cycles[j] = MappingProxyType(self.snf1.v.apply(shifted))
        return cycle

    def coords(self, w: dict[int, int]) -> list[int]:
        """Coordinates of a cycle in the kept homology generators."""
        t = self.snf1.v_inv.apply(w)
        if any(i < self.rank1 for i in t):
            raise ValueError("vector is not a cycle")
        c = self.snf2.u.apply({i - self.rank1: v for i, v in t.items()})
        return _reduce_coords([c.get(j, 0) for j in self.kept], self.orders)

    def mod_p_positions(self, p: int) -> tuple[list[int], list[int]]:
        """Pivots j with p | D1_jj, and kept positions with p | order."""
        diag = self.snf1.diagonal
        return ([j for j in range(self.rank1) if diag[j] % p == 0],
                [pos for pos, d in enumerate(self.orders) if d % p == 0])

    def mod_p_cycles(self, p: int) -> list[dict[int, int]]:
        """The Z/p homology basis as cycles mod p in chain coordinates."""
        lows, highs = self.mod_p_positions(p)
        cycles = ([self.snf1.v.column(j) for j in lows]
                  + [self.cycle_of(pos) for pos in highs])
        return [{i: v % p for i, v in c.items() if v % p} for c in cycles]

    def mod_p_coords(self, w: dict[int, int], p: int) -> list[int]:
        """Coordinates of a cycle mod p in the basis of mod_p_cycles."""
        lows, highs = self.mod_p_positions(p)
        diag = self.snf1.diagonal
        t = self.snf1.v_inv.apply(w)
        if any(i < self.rank1 and v % p and diag[i] % p for i, v in t.items()):
            raise ValueError("vector is not a cycle mod p")
        c = self.snf2.u.apply({i - self.rank1: v for i, v in t.items()
                               if i >= self.rank1})
        return ([t.get(j, 0) % p for j in lows]
                + [c.get(self.kept[pos], 0) % p for pos in highs])


# ---------------------------------------------------------------------------
# Content pools
# ---------------------------------------------------------------------------

_POOL = "content pool"


def share_pool(X: SimplicialSet, pool: dict) -> None:
    """Let X's Smith form work be looked up in, and added to, pool.

    A pool maps the exact content a computation reads (degree, shapes and
    every nonzero entry of its matrices) to the index-based result, so
    spaces with identical chain complexes reduce them once.  Whoever owns
    the pool decides how long it lives; nothing here outlives it.
    """
    X._cache[_POOL] = pool


def _pooled(pool: dict | None, key: tuple, build):
    if pool is None:
        return build()
    if key not in pool:
        pool[key] = build()
    return pool[key]


def _content(m: IntMatrix) -> tuple:
    return (m.nrows, m.ncols, tuple(sorted(m.entries())))


def _degree_data(X: SimplicialSet, k: int) -> _DegreeData:
    key = ("hdata", k)
    if key not in X._cache:
        cc = normalized_chains(X)
        pool = X._cache.get(_POOL)
        content = None if pool is None else \
            ("hdata", k, _content(cc.boundary(k)), _content(cc.boundary(k + 1)))
        X._cache[key] = _pooled(pool, content, lambda: _DegreeData(cc, k))
    return X._cache[key]


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _field(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"coefficients must be the integers or Z/p for a prime p, not {p}")
    return p


def homology(X: SimplicialSet, k: int, coefficients: int = Z) -> HomologyGroup:
    """H_k of X; valid is False above the truncation-guaranteed range."""
    valid = k <= X.max_dim - 1
    if k < 0 or k > X.max_dim:
        return HomologyGroup(k, 0, [], list, valid, coefficients)
    key = ("hom", k, coefficients)
    if key in X._cache:
        return X._cache[key]
    free_rank, torsion = homology_summary(X, k, coefficients)
    cycles = partial(_named_cycles, _degree_data(X, k), normalized_chains(X).gens[k],
                     coefficients)
    group = HomologyGroup(k, free_rank, list(torsion), cycles, valid, coefficients)
    X._cache[key] = group
    return group


def _named_cycles(data: _DegreeData, names: tuple, coefficients: int) -> list[dict[Any, int]]:
    """The homology basis of data as cycles on the generators' names."""
    found = (data.mod_p_cycles(coefficients) if coefficients
             else [data.cycle_of(j) for j in range(len(data.kept))])
    return [{names[i]: v for i, v in c.items()} for c in found]


def homology_summary(X: SimplicialSet, k: int,
                     coefficients: int = Z) -> tuple[int, tuple[int, ...]]:
    """homology(X, k, coefficients).summary(), read off the Smith form data
    without building the cycle basis."""
    if k < 0 or k > X.max_dim:
        return (0, ())
    data = _degree_data(X, k)
    if coefficients:
        return (sum(map(len, data.mod_p_positions(_field(coefficients)))), ())
    return (data.orders.count(0), tuple(d for d in data.orders if d > 1))


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
    index = normalized_chains(f.target).index.get(k, {})
    return [None if r.word else index[r.gen]
            for r in map(f.assignment.__getitem__, normalized_chains(f.source).gens.get(k, ()))]


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


def _reduce_coords(col: list[int], invariants: list[int]) -> list[int]:
    return [v % d if d else v for v, d in zip(col, invariants)]


def induced(f: SimplicialMap, k: int, coefficients: int = Z) -> InducedMap:
    """The map induced by f on degree-k homology."""
    src, dst = _degree_data(f.source, k), _degree_data(f.target, k)
    images = chain_map_images(f, k)
    if coefficients:
        p = _field(coefficients)
        cols = [dst.mod_p_coords(_push(images, c), p) for c in src.mod_p_cycles(p)]
        m = sum(map(len, dst.mod_p_positions(p)))
        return InducedMap(k, cols, [p] * len(cols), [p] * m, p)
    cols = [dst.coords(_push(images, src.cycle_of(j))) for j in range(len(src.kept))]
    return InducedMap(k, cols, list(src.orders), list(dst.orders))


def _cokernel(form: SmithForm) -> list[int]:
    """Invariant factors (0 = Z) of the cokernel of the matrix form reduces."""
    factors = [d for d in form.invariant_factors() if d != 1]
    return factors + [0] * (form.shape[0] - form.rank)


def _matrix_of(ind: InducedMap) -> IntMatrix:
    return IntMatrix.from_columns(len(ind.dst_invariants),
                                  [dict(enumerate(col)) for col in ind.matrix])


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
        _matrix_of(ind).entries(),
        ((i, m_x + i, d) for i, d in enumerate(ind.dst_invariants)))))
    wcols = [{i: v for i, v in col.items() if i < m_x} for col in form.kernel_columns()]
    # generators: the lattice's spanning columns and the source relations;
    # relations: their syzygies, and the source relations set to zero
    gens = wcols + [{j: d} for j, d in enumerate(ind.src_invariants)]
    syz = smith_normal_form(IntMatrix.from_columns(m_x, gens)).kernel_columns()
    pres = IntMatrix.from_columns(
        len(gens), syz + [{len(wcols) + j: 1} for j in range(m_x)])
    return _cokernel(smith_normal_form(pres)), _cokernel(form)


def _invertible_mod_p(ind: InducedMap, p: int) -> bool:
    """A square matrix is invertible mod p when p divides no Smith invariant."""
    if len(ind.dst_invariants) != len(ind.src_invariants):
        return False
    return all(d % p for d in smith_normal_form(_matrix_of(ind)).diagonal)


@dataclass
class IsoCertificate:
    degree: int
    kernel: list[int]
    cokernel: list[int]
    ok: bool


def is_homology_iso(f: SimplicialMap, up_to: int,
                    coefficients: int = Z) -> tuple[bool, list[IsoCertificate]]:
    """Degree-by-degree isomorphism test through explicit induced maps."""
    certificates = []
    verdict = True
    for k in range(up_to + 1):
        ind = induced(f, k, coefficients)
        if coefficients:
            ok = _invertible_mod_p(ind, coefficients)
            kernel = [] if ok else [coefficients]
            coker = []
        else:
            content = ("kernel/cokernel", tuple(map(tuple, ind.matrix)),
                       tuple(ind.src_invariants), tuple(ind.dst_invariants))
            kernel, coker = _pooled(f.source._cache.get(_POOL), content,
                                    lambda: induced_map_kernel_cokernel(ind))
            kernel, coker = list(kernel), list(coker)
            ok = not kernel and not coker
        certificates.append(IsoCertificate(k, kernel, coker, ok))
        verdict = verdict and ok
    return verdict, certificates
