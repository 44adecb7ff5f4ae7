"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the library's own reduction
code: dense textbook Smith reduction with first-nonzero pivoting, gcd-of-
minors invariant factors, Bareiss determinants, counting arguments, a
bar-resolution group homology calculator, the entry-by-entry Smith form
engine with all four transforms tracked eagerly, kept as the differential
reference for homfib.snf, a weak-fibration verdict computed from scanned
preimages and dense matrices, mod-p induced maps by Gaussian elimination
over Z/p, and the homology of a relative complex C(X)/C(A) from its dense
boundaries.  Only those last three and scan_pullback read homfib, for its
simplicial sets, maps and operators, and they import it when called.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd


def bareiss_det(rows):
    """Exact determinant of a square integer matrix."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    det = sign
    for k in range(n):
        det *= a[k][k]
    return int(det)


def minors_gcd_diagonal(rows):
    """Invariant factors via gcds of k-minors (small matrices only)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ris in combinations(range(m), k):
            for cjs in combinations(range(n), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                g = gcd(g, abs(bareiss_det(sub)))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            return out
        out.append(g // prev)
        prev = g
    return out


def dense_snf_diagonal(rows):
    """Plain dense Smith reduction, first-nonzero pivot, no basis tracking."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    t = 0
    while t < min(m, n):
        pos = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done and all(a[i][t] == 0 for i in range(t + 1, m)) \
                    and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(n):
                a[t][j] += a[bad][j]
            continue
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
        t += 1
    return [a[i][i] for i in range(min(m, n))]


def homology_from_boundaries(d_k, d_k1, n_k):
    """(free rank, sorted torsion) of ker d_k / im d_k1 from dense matrices."""
    def diag(mat):
        if not mat or not mat[0]:
            return []
        return dense_snf_diagonal(mat)

    r_k = sum(1 for d in diag(d_k) if d)
    diag1 = diag(d_k1)
    r_k1 = sum(1 for d in diag1 if d)
    torsion = sorted(d for d in diag1 if d > 1)
    return n_k - r_k - r_k1, tuple(torsion)


def product_nondegenerate_counts(x_counts, y_counts, upto):
    """Nondegenerate simplex counts of a product from total simplex counts.

    total_n = sum_k C(n, n-k) nd_k inverts to nd_n; the product's totals are
    the products of the factors' totals.
    """
    def totals(nd):
        out = []
        for n in range(upto + 1):
            t = sum(comb(n, n - k) * nd[k] for k in range(min(n, len(nd) - 1) + 1))
            out.append(t)
        return out

    tx, ty = totals(list(x_counts)), totals(list(y_counts))
    nd = []
    for n in range(upto + 1):
        t = tx[n] * ty[n]
        for k in range(n):
            t -= comb(n, n - k) * nd[k]
        nd.append(t)
    return tuple(nd)


def bar_resolution_homology(table, unit, upto):
    """Group/monoid homology from the normalized bar complex.

    table: dict (a, b) -> ab for a finite monoid; unit: the identity element.
    Returns [(free rank, torsion tuple)] for degrees 0..upto.
    """
    elements = sorted({a for a, _ in table} | {b for _, b in table}
                      | set(table.values()), key=repr)
    others = [g for g in elements if g != unit]

    def tuples(k):
        if k == 0:
            return [()]
        out = []
        for prev in tuples(k - 1):
            for g in others:
                out.append(prev + (g,))
        return out

    chains = {k: tuples(k) for k in range(upto + 2)}
    index = {k: {t: i for i, t in enumerate(chains[k])} for k in chains}

    def boundary_matrix(k):
        rows = [[0] * len(chains[k]) for _ in range(len(chains[k - 1]))]
        for j, tup in enumerate(chains[k]):
            sign = 1
            for i in range(k + 1):
                if i == 0:
                    face = tup[1:]
                elif i == k:
                    face = tup[:-1]
                else:
                    face = tup[: i - 1] + (table[(tup[i - 1], tup[i])],) + tup[i + 1:]
                if unit not in face:
                    rows[index[k - 1][face]][j] += sign
                sign = -sign
        return rows

    out = []
    for k in range(upto + 1):
        d_k = boundary_matrix(k) if k >= 1 else [[0] * len(chains[0])]
        d_k1 = boundary_matrix(k + 1)
        if k == 0:
            rank, torsion = homology_from_boundaries([], d_k1, len(chains[0]))
        else:
            rank, torsion = homology_from_boundaries(d_k, d_k1, len(chains[k]))
        out.append((rank, torsion))
    return out


def cyclic_table(n):
    return {(a, b): (a + b) % n for a in range(n) for b in range(n)}


class ReferenceMatrix:
    """The sparse matrix of the entry-by-entry Smith form engine.

    Row dicts plus a column occupancy index, written one entry at a time
    through __setitem__; the elementary operations are built on it.
    """

    def __init__(self, nrows, ncols):
        self.nrows, self.ncols = nrows, ncols
        self.rows, self.cols = {}, {}

    @classmethod
    def copy_of(cls, m):
        """A copy of any matrix with rows and cols, in the same order."""
        out = cls(m.nrows, m.ncols)
        out.rows = {i: dict(r) for i, r in m.rows.items()}
        out.cols = {j: set(s) for j, s in m.cols.items()}
        return out

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m[i, i] = 1
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows.get(i, {}).get(j, 0)

    def __setitem__(self, ij, v):
        i, j = ij
        row = self.rows.get(i)
        if v:
            if row is None:
                row = self.rows[i] = {}
            row[j] = v
            self.cols.setdefault(j, set()).add(i)
        elif row and j in row:
            del row[j]
            if not row:
                del self.rows[i]
            self.cols[j].discard(i)
            if not self.cols[j]:
                del self.cols[j]

    def row_add(self, i, i2, c):
        if not c:
            return
        for j, v in list(self.rows.get(i2, {}).items()):
            self[i, j] = self[i, j] + c * v

    def col_add(self, j, j2, c):
        if not c:
            return
        for i in list(self.cols.get(j2, ())):
            self[i, j] = self[i, j] + c * self.rows[i][j2]

    def row_swap(self, i, i2):
        if i == i2:
            return
        for j in set(self.rows.get(i, {})) | set(self.rows.get(i2, {})):
            a, b = self[i, j], self[i2, j]
            self[i, j], self[i2, j] = b, a

    def col_swap(self, j, j2):
        if j == j2:
            return
        for i in set(self.cols.get(j, ())) | set(self.cols.get(j2, ())):
            a, b = self[i, j], self[i, j2]
            self[i, j], self[i, j2] = b, a

    def row_negate(self, i):
        for j in list(self.rows.get(i, {})):
            self.rows[i][j] = -self.rows[i][j]

    def col_negate(self, j):
        for i in self.cols.get(j, ()):
            self.rows[i][j] = -self.rows[i][j]


def reference_smith_normal_form(M):
    """Smith normal form with all four transforms tracked alongside.

    The engine homfib.snf replaced: the same pivot rule and operations,
    each applied entry by entry to the working copy and to U, U^-1, V and
    V^-1 at once.  A pivot that does not divide every entry below and to
    its right takes the least such row index into its row.  Returns
    (diagonal, rank, u, u_inv, v, v_inv), the matrices as ReferenceMatrix.
    """
    work = ReferenceMatrix.copy_of(M)
    nr, nc = M.nrows, M.ncols
    u, u_inv = ReferenceMatrix.identity(nr), ReferenceMatrix.identity(nr)
    v, v_inv = ReferenceMatrix.identity(nc), ReferenceMatrix.identity(nc)

    def row_add(i, i2, c):
        work.row_add(i, i2, c)
        u.row_add(i, i2, c)
        u_inv.col_add(i2, i, -c)

    def col_add(j, j2, c):
        work.col_add(j, j2, c)
        v.col_add(j, j2, c)
        v_inv.row_add(j2, j, -c)

    def row_swap(i, i2):
        work.row_swap(i, i2)
        u.row_swap(i, i2)
        u_inv.col_swap(i, i2)

    def col_swap(j, j2):
        work.col_swap(j, j2)
        v.col_swap(j, j2)
        v_inv.row_swap(j, j2)

    def row_negate(i):
        work.row_negate(i)
        u.row_negate(i)
        u_inv.col_negate(i)

    def find_pivot(t):
        best = None
        for i, row in work.rows.items():
            if i < t:
                continue
            for j, val in row.items():
                if j < t:
                    continue
                key = (abs(val), i, len(work.cols[j]) if abs(val) == 1 else 0, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        row_swap(t, pos[0])
        col_swap(t, pos[1])
        while True:
            for i in sorted(i for i in work.cols.get(t, ()) if i != t):
                q = work[i, t] // work[t, t]
                if q:
                    row_add(i, t, -q)
            residues = [i for i in work.cols.get(t, ()) if i != t]
            if residues:
                row_swap(t, min(residues, key=lambda r: (abs(work[r, t]), r)))
                continue
            for j in sorted(j for j in work.rows.get(t, {}) if j != t):
                q = work[t, j] // work[t, t]
                if q:
                    col_add(j, t, -q)
            residues = [j for j in work.rows.get(t, {}) if j != t]
            if residues:
                col_swap(t, min(residues, key=lambda c: (abs(work[t, c]), c)))
                continue
            break
        pivot = work[t, t]
        offender = None
        for i, row in sorted(work.rows.items()):
            if i <= t:
                continue
            for j, val in row.items():
                if j > t and val % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if pivot < 0:
            row_negate(t)
        t += 1

    diagonal = [work[i, i] for i in range(limit)]
    rank = sum(1 for d in diagonal if d)
    return diagonal, rank, u, u_inv, v, v_inv


def scan_pullback(f, g, N):
    """Reference fiber product: scan every n-simplex of both sources."""
    from homfib.sset import SimplicialSet, tuple_into

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


def dense_kernel_basis(rows, ncols):
    """A basis of the integer kernel {x : rows x = 0}, by unimodular column
    operations on the matrix and on an identity beside it: the columns that
    end up zero span the kernel."""
    a = [list(r) for r in rows]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def col_sub(j, t, q):   # column j -= q * column t
        for m in (a, v):
            for row in m:
                row[j] -= q * row[t]

    def col_swap(j, t):
        for m in (a, v):
            for row in m:
                row[j], row[t] = row[t], row[j]

    t = 0
    for row in a:
        while t < ncols:
            live = [j for j in range(t, ncols) if row[j]]
            if not live:
                break
            col_swap(t, min(live, key=lambda j: abs(row[j])))
            for j in live:
                if j != t and row[j]:
                    col_sub(j, t, row[j] // row[t])
            if not any(row[j] for j in range(t + 1, ncols)):
                t += 1
                break
    return [[v[i][j] for i in range(ncols)] for j in range(t, ncols)]


def _rank_and_covolume(columns, n):
    """Rank and product of the nonzero invariant factors of the lattice the
    columns (vectors of length n) span."""
    if not columns or not n:
        return 0, 1
    diag = [d for d in dense_snf_diagonal([list(r) for r in zip(*columns)]) if d]
    covolume = 1
    for d in diag:
        covolume *= abs(d)
    return len(diag), covolume


def _columns(matrix, nrows, ncols):
    return [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]


def dense_iso_degrees(dA, dC, F, dims_a, dims_c, up_to):
    """The degrees k <= up_to where a chain map f: A -> C is not an
    isomorphism on H_k, from dense matrices.

    dA[k] and dC[k] are the boundary matrices out of degree k (lists of
    rows), F[k] the degree-k chain map (rows in C_k, columns in A_k), and
    dims the ranks of the chain groups; degree up_to + 1 must be present.
    With Z_k the cycles and B_k the boundaries, H_k(f) is onto when
    f(Z_k A) + B_k C is all of Z_k C, a saturated lattice, and one-to-one
    when L = {z in Z_k A : f z in B_k C} is no bigger than B_k A.  Lattices
    are compared by rank and covolume (the product of the nonzero Smith
    invariants of a spanning set), which determine a sublattice's index.
    """
    failing = []
    for k in range(up_to + 1):
        na, nc, nc1 = dims_a[k], dims_c[k], dims_c[k + 1]
        cycles = dense_kernel_basis(dA[k], na) if k else \
            [[int(i == j) for i in range(na)] for j in range(na)]
        images = [[sum(F[k][i][t] * z[t] for t in range(na)) for i in range(nc)]
                  for z in cycles]
        boundaries_c = _columns(dC[k + 1], nc, nc1)
        cycles_c = nc - (_rank_and_covolume(_columns(dC[k], dims_c[k - 1], nc), dims_c[k - 1])[0]
                         if k else 0)
        rank, covolume = _rank_and_covolume(images + boundaries_c, nc)
        onto = rank == cycles_c and covolume == 1
        # (y, w) with f(cycles . y) = d w; L is spanned by cycles . y
        block = [[images[j][i] for j in range(len(images))] + [-b[i] for b in boundaries_c]
                 for i in range(nc)]
        lifted = [[sum(y[j] * cycles[j][t] for j in range(len(cycles))) for t in range(na)]
                  for y in dense_kernel_basis(block, len(images) + nc1)]
        one_to_one = (_rank_and_covolume(lifted, na)
                      == _rank_and_covolume(_columns(dA[k + 1], na, dims_a[k + 1]), na))
        if not (onto and one_to_one):
            failing.append(k)
    return failing


def dense_boundaries(X, top):
    """The normalized boundary matrices of X out of degrees 0..top, as lists
    of rows over X.gens(k - 1) and X.gens(k)."""
    out = [[]]
    for k in range(1, top + 1):
        below = {g: i for i, g in enumerate(X.gens(k - 1))}
        d = [[0] * len(X.gens(k)) for _ in below]
        for j, g in enumerate(X.gens(k)):
            for i, r in enumerate(X.faces[g]):
                if not r.word:
                    d[below[r.gen]][j] += (-1) ** i
        out.append(d)
    return out


def weak_check_oracle(p, up_to):
    """The face comparisons dp(d_i sigma) -> dp(sigma) of p, each as
    ((sigma, ("d", i)), failing degrees), in the order of the base's
    generators; the preimages come from scan_pullback at bound up_to + 1
    and the comparison sends (a, b) to (delta^i a, b)."""
    from homfib.sset import SimplexRef, representing_map

    B, N = p.target, up_to + 1
    preimages = {}

    def preimage(sigma):
        if sigma not in preimages:
            P = scan_pullback(representing_map(B, sigma), p, N)
            preimages[sigma] = (P, dense_boundaries(P, N), [len(P.gens(k)) for k in range(N + 1)])
        return preimages[sigma]

    out = []
    for g in B.all_gens():
        sigma = B.ref(g)
        for i in range(sigma.dim + 1 if sigma.dim else 0):
            (A, dA, dims_a), (C, dC, dims_c) = preimage(B.face(sigma, i)), preimage(sigma)
            F = []
            for k in range(N + 1):
                place = {gen: j for j, gen in enumerate(C.gens(k))}
                column = [place[(SimplexRef(tuple(v + (v >= i) for v in a.gen), a.word, a.dim), b)]
                          for a, b in A.gens(k)]
                F.append([[int(column[j] == r) for j in range(dims_a[k])]
                          for r in range(dims_c[k])])
            out.append(((sigma, ("d", i)), dense_iso_degrees(dA, dC, F, dims_a, dims_c, up_to)))
    return out


def _row_echelon_mod_p(rows, ncols, p):
    """The reduced row echelon form mod p of an integer matrix (a list of
    rows) and its pivot columns."""
    a = [[v % p for v in row] for row in rows]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        i0 = next((i for i in range(r, len(a)) if a[i][j]), None)
        if i0 is None:
            continue
        a[r], a[i0] = a[i0], a[r]
        inverse = pow(a[r][j], -1, p)
        a[r] = [v * inverse % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][j]:
                q = a[i][j]
                a[i] = [(v - q * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(j)
    return a, pivots


def _rank_mod_p(vectors, n, p):
    """The dimension of the span mod p of vectors of length n."""
    return len(_row_echelon_mod_p(vectors, n, p)[1])


def _kernel_mod_p(rows, ncols, p):
    """A basis of {x : rows x = 0 mod p}: one vector per free column."""
    a, pivots = _row_echelon_mod_p(rows, ncols, p)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        x = [0] * ncols
        x[free] = 1
        for r, j in enumerate(pivots):
            x[j] = -a[r][free] % p
        basis.append(x)
    return basis


def dense_mod_p_iso_dims(f, up_to, p):
    """Per degree k <= up_to, the dimensions of the kernel and the cokernel
    of H_k(f; Z/p), for a simplicial map f, by Gaussian elimination mod p on
    dense_boundaries of its source A and target C.

    With Z_k the cycles mod p and B_k the boundaries, H_k(f) restricted to
    Z_k A has image (f Z_k A + B_k C) / B_k C, so with s the dimension of
    f Z_k A + B_k C the kernel has dimension dim Z_k A - (s - dim B_k C)
    - dim B_k A and the cokernel dim Z_k C - s.
    """
    A, C = f.source, f.target
    dA, dC = dense_boundaries(A, up_to + 1), dense_boundaries(C, up_to + 1)
    out = []
    for k in range(up_to + 1):
        na, nc = len(A.gens(k)), len(C.gens(k))
        place = {g: i for i, g in enumerate(C.gens(k))}
        images = [None if r.word else place[r.gen]
                  for r in map(f.assignment.__getitem__, A.gens(k))]
        cycles_a = _kernel_mod_p(dA[k], na, p) if k else \
            [[int(i == j) for i in range(na)] for j in range(na)]
        pushed = []
        for z in cycles_a:
            w = [0] * nc
            for t, v in enumerate(z):
                if images[t] is not None:
                    w[images[t]] += v
            pushed.append(w)
        boundaries_c = [list(col) for col in zip(*dC[k + 1])] if dC[k + 1] else []
        span = _rank_mod_p(pushed + boundaries_c, nc, p)
        b_c = _rank_mod_p(boundaries_c, nc, p)
        b_a = _rank_mod_p(dA[k + 1], len(A.gens(k + 1)), p)
        z_c = nc - (_rank_mod_p(dC[k], nc, p) if k else 0)
        out.append((len(cycles_a) - (span - b_c) - b_a, z_c - span))
    return out


def relative_homology_vanishes(f, top, p):
    """Whether H_k(X, A) = 0 for every k <= top, over Z (p = 0) or Z/p, for
    f: A -> X sending the generators of A one-to-one onto the generators of
    a subcomplex of X; None when f is no such map through degree top, or X
    is built below top.

    The relative complex keeps X's generators outside f's image, and the
    entries of dense_boundaries between them, truncated at top: nothing is
    a boundary in degree top.  With n_k generators and r_k the rank of the
    boundary out of degree k, H_k vanishes when n_k = r_k + r_{k+1}, and
    over Z when also each nonzero Smith invariant of the boundary out of
    degree k + 1 is 1.
    """
    A, X = f.source, f.target
    if X.max_dim < top:
        return None
    d_a, d_x = dense_boundaries(A, top), dense_boundaries(X, top)
    images = []
    for k in range(top + 1):
        place = {g: i for i, g in enumerate(X.gens(k))}
        refs = [f.assignment[g] for g in A.gens(k)]
        if any(r.word for r in refs):
            return None
        images.append([place[r.gen] for r in refs])
        if len(set(images[k])) != len(images[k]):
            return None
    for k in range(1, top + 1):
        for j, t in enumerate(images[k]):
            carried = [0] * len(X.gens(k - 1))
            for i, row in enumerate(d_a[k]):
                carried[images[k - 1][i]] += row[j]
            if carried != [row[t] for row in d_x[k]]:
                return None
    keep = [[i for i in range(len(X.gens(k))) if i not in image]
            for k, image in enumerate(map(set, images))]
    quotient = [[]] + [[[d_x[k][i][j] for j in keep[k]] for i in keep[k - 1]]
                       for k in range(1, top + 1)] + [[]]

    def rank_and_units(k):
        rows = quotient[k]
        if not rows or not rows[0]:
            return 0, True
        if p:
            return _rank_mod_p(rows, len(rows[0]), p), True
        diagonal = [d for d in dense_snf_diagonal(rows) if d]
        return len(diagonal), all(abs(d) == 1 for d in diagonal)

    ranks = [rank_and_units(k) for k in range(top + 2)]
    return all(len(keep[k]) == ranks[k][0] + ranks[k + 1][0] and ranks[k + 1][1]
               for k in range(top + 1))


def canonical_ranks(X):
    """Each generator's place in canonical_key order over all degrees of X,
    equal keys sharing a place, in X.all_gens() order."""
    from homfib.sset import canonical_key

    keys = [canonical_key(g) for g in X.all_gens()]
    place = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [place[key] for key in keys]
