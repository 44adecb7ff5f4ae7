"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the library's own reduction
code: dense textbook Smith reduction with first-nonzero pivoting, gcd-of-
minors invariant factors, Bareiss determinants, counting arguments, a
bar-resolution group homology calculator, and the entry-by-entry Smith form
engine with all four transforms tracked eagerly, kept as the differential
reference for homfib.snf.
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
    V^-1 at once.  Returns (diagonal, rank, u, u_inv, v, v_inv), the
    matrices as ReferenceMatrix.
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
                key = (abs(val), i, j)
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
        for i, row in work.rows.items():
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
