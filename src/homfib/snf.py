"""Sparse exact integer matrices and Smith normal form.

Entries are arbitrary-precision Python ints.  The reduction uses a greedy
smallest-magnitude pivot with full row/column elimination and deterministic
index tie-breaking.  A unit pivot ends the pivot search at the first row,
in index order, that holds one, and needs no divisibility scan; of that
row's units it takes the one whose column has the fewest entries, then
the least column index, so that a sparse boundary matrix stays sparse as
it is reduced.

The reduction records its row and column operations in two logs.  The
unimodular change-of-basis matrices U, V and their inverses are built from
those logs on first read and then kept, so a caller that reads only the
diagonal builds none of them.

When the pivot at (t, t) does not divide every entry still below and to
the right of it, the row of least index i > t holding such an entry is
added to row t and the reduction goes on.  No choice reads the order of
a row dict or a column set, so a Smith form, its transforms included,
depends on the matrix's entries alone, not on the order they were
written in.
"""

from __future__ import annotations


class IntMatrix:
    """Sparse integer matrix: row dicts plus a column occupancy index."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "IntMatrix":
        """The matrix with the given (i, j, v) at distinct positions; zeros skipped."""
        m = cls(nrows, ncols)
        rows, cols = m.rows, m.cols
        for i, j, v in entries:
            if v:
                row = rows.get(i)
                if row is None:
                    row = rows[i] = {}
                row[j] = v
                s = cols.get(j)
                if s is None:
                    s = cols[j] = set()
                s.add(i)
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns: list[dict[int, int]]) -> "IntMatrix":
        """The matrix whose column j is the sparse vector columns[j]:
        from_entries in column-major order."""
        return cls.from_entries(nrows, len(columns), (
            (i, j, v) for j, column in enumerate(columns) for i, v in column.items()))

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        data = [list(r) for r in data]
        return cls.from_entries(len(data), len(data[0]) if data else 0,
                                ((i, j, v) for i, row in enumerate(data)
                                 for j, v in enumerate(row)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.rows[i] = {i: 1}
            m.cols[i] = {i}
        return m

    def copy(self) -> "IntMatrix":
        m = IntMatrix(self.nrows, self.ncols)
        m.rows = {i: dict(r) for i, r in self.rows.items()}
        m.cols = {j: set(s) for j, s in self.cols.items()}
        return m

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.rows.get(i, {}).get(j, 0)

    def __setitem__(self, ij, v: int):
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

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def nnz(self) -> int:
        return sum(map(len, self.rows.values()))

    def is_zero(self) -> bool:
        return not self.rows

    def column(self, j: int) -> dict[int, int]:
        return {i: self.rows[i][j] for i in self.cols.get(j, ())}

    # -- elementary operations ---------------------------------------------
    #
    # Each keeps the invariants the readers rely on: no row dict is empty,
    # cols[j] is exactly the set of rows with a nonzero entry in column j,
    # and no column set is empty.

    def row_add(self, i: int, i2: int, c: int):
        """row i += c * row i2"""
        src = self.rows.get(i2)
        if not c or not src:
            return
        rows, cols = self.rows, self.cols
        row = rows.setdefault(i, {})
        for j, v in (list(src.items()) if i == i2 else src.items()):
            w = row.get(j, 0) + c * v
            if w:
                if j not in row:
                    cols[j].add(i)
                row[j] = w
            else:
                del row[j]
                s = cols[j]
                s.discard(i)
                if not s:
                    del cols[j]
        if not row:
            del rows[i]

    def col_add(self, j: int, j2: int, c: int):
        """col j += c * col j2"""
        src = self.cols.get(j2)
        if not c or not src:
            return
        rows, cols = self.rows, self.cols
        s = cols.get(j)
        if s is None:
            s = cols[j] = set()
        for i in (list(src) if j == j2 else src):
            row = rows[i]
            w = row.get(j, 0) + c * row[j2]
            if w:
                if j not in row:
                    s.add(i)
                row[j] = w
            else:
                del row[j]
                s.discard(i)
                if not row:
                    del rows[i]
        if not s:
            del cols[j]

    def row_swap(self, i: int, i2: int):
        rows, cols = self.rows, self.cols
        a, b = rows.pop(i, {}), rows.pop(i2, {})
        for j in a.keys() ^ b.keys():
            s = cols[j]
            if j in a:
                s.discard(i)
                s.add(i2)
            else:
                s.discard(i2)
                s.add(i)
        if a:
            rows[i2] = a
        if b:
            rows[i] = b

    def col_swap(self, j: int, j2: int):
        rows, cols = self.rows, self.cols
        a, b = cols.pop(j, set()), cols.pop(j2, set())
        for i in a | b:
            row = rows[i]
            x, y = row.pop(j, 0), row.pop(j2, 0)
            if x:
                row[j2] = x
            if y:
                row[j] = y
        if a:
            cols[j2] = a
        if b:
            cols[j] = b

    def row_negate(self, i: int):
        row = self.rows.get(i, {})
        for j in row:
            row[j] = -row[j]

    def col_negate(self, j: int):
        for i in self.cols.get(j, ()):
            self.rows[i][j] = -self.rows[i][j]

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = IntMatrix(self.nrows, other.ncols)
        rows, cols = out.rows, out.cols
        for i, row in self.rows.items():
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in other.rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, v in acc.items():
                if v:
                    out_row = rows.get(i)
                    if out_row is None:
                        out_row = rows[i] = {}
                    out_row[j] = v
                    s = cols.get(j)
                    if s is None:
                        s = cols[j] = set()
                    s.add(i)
        return out

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        """Matrix times a sparse column vector: out_i = sum_k M[i,k] vec[k]."""
        acc: dict[int, int] = {}
        for k, v in vec.items():
            if not v:
                continue
            for i in self.cols.get(k, ()):
                acc[i] = acc.get(i, 0) + self.rows[i][k] * v
        return {i: v for i, v in acc.items() if v}

    def to_dense(self):
        return [[self[i, j] for j in range(self.ncols)] for i in range(self.nrows)]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _replay(n: int, ops: list[tuple], by_rows: bool, inverse: bool) -> IntMatrix:
    """The n x n identity with the logged operations applied in order.

    An operation is (i, i2, c) for "i += c * i2", (i, i2) for a swap and
    (i,) for a negation.  U replays the row log on rows and V the column
    log on columns; an inverse applies each inverse operation on the other
    side, so that the product with its transform stays the identity.
    """
    m = IntMatrix.identity(n)
    if by_rows:
        add, swap, negate = m.row_add, m.row_swap, m.row_negate
    else:
        add, swap, negate = m.col_add, m.col_swap, m.col_negate
    for op in ops:
        if len(op) == 3:
            i, i2, c = op
            if inverse:
                add(i2, i, -c)
            else:
                add(i, i2, c)
        elif len(op) == 2:
            swap(*op)
        else:
            negate(op[0])
    return m


class SmithForm:
    """U @ M @ V = D with D diagonal, divisibility down the diagonal.

    U, U^-1, V and V^-1 are built from the operation logs when first read
    and kept from then on.
    """

    __slots__ = ("diagonal", "rank", "shape", "_row_ops", "_col_ops", "_built")

    def __init__(self, diagonal: list[int], rank: int, shape: tuple[int, int],
                 row_ops: list[tuple], col_ops: list[tuple]):
        self.diagonal = diagonal
        self.rank = rank
        self.shape = shape
        self._row_ops = row_ops
        self._col_ops = col_ops
        self._built: dict[str, IntMatrix] = {}

    def _transform(self, name: str, by_rows: bool, inverse: bool) -> IntMatrix:
        m = self._built.get(name)
        if m is None:
            on_u = name in ("u", "u_inv")
            m = self._built[name] = _replay(
                self.shape[0 if on_u else 1],
                self._row_ops if on_u else self._col_ops, by_rows, inverse)
        return m

    @property
    def u(self) -> IntMatrix:
        return self._transform("u", True, False)

    @property
    def u_inv(self) -> IntMatrix:
        return self._transform("u_inv", False, True)

    @property
    def v(self) -> IntMatrix:
        return self._transform("v", False, False)

    @property
    def v_inv(self) -> IntMatrix:
        return self._transform("v_inv", True, True)

    def d_matrix(self) -> IntMatrix:
        return IntMatrix.from_entries(*self.shape, ((t, t, d) for t, d in enumerate(self.diagonal)))

    def kernel_columns(self) -> list[dict[int, int]]:
        """Columns of V spanning the integer kernel of M."""
        v = self.v
        return [v.column(j) for j in range(self.rank, self.shape[1])]

    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]


def _find_pivot(rows: dict[int, dict[int, int]], cols: dict[int, set[int]],
                t: int, nrows: int):
    """Position of the pivot among the rows from t on.

    Rows are read in index order, so the first row holding a unit ends the
    search; its pivot is the unit whose column has the fewest entries, then
    the least column index, which keeps a sparse matrix sparse.  With no
    unit left, the pivot is the least (|v|, i, j).  Rows from t on hold no
    entries left of column t.
    """
    best = 0
    best_i = best_j = best_n = -1
    for i in range(t, nrows):
        row = rows.get(i)
        if row is None:
            continue
        for j, v in row.items():
            if v == 1 or v == -1:
                n = len(cols[j])
                if best != 1 or n < best_n or (n == best_n and j < best_j):
                    best, best_i, best_j, best_n = 1, i, j, n
            elif best != 1:
                a = v if v > 0 else -v
                if not best or a < best or (a == best and i == best_i and j < best_j):
                    best, best_i, best_j = a, i, j
        if best == 1:
            break
    return (best_i, best_j) if best else None


def smith_normal_form(M: IntMatrix) -> SmithForm:
    """Smith normal form over the integers with logged unimodular bases.

    Greedy smallest-magnitude pivoting with deterministic tie-breaks (of
    the first row's units, the one in the sparsest column); the
    divisibility chain is enforced during reduction by folding the least
    offending row into the pivot row.
    """
    if not M.rows:
        # a zero matrix: nothing to eliminate, and every transform is the identity
        return SmithForm([0] * min(M.nrows, M.ncols), 0, (M.nrows, M.ncols), [], [])
    work = M.copy()
    rows, cols = work.rows, work.cols
    nr, nc = M.nrows, M.ncols
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

    def row_swap(i, i2):
        if i != i2:
            work.row_swap(i, i2)
            row_ops.append((i, i2))

    def col_swap(j, j2):
        if j != j2:
            work.col_swap(j, j2)
            col_ops.append((j, j2))

    t = 0
    limit = min(nr, nc)
    # rows below t are their diagonal entries alone
    while t < limit and len(rows) > t:
        pos = _find_pivot(rows, cols, t, nr)
        row_swap(t, pos[0])
        col_swap(t, pos[1])
        while True:
            # clear column t, then row t; remainders re-enter as new pivots
            pivot = rows[t][t]
            for i in sorted(i for i in cols[t] if i != t):
                q = rows[i][t] // pivot
                if q:
                    work.row_add(i, t, -q)
                    row_ops.append((i, t, -q))
            residues = [i for i in cols[t] if i != t]
            if residues:
                row_swap(t, min(residues, key=lambda r: (abs(rows[r][t]), r)))
                continue
            row_t = rows[t]
            for j in sorted(j for j in row_t if j != t):
                q = row_t[j] // pivot
                if q:
                    work.col_add(j, t, -q)
                    col_ops.append((j, t, -q))
            residues = [j for j in row_t if j != t]
            if residues:
                col_swap(t, min(residues, key=lambda c: (abs(row_t[c]), c)))
                continue
            break
        pivot = rows[t][t]
        offender = None
        if pivot != 1 and pivot != -1:
            # rows past t hold entries right of column t only
            offender = min((i for i, row in rows.items() if i > t
                            and any(v % pivot for v in row.values())), default=None)
        if offender is not None:
            work.row_add(t, offender, 1)
            row_ops.append((t, offender, 1))
            continue
        if pivot < 0:
            work.row_negate(t)
            row_ops.append((t,))
        t += 1

    diagonal = [rows[i][i] for i in range(t)] + [0] * (limit - t)
    return SmithForm(diagonal, t, (nr, nc), row_ops, col_ops)
