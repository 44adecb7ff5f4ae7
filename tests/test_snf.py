import pytest
from hypothesis import example, given, settings, strategies as st

import homfib as hf
from homfib.homology import normalized_chains
from homfib.snf import IntMatrix, smith_normal_form

from corpus import icosahedral_complex, subdivision_corpus
from oracles import (ReferenceMatrix, bareiss_det, minors_gcd_diagonal,
                     reference_smith_normal_form)


def snf_of(rows):
    return smith_normal_form(IntMatrix.from_rows(rows))


def test_diag_2_3_gives_1_6():
    form = snf_of([[2, 0], [0, 3]])
    assert form.diagonal == [1, 6]


def test_zero_matrix():
    form = snf_of([[0, 0, 0], [0, 0, 0]])
    assert form.diagonal == [0, 0]
    assert form.rank == 0
    assert form.u.to_dense() == IntMatrix.identity(2).to_dense()
    assert form.v.to_dense() == IntMatrix.identity(3).to_dense()


def test_identity_fixed():
    form = snf_of([[1, 0], [0, 1]])
    assert form.diagonal == [1, 1]


small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
    m = IntMatrix.from_rows(rows)
    form = smith_normal_form(m)
    # U M V = D
    d = form.u.matmul(m).matmul(form.v)
    assert d.to_dense() == form.d_matrix().to_dense()
    # divisibility chain
    diag = form.diagonal
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # tracked inverses really invert
    n_r, n_c = m.nrows, m.ncols
    assert form.u.matmul(form.u_inv).to_dense() == IntMatrix.identity(n_r).to_dense()
    assert form.v.matmul(form.v_inv).to_dense() == IntMatrix.identity(n_c).to_dense()
    # unimodular bases
    assert abs(bareiss_det(form.u.to_dense())) == 1
    assert abs(bareiss_det(form.v.to_dense())) == 1


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_snf_matches_minors_gcd(rows):
    form = snf_of(rows)
    assert form.diagonal == minors_gcd_diagonal(rows)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_kernel_columns_annihilate(rows):
    m = IntMatrix.from_rows(rows)
    form = smith_normal_form(m)
    for col in form.kernel_columns():
        assert not m.apply(col)
    # kernel dimension is ncols - rank
    assert len(form.kernel_columns()) == m.ncols - form.rank


def test_matrix_ops_roundtrip():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    m.row_add(0, 1, 2)
    assert m.to_dense() == [[7, 10], [3, 4]]
    m.col_swap(0, 1)
    assert m.to_dense() == [[10, 7], [4, 3]]
    m.row_negate(1)
    assert m.to_dense() == [[10, 7], [-4, -3]]
    assert m.nnz() == 4
    m[0, 0] = 0
    assert m.nnz() == 3


@pytest.mark.parametrize("rows,expected", [
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ([[1, 0], [0, 0]], [1, 0]),
    ([[6]], [6]),
])
def test_known_forms(rows, expected):
    assert snf_of(rows).diagonal == expected


# ---------------------------------------------------------------------------
# differential tests against the entry-by-entry engine
# ---------------------------------------------------------------------------

TRANSFORMS = ("u", "u_inv", "v", "v_inv")


def assert_matches_reference(m):
    diagonal, rank, *transforms = reference_smith_normal_form(m)
    form = smith_normal_form(m)
    assert form.diagonal == diagonal
    assert form.rank == rank
    for name, ref in zip(TRANSFORMS, transforms):
        got = getattr(form, name)
        assert (got.nrows, got.ncols) == (ref.nrows, ref.ncols)
        assert got.rows == ref.rows, name
        assert got.cols == ref.cols, name
        assert getattr(form, name) is got


def assert_consistent(m):
    """No empty row dict, no empty column set, and cols[j] exactly the rows
    with a nonzero entry in column j."""
    assert all(m.rows.values()) and all(m.cols.values())
    assert all(v for row in m.rows.values() for v in row.values())
    occupied = {}
    for i, j, _ in m.entries():
        occupied.setdefault(j, set()).add(i)
    assert m.cols == occupied


@st.composite
def engine_matrices(draw):
    """Matrices up to 11 x 11, filled in a random order.

    Kinds: any small entries, boundary-like entries in {-1, 0, 1}, entries
    with no unit (non-unit pivots, divisibility folds) and all zero.
    """
    nr, nc = draw(st.integers(0, 11)), draw(st.integers(0, 11))
    values = draw(st.sampled_from([
        st.integers(-9, 9),
        st.sampled_from([-1, 0, 0, 0, 1]),
        st.sampled_from([0, 2, -2, 3, 4, -6, 9, 10]),
        st.just(0),
    ]))
    cells = [(i, j) for i in range(nr) for j in range(nc)]
    entries = draw(st.lists(values, min_size=len(cells), max_size=len(cells)))
    order = draw(st.permutations(range(len(cells))))
    return IntMatrix.from_entries(
        nr, nc, ((*cells[t], entries[t]) for t in order))


@settings(max_examples=300, deadline=None)
@given(engine_matrices())
def test_engine_matches_reference(m):
    assert_matches_reference(m)


@pytest.mark.parametrize("rows", [[], [[]] * 3, [[0] * 4] * 2, [[2, 4], [6, 8]],
                                  [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]])
def test_engine_matches_reference_on_edge_shapes(rows):
    m = IntMatrix.from_rows(rows) if rows and rows[0] else IntMatrix(len(rows), 0)
    assert_matches_reference(m)
    assert_matches_reference(IntMatrix(0, len(rows)))


FOLD = [(0, 1, 6), (2, 1, 9), (1, 0, 5)]


def test_divisibility_fold_takes_the_least_offending_row():
    # [[0, 6], [5, 0], [0, 9]]: the pivot 5 moves to the top left, then
    # rows 1 (the 6) and 2 (the 9) both break divisibility, and row 1 is
    # folded into row 0.  Reduced by hand, the path is: swap rows 0 and 1;
    # row 0 += row 1; col 1 -= col 0; swap cols 0 and 1; row 1 -= 6 row 0;
    # row 2 -= 9 row 0; col 1 -= 5 col 0; row 2 -= row 1; swap rows 1 and 2;
    # row 2 -= 2 row 1; negate row 1.
    m = IntMatrix.from_entries(3, 2, FOLD)
    form = smith_normal_form(m)
    assert form.diagonal == [1, 15]
    assert form.u.to_dense() == [[1, 1, 0], [4, 3, -1], [3, 0, -2]]
    assert form.v.to_dense() == [[-1, 6], [1, -5]]
    assert form.u.matmul(m).matmul(form.v).to_dense() == [[1, 0], [0, 15], [0, 0]]
    assert_matches_reference(m)


@settings(max_examples=150, deadline=None)
@given(engine_matrices())
@example(IntMatrix.from_entries(3, 2, FOLD))
@example(IntMatrix.from_rows([[5, 0], [0, 6], [0, 9]]))
def test_smith_forms_depend_on_entries_alone(m):
    entries = sorted(m.entries())
    forms = [smith_normal_form(IntMatrix.from_entries(m.nrows, m.ncols, order))
             for order in (entries, entries[::-1])]
    forms.append(smith_normal_form(m))
    for form in forms[1:]:
        assert form.diagonal == forms[0].diagonal
        for name in TRANSFORMS:
            assert getattr(form, name).rows == getattr(forms[0], name).rows, name


def corpus_boundaries():
    spaces = dict(subdivision_corpus())
    spaces["icosahedral"] = icosahedral_complex()
    spaces["projective_plane"] = hf.presentation_complex(["a"], [["a", "a"]])
    spaces["moore_z6"] = hf.presentation_complex(["a"], [["a"] * 6])
    spaces["sd_sphere2"] = hf.sd(hf.boundary(3)).space
    for name, X in spaces.items():
        cc = normalized_chains(X)
        for k in range(1, X.max_dim + 1):
            yield pytest.param(cc.boundary(k), id=f"{name}-d{k}")


@pytest.mark.parametrize("m", corpus_boundaries())
def test_engine_matches_reference_on_corpus_boundaries(m):
    assert_matches_reference(m)


OPERATIONS = ("row_add", "col_add", "row_swap", "col_swap", "row_negate", "col_negate")


@settings(max_examples=60, deadline=None)
@given(engine_matrices(), st.data())
def test_elementary_operations_match_reference(m, data):
    ref = ReferenceMatrix.copy_of(m)
    for _ in range(data.draw(st.integers(0, 25))):
        op = data.draw(st.sampled_from(OPERATIONS))
        n = m.nrows if op.startswith("row") else m.ncols
        if not n:
            continue
        a = data.draw(st.integers(0, n - 1))
        args = (a,) if op.endswith("negate") else (a, data.draw(st.integers(0, n - 1)))
        if op.endswith("add"):
            args += (data.draw(st.sampled_from([-2, -1, 1, 3])),)
        getattr(m, op)(*args)
        getattr(ref, op)(*args)
        assert (m.rows, m.cols) == (ref.rows, ref.cols), (op, args)
        assert_consistent(m)
