"""The sparse Matrix and the two-phase elimination against dense references.

The references in dense_reference.py are the full-reduction elimination and
the dense-grid arithmetic the engine used before.  Systems are random sparse
Q(i) rows, with zeros stored in the input, augmented columns (stop_col below
the width), rows that repeat combinations of earlier rows (rank deficiency)
and right-hand sides off the column space (inconsistency).  Examples are
drawn by Hypothesis with a fixed derandomised seed and a bounded count.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certified
from dense_reference import (
    DenseMatrix,
    from_cols,
    from_rows,
    graded_leibniz_dense,
    kronecker_dense,
    rref_full,
)
from tamecalc import linalg
from tamecalc.bimodule import Bimodule
from tamecalc.builders import abelian_torus_chevalley, build_chevalley, matrix_derivations_chevalley
from tamecalc.calculus import Calculus, validate_calculus
from tamecalc.linalg import (
    ONE,
    ZERO,
    ColumnSolver,
    Matrix,
    Scalar,
    _lincomb,
    kernel_rows,
    kronecker,
    solve_sparse,
    vec_to_sparse,
)
from tamecalc.specfile import matrix_from_json, matrix_to_json, scalar_to_json

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

scalars = st.one_of(
    st.just(ZERO), st.just(ONE),
    st.builds(Scalar, st.integers(-4, 4), st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def systems(draw):
    """(rows, ncols, width): sparse rows over width >= ncols columns, the
    columns from ncols on being augmented right-hand sides."""
    ncols = draw(st.integers(1, 7))
    width = ncols + draw(st.integers(0, 3))
    cols = st.integers(0, width - 1)
    rows = draw(st.lists(st.dictionaries(cols, scalars, max_size=4), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        rows.append(_lincomb(((draw(scalars), rows[i]), (draw(scalars), rows[j]))))
    return rows, ncols, width


def zero_free(rows):
    return [{c: v for c, v in r.items() if not v.is_zero()} for r in rows]


def no_stored_zeros(m: Matrix) -> bool:
    return all(not v.is_zero() for part in (m.sparse_rows(), m.sparse_cols())
               for r in part for v in r.values())


@st.composite
def dense_grids(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)], rows, cols


# -- elimination ------------------------------------------------------------------

@SETTINGS
@given(systems())
def test_rref_matches_full_reduction_reference(system):
    rows, ncols, width = system
    for stop in (ncols, width):
        pivots, leftovers = linalg._rref(rows, stop)
        want_pivots, want_leftovers = rref_full(rows, stop)
        assert pivots == want_pivots
        assert leftovers == want_leftovers
        for c, prow in pivots.items():
            assert prow[c] == ONE and all(not v.is_zero() for v in prow.values())
            assert not any(cc in pivots for cc in prow if cc != c)


@SETTINGS
@given(systems(), st.data())
def test_solvers_match_reference_elimination(system, data):
    rows, ncols, _ = system
    coeff = zero_free([{c: v for c, v in r.items() if c < ncols} for r in rows])
    n = len(coeff)
    rhs = [vec_to_sparse(tuple(data.draw(scalars) for _ in range(n)))
           for _ in range(data.draw(st.integers(0, 3)))]
    m = Matrix.from_sparse_rows(coeff, ncols)
    x = tuple(data.draw(scalars) for _ in range(ncols))
    rhs.append(vec_to_sparse(m.apply(x)))                   # always consistent

    def run():
        solver = ColumnSolver(m)
        return (solve_sparse(coeff, ncols, rhs), [solver.solve(b) for b in rhs],
                solver.rank, kernel_rows(coeff, ncols))

    got = run()
    with mock.patch.object(linalg, "_rref", rref_full):
        want = run()
    assert got == want
    assert got[0][0][-1] is not None


# -- matrices -----------------------------------------------------------------------

@SETTINGS
@given(dense_grids())
def test_constructors_store_no_zeros_and_agree(grid):
    entries, rows, cols = grid
    dense_cols = [tuple(entries[i][j] for i in range(rows)) for j in range(cols)]
    built = [
        Matrix(rows, cols, entries),
        Matrix.from_sparse_rows([vec_to_sparse(r) for r in entries], cols),
        Matrix.from_sparse_cols([vec_to_sparse(c) for c in dense_cols], rows),
        from_cols(dense_cols, rows),
    ]
    want = tuple(tuple(r) for r in entries)
    for m in built:
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries == want
        assert no_stored_zeros(m)
        assert m == built[0] and hash(m) == hash(built[0])
    for m in (Matrix.zeros(rows, cols), Matrix.identity(rows)):
        assert no_stored_zeros(m)
    assert Matrix.identity(rows).entries == tuple(
        tuple(ONE if i == j else ZERO for j in range(rows)) for i in range(rows))
    assert Matrix.zeros(rows, cols).entries == tuple((ZERO,) * cols for _ in range(rows))


@SETTINGS
@given(st.data())
def test_matrix_arithmetic_matches_dense_reference(data):
    a_grid, n, k = data.draw(dense_grids())
    a = Matrix(n, k, a_grid)
    b_grid, _, m = data.draw(dense_grids(rows=k))
    b = Matrix(k, m, b_grid)
    c = Matrix(n, k, data.draw(dense_grids(rows=n, cols=k))[0])
    s = data.draw(scalars)
    da, db, dc = DenseMatrix.of(a), DenseMatrix.of(b), DenseMatrix.of(c)
    pairs = [
        (a @ b, da @ db), (a + c, da + dc), (a - c, da - dc), (-a, -da),
        (a.scale(s), da.scale(s)), (a.transpose(), da.transpose()),
        (kronecker(a, b), kronecker_dense(da, db)),
    ]
    for got, want in pairs:
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.entries == want.entries
        assert no_stored_zeros(got)
        assert got.is_zero() == want.is_zero()
        assert got == Matrix(want.rows, want.cols, want.entries)
    assert (a - a).is_zero() and a - a == Matrix.zeros(n, k)


@SETTINGS
@given(dense_grids())
def test_matrix_json_matches_dense_rows(grid):
    entries, rows, cols = grid
    m = Matrix(rows, cols, entries)
    text = matrix_to_json(m)
    assert text == [[scalar_to_json(x) for x in r] for r in entries]
    again = matrix_from_json(text, rows, cols, "m")
    assert again == m and no_stored_zeros(again)


# -- the graded Leibniz check ----------------------------------------------------------

CALCULI = [build_chevalley(certified(matrix_derivations_chevalley(2))),
           build_chevalley(certified(abelian_torus_chevalley(2)))]


def _bumped(m: Matrix, i: int, j: int, by: Scalar) -> Matrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = rows[i][j] + by
    return from_rows(rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_graded_leibniz_witness_matches_dense_reference(data):
    # one bumped entry of d1, the wedge, or a two-form action: each of the
    # three identity families can be the first to fail
    calc = data.draw(st.sampled_from(CALCULI))
    by = data.draw(scalars.filter(lambda x: not x.is_zero()))

    def bump(m: Matrix) -> Matrix:
        return _bumped(m, data.draw(st.integers(0, m.rows - 1)),
                       data.draw(st.integers(0, m.cols - 1)), by)

    d1, wedge, w2 = calc.d1, calc.wedge_plain, calc.two_forms
    part = data.draw(st.sampled_from(["d1", "wedge", "left", "right"]))
    if part == "d1":
        d1 = bump(d1)
    elif part == "wedge":
        wedge = bump(wedge)
    else:
        a = data.draw(st.integers(0, calc.algebra.dim - 1))
        left, right = list(w2.left), list(w2.right)
        acts = left if part == "left" else right
        acts[a] = bump(acts[a])
        w2 = Bimodule(calc.algebra, w2.dim, left, right)
    broken = Calculus(calc.algebra, calc.one_forms, w2, calc.d0, d1, wedge)
    items = {item.name: item for item in validate_calculus(broken)}
    want = graded_leibniz_dense(broken)
    assert items["graded_leibniz"].witness == want
    assert items["graded_leibniz"].ok == (want is None)
