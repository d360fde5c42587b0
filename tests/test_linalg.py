"""Exact linear algebra: solve/kernel/subspace contracts and field axioms."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import (
    col,
    conjugate,
    from_rows,
    intersect,
    row_space,
    solver_kernel,
    subspace_contains,
    subspace_sum,
    vec_is_zero,
)
from tamecalc.linalg import (
    I,
    ONE,
    ZERO,
    LinAlgError,
    Matrix,
    Scalar,
    Subspace,
    _combination_rows,
    _product_rows,
    basis_vector,
    commutator_rows,
    kernel_rows,
    kronecker,
    qi,
    scalar_from_json,
    scalar_to_json,
    solve_sparse,
    solve_through,
    sparse_to_vec,
    vec_to_sparse,
)

scalars = st.builds(
    Scalar,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


def mat(rows):
    return from_rows([[qi(x) if not isinstance(x, Scalar) else x for x in r] for r in rows])


# -- scalars ----------------------------------------------------------------

def test_scalar_canonical_form():
    assert Scalar(2, 4, 6) == Scalar(1, 2, 3)
    assert Scalar(1, 0, -2) == Scalar(-1, 0, 2)
    assert Scalar(0, 0, 7) == ZERO
    assert qi("1/3") + qi("2/3") == ONE


def test_scalar_division_and_conjugate():
    x = qi(3, 4)
    assert x * x.inverse() == ONE
    assert conjugate(x) == qi(3, -4)
    assert (I * I) == qi(-1)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(scalars)
def test_scalar_json_round_trip(a):
    assert scalar_from_json(scalar_to_json(a)) == a


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.one_of(st.just(0), st.integers(-10**6, 10**6)))
def test_scalar_json_matches_fraction_form(num, den, im):
    # integers, negatives and fractions when im == 0, complex values otherwise
    s = Scalar(num, im, den)
    want = (str(Fraction(s.rn, s.dn)) if s.im == 0
            else {"re": str(Fraction(s.rn, s.dn)), "im": str(Fraction(s.im, s.dn))})
    assert scalar_to_json(s) == want


def test_scalar_json_forms():
    assert scalar_to_json(qi("3/2")) == "3/2"
    assert scalar_to_json(qi(1, -2)) == {"re": "1", "im": "-2"}
    assert scalar_from_json("5") == qi(5)
    assert scalar_from_json({"im": "1/2"}) == qi(0, "1/2")
    assert scalar_from_json(7) == qi(7)
    with pytest.raises(LinAlgError):
        scalar_from_json({"re": "1", "bogus": "2"})


def test_scalar_strings_parse_once_and_errors_still_raise():
    assert scalar_from_json("-3/4") is scalar_from_json("-3/4")
    for _ in range(2):
        with pytest.raises(ValueError):
            scalar_from_json("3/x")
        with pytest.raises(ZeroDivisionError):
            scalar_from_json("1/0")


def test_scalar_fraction_views():
    s = Scalar(3, -2, 4)
    assert s.re == Fraction(3, 4)
    assert s.imag == Fraction(-1, 2)


# -- solve ------------------------------------------------------------------

def solve(m, b):
    """One sparse right-hand side through solve_sparse: the sparse particular
    solution or None."""
    (x,), _ = solve_sparse(m.sparse_rows(), m.cols, [b])
    return x


def test_solve_one_by_one_zero_rhs():
    m = mat([[1]])
    assert solve(m, {}) == {}
    assert solve(m, {0: qi(3)}) == {0: qi(3)}
    assert m.kernel().dim == 0


def test_solve_zero_matrix_full_kernel():
    m = mat([[0]])
    assert solve(m, {}) == {}
    assert m.kernel().basis == ((ONE,),)


def test_solve_complex_rank_one_kernel():
    # Hand row-reduction over Q(i): row2 = i*row1, kernel spanned by (-i, 1).
    m = mat([[1, I], [I, -1]])
    (x,), rank = solve_sparse(m.sparse_rows(), m.cols, [{}])
    assert x == {}
    assert rank == m.rank() == 1
    assert m.kernel() == Subspace(2, [(-I, ONE)])


def test_solve_no_solution():
    m = mat([[1, 1], [1, 1]])
    assert solve(m, {0: qi(1), 1: qi(2)}) is None


def test_solve_dimension_mismatch():
    # a right-hand-side row outside the system's rows is refused
    for row in (1, 5, -1):
        with pytest.raises(LinAlgError):
            solve(mat([[1, 0]]), {0: ONE, row: ONE})


def test_solve_sparse_mixed_rhs():
    m = mat([[1, 0], [0, 0]])
    got, rank = solve_sparse(m.sparse_rows(), m.cols, [{0: ONE}, {1: ONE}])
    assert got[0] == {0: ONE}
    assert got[1] is None
    assert rank == 1


# -- kernel -----------------------------------------------------------------

def test_kernel_identity_trivial():
    assert Matrix.identity(2).kernel().dim == 0


def test_kernel_zero_matrix_full():
    k = Matrix.zeros(2, 2).kernel()
    assert k.dim == 2
    assert k.basis == (basis_vector(2, 0), basis_vector(2, 1))


def test_kernel_single_equation():
    k = mat([[1, 1]]).kernel()
    assert k.basis == ((ONE, -ONE),)


# -- subspaces --------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceOps:
    sum: Subspace
    intersection: Subspace
    contains: bool


def subspace_ops(u: Subspace, v: Subspace) -> SubspaceOps:
    """Sum, intersection and the containment test u <= v."""
    return SubspaceOps(sum=subspace_sum(u, v), intersection=intersect(u, v),
                      contains=subspace_contains(v, u))


def test_subspace_ops_coordinate_axes():
    u = Subspace(2, [basis_vector(2, 0)])
    v = Subspace(2, [basis_vector(2, 1)])
    ops = subspace_ops(u, v)
    assert ops.sum.dim == 2
    assert ops.intersection.dim == 0
    assert not ops.contains


def test_subspace_ops_identity_case():
    u = Subspace(2, [(ONE, qi(2))])
    ops = subspace_ops(u, u)
    assert ops.sum == u
    assert ops.intersection == u
    assert ops.contains


def test_subspace_ops_forced_containment():
    u = Subspace(2, [(ONE, ONE)])
    v = Subspace(2, [basis_vector(2, 0), basis_vector(2, 1)])
    assert subspace_ops(u, v).contains
    assert not subspace_ops(v, u).contains


def test_subspace_ambient_mismatch():
    with pytest.raises(LinAlgError):
        subspace_sum(Subspace(2), Subspace(3))


def test_subspace_intersection_with_zero_kernel_coefficients():
    # the kernel vector of [U^T | -V^T] has a zero coefficient on u_0
    u = Subspace(3, [basis_vector(3, 0), basis_vector(3, 1)])
    v = Subspace(3, [basis_vector(3, 1), basis_vector(3, 2)])
    assert intersect(u, v) == Subspace(3, [basis_vector(3, 1)])


def test_subspace_rows_equality_and_hash():
    u = Subspace(3, [(ONE, qi(2), ZERO), (ZERO, ONE, I)])
    v = Subspace(3, [(ONE, qi(3), I), (qi(2), qi(4), ZERO)])
    assert u == v and hash(u) == hash(v)
    assert u.basis == tuple(tuple(r.get(j, ZERO) for j in range(3)) for r in u.rows)
    assert u.dim == len(u.basis) == 2
    assert vec_is_zero(u.reduce((ONE, qi(3), I)))
    assert u.reduce((ZERO, ZERO, ONE)) == (ZERO, ZERO, ONE)
    assert u != Subspace(3, [(ONE, qi(2), ZERO)])


def test_subspace_coordinates():
    u = Subspace(3, [(ONE, ZERO, ONE), (ZERO, ONE, -ONE)])
    v = (qi(2), qi(3), -ONE)
    coords = u.coordinates(v)
    assert coords == (qi(2), qi(3))
    assert u.coordinates((ONE, ZERO, ZERO)) is None


# -- randomized exactness ---------------------------------------------------

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(scalars, min_size=m, max_size=m), min_size=n, max_size=n
        ).map(from_rows)
    )
)


def grids(n, m):
    """n x m matrices, dense or mostly zero: each row of a sparse grid is
    empty or has one or two entries, each 1 or another nonzero scalar, so
    empty rows and columns and single-entry rows are common, as in the
    structure constants."""
    dense = st.lists(st.lists(scalars, min_size=m, max_size=m), min_size=n, max_size=n)
    value = st.one_of(st.just(ONE), scalars.filter(lambda x: x != ONE and not x.is_zero()))
    row = st.dictionaries(st.integers(min_value=0, max_value=m - 1), value, max_size=2)
    sparse = st.lists(row.map(lambda r: [r.get(j, ZERO) for j in range(m)]),
                      min_size=n, max_size=n)
    return st.one_of(dense, sparse).map(from_rows)


dense_or_sparse = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(lambda m: grids(n, m)))


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.data())
def test_solve_residual_is_exactly_zero(m, data):
    x = tuple(data.draw(scalars) for _ in range(m.cols))
    b = m.apply(x)
    got = solve(m, vec_to_sparse(b))
    assert got is not None
    assert all(not v.is_zero() for v in got.values())
    assert vec_is_zero(tuple(u - v for u, v in zip(m.apply(sparse_to_vec(got, m.cols)), b)))
    for k in m.kernel().basis:
        assert vec_is_zero(m.apply(k))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity(m):
    assert m.rank() + m.kernel().dim == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrices)
@example(mat([[I, 1]]))
def test_row_space_kernel_complement(m):
    # ker(M) is the orthogonal complement of the conjugate rows under the
    # positive definite Hermitian product, so ker(M) + row(conj M) = K^cols.
    # ker(M) + row(M) need not be: for M = [[i, 1]] both are the line (1, -i).
    conj = from_rows([[conjugate(x) for x in row] for row in m.entries])
    assert subspace_sum(m.kernel(), row_space(conj)).dim == m.cols


def dense_product(a, b):
    """The triple loop over dense entries, the reference for a @ b."""
    return [[sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), ZERO)
             for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=60, deadline=None)
@given(dense_or_sparse, st.data())
def test_sparse_products_match_dense_loops(a, data):
    cols = data.draw(st.integers(min_value=1, max_value=4))
    b = data.draw(grids(a.cols, cols))
    b_rows = [dict(r) for r in b.sparse_rows()]
    want = dense_product(a, b)
    assert (a @ b).entries == tuple(map(tuple, want))
    assert _product_rows(a, b) == [vec_to_sparse(r) for r in want]
    # the sums copy the rows of b, never add into them
    assert list(b.sparse_rows()) == b_rows


@settings(max_examples=60, deadline=None)
@given(dense_or_sparse, st.data())
def test_combination_rows_match_dense_sum(m, data):
    mats = [m] + [data.draw(grids(m.rows, m.cols)) for _ in range(2)]
    coefs = [data.draw(scalars) for _ in mats]
    want = Matrix.zeros(m.rows, m.cols)
    for c, x in zip(coefs, mats):
        want = want + x.scale(c)
    got = _combination_rows(zip(coefs, mats), m.rows)
    assert got == list(want.sparse_rows())
    assert Matrix.from_sparse_rows(got, m.cols) == want


@settings(max_examples=30, deadline=None)
@given(small_matrices)
def test_sparse_cols_are_transposed_rows(m):
    assert m.sparse_cols() == m.transpose().sparse_rows()
    assert Matrix.from_sparse_cols(m.sparse_cols(), m.rows) == m


# -- matrix utilities -------------------------------------------------------

def test_inverse_round_trip():
    m = mat([[1, I], [0, 2]])
    assert m @ m.inverse() == Matrix.identity(2)
    with pytest.raises(LinAlgError):
        mat([[1, 1], [1, 1]]).inverse()


def test_solve_through_defines_map_on_spanning_set():
    # Spanning columns of K^2 with one relation; values respect it.
    span = [(ONE, ZERO), (ZERO, ONE), (ONE, ONE)]
    values = [(qi(2),), (qi(3),), (qi(5),)]
    m = solve_through(span, values, out_dim=1)
    assert m.apply((ONE, ZERO)) == (qi(2),)
    assert m.apply((ZERO, ONE)) == (qi(3),)
    # Values violating the relation admit no linear map.
    bad = [(qi(2),), (qi(3),), (qi(4),)]
    assert solve_through(span, bad, out_dim=1) is None


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_column_solver_matches_one_shot_solve(m, data):
    from tamecalc.linalg import ColumnSolver

    solver = ColumnSolver(m)
    assert solver.rank == m.rank()
    x = tuple(data.draw(scalars) for _ in range(m.cols))
    b = m.apply(x)
    got = solver.solve(vec_to_sparse(b))
    assert got is not None
    assert all(not v.is_zero() for v in got.values())
    assert m.apply(sparse_to_vec(got, m.cols)) == b
    # an unreachable rhs is refused exactly when the one-shot solve refuses it
    b2 = tuple(data.draw(scalars) for _ in range(m.rows))
    assert (solver.solve(vec_to_sparse(b2)) is None) == (solve(m, vec_to_sparse(b2)) is None)


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_solve_through_reproduces_random_map(m, data):
    # values generated by an actual map are always consistent
    out_dim = data.draw(st.integers(min_value=1, max_value=3))
    target = from_rows(
        [[data.draw(scalars) for _ in range(m.rows)] for _ in range(out_dim)])
    # append the standard basis so the columns always span the domain
    cols = [col(m, j) for j in range(m.cols)]
    cols += [basis_vector(m.rows, i) for i in range(m.rows)]
    values = [target.apply(c) for c in cols]
    got = solve_through(cols, values, out_dim=out_dim)
    assert got == target


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_column_solver_kernel_and_solution_map_come_from_its_pivots(m, data):
    from tamecalc.linalg import ColumnSolver

    solver = ColumnSolver(m)
    assert solver.kernel_rows == kernel_rows(m.sparse_rows(), m.cols)
    assert solver_kernel(solver) == m.kernel()
    x = tuple(data.draw(scalars) for _ in range(m.cols))
    b = m.apply(x)
    assert vec_to_sparse(solver.solution_map.apply(b)) == solver.solve(vec_to_sparse(b))


# -- right-linearity constraint rows -----------------------------------------

def _flat(x):
    return tuple(v for row in x.entries for v in row)


def test_commutator_rows_kernel_is_intertwiner_space():
    # X with A X == X B, found by brute force over X with entries in {-1, 0, 1}
    a1, b1 = mat([[0, 1], [0, 0]]), mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    a2, b2 = mat([[1, 0], [0, 2]]), mat([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    pairs = [(a1, b1), (a2, b2)]
    kernel = Subspace(6, kernel_rows(commutator_rows(pairs), 6))
    brute = []
    for entries in product((-1, 0, 1), repeat=6):
        x = mat([entries[:3], entries[3:]])
        if all(a @ x == x @ b for a, b in pairs):
            brute.append(_flat(x))
    assert kernel == Subspace(6, brute)
    assert kernel.dim == 2


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_commutator_rows_span_transposed_images(data):
    m = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=3))

    def square(k):
        return data.draw(grids(k, k))

    pairs = [(square(m), square(n)) for _ in range(2)]
    images = []
    for a, b in pairs:
        for pos in range(m * n):
            x = Matrix(m, n, [basis_vector(m * n, pos)[r * n:(r + 1) * n] for r in range(m)])
            images.append(_flat(a.transpose() @ x - x @ b.transpose()))
    assert Subspace(m * n, commutator_rows(pairs)) == Subspace(m * n, images)
    # the same rows in the same order as the loop over every (r, c)
    dense = []
    for a, b in pairs:
        for r in range(m):
            for c in range(n):
                row = [ZERO] * (m * n)
                for k in range(m):
                    row[k * n + c] += a.entries[r][k]
                for k in range(n):
                    row[r * n + k] -= b.entries[k][c]
                if not vec_is_zero(row):
                    dense.append(vec_to_sparse(row))
    assert commutator_rows(pairs) == dense


def test_kronecker_shape_and_values():
    a = mat([[1, 2]])
    b = mat([[0, 1], [1, 0]])
    k = kronecker(a, b)
    assert (k.rows, k.cols) == (2, 4)
    assert k.apply((ONE, ZERO, ZERO, ZERO)) == (ZERO, ONE)
    assert k.apply((ZERO, ZERO, ONE, ZERO)) == (ZERO, qi(2))
