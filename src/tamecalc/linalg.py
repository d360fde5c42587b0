"""Exact linear algebra over the Gaussian rationals Q(i).

Everything downstream (algebras, bimodules, connections) reduces to solving
linear systems over this field, so all arithmetic here is exact: a scalar is
re + im*i with re, im rational, stored over a common positive denominator
with gcd(re_num, im_num, den) == 1.  There is no floating point anywhere.

Matrices and row reduction keep rows as zero-free {column: Scalar} dicts;
the systems produced by structure constants are very sparse and this is
what makes desk-scale examples run in seconds.  Products and sums run row
by row over the nonzeros only, so an empty row or term costs no work.  Echelon bases are fully
reduced (RREF) so that a subspace has exactly one representation and
equality of subspaces is equality of bases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Sequence


class LinAlgError(ValueError):
    """Contract violation in a linear-algebra call (dimension mismatch etc.)."""


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(i), immutable and canonical.

    Internally (rn + im*i) / dn with integer rn, im, dn, dn > 0 and
    gcd(rn, im, dn) == 1.
    """

    __slots__ = ("rn", "im", "dn")

    def __init__(self, rn: int, im: int = 0, dn: int = 1):
        if dn == 0:
            raise LinAlgError("scalar with zero denominator")
        if dn < 0:
            rn, im, dn = -rn, -im, -dn
        g = gcd(rn, im, dn)
        if g > 1:
            rn //= g
            im //= g
            dn //= g
        self.rn = rn
        self.im = im
        self.dn = dn

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fractions(re: Fraction, im: Fraction = Fraction(0)) -> "Scalar":
        re = Fraction(re)
        im = Fraction(im)
        dn = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return Scalar(re.numerator * (dn // re.denominator),
                      im.numerator * (dn // im.denominator), dn)

    # -- properties ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.rn, self.dn)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.im, self.dn)

    def is_zero(self) -> bool:
        return self.rn == 0 and self.im == 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, o: "Scalar") -> "Scalar":
        ad, od = self.dn, o.dn
        return Scalar(self.rn * od + o.rn * ad, self.im * od + o.im * ad, ad * od)

    def __sub__(self, o: "Scalar") -> "Scalar":
        ad, od = self.dn, o.dn
        return Scalar(self.rn * od - o.rn * ad, self.im * od - o.im * ad, ad * od)

    def __mul__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.rn * o.rn - self.im * o.im,
                      self.rn * o.im + self.im * o.rn, self.dn * o.dn)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.rn, -self.im, self.dn)

    def inverse(self) -> "Scalar":
        n = self.rn * self.rn + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.dn * self.rn, -self.dn * self.im, n)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        return self * o.inverse()

    # -- comparison ---------------------------------------------------------

    def __eq__(self, o: object) -> bool:
        return isinstance(o, Scalar) and self.rn == o.rn and self.im == o.im and self.dn == o.dn

    def __hash__(self) -> int:
        return hash((self.rn, self.im, self.dn))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"{Fraction(self.rn, self.dn)}"
        if self.rn == 0:
            return f"{Fraction(self.im, self.dn)}i"
        return f"({Fraction(self.rn, self.dn)}+{Fraction(self.im, self.dn)}i)"

    def __bool__(self) -> bool:
        return not self.is_zero()


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(1, 0, 2)
I = Scalar(0, 1)


def qi(re: int | str | Fraction | Scalar = 0, im: int | str | Fraction = 0) -> Scalar:
    """Convenience constructor: qi(2), qi("1/3"), qi(0, 1) == i."""
    if isinstance(re, Scalar):
        if im:
            raise LinAlgError("cannot add an imaginary part to a Scalar")
        return re
    return Scalar.from_fractions(Fraction(re), Fraction(im))


def scalar_to_json(s: Scalar) -> str | dict[str, str]:
    """Exact wire form: "a/b" for rationals, {"re", "im"} otherwise."""
    if s.im == 0:
        # canonical, so gcd(rn, dn) == 1 already: no Fraction needed
        return str(s.rn) if s.dn == 1 else f"{s.rn}/{s.dn}"
    return {"re": str(s.re), "im": str(s.imag)}


def scalar_from_json(obj: int | str | dict) -> Scalar:
    if isinstance(obj, bool):
        raise LinAlgError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return Scalar(obj)
    if isinstance(obj, str):
        return _scalar_from_str(obj)
    if isinstance(obj, dict):
        extra = set(obj) - {"re", "im"}
        if extra:
            raise LinAlgError(f"unknown scalar fields {sorted(extra)}")
        parts = [obj.get(k, 0) for k in ("re", "im")]
        for x in parts:
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise LinAlgError(f"scalar field is not a string or an integer: {x!r}")
        return Scalar.from_fractions(_fraction(parts[0]), _fraction(parts[1]))
    raise LinAlgError(f"not a scalar: {obj!r}")


@lru_cache(maxsize=None)
def _scalar_from_str(text: str) -> Scalar:
    """Parse once per distinct string: spec files repeat a handful of values
    (mostly "0") hundreds of thousands of times, and a Scalar is immutable,
    so every occurrence can share one instance.  Parse errors are raised,
    never cached."""
    return Scalar.from_fractions(_fraction(text))


def _fraction(x: int | str) -> Fraction:
    """Fraction(x), refusing an exponent: Fraction expands 10**exp, so nine
    characters ("1e3000000") would cost seconds and megabytes.  Digit
    strings are already bounded by Python's int conversion limit."""
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise LinAlgError(f"exponents are not allowed: {x!r}")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Vectors: plain tuples of Scalar
# ---------------------------------------------------------------------------

Vector = tuple  # tuple[Scalar, ...]


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_to_sparse(u: Sequence[Scalar]) -> dict[int, Scalar]:
    return {j: a for j, a in enumerate(u) if a.rn or a.im}


def sparse_to_vec(s: dict[int, Scalar], n: int) -> Vector:
    return tuple(s.get(j, ZERO) for j in range(n))


# ---------------------------------------------------------------------------
# Sparse reduced row echelon form
# ---------------------------------------------------------------------------

def _axpy(row: dict[int, Scalar], coef: Scalar, src: dict[int, Scalar], skip: int) -> None:
    """row += coef * src in place, over every column of src except skip;
    coef is nonzero, so only a column row already has can cancel."""
    unit = coef == ONE
    for cc, v in src.items():
        if cc == skip:
            continue
        x = v if unit else coef * v
        cur = row.get(cc)
        if cur is None:
            row[cc] = x
        else:
            nv = cur + x
            if nv.is_zero():
                del row[cc]
            else:
                row[cc] = nv


def _lincomb(terms: Iterable[tuple[Scalar, dict[int, Scalar]]]) -> dict[int, Scalar]:
    """Sparse sum of coef * row over the given terms, zeros dropped.

    Empty rows and zero coefficients are skipped; the first remaining term
    is copied (scaled) rather than added into an empty dict, with the keys
    in the order adding it would give."""
    out: dict[int, Scalar] | None = None
    for coef, row in terms:
        if not row or coef.is_zero():
            continue
        if out is None:
            out = dict(row) if coef == ONE else {c: coef * v for c, v in row.items()}
        else:
            _axpy(out, coef, row, -1)
    return {} if out is None else out


def _eliminate(row: dict[int, Scalar], pivots: dict[int, dict[int, Scalar]]) -> dict[int, Scalar]:
    """Substitute every pivot column present in row; returns the removed
    coefficients by pivot column.  Pivot rows contain no other pivot columns,
    so one pass suffices."""
    removed = {}
    for c in [c for c in row if c in pivots]:
        coef = row.pop(c)
        removed[c] = coef
        _axpy(row, -coef, pivots[c], c)
    return removed


def _rref(rows: Iterable[dict[int, Scalar]], stop_col: int) -> tuple[dict[int, dict[int, Scalar]], list[dict[int, Scalar]]]:
    """Sparse RREF in two phases: echelon form, then one back-substitution.

    Columns >= stop_col are never chosen as pivots (they carry augmented
    right-hand sides).  Each incoming row is reduced against the pivot rows
    in ascending pivot-column order; pivot rows stay in echelon form (entries
    only right of their pivot) until every row is in, and are then fully
    reduced once, in descending pivot order.  Returns (pivots, leftovers)
    where pivots maps a pivot column to its fully reduced row (pivot entry 1,
    no other pivot columns), and leftovers are surviving nonzero rows
    supported on cols >= stop_col.  The pivot rows are the canonical RREF:
    each is the unique combination of the rows that opened a pivot with
    entry 1 at its pivot and 0 at the others, whatever the route to it.
    """
    pivots: dict[int, dict[int, Scalar]] = {}
    leftovers: list[dict[int, Scalar]] = []
    for raw in rows:
        row = {c: v for c, v in raw.items() if not v.is_zero()}
        _reduce_echelon(row, pivots)
        if not row:
            continue
        elig = [c for c in row if c < stop_col]
        if not elig:
            leftovers.append(row)
            continue
        c = min(elig)
        inv = row[c].inverse()
        if inv == ONE:
            pivots[c] = row
        else:
            newrow = {cc: v * inv for cc, v in row.items()}
            newrow[c] = ONE
            pivots[c] = newrow
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        for cc in [cc for cc in prow if cc != c and cc in pivots]:
            _axpy(prow, -prow.pop(cc), pivots[cc], cc)
    return pivots, leftovers


def _reduce_echelon(row: dict[int, Scalar], pivots: dict[int, dict[int, Scalar]]) -> None:
    """Clear every pivot column from row in place, against echelon pivot
    rows, smallest column first: clearing column c only brings in columns
    right of c, so each pivot column is cleared at most once."""
    heap = [c for c in row if c in pivots]
    heapify(heap)
    while heap:
        c = heappop(heap)
        coef = row.pop(c, None)
        if coef is None:        # cancelled, or queued twice
            continue
        prow = pivots[c]
        for cc in prow:
            if cc != c and cc not in row and cc in pivots:
                heappush(heap, cc)
        _axpy(row, -coef, prow, c)


def rref_rows(rows: Iterable[Sequence[Scalar] | dict[int, Scalar]], ncols: int) -> list[dict[int, Scalar]]:
    """Canonical RREF basis (sparse rows sorted by pivot column) of a row span."""
    sparse = (r if isinstance(r, dict) else vec_to_sparse(r) for r in rows)
    pivots, _ = _rref(sparse, ncols)
    return [pivots[c] for c in sorted(pivots)]


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of K^n held as a canonical reduced-echelon basis.

    rows are the sparse RREF rows sorted by pivot column; the dense basis is
    built from them on first read.  Two Subspace objects are equal iff they
    are the same subspace; the canonical basis makes this a structural
    comparison.
    """

    __slots__ = ("ambient_dim", "rows", "_pivots", "_index", "_basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Scalar] | dict[int, Scalar]] = ()):
        self.ambient_dim = ambient_dim
        self.rows: tuple[dict[int, Scalar], ...] = tuple(rref_rows(vectors, ambient_dim))
        self._pivots = {min(r): r for r in self.rows}
        self._index = {c: k for k, c in enumerate(self._pivots)}   # pivot column -> basis index
        self._basis: tuple[Vector, ...] | None = None

    @property
    def basis(self) -> tuple[Vector, ...]:
        if self._basis is None:
            self._basis = tuple(sparse_to_vec(r, self.ambient_dim) for r in self.rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar]) -> Vector:
        """Residual of v modulo this subspace (zero iff v is a member)."""
        return sparse_to_vec(self._residual(vec_to_sparse(v)), self.ambient_dim)

    def _residual(self, row: dict[int, Scalar]) -> dict[int, Scalar]:
        """row reduced in place modulo this subspace (empty iff a member);
        what is left lies on the complement positions."""
        _eliminate(row, self._pivots)
        return row

    def coordinates(self, v: Sequence[Scalar]) -> Vector | None:
        """Coordinates of v in self.basis, or None if v is not in the span."""
        c = self.coordinates_sparse(vec_to_sparse(v))
        return None if c is None else sparse_to_vec(c, self.dim)

    def coordinates_sparse(self, row: dict[int, Scalar]) -> dict[int, Scalar] | None:
        """Sparse coordinates (basis index -> coefficient) of a sparse vector,
        which is reduced in place; None if it is not in the span."""
        removed = _eliminate(row, self._pivots)
        if row:
            return None
        return {self._index[c]: v for c, v in removed.items()}

    def complement_positions(self) -> list[int]:
        """Coordinate positions whose standard vectors complement this subspace."""
        return [j for j in range(self.ambient_dim) if j not in self._pivots]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Immutable matrix over Q(i) acting on column vectors.

    It holds its zero-free sparse rows and nothing else; the sparse columns
    are built on first use and cached.  `entries` is a dense view, built on
    every read, for I/O, witnesses and tests.  Every constructor and every
    operation works on sparse rows, so no stored entry is ever zero.
    """

    __slots__ = ("rows", "cols", "_rows", "_cols")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Scalar]]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise LinAlgError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self._rows: tuple[dict[int, Scalar], ...] = tuple(vec_to_sparse(r) for r in entries)
        self._cols: tuple[dict[int, Scalar], ...] | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(rows: int, cols: int, sparse_rows: Sequence[dict[int, Scalar]],
            sparse_cols: Sequence[dict[int, Scalar]] | None = None) -> "Matrix":
        m = object.__new__(Matrix)
        m.rows = rows
        m.cols = cols
        m._rows = tuple(sparse_rows)
        m._cols = None if sparse_cols is None else tuple(sparse_cols)
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, [{i: ONE} for i in range(n)])

    @staticmethod
    def from_sparse_rows(sparse: Sequence[dict[int, Scalar]], cols: int) -> "Matrix":
        """The matrix with the given zero-free sparse rows, which it keeps
        (callers must not mutate them afterwards)."""
        return Matrix._of(len(sparse), cols, sparse)

    @staticmethod
    def from_sparse_cols(sparse: Sequence[dict[int, Scalar]], rows: int) -> "Matrix":
        """The matrix with the given zero-free sparse columns, which it keeps
        as its column cache (callers must not mutate them afterwards)."""
        out: list[dict[int, Scalar]] = [{} for _ in range(rows)]
        for j, col in enumerate(sparse):
            for i, v in col.items():
                out[i][j] = v
        return Matrix._of(rows, len(sparse), out, sparse)

    # -- access -------------------------------------------------------------

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The dense rows, built on every read."""
        return tuple(sparse_to_vec(r, self.cols) for r in self._rows)

    def sparse_rows(self) -> tuple[dict[int, Scalar], ...]:
        return self._rows

    def sparse_cols(self) -> tuple[dict[int, Scalar], ...]:
        if self._cols is None:
            cols: list[dict[int, Scalar]] = [{} for _ in range(self.cols)]
            for i, row in enumerate(self._rows):
                for j, v in row.items():
                    cols[j][i] = v
            self._cols = tuple(cols)
        return self._cols

    # -- arithmetic ---------------------------------------------------------

    def apply(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise LinAlgError(f"apply: vector of dim {len(v)} to {self.rows}x{self.cols} matrix")
        out = [ZERO] * self.rows
        for i, row in enumerate(self._rows):
            acc = ZERO
            for j, a in row.items():
                x = v[j]
                if not x.is_zero():
                    acc = acc + a * x
            out[i] = acc
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix._of(self.rows, other.cols, _product_rows(self, other))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(ONE, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(-ONE, other)

    def _combine(self, c: Scalar, other: "Matrix") -> "Matrix":
        """self + c * other, row by row."""
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")
        return Matrix._of(self.rows, self.cols,
                          [_lincomb(((ONE, a), (c, b))) for a, b in zip(self._rows, other._rows)])

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, [{j: -a for j, a in r.items()} for r in self._rows])

    def scale(self, c: Scalar) -> "Matrix":
        if c.is_zero():
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._of(self.rows, self.cols,
                          [{j: c * a for j, a in r.items()} for r in self._rows])

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, self.sparse_cols(), self._rows)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    # -- rank / kernel / solve ---------------------------------------------

    def rank(self) -> int:
        pivots, _ = _rref(iter(self._rows), self.cols)
        return len(pivots)

    def kernel(self) -> Subspace:
        """Exact null space {x : Mx = 0} with canonical echelon basis."""
        return Subspace(self.cols, kernel_rows(self._rows, self.cols))

    def column_space(self) -> Subspace:
        return Subspace(self.rows, self.sparse_cols())

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise LinAlgError("inverse of a non-square matrix")
        sols, _ = solve_sparse(self._rows, self.cols, [{i: ONE} for i in range(self.rows)])
        if any(s is None for s in sols):
            raise LinAlgError("matrix is singular")
        return Matrix.from_sparse_cols(sols, self.cols)


def _combination_rows(terms: Iterable[tuple[Scalar, Matrix]], nrows: int) -> list[dict[int, Scalar]]:
    """Sparse rows of sum c_i M_i over the (c_i, M_i) terms, each M_i with
    nrows rows.  Only the rows that some term with a nonzero coefficient
    has nonempty are summed; the others are {}."""
    mats = [(c, m.sparse_rows()) for c, m in terms if not c.is_zero()]
    live = {r for _, rows in mats for r, row in enumerate(rows) if row}
    return [_lincomb((c, rows[r]) for c, rows in mats) if r in live else {}
            for r in range(nrows)]


def _product_rows(a: Matrix, b: Matrix) -> list[dict[int, Scalar]]:
    """Sparse rows of a @ b, row by row over the nonzeros of a (Gustavson):
    an empty row of a gives {} without a sum."""
    if a.cols != b.rows:
        raise LinAlgError(f"matmul shape mismatch: {a.cols} vs {b.rows}")
    brows = b.sparse_rows()
    return [_lincomb((v, brows[k]) for k, v in row.items()) if row else {}
            for row in a.sparse_rows()]


def _apply_sparse(m: Matrix, v: dict[int, Scalar]) -> dict[int, Scalar]:
    """m applied to a sparse vector, summed over the cached sparse columns."""
    cols = m.sparse_cols()
    return _lincomb((c, cols[j]) for j, c in v.items())


def kernel_rows(rows: Iterable[dict[int, Scalar]], ncols: int) -> list[dict[int, Scalar]]:
    """Kernel basis (sparse) of the system {row . x = 0 for each row}."""
    pivots, _ = _rref(iter(rows), ncols)
    return _kernel_of(pivots, ncols)


def _kernel_of(pivots: dict[int, dict[int, Scalar]], ncols: int) -> list[dict[int, Scalar]]:
    """The kernel basis that RREF pivot rows give, one vector per free column
    below ncols; entries at or beyond ncols (augmented columns) are ignored."""
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        vec: dict[int, Scalar] = {f: ONE}
        for c, prow in pivots.items():
            a = prow.get(f)
            if a is not None:
                vec[c] = -a
        out.append(vec)
    return out


def commutator_rows(pairs: Iterable[tuple[Matrix, Matrix]]) -> list[dict[int, Scalar]]:
    """Sparse rows of X -> A X - X B for each pair (A, B), X flattened row-major.

    Their common kernel is the space of X with A X == X B for every pair.
    Read as vectors, the rows span the images of X -> A^T X - X B^T, which
    is how QuotientTensor poses its middle-linearity relations.  Zero rows
    are dropped: the row of (r, c) can be nonzero only when row r of A or
    column c of B is, so only those pairs are visited, in (r, c) order.
    """
    rows = []
    for a, b in pairs:
        n = b.rows
        a_rows = a.sparse_rows()
        minus_b_cols = [{k: -v for k, v in col.items()} for col in b.sparse_cols()]
        live_cols = [c for c in range(n) if minus_b_cols[c]]
        for r in range(a.rows):
            a_row = a_rows[r]
            for c in (range(n) if a_row else live_cols):
                row = {k * n + c: v for k, v in a_row.items()}
                if minus_b_cols[c]:
                    _axpy(row, ONE, {r * n + k: v for k, v in minus_b_cols[c].items()}, -1)
                if row:
                    rows.append(row)
    return rows


def solve_sparse(rows: Sequence[dict[int, Scalar]], ncols: int,
                 rhs_list: Sequence[dict[int, Scalar]]
                 ) -> tuple[list[dict[int, Scalar] | None], int]:
    """Solve a sparse row system for several sparse right-hand sides
    ({row: Scalar}) with one elimination, each augmented as one extra column.

    Returns one particular solution per right-hand side, a zero-free
    {column: Scalar} dict (None when that system is inconsistent), and the
    rank of the coefficient part.  Free variables are pinned to zero, which
    makes every solution canonical and reruns deterministic.
    """
    aug = [dict(row) for row in rows]
    for t, b in enumerate(rhs_list):
        for i, v in b.items():
            if not 0 <= i < len(aug):
                raise LinAlgError(f"solve_sparse: rhs row {i} outside {len(aug)} rows")
            aug[i][ncols + t] = v
    pivots, leftovers = _rref(aug, ncols)
    bad = {c - ncols for row in leftovers for c in row}
    order = sorted(pivots)
    out: list[dict[int, Scalar] | None] = []
    for t in range(len(rhs_list)):
        if t in bad:
            out.append(None)
            continue
        x = {}
        for c in order:
            v = pivots[c].get(ncols + t)
            if v is not None:
                x[c] = v
        out.append(x)
    return out, len(pivots)


def solve_through(span_cols: Sequence[Sequence[Scalar] | dict[int, Scalar]],
                  value_cols: Sequence[Sequence[Scalar] | dict[int, Scalar]],
                  out_dim: int, in_dim: int | None = None) -> Matrix | None:
    """Find M with M @ span_cols[j] == value_cols[j] for every j.

    This is how a linear map gets defined by its values on a spanning set:
    it exists iff every linear relation among the spanning columns is
    satisfied by the values.  Returns None when no such map exists, and
    raises if the columns do not span the domain (the map would be
    underdetermined).  Columns may be dense or sparse; in_dim, the domain
    dimension, is read off the first dense span column when not given.

    The engine has no caller: a map out of a centered bimodule is fixed by
    `bimodule.CentralGenerators.extend`.  This stays as the tests' oracle for
    it, and because the benchmark's span recorder wraps it.
    """
    if len(span_cols) != len(value_cols):
        raise LinAlgError("solve_through: span/value length mismatch")
    if in_dim is None:
        in_dim = len(span_cols[0]) if span_cols else 0
    # Transposed system: span^T  M^T = value^T, one RHS per output coordinate.
    rhs: list[dict[int, Scalar]] = [{} for _ in range(out_dim)]
    for j, v in enumerate(value_cols):
        for i, x in (v if isinstance(v, dict) else vec_to_sparse(v)).items():
            rhs[i][j] = x
    rows = [c if isinstance(c, dict) else vec_to_sparse(c) for c in span_cols]
    sols, rank = solve_sparse(rows, in_dim, rhs)
    if rank != in_dim:
        raise LinAlgError("solve_through: columns do not span the domain")
    if any(s is None for s in sols):
        return None
    return Matrix.from_sparse_rows(sols, in_dim)


class ColumnSolver:
    """Reusable solver for M x = b with fixed M and many later b's.

    Eliminates once with an identity augmentation; each solve of a sparse
    b is then a check against the rows that eliminated to zero and one
    sparse product with the solution map.  Free variables are pinned to
    zero so solutions are canonical.  The same pivots give a kernel basis
    of M.
    """

    def __init__(self, m: Matrix):
        self.m = m
        n = m.cols
        rows = []
        for i, row in enumerate(m.sparse_rows()):
            r = dict(row)
            r[n + i] = ONE
            rows.append(r)
        pivots, leftovers = _rref(iter(rows), n)
        self._pivots = {c: {j - n: v for j, v in prow.items() if j >= n}
                        for c, prow in pivots.items()}
        self._leftovers = [{j - n: v for j, v in row.items()} for row in leftovers]
        self.rank = len(pivots)
        # a sparse kernel basis of M
        self.kernel_rows = _kernel_of(pivots, n)

    def solve(self, b: dict[int, Scalar]) -> dict[int, Scalar] | None:
        """The canonical solution of M x = b for a sparse b, sparse, or None
        when b is not in M's column space."""
        for row in self._leftovers:
            acc = ZERO
            for i, v in row.items():
                x = b.get(i)
                if x is not None:
                    acc = acc + v * x
            if not acc.is_zero():
                return None
        return _apply_sparse(self.solution_map, b)

    @cached_property
    def solution_map(self) -> "Matrix":
        """The matrix P with solve(b) == P b for every b that has a solution;
        column t is the canonical solution of M x = e_t when M's columns span."""
        return Matrix.from_sparse_rows([self._pivots.get(c, {}) for c in range(self.m.cols)],
                                       self.m.rows)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with (i, j) -> i * b.rows + j index flattening."""
    brows = b.sparse_rows()
    return Matrix._of(a.rows * b.rows, a.cols * b.cols,
                      [{j * b.cols + q: aij * bpq for j, aij in arow.items() for q, bpq in brow.items()}
                       for arow in a.sparse_rows() for brow in brows])
