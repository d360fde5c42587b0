"""Differential calculi and the constructive tameness check.

A calculus is (one-forms E, two-forms, d0, d1, wedge).  The wedge is given
on the plain tensor space of E (x)_K E and must factor through E (x)_A E.
A failed axiom or tameness condition comes back as a value, never raised:
the check command is a diagnostic tool.

A calculus is tame when its central flip extends to a bimodule symmetry
sigma.  That is defined only on a valid calculus, so `build_symmetry`,
like `validate_metric` and `leibniz_witness`, requires `Calculus.validated`.
It takes E (x)_A E over the central tensors pi(z_p (x) z_q) as one
`CentralGenerators`, and sigma is the flip on them extended right-linearly.
On a valid calculus just two conditions can fail, each a `Refusal`: E
centered (`NotCentered`), and the symmetrizer projecting onto ker(wedge)
(`PsymRangeMismatch`).  The rest hold once E is centered, so a failure of
one raises `InternalInconsistencyError`:

* the central tensors span: for e = sum z_i a_i and f = sum z_j b_j,
  e (x) f = sum (z_i (x) z_j) a_i b_j, as a_i z_j = z_j a_i;
* the flip is well defined: E is the free bimodule on the z_j modulo the
  relations sum_j z_j w_j = 0, so E (x)_A E is Z (x) Z (x) A modulo the
  families sum_j z_p (x) z_j (x) w_j c and sum_j z_j (x) z_p (x) w_j c,
  which the flip swaps;
* sigma is a bimodule map, as the central tensors are central; this one
  is not checked (the tests' `CertificateParts` flags hold it);
* the complement of ker(wedge) has dimension dim Omega^2, as
  `wedge_middle_linear` and `wedge_surjective` make the wedge on quotient
  coordinates onto the two-forms.

The axioms that read "for every a in A" run over the algebra's generators
(`Algebra.first_failure`) once the axioms before them passed on a validated
algebra: then the a where one holds form a unital subalgebra.  Only d0's
Leibniz rule needs the unit checked too, as d(1) == 0.  Any failure reruns
the check over the whole basis, so every witness is the first in basis
order.  `Calculus.validated` records a fully passed report over a
validated algebra; the checks that require it run over the generators.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from .algebra import Algebra
from .bimodule import (
    Bimodule,
    CentralGenerators,
    QuotientTensor,
    _tensor_left_apply,
    _tensor_right_apply,
    missing_direction,
    tensor_over_A,
)
from .errors import ContractViolationError, InternalInconsistencyError, Refusal
from .linalg import (
    HALF,
    Matrix,
    ONE,
    Scalar,
    Subspace,
    _apply_sparse,
    _lincomb,
    _product_rows,
)


class Calculus:
    """The data (A, E, Omega^2, d0, d1, wedge) with cached tensor square."""

    def __init__(self, algebra: Algebra, one_forms: Bimodule, two_forms: Bimodule,
                 d0: Matrix, d1: Matrix, wedge_plain: Matrix):
        e, w2 = one_forms, two_forms
        if d0.rows != e.dim or d0.cols != algebra.dim:
            raise ContractViolationError("calculus: d0 must map algebra coords to one-form coords")
        if d1.rows != w2.dim or d1.cols != e.dim:
            raise ContractViolationError("calculus: d1 must map one-form coords to two-form coords")
        if wedge_plain.rows != w2.dim or wedge_plain.cols != e.dim * e.dim:
            raise ContractViolationError("calculus: wedge must map the plain tensor square to two-forms")
        self.algebra = algebra
        self.one_forms = e
        self.two_forms = w2
        self.d0 = d0
        self.d1 = d1
        self.wedge_plain = wedge_plain
        self.validated = False

    @cached_property
    def tensor_square(self) -> QuotientTensor:
        return tensor_over_A(self.one_forms, self.one_forms)

    @cached_property
    def wedge_q(self) -> Matrix:
        """The wedge on quotient coordinates of E (x)_A E."""
        return self.wedge_plain @ self.tensor_square.section

    def wedge_terms(self, e_vec: dict[int, Scalar], f_vec: dict[int, Scalar],
                    c: Scalar = ONE) -> list[tuple[Scalar, dict[int, Scalar]]]:
        """c wedge(e (x) f) for sparse one-forms, as _lincomb terms over the
        sparse columns of the wedge on plain tensors."""
        n = self.one_forms.dim
        cols = self.wedge_plain.sparse_cols()
        return [(c * a * b, cols[s * n + t]) for s, a in e_vec.items() for t, b in f_vec.items()]

    def __repr__(self) -> str:
        return (f"Calculus(dim A={self.algebra.dim}, dim E={self.one_forms.dim}, "
                f"dim Omega2={self.two_forms.dim})")


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

class CheckItem:
    """One axiom's result: its name and its failure's text, None if it holds."""

    __slots__ = ("name", "witness")

    def __init__(self, name: str, witness: str | None):
        self.name, self.witness = name, witness

    @property
    def ok(self) -> bool:
        return self.witness is None


class CalculusReport:
    __slots__ = ("items",)

    def __init__(self, items: tuple[CheckItem, ...]):
        self.items = items

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def __iter__(self) -> Iterator[CheckItem]:
        return iter(self.items)


def validate_calculus(calc: Calculus) -> CalculusReport:
    """Run every calculus axiom; each item holds the text its axiom returns
    on a failure.

    An axiom over the algebra runs on its generators when every earlier item
    passed on a validated algebra, and records calc.validated at the end."""
    items: list[CheckItem] = []
    alg = calc.algebra
    e = calc.one_forms
    w2 = calc.two_forms
    nA, nE = alg.dim, e.dim

    def ready() -> bool:
        return alg.validated and all(item.ok for item in items)

    def check(name: str, witness: str | None) -> None:
        items.append(CheckItem(name, witness))

    d0 = calc.d0.sparse_cols()

    def d0_leibniz():
        def pairs(firsts: Sequence[int]) -> str | None:
            for i in firsts:
                for j in range(nA):
                    lhs = _apply_sparse(calc.d0, alg.sparse_mul[i][j])
                    rhs = _lincomb(((ONE, _apply_sparse(e.right[j], d0[i])),
                                    (ONE, _apply_sparse(e.left[i], d0[j]))))
                    if lhs != rhs:
                        return f"d(ab) != da.b + a.db at basis pair ({alg.labels[i]}, {alg.labels[j]})"
            return None

        # the unit is in the subalgebra exactly when d(1) == 0
        unit_ok = not _apply_sparse(calc.d0, alg.sparse_unit)
        return alg.first_failure(pairs, ready() and unit_ok)

    def d_squared():
        if not (calc.d1 @ calc.d0).is_zero():
            return "d1 . d0 != 0"
        return None

    def wedge_middle_linear():
        if calc.tensor_square.first_unkilled(calc.wedge_plain) is not None:
            return "wedge does not vanish on the (x)_A relation subspace"
        return None

    def wedge_bimodule_map():
        # W (L_a (x) 1) == L_a W and W (1 (x) R_a) == R_a W, compared per a
        # as whole sparse products: row y of W (L_a (x) 1) is (L_a^T (x) 1)
        # applied to row y of W.  Column s*nE + t of either side is its value
        # on e_s (x) e_t, so the witness is the first column where a side
        # differs, the left identity first, of the first failing a.
        w_rows = calc.wedge_plain.sparse_rows()

        def actions(indices: Sequence[int]) -> str | None:
            for i in indices:
                lt, rt = e.left[i].transpose(), e.right[i].transpose()
                left = _differing_columns([_tensor_left_apply(lt, nE, row) for row in w_rows],
                                          _product_rows(w2.left[i], calc.wedge_plain))
                right = _differing_columns([_tensor_right_apply(rt, nE, row) for row in w_rows],
                                           _product_rows(w2.right[i], calc.wedge_plain))
                if left or right:
                    col = min(left | right)
                    s, t = divmod(col, nE)
                    if col in left:
                        return f"wedge(a e (x) f) != a wedge(e (x) f) at (a={alg.labels[i]}, {s}, {t})"
                    return f"wedge(e (x) f a) != wedge(e (x) f) a at (a={alg.labels[i]}, {s}, {t})"
            return None

        return alg.first_failure(actions, ready())

    def graded_leibniz():
        # d(da.b) = -da ^ db, d(a.w) = da ^ w + a.dw, d(w.a) = dw.a - w ^ da,
        # on the sparse columns of d0, d1, the wedge and the actions
        d1 = calc.d1.sparse_cols()

        def identities(indices: Sequence[int]) -> str | None:
            for i in indices:
                for j in range(nA):
                    lhs = _apply_sparse(calc.d1, _apply_sparse(e.right[j], d0[i]))
                    if lhs != _lincomb(calc.wedge_terms(d0[i], d0[j], -ONE)):
                        return f"d(da.b) != -da^db at ({alg.labels[i]}, {alg.labels[j]})"
            for i in indices:
                el, er = e.left[i].sparse_cols(), e.right[i].sparse_cols()
                wl, wr = w2.left[i].sparse_cols(), w2.right[i].sparse_cols()
                for s in range(nE):
                    es = {s: ONE}
                    lhs = _apply_sparse(calc.d1, el[s])
                    rhs = _lincomb([*calc.wedge_terms(d0[i], es),
                                    *((c, wl[r]) for r, c in d1[s].items())])
                    if lhs != rhs:
                        return f"d(a.w) != da^w + a.dw at (a={alg.labels[i]}, w={s})"
                    lhs = _apply_sparse(calc.d1, er[s])
                    rhs = _lincomb([*((c, wr[r]) for r, c in d1[s].items()),
                                    *calc.wedge_terms(es, d0[i], -ONE)])
                    if lhs != rhs:
                        return f"d(w.a) != dw.a - w^da at (a={alg.labels[i]}, w={s})"
            return None

        return alg.first_failure(identities, ready())

    def spanned_by_da_b():
        cols = [_apply_sparse(e.right[j], d0[i]) for i in range(nA) for j in range(nA)]
        if Subspace(nE, cols).dim != nE:
            return "one-forms are not the right-linear span of {da.b}"
        return None

    def wedge_surjective():
        if calc.wedge_plain.rank() != w2.dim:
            return "wedge does not reach all of the two-forms"
        return None

    # each axiom runs after the items before it are recorded, for ready()
    check("one_forms_bimodule_axioms", e.validate())
    check("two_forms_bimodule_axioms", w2.validate())
    check("d0_leibniz", d0_leibniz())
    check("d_squared_zero", d_squared())
    check("wedge_middle_linear", wedge_middle_linear())
    check("wedge_bimodule_map", wedge_bimodule_map())
    check("graded_leibniz", graded_leibniz())
    check("one_forms_spanned_by_exact_forms", spanned_by_da_b())
    check("wedge_surjective", wedge_surjective())
    calc.validated = ready()
    return CalculusReport(tuple(items))


def _differing_columns(lhs: list[dict[int, Scalar]], rhs: list[dict[int, Scalar]]) -> set[int]:
    """The columns where two matrices, given by their sparse rows, differ."""
    return {k for a, b in zip(lhs, rhs) if a != b
            for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


# ---------------------------------------------------------------------------
# Tameness: the symmetry sigma
# ---------------------------------------------------------------------------

def build_symmetry(calc: Calculus) -> Matrix | Refusal:
    """The bimodule symmetry sigma of the tensor square of a validated
    calculus, or its refusal: `NotCentered` or `PsymRangeMismatch`.

    E (x)_A E is taken over its central tensors pi(z_p (x) z_q), and sigma
    is the right-linear map that flips their legs.
    """
    if not calc.validated:
        raise ContractViolationError("build_symmetry: the calculus is not validated")
    e = calc.one_forms
    qt = calc.tensor_square
    gens = e.central_generators
    if not gens.spans:
        return Refusal("NotCentered",
                       "the center of the one-forms does not generate them as a right module",
                       missing_direction(e))
    zs = gens.zs
    span = CentralGenerators(qt.bimodule, [qt.pure_sparse(zp, zq) for zp in zs for zq in zs])
    if not span.spans:
        raise InternalInconsistencyError("the central tensors do not span the tensor square")
    k = len(zs)
    sigma = span.extend([_apply_sparse(qt.bimodule.right[r], span.zs[q * k + p])
                         for p in range(k) for q in range(k) for r in range(calc.algebra.dim)],
                        qt.dim)
    if not (sigma @ sigma == Matrix.identity(qt.dim)):
        raise InternalInconsistencyError("flip extension failed to be an involution")

    p_sym = (Matrix.identity(qt.dim) + sigma).scale(HALF)
    kernel_wedge = calc.wedge_q.kernel()
    ran_p = p_sym.column_space()
    if ran_p != kernel_wedge:
        # the first basis row of either space outside the other, searched on
        # copies of the sparse rows, is the witness
        witness = next(dict(row) for space, other in ((ran_p, kernel_wedge), (kernel_wedge, ran_p))
                       for row in space.rows if other._residual(dict(row)))
        return Refusal("PsymRangeMismatch",
                       "the symmetrizer image differs from the kernel of the wedge", witness)
    if qt.dim - kernel_wedge.dim != calc.two_forms.dim:
        raise InternalInconsistencyError("the complement of ker(wedge) and the two-forms "
                                         "differ in dimension")
    return sigma
