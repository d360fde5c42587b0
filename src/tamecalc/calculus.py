"""Differential calculi and the constructive tameness certificate.

A calculus is (one-forms E, two-forms, d0, d1, wedge).  The wedge is given
on the plain tensor space of E (x)_K E and must factor through E (x)_A E.
Tameness is certified constructively.  E (x)_A E is taken over its central
tensors pi(z_p (x) z_q) as one `CentralGenerators`, the certificate's
`spanning`; sigma, the metric and the compatibility map are each fixed by
their values on it.  The candidate symmetry sigma is the flip on central
tensors extended right-linearly; the construction succeeds exactly when the
central tensors span and the flip respects every linear relation among
their right translates, and the certificate then packages sigma, the
symmetrizer, the complement of ker(wedge) and the inverse of the wedge on
that complement.  Failures are returned as data, never raised: the check
command is a diagnostic tool.

The axioms that read "for every a in A" run over the algebra's generators
(`Algebra.first_failure`) once the axioms before them passed on a validated
algebra: then the a where one holds form a unital subalgebra.  Only d0's
Leibniz rule needs the unit checked too, as d(1) == 0.  Any failure reruns
the check over the whole basis, so every witness is the first in basis
order.  `Calculus.validated` records a fully passed report over a
validated algebra; the symmetry, the metric and the connection layer read
it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .algebra import Algebra
from .bimodule import (
    Bimodule,
    CentralGenerators,
    QuotientTensor,
    _tensor_left_apply,
    _tensor_right_apply,
    tensor_over_A,
)
from .errors import ContractViolationError, InternalInconsistencyError
from .linalg import (
    HALF,
    LinAlgError,
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

@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class CalculusReport:
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def __iter__(self) -> Iterator[CheckItem]:
        return iter(self.items)


def validate_calculus(calc: Calculus) -> CalculusReport:
    """Run every calculus axiom; failures are report entries with witnesses.

    An axiom over the algebra runs on its generators when every earlier item
    passed on a validated algebra, and records calc.validated at the end."""
    items: list[CheckItem] = []
    alg = calc.algebra
    e = calc.one_forms
    w2 = calc.two_forms
    nA, nE = alg.dim, e.dim

    def ready() -> bool:
        return alg.validated and all(item.ok for item in items)

    def check(name: str, fn) -> None:
        try:
            witness = fn()
        except ContractViolationError as exc:
            items.append(CheckItem(name, False, str(exc)))
            return
        items.append(CheckItem(name, witness is None, witness))

    def axioms_one_forms():
        e.validate()
        return None

    def axioms_two_forms():
        w2.validate()
        return None

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
        # applied to row y of W.  Only where they differ is the witness
        # searched on sparse columns, where column s*nE + t of W is
        # wedge(e_s (x) e_t), in (s, t) order, so it is the first failing
        # pair of the first failing a.
        w = calc.wedge_plain.sparse_cols()
        w_rows = calc.wedge_plain.sparse_rows()

        def holds(i: int) -> bool:
            lt, rt = e.left[i].transpose(), e.right[i].transpose()
            return ([_tensor_left_apply(lt, nE, row) for row in w_rows]
                    == _product_rows(w2.left[i], calc.wedge_plain)
                    and [_tensor_right_apply(rt, nE, row) for row in w_rows]
                    == _product_rows(w2.right[i], calc.wedge_plain))

        def actions(indices: Sequence[int]) -> str | None:
            for i in indices:
                if holds(i):
                    continue
                le, lw = e.left[i].sparse_cols(), w2.left[i].sparse_cols()
                re, rw = e.right[i].sparse_cols(), w2.right[i].sparse_cols()
                for s in range(nE):
                    for t in range(nE):
                        base = w[s * nE + t]
                        lhs = _lincomb((a, w[u * nE + t]) for u, a in le[s].items())
                        if lhs != _lincomb((c, lw[r]) for r, c in base.items()):
                            return f"wedge(a e (x) f) != a wedge(e (x) f) at (a={alg.labels[i]}, {s}, {t})"
                        rhs = _lincomb((a, w[s * nE + u]) for u, a in re[t].items())
                        if rhs != _lincomb((c, rw[r]) for r, c in base.items()):
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

    check("one_forms_bimodule_axioms", axioms_one_forms)
    check("two_forms_bimodule_axioms", axioms_two_forms)
    check("d0_leibniz", d0_leibniz)
    check("d_squared_zero", d_squared)
    check("wedge_middle_linear", wedge_middle_linear)
    check("wedge_bimodule_map", wedge_bimodule_map)
    check("graded_leibniz", graded_leibniz)
    check("one_forms_spanned_by_exact_forms", spanned_by_da_b)
    check("wedge_surjective", wedge_surjective)
    calc.validated = ready()
    return CalculusReport(tuple(items))


# ---------------------------------------------------------------------------
# Tameness certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TamenessCertificate:
    calculus: Calculus
    tensor_square: QuotientTensor
    center_one_forms: Subspace
    sigma: Matrix
    p_sym: Matrix
    kernel_wedge: Subspace
    complement_f: Subspace
    q_inverse: Matrix
    spanning: CentralGenerators   # E (x)_A E over the pi(z_p (x) z_q), j = p * k + q
    flags: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class TamenessFailure:
    condition: str
    detail: str
    witness: object = None


@dataclass(frozen=True)
class SymmetryOutcome:
    certificate: TamenessCertificate | None
    failure: TamenessFailure | None

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def _fail(condition: str, detail: str, witness=None) -> SymmetryOutcome:
    return SymmetryOutcome(None, TamenessFailure(condition, detail, witness))


def build_symmetry(calc: Calculus) -> SymmetryOutcome:
    """Construct the tameness certificate or a structured refusal.

    E (x)_A E is taken over its central tensors pi(z_p (x) z_q), and the
    symmetry is the right-linear map that flips their legs.  It exists iff
    the tensors span and the flip preserves every linear relation among
    their right translates.
    """
    e = calc.one_forms
    qt = calc.tensor_square
    rep = e.centered
    if not rep.ok:
        return _fail("NotCentered",
                     "the center of the one-forms does not generate them as a right module",
                     rep.witness)
    zs = rep.center.rows
    span = CentralGenerators(qt.bimodule, [qt.pure_sparse(zp, zq) for zp in zs for zq in zs])
    if not span.spans:
        return _fail("CentralTensorsDoNotSpan",
                     "the tensors of central one-forms do not generate the tensor square "
                     "as a right module")
    k = len(zs)
    sigma = span.extend([_apply_sparse(qt.bimodule.right[r], span.zs[q * k + p])
                         for p in range(k) for q in range(k) for r in range(calc.algebra.dim)],
                        qt.dim)
    if sigma is None:
        return _fail("FlipNotWellDefined",
                     "flipping central tensors is incompatible with a linear relation "
                     "among the spanning tensors")

    flags = {"centered": True, "sigma_well_defined": True}
    if not (sigma @ sigma == Matrix.identity(qt.dim)):
        raise InternalInconsistencyError("flip extension failed to be an involution")
    flags["sigma_involution"] = True

    def commutes(indices: Sequence[int]) -> int | None:
        for i in indices:
            if sigma @ qt.bimodule.left[i] != qt.bimodule.left[i] @ sigma:
                return i
            if sigma @ qt.bimodule.right[i] != qt.bimodule.right[i] @ sigma:
                return i
        return None

    unbilinear = calc.algebra.first_failure(commutes, calc.validated)
    flags["sigma_bilinear"] = unbilinear is None
    if unbilinear is not None:
        return _fail("SigmaNotBilinear",
                     "the central flip extends right-linearly but is not a bimodule map",
                     calc.algebra.labels[unbilinear])

    p_sym = (Matrix.identity(qt.dim) + sigma).scale(HALF)
    kernel_wedge = calc.wedge_q.kernel()
    ran_p = p_sym.column_space()
    flags["psym_projects_onto_ker_wedge"] = ran_p == kernel_wedge
    if not flags["psym_projects_onto_ker_wedge"]:
        # the first basis row of either space outside the other, searched on
        # copies of the sparse rows; the witness is its dense basis vector
        witness = None
        for space, other in ((ran_p, kernel_wedge), (kernel_wedge, ran_p)):
            k = next((k for k, row in enumerate(space.rows) if other._residual(dict(row))), None)
            if k is not None:
                witness = space.basis[k]
                break
        return _fail("PsymRangeMismatch",
                     "the symmetrizer image differs from the kernel of the wedge", witness)

    complement_f = p_sym.kernel()
    w2dim = calc.two_forms.dim
    if complement_f.dim != w2dim:
        return _fail("QNotInvertible",
                     f"complement has dimension {complement_f.dim}, two-forms {w2dim}")
    if w2dim:
        fcols = Matrix.from_sparse_cols(complement_f.rows, qt.dim)
        wf = calc.wedge_q @ fcols
        try:
            q_inverse = fcols @ wf.inverse()
        except LinAlgError:
            return _fail("QNotInvertible",
                         "wedge restricted to the complement is singular")
    else:
        q_inverse = Matrix.zeros(qt.dim, 0)
    cert = TamenessCertificate(
        calculus=calc,
        tensor_square=qt,
        center_one_forms=rep.center,
        sigma=sigma,
        p_sym=p_sym,
        kernel_wedge=kernel_wedge,
        complement_f=complement_f,
        q_inverse=q_inverse,
        spanning=span,
        flags=flags,
    )
    return SymmetryOutcome(cert, None)
