"""Reusable exact checks for the structural identities of the theory.

Each function takes a prepared geometry and returns True exactly when the
identity holds on the stated exhaustive family.  They are shared between
the granular identity tests and the acceptance sweep, together with the
constructions only these checks use: the squared metric on the tensor
square (the one builder of (E (x)_A E)*) and the classical bracket identity.
"""

from dataclasses import dataclass

from dense_reference import (
    center,
    col,
    contains_vector,
    from_cols,
    left_action,
    lift,
    multiply_dense,
    pure,
    right_action,
)
from tamecalc.bimodule import Bimodule, HomModule, hom_A, pair_apply
from tamecalc.connection import Geometry, covariant_derivative, nabla_zero
from tamecalc.errors import EngineError
from tamecalc.linalg import (
    LinAlgError,
    Matrix,
    ONE,
    Vector,
    _apply_sparse,
    _lincomb,
    basis_vector,
    sparse_to_vec,
    vec_to_sparse,
    zero_vector,
)


class InconsistentMetricError(EngineError):
    """The squared metric on the tensor square is not a valid pairing."""

    code = "InconsistentMetric"


def pair(qt, phi: Matrix, psi: Matrix, x: Vector) -> Vector:
    """pair_apply on a dense class, with a dense value."""
    return sparse_to_vec(pair_apply(qt, phi, psi, vec_to_sparse(x)), qt.left_factor.algebra.dim)


def gt(geo: Geometry, phi: dict, psi: dict) -> Vector:
    """g(V_g^{-1} phi (x) V_g^{-1} psi) for sparse dual elements, dense."""
    return sparse_to_vec(geo.pair_forms(geo.dual(phi).form, geo.dual(psi).form),
                         geo.calc.algebra.dim)


def v_g_map(metric, z: Vector) -> Matrix:
    """V_g(z) for a dense one-form z, as a map E -> A."""
    return metric.e_star.matrix_of(vec_to_sparse(metric.v_g.apply(z)))


# -- the squared metric on the tensor square --------------------------------------

@dataclass(frozen=True)
class MetricSquare:
    """The pairing ((h (x) x) , (h' (x) x')) -> g(h (x) g(x (x) h') x')."""

    t2_star: HomModule
    v_g2: Matrix
    v_g2_inv: Matrix
    pair_values: tuple[tuple[Vector, ...], ...]   # [x][y] = g2(x (x) y) on basis

    def pairing(self, x: Vector, y: Vector) -> Vector:
        nA = len(self.pair_values[0][0]) if self.pair_values else 0
        out = zero_vector(nA)
        for s, a in vec_to_sparse(x).items():
            for t, b in vec_to_sparse(y).items():
                c = a * b
                out = tuple(u + c * v for u, v in zip(out, self.pair_values[s][t]))
        return out


def metric_square(calc, cert, metric) -> MetricSquare:
    """Extend the metric to two-fold tensors and certify it stays invertible."""
    qt = calc.tensor_square
    alg = calc.algebra
    e = calc.one_forms
    g = metric.g
    g_plain = metric.g_plain

    # pair_values[x][y] on quotient basis classes: lift both legs, contract
    # the middle with g, close with g again.
    lifted = [lift(qt, basis_vector(qt.dim, x)) for x in range(qt.dim)]
    values: list[list[Vector]] = []
    for x in range(qt.dim):
        row: list[Vector] = []
        for y in range(qt.dim):
            acc = zero_vector(alg.dim)
            for sx, cx in lifted[x].items():
                s, t = divmod(sx, e.dim)
                for sy, cy in lifted[y].items():
                    u, v = divmod(sy, e.dim)
                    mid = col(g_plain, t * e.dim + u)
                    inner = zero_vector(e.dim)
                    for i, c in vec_to_sparse(mid).items():
                        lc = col(e.left[i], v)
                        inner = tuple(p + c * q for p, q in zip(inner, lc))
                    val = g.apply(pure(qt, basis_vector(e.dim, s), inner))
                    c = cx * cy
                    acc = tuple(p + c * q for p, q in zip(acc, val))
            row.append(acc)
        values.append(row)

    t2_star = hom_A(qt.bimodule, Bimodule.regular(alg))
    if t2_star.dim != qt.dim:
        raise InconsistentMetricError(
            f"dual of the tensor square has dimension {t2_star.dim}, expected {qt.dim}")
    cols = []
    for x in range(qt.dim):
        functional = from_cols([values[x][y] for y in range(qt.dim)], alg.dim)
        coords = t2_star.sparse_coords_of(functional)
        if coords is None:
            raise InconsistentMetricError("squared pairing is not right-linear in its second slot")
        cols.append(coords)
    v_g2 = Matrix.from_sparse_cols(cols, t2_star.dim)
    try:
        v_g2_inv = v_g2.inverse()
    except LinAlgError:
        raise InconsistentMetricError("squared contraction V_g2 is singular")

    for i in range(alg.dim):
        if v_g2 @ qt.bimodule.left[i] != t2_star.bimodule.left[i] @ v_g2:
            raise InconsistentMetricError("V_g2 is not left-linear")
        if v_g2 @ qt.bimodule.right[i] != t2_star.bimodule.right[i] @ v_g2:
            raise InconsistentMetricError("V_g2 is not right-linear")

    square = MetricSquare(t2_star=t2_star, v_g2=v_g2, v_g2_inv=v_g2_inv,
                          pair_values=tuple(tuple(r) for r in values))

    # V_g(w) (x) V_g(h) must agree with the squared contraction of h (x) w
    # on central pairs; anything else means the inputs are inconsistent.
    if not squared_contraction_matches_field_tensor(metric, cert, qt, square):
        raise InconsistentMetricError(
            "tensor of contractions disagrees with the squared metric on central pairs")
    return square


# -- the classical bracket identity -------------------------------------------------

def classical_bracket_check(geo: Geometry) -> bool:
    """[X, Y](xi) against the reference-connection correction formula, plus
    the vanishing of the antisymmetrized reference pairing on exact forms."""
    calc = geo.calc
    e = calc.one_forms
    qt = calc.tensor_square
    n0 = nabla_zero(geo.calc, geo.cert)
    n = geo.fields.count
    maps = geo.fields.maps
    estar = geo.metric.e_star
    if not antisymmetrized_reference_kills_exact_forms(geo):
        return False
    for p in range(n):
        for q in range(n):
            br = estar.matrix_of(geo.lie_table[p][q])
            for s in range(e.dim):
                lhs = col(br, s)
                t1 = maps[p].apply(calc.d0.apply(col(maps[q], s)))
                t2 = maps[q].apply(calc.d0.apply(col(maps[p], s)))
                w = col(n0.nabla, s)
                t3 = pair(qt, maps[p], maps[q], w)
                t4 = pair(qt, maps[q], maps[p], w)
                rhs = tuple(a - b + c - d for a, b, c, d in zip(t1, t2, t3, t4))
                if lhs != rhs:
                    return False
    return True


# -- identities ---------------------------------------------------------------------


def sigma_flips_one_central(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    ne = geo.calc.one_forms.dim
    for z in geo.cert.center_one_forms.basis:
        for s in range(ne):
            e = basis_vector(ne, s)
            if geo.cert.sigma.apply(pure(qt, z, e)) != pure(qt, e, z):
                return False
            if geo.cert.sigma.apply(pure(qt, e, z)) != pure(qt, z, e):
                return False
    return True


def metric_symmetric_one_central(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    ne = geo.calc.one_forms.dim
    g = geo.metric.g
    for z in geo.cert.center_one_forms.basis:
        for s in range(ne):
            e = basis_vector(ne, s)
            if g.apply(pure(qt, z, e)) != g.apply(pure(qt, e, z)):
                return False
    return True


def central_pair_values_central(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    zc = center(geo.calc.algebra)
    g = geo.metric.g
    for z1 in geo.cert.center_one_forms.basis:
        for z2 in geo.cert.center_one_forms.basis:
            if not contains_vector(zc, g.apply(pure(qt, z1, z2))):
                return False
    return True


def central_scalar_differentials_central(geo: Geometry) -> bool:
    """df lands in the center of the one-forms for central f, and so do the
    differentials of metric values on central pairs."""
    zc_alg = center(geo.calc.algebra)
    ze = geo.cert.center_one_forms
    for f in zc_alg.basis:
        if not contains_vector(ze, geo.calc.d0.apply(f)):
            return False
    qt = geo.calc.tensor_square
    for z1 in geo.cert.center_one_forms.basis:
        for z2 in geo.cert.center_one_forms.basis:
            val = geo.metric.g.apply(pure(qt, z1, z2))
            if not contains_vector(ze, geo.calc.d0.apply(val)):
                return False
    return True


def squared_pairing_on_fixed_vectors_symmetric(geo: Geometry, square: MetricSquare) -> bool:
    """Swapping the two contracted central legs is invisible on vectors fixed
    by the symmetry."""
    qt = geo.calc.tensor_square
    fixed = geo.cert.kernel_wedge  # the symmetrizer fixes exactly ker(wedge)
    for z1 in geo.cert.center_one_forms.basis:
        phi1 = v_g_map(geo.metric, z1)
        for z2 in geo.cert.center_one_forms.basis:
            phi2 = v_g_map(geo.metric, z2)
            for xi in fixed.basis:
                lhs = pair(qt, phi1, phi2, xi)
                rhs = pair(qt, phi2, phi1, xi)
                if lhs != rhs:
                    return False
    return True


def squared_pairing_symmetrizer_hops(geo: Geometry, square: MetricSquare) -> bool:
    n = geo.calc.tensor_square.dim
    for x in range(n):
        px = geo.cert.p_sym.apply(basis_vector(n, x))
        for y in range(n):
            py = geo.cert.p_sym.apply(basis_vector(n, y))
            if square.pairing(px, basis_vector(n, y)) != square.pairing(basis_vector(n, x), py):
                return False
    return True


def squared_contraction_matches_field_tensor(metric, cert, qt, square: MetricSquare) -> bool:
    """V_g(w) (x) V_g(h) against the squared contraction of h (x) w, on
    central pairs."""
    for zw in cert.center_one_forms.basis:
        phi_w = v_g_map(metric, zw)
        for zh in cert.center_one_forms.basis:
            phi_h = v_g_map(metric, zh)
            target = pure(qt, zh, zw)
            for y in range(qt.dim):
                ey = basis_vector(qt.dim, y)
                if pair(qt, phi_w, phi_h, ey) != square.pairing(target, ey):
                    return False
    return True


def fields_values_on_central_forms_central(geo: Geometry) -> bool:
    zc = center(geo.calc.algebra)
    for m in geo.fields.maps:
        for z in geo.cert.center_one_forms.basis:
            if not contains_vector(zc, m.apply(z)):
                return False
    return True


def fields_equal_dual_center(geo: Geometry) -> bool:
    from tamecalc.linalg import Subspace

    image = Subspace(geo.metric.e_star.dim, list(geo.fields.basis))
    return image == geo.fields.center_dual


def fields_right_total(geo: Geometry) -> bool:
    if not geo.fields.generators.spans:
        return False
    # right multiplication by central algebra elements stays inside
    zc = center(geo.calc.algebra)
    for x in geo.fields.basis:
        for a in zc.basis:
            xa = _apply_sparse(right_action(geo.metric.e_star.bimodule, a), x)
            if not geo.fields.contains(xa):
                return False
    return True


def derivation_exactly_on_fields(geo: Geometry, noncentral_samples: int = 4) -> bool:
    alg = geo.calc.algebra
    for x in geo.fields.basis:
        d = geo.metric.e_star.matrix_of(x) @ geo.calc.d0
        if not alg.is_derivation(d):
            return False
    # sampled converse: translates that leave the center must fail Leibniz
    count = 0
    for p in range(geo.fields.count):
        for i in range(alg.dim):
            phi = _apply_sparse(geo.metric.e_star.bimodule.right[i], geo.fields.basis[p])
            if geo.fields.contains(phi):
                continue
            d = geo.metric.e_star.matrix_of(phi) @ geo.calc.d0
            if alg.is_derivation(d):
                return False
            count += 1
            if count >= noncentral_samples:
                return True
    return True


def antisymmetrized_reference_kills_exact_forms(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    n0 = nabla_zero(geo.calc, geo.cert)
    for i in range(geo.calc.algebra.dim):
        w = n0.nabla.apply(col(geo.calc.d0, i))
        for p in range(geo.fields.count):
            for q in range(geo.fields.count):
                fw = pair(qt, geo.fields.maps[p], geo.fields.maps[q], w)
                bw = pair(qt, geo.fields.maps[q], geo.fields.maps[p], w)
                if fw != bw:
                    return False
    return True


def covariant_derivative_axioms(geo: Geometry, conn) -> bool:
    """Additivity in both slots and the two module rules over the center."""
    estar = geo.metric.e_star
    zc = center(geo.calc.algebra)
    n = geo.fields.count
    for p in range(n):
        x = geo.fields.basis[p]
        for q in range(n):
            y = geo.fields.basis[q]
            base = covariant_derivative(geo, conn, x, y)
            for p2 in range(n):
                x2 = geo.fields.basis[p2]
                lhs = covariant_derivative(geo, conn, _lincomb(((ONE, x), (ONE, x2))), y)
                rhs = _lincomb(((ONE, base), (ONE, covariant_derivative(geo, conn, x2, y))))
                if lhs != rhs:
                    return False
            for a in zc.basis:
                ra = right_action(estar.bimodule, a)
                lhs = covariant_derivative(geo, conn, x, _apply_sparse(ra, y))
                if lhs != _apply_sparse(ra, base):
                    return False
                lhs = covariant_derivative(geo, conn, _apply_sparse(ra, x), y)
                da = geo.dual(y).delta.apply(a)
                want = _lincomb(((ONE, _apply_sparse(ra, base)),
                                 (ONE, _apply_sparse(left_action(estar.bimodule, da), x))))
                if lhs != want:
                    return False
    return True


def t_tilde_right_center_linear(geo: Geometry, conn) -> bool:
    """The reconstruction data is right-linear over the algebra center."""
    estar = geo.metric.e_star
    qt = geo.calc.tensor_square
    zc = center(geo.calc.algebra)
    ne = geo.calc.one_forms.dim

    def t_tilde(eta: Vector, theta_coords: dict, omega: Vector) -> Vector:
        # delta_{V_g(eta)} of g(theta (x) omega) minus the derivative of
        # V_g(theta) along V_g(eta), evaluated at omega
        y = vec_to_sparse(geo.metric.v_g.apply(eta))
        theta_form = geo.metric.v_g_inv.apply(sparse_to_vec(theta_coords, estar.dim))
        gval = geo.metric.g.apply(pure(qt, theta_form, omega))
        der = covariant_derivative(geo, conn, theta_coords, y)
        first = geo.dual(y).delta.apply(gval)
        second = estar.matrix_of(der).apply(omega)
        return tuple(a - b for a, b in zip(first, second))

    for eta in geo.cert.center_one_forms.basis:
        for z in geo.cert.center_one_forms.basis:
            theta = vec_to_sparse(geo.metric.v_g.apply(z))
            for a in zc.basis:
                theta_a = _apply_sparse(right_action(estar.bimodule, a), theta)
                for s in range(ne):
                    omega = basis_vector(ne, s)
                    lhs = t_tilde(eta, theta_a, omega)
                    base = t_tilde(eta, theta, omega)
                    rhs = multiply_dense(geo.calc.algebra, base, a)
                    if lhs != rhs:
                        return False
    return True


def dual_pairing_central_and_symmetric(geo: Geometry) -> bool:
    zc = center(geo.calc.algebra)
    ne = geo.metric.e_star.dim
    for x in geo.fields.basis:
        for y in geo.fields.basis:
            if not contains_vector(zc, gt(geo, x, y)):
                return False
        for j in range(ne):
            if gt(geo, x, {j: ONE}) != gt(geo, {j: ONE}, x):
                return False
    return True


def delta_translation_identity(geo: Geometry) -> bool:
    """Right-multiplying the differentiating field acts on the value."""
    alg = geo.calc.algebra
    estar = geo.metric.e_star
    for x in geo.fields.basis:
        for y in geo.fields.basis:
            gxy = gt(geo, x, y)
            for z in geo.fields.basis:
                base = geo.dual(z).delta.apply(gxy)
                for i in range(alg.dim):
                    za = _apply_sparse(estar.bimodule.right[i], z)
                    lhs = multiply_dense(alg, base, basis_vector(alg.dim, i))
                    if lhs != geo.dual(za).delta.apply(gxy):
                        return False
    return True


def pairing_evaluation_identity(geo: Geometry) -> bool:
    estar = geo.metric.e_star
    for i in range(estar.dim):
        phim = estar.matrix_of({i: ONE})
        for j in range(estar.dim):
            if phim.apply(col(geo.metric.v_g_inv, j)) != gt(geo, {i: ONE}, {j: ONE}):
                return False
    return True
