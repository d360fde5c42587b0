"""Reusable exact checks for the structural identities of the theory.

Each function takes a prepared geometry and returns True exactly when the
identity holds on the stated exhaustive family.  They are shared between
the granular identity tests and the acceptance sweep, together with the
constructions only these checks use: the squared metric on the tensor
square (the one builder of (E (x)_A E)*) and the classical bracket identity.
"""

from dataclasses import dataclass

from tamecalc.bimodule import Bimodule, HomModule, hom_A, pair_apply
from tamecalc.connection import Geometry, covariant_derivative
from tamecalc.errors import EngineError
from tamecalc.linalg import (
    LinAlgError,
    Matrix,
    Vector,
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
    g_plain = metric.g_plain(calc)

    # pair_values[x][y] on quotient basis classes: lift both legs, contract
    # the middle with g, close with g again.
    lifted = [qt.lift(basis_vector(qt.dim, x)) for x in range(qt.dim)]
    values: list[list[Vector]] = []
    for x in range(qt.dim):
        row: list[Vector] = []
        for y in range(qt.dim):
            acc = zero_vector(alg.dim)
            for sx, cx in lifted[x].items():
                s, t = divmod(sx, e.dim)
                for sy, cy in lifted[y].items():
                    u, v = divmod(sy, e.dim)
                    mid = g_plain.col(t * e.dim + u)
                    inner = zero_vector(e.dim)
                    for i, c in vec_to_sparse(mid).items():
                        lc = e.left[i].col(v)
                        inner = tuple(p + c * q for p, q in zip(inner, lc))
                    val = g.apply(qt.pure(basis_vector(e.dim, s), inner))
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
        functional = Matrix.from_cols([values[x][y] for y in range(qt.dim)], alg.dim)
        coords = t2_star.coords_of(functional)
        if coords is None:
            raise InconsistentMetricError("squared pairing is not right-linear in its second slot")
        cols.append(coords)
    v_g2 = Matrix.from_cols(cols, t2_star.dim)
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
    n0 = geo.nabla0
    n = geo.fields.count
    maps = geo.fields.maps
    if not antisymmetrized_reference_kills_exact_forms(geo):
        return False
    for p in range(n):
        for q in range(n):
            br = geo.lie_table[p][q]
            for s in range(e.dim):
                xi = basis_vector(e.dim, s)
                lhs = geo.metric.e_star.value(br, xi)
                t1 = geo.metric.e_star.value(geo.fields.basis[p], calc.d0.apply(maps[q].col(s)))
                t2 = geo.metric.e_star.value(geo.fields.basis[q], calc.d0.apply(maps[p].col(s)))
                w = n0.nabla.col(s)
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
    for z in geo.cert.central_basis:
        for s in range(ne):
            e = basis_vector(ne, s)
            if geo.cert.sigma.apply(qt.pure(z, e)) != qt.pure(e, z):
                return False
            if geo.cert.sigma.apply(qt.pure(e, z)) != qt.pure(z, e):
                return False
    return True


def metric_symmetric_one_central(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    ne = geo.calc.one_forms.dim
    g = geo.metric.g
    for z in geo.cert.central_basis:
        for s in range(ne):
            e = basis_vector(ne, s)
            if g.apply(qt.pure(z, e)) != g.apply(qt.pure(e, z)):
                return False
    return True


def central_pair_values_central(geo: Geometry) -> bool:
    qt = geo.calc.tensor_square
    zc = geo.calc.algebra.center()
    g = geo.metric.g
    for z1 in geo.cert.central_basis:
        for z2 in geo.cert.central_basis:
            if not zc.contains_vector(g.apply(qt.pure(z1, z2))):
                return False
    return True


def central_scalar_differentials_central(geo: Geometry) -> bool:
    """df lands in the center of the one-forms for central f, and so do the
    differentials of metric values on central pairs."""
    zc_alg = geo.calc.algebra.center()
    ze = geo.cert.center_one_forms
    for f in zc_alg.basis:
        if not ze.contains_vector(geo.calc.d0.apply(f)):
            return False
    qt = geo.calc.tensor_square
    for z1 in geo.cert.central_basis:
        for z2 in geo.cert.central_basis:
            val = geo.metric.g.apply(qt.pure(z1, z2))
            if not ze.contains_vector(geo.calc.d0.apply(val)):
                return False
    return True


def squared_pairing_on_fixed_vectors_symmetric(geo: Geometry, square: MetricSquare) -> bool:
    """Swapping the two contracted central legs is invisible on vectors fixed
    by the symmetry."""
    qt = geo.calc.tensor_square
    fixed = geo.cert.kernel_wedge  # the symmetrizer fixes exactly ker(wedge)
    for z1 in geo.cert.central_basis:
        phi1 = geo.metric.functional(geo.metric.v_g.apply(z1))
        for z2 in geo.cert.central_basis:
            phi2 = geo.metric.functional(geo.metric.v_g.apply(z2))
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
    for zw in cert.central_basis:
        phi_w = metric.functional(metric.v_g.apply(zw))
        for zh in cert.central_basis:
            phi_h = metric.functional(metric.v_g.apply(zh))
            target = qt.pure(zh, zw)
            for y in range(qt.dim):
                ey = basis_vector(qt.dim, y)
                if pair(qt, phi_w, phi_h, ey) != square.pairing(target, ey):
                    return False
    return True


def fields_values_on_central_forms_central(geo: Geometry) -> bool:
    zc = geo.calc.algebra.center()
    for m in geo.fields.maps:
        for z in geo.cert.central_basis:
            if not zc.contains_vector(m.apply(z)):
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
    zc = geo.calc.algebra.center()
    for x in geo.fields.basis:
        for a in zc.basis:
            xa = geo.metric.e_star.bimodule.right_action(a).apply(x)
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
            phi = geo.metric.e_star.bimodule.right[i].apply(geo.fields.basis[p])
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
    n0 = geo.nabla0
    for i in range(geo.calc.algebra.dim):
        w = n0.nabla.apply(geo.calc.d0.col(i))
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
    zc = geo.calc.algebra.center()
    n = geo.fields.count
    for p in range(n):
        x = geo.fields.basis[p]
        for q in range(n):
            y = geo.fields.basis[q]
            base = covariant_derivative(geo, conn, x, y)
            for p2 in range(n):
                x2 = geo.fields.basis[p2]
                lhs = covariant_derivative(
                    geo, conn, tuple(a + b for a, b in zip(x, x2)), y)
                rhs = tuple(a + b for a, b in zip(
                    base, covariant_derivative(geo, conn, x2, y)))
                if lhs != rhs:
                    return False
            for a in zc.basis:
                ya = estar.bimodule.right_action(a).apply(y)
                lhs = covariant_derivative(geo, conn, x, ya)
                if lhs != estar.bimodule.right_action(a).apply(base):
                    return False
                xa = estar.bimodule.right_action(a).apply(x)
                lhs = covariant_derivative(geo, conn, xa, y)
                da = geo.delta(y, a)
                want = tuple(u + v for u, v in zip(
                    estar.bimodule.right_action(a).apply(base),
                    estar.bimodule.left_action(da).apply(x)))
                if lhs != want:
                    return False
    return True


def t_tilde_right_center_linear(geo: Geometry, conn) -> bool:
    """The reconstruction data is right-linear over the algebra center."""
    estar = geo.metric.e_star
    qt = geo.calc.tensor_square
    zc = geo.calc.algebra.center()
    ne = geo.calc.one_forms.dim

    def t_tilde(eta: Vector, theta_coords: Vector, omega: Vector) -> Vector:
        # delta_{V_g(eta)} of g(theta (x) omega) minus the derivative of
        # V_g(theta) along V_g(eta), evaluated at omega
        y = geo.metric.v_g.apply(eta)
        theta_form = geo.metric.v_g_inv.apply(theta_coords)
        gval = geo.metric.g.apply(qt.pure(theta_form, omega))
        der = covariant_derivative(geo, conn, theta_coords, y)
        first = geo.delta(y, gval)
        second = estar.value(der, omega)
        return tuple(a - b for a, b in zip(first, second))

    for eta in geo.cert.central_basis:
        for z in geo.cert.central_basis:
            theta = geo.metric.v_g.apply(z)
            for a in zc.basis:
                theta_a = estar.bimodule.right_action(a).apply(theta)
                for s in range(ne):
                    omega = basis_vector(ne, s)
                    lhs = t_tilde(eta, theta_a, omega)
                    base = t_tilde(eta, theta, omega)
                    rhs = geo.calc.algebra.multiply(base, a)
                    if lhs != rhs:
                        return False
    return True


def dual_pairing_central_and_symmetric(geo: Geometry) -> bool:
    zc = geo.calc.algebra.center()
    ne = geo.metric.e_star.dim
    for x in geo.fields.basis:
        for y in geo.fields.basis:
            if not zc.contains_vector(geo.gt(x, y)):
                return False
        for j in range(ne):
            psi = basis_vector(ne, j)
            if geo.gt(x, psi) != geo.gt(psi, x):
                return False
    return True


def delta_translation_identity(geo: Geometry) -> bool:
    """Right-multiplying the differentiating field acts on the value."""
    alg = geo.calc.algebra
    estar = geo.metric.e_star
    for x in geo.fields.basis:
        for y in geo.fields.basis:
            gxy = geo.gt(x, y)
            for z in geo.fields.basis:
                base = geo.delta(z, gxy)
                for i in range(alg.dim):
                    za = estar.bimodule.right[i].apply(z)
                    lhs = alg.multiply(base, basis_vector(alg.dim, i))
                    if lhs != geo.delta(za, gxy):
                        return False
    return True


def pairing_evaluation_identity(geo: Geometry) -> bool:
    estar = geo.metric.e_star
    for i in range(estar.dim):
        phi = basis_vector(estar.dim, i)
        phim = estar.matrix_of(phi)
        for j in range(estar.dim):
            psi = basis_vector(estar.dim, j)
            if phim.apply(geo.metric.v_g_inv.apply(psi)) != geo.gt(phi, psi):
                return False
    return True
