"""Seeded Leibniz perturbations of the reference connection.

The shifts are drawn over the basis of hom_A(E, E (x)_A E), the right-linear
maps built from the images of the central generators of the one-forms.
That construction is checked against the kernel construction
dense_reference.hom_kernel.
"""

from random import Random

from tamecalc.bimodule import hom_A
from tamecalc.connection import Connection, Geometry
from tamecalc.linalg import Matrix, qi


def random_leibniz_perturbation(geo: Geometry, seed: int) -> Connection:
    """The reference connection plus a nonzero seeded right-linear shift."""
    rng = Random(seed)
    hom = hom_A(geo.calc.one_forms, geo.calc.tensor_square.bimodule)
    qt = geo.calc.tensor_square
    e = geo.calc.one_forms
    while True:
        alpha = Matrix.zeros(qt.dim, e.dim)
        nonzero = False
        for s in range(hom.dim):
            c = rng.randint(-2, 2)
            if c:
                nonzero = True
                alpha = alpha + hom.basis[s].scale(qi(c))
        if nonzero or hom.dim == 0:
            return Connection(geo.nabla0.nabla + alpha)
