"""Seeded benchmark inputs: spec files and constant metrics.

Every input is a Chevalley calculus (a Lie algebra L acting on A by
derivations) built with tamecalc's own builders and written with its spec
writer.  A metric is a constant matrix c on the frame one-forms,
g(theta^p (x) theta^q) = c_pq 1: a fixed base, symmetric and invertible
except for the one meant to be rejected, rescaled by the workload seed.
The bracket constants and c are also kept as Fractions for the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from tamecalc import specfile
from tamecalc.algebra import Algebra
from tamecalc.builders import (
    ChevalleySpec,
    abelian_torus_chevalley,
    build_chevalley,
    euclidean_metric_plain,
    matrix_derivations_chevalley,
)
from tamecalc.calculus import Calculus
from tamecalc.linalg import Matrix, ZERO, basis_vector, qi, vec_to_sparse, zero_vector

Constants = tuple[tuple[tuple[Fraction, ...], ...], ...]   # C[a][b][m]
Gram = tuple[tuple[Fraction, ...], ...]                    # c[p][q]


def matrix_algebra(n: int) -> Algebra:
    """M_n on the matrix units E_ij, index i*n + j."""
    dim = n * n
    zvec = zero_vector(dim)
    mul = [[zvec] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                mul[i * n + j][j * n + l] = basis_vector(dim, i * n + l)
    unit = tuple(qi(1) if k % (n + 1) == 0 else ZERO for k in range(dim))
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    return Algebra(dim, labels, unit, mul)


def fuzzy_sphere_chevalley(n: int) -> ChevalleySpec:
    """A = M_n acted on by ad e, ad f, ad h of the n-dimensional sl(2) irrep.

    e has i(n-i) on the superdiagonal, f ones on the subdiagonal and
    h = diag(n-1-2i), so [e, f] = h, [h, e] = 2e, [h, f] = -2f.
    """
    alg = matrix_algebra(n)
    dim = n * n
    e = [ZERO] * dim
    f = [ZERO] * dim
    h = [ZERO] * dim
    for i in range(n - 1):
        e[i * n + i + 1] = qi((i + 1) * (n - i - 1))
        f[(i + 1) * n + i] = qi(1)
    for i in range(n):
        h[i * n + i] = qi(n - 1 - 2 * i)
    actions = tuple(alg.ad(tuple(v)) for v in (e, f, h))
    z = zero_vector(3)

    def vec(*coeffs: int):
        return tuple(qi(c) for c in coeffs)

    brackets = [[z] * 3 for _ in range(3)]
    brackets[0][1], brackets[1][0] = vec(0, 0, 1), vec(0, 0, -1)      # [e, f] = h
    brackets[2][0], brackets[0][2] = vec(2, 0, 0), vec(-2, 0, 0)      # [h, e] = 2e
    brackets[2][1], brackets[1][2] = vec(0, -2, 0), vec(0, 2, 0)      # [h, f] = -2f
    return ChevalleySpec(alg, 3, tuple(tuple(r) for r in brackets), actions)


CALCULI = {
    "matrix-derivations-2": lambda: matrix_derivations_chevalley(2),
    "fuzzy-sphere-2": lambda: fuzzy_sphere_chevalley(2),
    "fuzzy-sphere-3": lambda: fuzzy_sphere_chevalley(3),
    "abelian-torus-2": lambda: abelian_torus_chevalley(2),
    "abelian-torus-4": lambda: abelian_torus_chevalley(4),
}


def constant_metric_plain(spec: ChevalleySpec, c: Gram) -> Matrix:
    """g(phi_{j,a} (x) phi_{k,b}) = c_jk b_a b_b on plain tensor coordinates."""
    alg = spec.algebra
    nA, nL = alg.dim, spec.lie_dim
    ne = nL * nA
    entries = [[ZERO] * (ne * ne) for _ in range(nA)]
    for j in range(nL):
        for k in range(nL):
            if c[j][k] == 0:
                continue
            cjk = qi(c[j][k])
            for alpha in range(nA):
                for beta in range(nA):
                    col = (j * nA + alpha) * ne + (k * nA + beta)
                    for gamma, v in vec_to_sparse(alg.mul[alpha][beta]).items():
                        entries[gamma][col] = cjk * v
    return Matrix(nA, ne * ne, entries)


def gram(rows) -> Gram:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


# Fixed dense bases that a seed rescales.  g -> k g (k != 0) scales every
# quantity the engine computes by a power of k, so every seed does the same
# operations on the same sparsity pattern and traced counts repeat exactly
# across seeds, while the numbers themselves change.  (Flipping the sign of
# one frame direction is no such symmetry: it changed elimination counts.)
BASES = {
    "A3": gram([[2, 1, -1], [1, 3, 1], [-1, 1, 2]]),
    "B3": gram([[1, 2, 0], [2, -1, 1], [0, 1, 3]]),
    "A2": gram([[2, 1], [1, -1]]),
    "B2": gram([[3, -1], [-1, 1]]),
    "asym3": gram([[2, 1, -1], [-1, 3, 1], [-1, 1, 2]]),     # not symmetric
}
SCALES = tuple(sign * Fraction(x) for sign in (1, -1)
               for x in ("1", "2", "3", "1/2", "1/3", "3/2", "2/3"))


def draw_metric(rng: Random, base: str) -> Gram:
    """g(theta^p (x) theta^q) = k c_pq for a seeded scale k."""
    k = rng.choice(SCALES)
    return tuple(tuple(k * x for x in row) for row in BASES[base])


@dataclass(frozen=True)
class Metric:
    gram: Gram
    path: Path


@dataclass(frozen=True)
class Input:
    """One spec file and the metric files that go with it."""

    name: str
    spec_path: Path
    calculus: Calculus
    constants: Constants
    metrics: dict[str, Metric]


def bracket_constants(spec: ChevalleySpec) -> Constants:
    n = spec.lie_dim
    return tuple(tuple(tuple(spec.brackets[a][b][m].re for m in range(n))
                       for b in range(n)) for a in range(n))


def write_input(name: str, grams: dict[str, Gram], outdir: Path) -> Input:
    """Build the calculus, write its spec (Euclidean metric) and one metric
    override file per entry of grams.

    The writers are looked up on the specfile module at call time, so the
    traced mode sees them.
    """
    spec = CALCULI[name]()
    calc = build_chevalley(spec)
    spec_path = outdir / f"{name}.json"
    specfile.save_spec(specfile.SpecData(name=name, calculus=calc,
                                         metric_plain=euclidean_metric_plain(spec)), spec_path)
    metrics = {}
    for label, gram in grams.items():
        path = outdir / f"{name}.{label}.metric.json"
        g = constant_metric_plain(spec, gram)
        text = specfile.dumps_canonical({"metric": specfile.matrix_to_json(g)})
        path.write_text(text, encoding="utf-8")
        metrics[label] = Metric(gram, path)
    return Input(name, spec_path, calc, bracket_constants(spec), metrics)
