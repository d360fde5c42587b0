"""Exact Christoffel oracle for constant metrics on a frame of derivations.

For a frame X_1..X_n with brackets [X_a, X_b] = sum_m C[a][b][m] X_m and a
constant metric h(X_a, X_b) = h_ab on it, the Levi-Civita connection
satisfies the classical Koszul formula

    h(nabla_{X_a} X_b, X_c) = 1/2 (C_abc - C_bca + C_cab),
    C_abc = h([X_a, X_b], X_c).

Everything here is computed in Fractions from C and the metric alone;
nothing calls the engine.  A benchmark metric is given on the frame
one-forms, g(theta^p (x) theta^q) = c_pq, so the frame fields carry the
inverse matrix h = c^-1.  tamecalc's vector fields are
F_p = V_g(theta^p) = sum_r c_pr X_r, so its table entry [p][q] is
nabla_{F_p} F_q, and reading it on theta^s gives sum_ab c_pa c_qb Gamma^s_ab.
"""

from __future__ import annotations

from fractions import Fraction

Table = list[list[list[Fraction]]]


def inverse(c: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fractions."""
    n = len(c)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(c)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def christoffel(C, h) -> Table:
    """Gamma[a][b][s] = <nabla_{X_a} X_b, theta^s> for the metric h on the frame."""
    n = len(h)
    r3 = range(n)
    low = [[[sum(C[a][b][m] * h[m][k] for m in r3) for k in r3] for b in r3] for a in r3]
    koszul = [[[(low[a][b][k] - low[b][k][a] + low[k][a][b]) / 2 for k in r3]
               for b in r3] for a in r3]
    hinv = inverse(h)
    return [[[sum(hinv[s][k] * koszul[a][b][k] for k in r3) for s in r3]
             for b in r3] for a in r3]


def expected_table(C, c) -> Table:
    """T[p][q][s] = <nabla_{F_p} F_q, theta^s> for the one-form metric c."""
    n = len(c)
    r3 = range(n)
    gamma = christoffel(C, inverse(c))
    return [[[sum(c[p][a] * c[q][b] * gamma[a][b][s] for a in r3 for b in r3)
              for s in r3] for q in r3] for p in r3]


def table_mismatches(read, C, c) -> list[tuple[int, int, int]]:
    """Indices (p, q, s) where a table read on the frame differs from the oracle."""
    want = expected_table(C, c)
    n = len(c)
    return [(p, q, s) for p in range(n) for q in range(n) for s in range(n)
            if read[p][q][s] != want[p][q][s]]
