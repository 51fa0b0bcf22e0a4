#!/usr/bin/env python3
"""Exact brute-force verification of the two-point fixture values.

Recomputes, in rational arithmetic with sympy and without importing the
package, the represented form-space dimensions of the two-point triple, the
curvature matrix of the projective-module fixture, and every number of the
curvature, product-spectrum and correspondence reports on
fixtures/two_point_free_module.json.  Prints a JSON object of the frozen
expectations used by the test suite.
"""

import json
from pathlib import Path

from sympy import Matrix, Rational, eye, sqrt, zeros

FREE_MODULE = Path(__file__).resolve().parents[1] / "fixtures" / "two_point_free_module.json"


def comm(x, y):
    return x * y - y * x


def vec(m):
    return [m[i, j] for i in range(m.rows) for j in range(m.cols)]


def span_dim(mats):
    rows = [vec(m) for m in mats]
    return Matrix(rows).rank() if rows else 0


def kron(a, b):
    out = zeros(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i * b.rows:(i + 1) * b.rows, j * b.cols:(j + 1) * b.cols] = a[i, j] * b
    return out


def exact(x):
    return Rational(str(x))


def fro(m):
    return sqrt(sum(abs(x) ** 2 for x in m))


def hermitian_norm(m):
    assert m == m.H, "spectral norm by eigenvalues needs a Hermitian matrix"
    return max(abs(v) for v in m.eigenvals())


def payload(m):
    # the report layout: each entry as [real, imaginary]
    return [[[float(part) for part in x.as_real_imag()] for x in m.row(i)]
            for i in range(m.rows)]


def free_module_reports(basis, dirac, junk_dim):
    """The three module reports of the free-module fixture, value by value.

    Every check residual is an identity of exact algebra, so each is 0 here.
    """
    assert junk_dim == 0, "the junk-canonical representative below is R itself"
    scen = json.loads(FREE_MODULE.read_text(encoding="utf-8"))
    assert [Matrix(b) for b in scen["triple"]["basis"]] == basis, "not the two-point triple"
    assert Matrix(scen["triple"]["dirac"]) == dirac, "not the two-point triple"
    n, d = dirac.rows, len(basis)
    signs = scen["module"]["gamma_signs"]
    m = len(signs)
    gamma = Matrix(scen["triple"]["gamma"])

    def assemble(table):
        out = zeros(m * n, m * n)
        for i in range(m):
            for j in range(m):
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = sum(
                    (exact(table[i][j][k]) * basis[k] for k in range(d)), zeros(n, n))
        return out

    def represented(right):
        out = zeros(m * n, m * n)
        for i in range(m):
            for j in range(m):
                c = scen["connection"]["entries"][i][j]
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = sum(
                    (exact(c[k][l]) * basis[k] * right[l]
                     for k in range(d) for l in range(d)), zeros(n, n))
        return out

    proj = assemble(scen["module"]["p"])
    sign = Matrix.diag(*signs)
    grading = kron(sign, gamma)
    dt = kron(sign, dirac)
    a_d = proj * represented([comm(dirac, b) for b in basis]) * proj
    a_d2 = proj * represented([comm(dirac * dirac, b) for b in basis]) * proj
    m_op = proj * dt * proj + a_d
    n_op = proj * kron(eye(m), dirac * dirac) * proj + a_d2
    curv = m_op * m_op - n_op
    dp = comm(dt, proj)
    formula = (proj * dp * dp * proj + a_d * a_d
               + proj * (dt * a_d + a_d * dt) * proj - a_d2)
    assert proj == eye(m * n), "the module is free, so M's spectrum is its spectrum on range(P)"

    s_op = assemble(scen["vertical"]["entries"])
    corr = (s_op + m_op) ** 2 - s_op * s_op - n_op
    s_m = s_op * m_op + m_op * s_op
    return {
        "curvature": {
            "checks": {
                "route_residual": fro(curv - formula),
                "curvature_even": fro(grading * curv * grading - curv),
                "curvature_support": fro(proj * curv * proj - curv),
                "curvature_symmetric": fro(curv - curv.H),
            },
            "values": {"norm": hermitian_norm(curv), "junk_dim": junk_dim},
            "matrices": {"curvature": curv, "junk_canonical": curv},
        },
        "product-spectrum": {
            "checks": {
                "product_op_support": fro(proj * m_op * proj - m_op),
                "product_op_odd": fro(grading * m_op * grading + m_op),
                "product_op_symmetric": fro(m_op - m_op.H),
            },
            "values": {"rank": m * n,
                       "spectrum": sorted(v for v, k in m_op.eigenvals().items()
                                          for _ in range(k))},
        },
        "correspondence": {
            "checks": {
                "vertical_selfadjoint": fro(s_op - s_op.H),
                "vertical_compressed": fro(proj * s_op * proj - s_op),
                "vertical_odd": fro(grading * s_op * grading + s_op),
                "correspondence_decomposition": fro(corr - curv - s_m),
            },
            "values": {"norm": hermitian_norm(corr),
                       "wac_diagnostic": hermitian_norm(s_m) / (hermitian_norm(s_op) + 1)},
            "matrices": {"correspondence_curvature": corr},
        },
    }


def to_json(report):
    out = {}
    for part, entries in report.items():
        out[part] = {}
        for name, x in entries.items():
            if isinstance(x, Matrix):
                out[part][name] = payload(x)
            elif isinstance(x, list):
                out[part][name] = [float(v) for v in x]
            else:
                out[part][name] = float(x)
    return out


def main():
    eye2 = eye(2)
    b2 = Matrix([[1, 0], [0, 0]])
    dirac = Matrix([[0, 1], [1, 0]])
    basis = [eye2, b2]
    d = len(basis)

    k1 = [comm(dirac, b) for b in basis]
    k2 = [comm(dirac * dirac, b) for b in basis]

    one_dim = span_dim([basis[i] * k1[j] for i in range(d) for j in range(d)])
    two_dim = span_dim([basis[i] * k1[j] * k1[l]
                        for i in range(d) for j in range(d) for l in range(d)])

    # junk: exact kernel of c -> (sum c b_i b_j, sum c b_i [D, b_j]),
    # then the span of sum c b_i [D^2, b_j] over that kernel.
    cols = []
    for i in range(d):
        for j in range(d):
            cols.append(vec(basis[i] * basis[j]) + vec(basis[i] * k1[j]))
    kernel = Matrix(cols).T.nullspace()
    junk_mats = []
    for v in kernel:
        m = zeros(2, 2)
        for idx in range(d * d):
            i, j = divmod(idx, d)
            m += v[idx] * basis[i] * k2[j]
        junk_mats.append(m)
    junk_dim = span_dim(junk_mats)

    # curvature of p = diag(b2, 1 - b2), signs (1, -1), A = 0
    e00 = Matrix([[1, 0], [0, 0]])
    e11 = Matrix([[0, 0], [0, 1]])
    proj = kron(e00, b2) + kron(e11, eye2 - b2)
    dirac_lift = kron(Matrix([[1, 0], [0, -1]]), dirac)
    m_op = proj * dirac_lift * proj
    n_op = proj * kron(eye2, dirac * dirac) * proj
    curv = m_op * m_op - n_op

    # exact spectral norm: the matrix is diagonal, so max |diagonal entry|
    offdiag = [curv[i, j] for i in range(4) for j in range(4) if i != j]
    assert all(x == 0 for x in offdiag), "curvature unexpectedly non-diagonal"
    norm = max(abs(curv[i, i]) for i in range(4))

    print(json.dumps({
        "one_form_dim": int(one_dim),
        "two_form_dim": int(two_dim),
        "junk_dim": int(junk_dim),
        "curvature_diag": [int(curv[i, i]) for i in range(4)],
        "curvature_norm": int(norm),
        "free_module": {cmd: to_json(rep)
                        for cmd, rep in free_module_reports(basis, dirac, junk_dim).items()},
    }))


if __name__ == "__main__":
    main()
