"""Independent oracle for the exchange checks: the explicit 4x4 product chain.

Each side of an exchange relation is multiplied out as a product of 4x4
matrices with BiOp entries (X1 = X (x) I in lambda, X2 = I (x) X in mu,
R(s) = s I + eta P), so every operator product is recomputed where it
occurs.  This is slow but shares nothing with the product-table assembly
in dstlab.quantum except BiOp itself.
"""
from dstlab.quantum import BiOp
from dstlab.weyl import _kernel


def mat4_mul(a, b, n):
    out = [[BiOp(n) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            acc = {}
            for k in range(4):
                for ij1, t1 in a[i][k].t.items():
                    for ij2, t2 in b[k][j].t.items():
                        key = (ij1[0] + ij2[0], ij1[1] + ij2[1])
                        tgt = acc.setdefault(key, {})
                        _kernel.mul_into(tgt, t1, t2, n)
            out[i][j] = BiOp(n, acc)._clean()
    return out


def mat4_eq(a, b):
    for i in range(4):
        for j in range(4):
            if a[i][j] != b[i][j]:
                return False, a[i][j].witness_against(b[i][j])._replace(entry=(i, j))
    return True, None


def embed_first(m2, n, var):
    """M (x) I with bivariate entries; columns of M are in `var` (0: lambda)."""
    z = BiOp(n)
    e = [[BiOp.lift(n, m2.a11, var), BiOp.lift(n, m2.a12, var)],
         [BiOp.lift(n, m2.a21, var), BiOp.lift(n, m2.a22, var)]]
    out = [[z for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                out[2 * i + k][2 * j + k] = e[i][j]
    return out


def embed_second(m2, n, var):
    """I (x) M with bivariate entries."""
    z = BiOp(n)
    e = [[BiOp.lift(n, m2.a11, var), BiOp.lift(n, m2.a12, var)],
         [BiOp.lift(n, m2.a21, var), BiOp.lift(n, m2.a22, var)]]
    out = [[z for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for l in range(2):
                out[2 * i + k][2 * i + l] = e[k][l]
    return out


def transpose_first(m4):
    """Partial transpose in the first tensor leg: (ik),(jl) -> (jk),(il)."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = m4[2 * j + k][2 * i + l]
    return out


def transpose_second(m4):
    """Partial transpose in the second tensor leg: (ik),(jl) -> (il),(jk)."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = m4[2 * i + l][2 * j + k]
    return out


def rbar(n, c0_lambda, c0_mu, const, eta):
    """(c0_lambda*lambda + c0_mu*mu + const) I4 + eta P, as a 4x4 BiOp matrix."""
    s = {}
    if c0_lambda:
        s[(1, 0)] = c0_lambda
    if c0_mu:
        s[(0, 1)] = c0_mu
    if const:
        s[(0, 0)] = const
    diag = BiOp.from_scalar_poly(n, s)
    etab = BiOp.from_scalar_poly(n, {(0, 0): eta})
    z = BiOp(n)
    perm = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    out = [[z for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(4):
            e = BiOp(n)
            if i == j:
                e = e + diag
            if perm[i][j]:
                e = e + etab
            out[i][j] = e
    return out


def chain_sides(x1, x2, n, eta, outer, middle=None):
    """(lhs, rhs) of R(outer) X1 [R(middle)] X2 = X2 [R(middle)] X1 R(outer),
    with x1, x2 the embedded 4x4 factors and outer, middle given as
    (lambda coefficient, mu coefficient, constant)."""
    r_out = rbar(n, *outer, eta)
    if middle is None:
        lhs = mat4_mul(mat4_mul(r_out, x1, n), x2, n)
        rhs = mat4_mul(mat4_mul(x2, x1, n), r_out, n)
    else:
        r_mid = rbar(n, *middle, eta)
        lhs = mat4_mul(mat4_mul(mat4_mul(r_out, x1, n), r_mid, n), x2, n)
        rhs = mat4_mul(mat4_mul(mat4_mul(x2, r_mid, n), x1, n), r_out, n)
    return lhs, rhs
