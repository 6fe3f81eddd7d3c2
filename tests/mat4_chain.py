"""Independent oracle for the exact residuals: bivariate operator
polynomials and the explicit 4x4 product chain.

BiOp is a ring of polynomials in (lambda, mu) with WeylOp coefficients, so
an identity is checked by multiplying each side out and comparing.  Each
side of an exchange relation is a product of 4x4 matrices with BiOp entries
(X1 = X (x) I in lambda, X2 = I (x) X in mu, R(s) = s I + eta P), so every
operator product is recomputed where it occurs.  This is slow but shares
nothing with the product-table assembly in dstlab.quantum.
"""
from dstlab.quantum import Witness
from dstlab.weyl import WeylOp, _kernel


class BiOp:
    """Bivariate polynomial in (lambda, mu) with WeylOp coefficients.

    Stored as {(i, j): term-dict}; multiplication preserves the operator
    order of the factors (lambda and mu commute with everything).
    """

    __slots__ = ("n", "t")

    def __init__(self, n, t=None):
        self.n = n
        self.t = t if t is not None else {}

    @classmethod
    def from_scalar_poly(cls, n, coeffs):
        """coeffs: {(i, j): int or rational}, kept as given (ints stay ints)."""
        key0 = (0,) * (2 * n)
        return cls(n, {ij: {key0: c} for ij, c in coeffs.items() if c != 0})

    @classmethod
    def lift(cls, n, op_poly, var):
        """Univariate operator polynomial -> BiOp in lambda (var=0) or mu (var=1);
        scalar coefficients become multiples of the identity."""
        key0 = (0,) * (2 * n)
        return cls(n, {((k, 0) if var == 0 else (0, k)):
                       dict(c.terms) if isinstance(c, WeylOp) else {key0: c}
                       for k, c in enumerate(op_poly.c)})._clean()

    def copy(self):
        return BiOp(self.n, {k: dict(v) for k, v in self.t.items()})

    def swapped(self):
        """lambda <-> mu, sharing the term dicts: for X(l) Y(m) this is X(m) Y(l)."""
        return BiOp(self.n, {(j, i): terms for (i, j), terms in self.t.items()})

    def __add__(self, other):
        out = self.copy()
        for ij, terms in other.t.items():
            _kernel.add_into(out.t.setdefault(ij, {}), terms)
        return out._clean()

    def __sub__(self, other):
        out = self.copy()
        for ij, terms in other.t.items():
            _kernel.add_into(out.t.setdefault(ij, {}), terms, -1)
        return out._clean()

    def __mul__(self, other):
        out = {}
        for (i1, j1), t1 in self.t.items():
            for (i2, j2), t2 in other.t.items():
                tgt = out.setdefault((i1 + i2, j1 + j2), {})
                _kernel.mul_into(tgt, t1, t2, self.n)
        return BiOp(self.n, out)._clean()

    def _clean(self):
        for ij in [ij for ij, terms in self.t.items() if not _kernel.trim(terms)]:
            del self.t[ij]
        return self

    def __eq__(self, other):
        return self.n == other.n and self.t == other.t

    def witness_against(self, other):
        """First (degree pair, exponent key, coeff difference) where they differ."""
        for ij in sorted(set(self.t) | set(other.t)):
            a = self.t.get(ij, {})
            b = other.t.get(ij, {})
            for key in sorted(set(a) | set(b)):
                ca, cb = a.get(key, 0), b.get(key, 0)
                if ca != cb:
                    return Witness(ij, key, ca - cb)
        return None


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
