"""Quantum chain over the exact Weyl engine: Lax/monodromy matrices, the
RTT and reflection algebras, the boundary-dressed transfer matrix, the
quantum Hamiltonian and the A/B/D* operator relations.

Everything here is an exact identity over rationals: residual operations
return booleans plus a witness (the first differing coefficient), never
floating tolerances.

Conventions pinned by the exact N=1 expansion:
  * momenta are realized as r_i = -eta d_i;
  * the dressed matrix is U(l) = T(l) K_-(l - eta/2, xi_-) sigma2 T^t(-l) sigma2
    (noncommutative transpose, no reordering);
  * the transfer polynomial is tau(l) = xi_+ (A + D) + (l + eta/2) B, i.e.
    tr[K_+(l + eta/2, xi_+) U(l)]; the +eta/2 shift is what removes the
    l^(2N+1) term and reproduces the quoted Hamiltonian including its
    -eta^2/8 constant (a -eta/2 shift there does neither).

Integer units.  RTT, the dressed reflection algebra, [tau(l), tau(m)] = 0
and the A/B/D* relations run with every coefficient a Python int.  With
D = lcm(2 den eta, den xi_-, den xi_+) (see integer_units) they substitute
l = Lambda/D, m = M/D and multiply every factor by D, so D eta, D eta/2,
D xi_- and D xi_+ are integers:

    L~_i = [[Lambda - (D eta) q_i d_i, D q_i], [-(D eta) d_i, D]]
    K~_- = [[D xi_-, Lambda - D eta/2], [0, D xi_-]]
    R~   = (Lambda - M) I + (D eta) P      (middle argument -D eta when dressed)

Both sides of an identity pick up the same power D^k: 2N+1 for RTT, 4N+4
for the dressed algebra and for tau, and 4N+2, 4N+5, 4N+6 for the BB, AB
and D*B relations.  So the integer identity in (Lambda, M) holds exactly
when the rational one holds in (l, m), at the same parameter point.  The
builders (qlax, qmonodromy, dressed_U_op, qtau, abcd_operators) take the
units D as an optional last argument; the default D = 1 is the rational
operator itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm
from typing import NamedTuple

from ._rat import rat
from .errors import CostGuard, DegreeNotPreserved, NoOrderingMatches
from .poly import Mat2, Poly
from .weyl import WeylOp, _kernel


@dataclass(frozen=True)
class QParams:
    """Exact rational chain parameters."""

    eta: object
    xi_minus: object = 0
    xi_plus: object = 0

    def __post_init__(self):
        object.__setattr__(self, "eta", rat(self.eta))
        object.__setattr__(self, "xi_minus", rat(self.xi_minus))
        object.__setattr__(self, "xi_plus", rat(self.xi_plus))
        if self.eta == 0:
            raise ValueError("eta must be nonzero")


def integer_units(params):
    """D = lcm(2 den eta, den xi_-, den xi_+): the parameters, and eta/2,
    are integers in units of 1/D."""
    return lcm(2 * int(params.eta.denominator), int(params.xi_minus.denominator),
               int(params.xi_plus.denominator))


def _in_units(x, units):
    """units * x: x itself when units == 1 (the rational case), else an int."""
    if units == 1:
        return x
    num, den = int(x.numerator), int(x.denominator)
    if units % den:
        raise ValueError(f"units {units} do not clear the denominator of {x}")
    return num * (units // den)


class Witness(NamedTuple):
    """First differing coefficient of an exact check: the (lambda, mu) degree
    pair, the exponent key, lhs - rhs, and the 4x4 entry for matrix identities."""

    degrees: tuple
    key: tuple
    difference: object
    entry: tuple = None


# ---------------------------------------------------------------------------
# operator-valued polynomials and bivariate polynomials
# ---------------------------------------------------------------------------

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
    def from_op(cls, n, op, power=(0, 0)):
        if op.is_zero():
            return cls(n)
        return cls(n, {power: dict(op.terms)})

    @classmethod
    def lift(cls, n, op_poly, var):
        """Univariate operator polynomial -> BiOp in lambda (var=0) or mu (var=1)."""
        t = {}
        for k, c in enumerate(op_poly.c):
            if isinstance(c, WeylOp):
                if c.is_zero():
                    continue
                t[(k, 0) if var == 0 else (0, k)] = dict(c.terms)
            elif c != 0:
                t[(k, 0) if var == 0 else (0, k)] = {(0,) * (2 * n): c}
        return cls(n, t)

    def copy(self):
        return BiOp(self.n, {k: dict(v) for k, v in self.t.items()})

    def is_zero(self):
        return all(not v for v in self.t.values())

    def __add__(self, other):
        out = self.copy()
        for ij, terms in other.t.items():
            tgt = out.t.setdefault(ij, {})
            _kernel.add_into(tgt, terms)
        return out._clean()

    def __sub__(self, other):
        out = self.copy()
        for ij, terms in other.t.items():
            tgt = out.t.setdefault(ij, {})
            _kernel.add_into(tgt, terms, -1)
        return out._clean()

    def __neg__(self):
        return BiOp(self.n, {ij: {k: -c for k, c in terms.items()}
                             for ij, terms in self.t.items()})

    def __mul__(self, other):
        out = {}
        for (i1, j1), t1 in self.t.items():
            for (i2, j2), t2 in other.t.items():
                key = (i1 + i2, j1 + j2)
                tgt = out.setdefault(key, {})
                _kernel.mul_into(tgt, t1, t2, self.n)
        return BiOp(self.n, out)._clean()

    def _clean(self):
        dead = []
        for ij, terms in self.t.items():
            _kernel.trim(terms)
            if not terms:
                dead.append(ij)
        for ij in dead:
            del self.t[ij]
        return self

    def __eq__(self, other):
        return self.n == other.n and self._cmp() == other._cmp()

    def _cmp(self):
        return {ij: terms for ij, terms in self.t.items() if terms}

    def witness_against(self, other):
        """First (degree pair, exponent key, coeff difference) where they differ."""
        keys = sorted(set(self.t) | set(other.t))
        for ij in keys:
            a = self.t.get(ij, {})
            b = other.t.get(ij, {})
            for key in sorted(set(a) | set(b)):
                ca, cb = a.get(key, 0), b.get(key, 0)
                if ca != cb:
                    return Witness(ij, key, ca - cb)
        return None


def _mat4_mul(a, b, n):
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


def _mat4_eq(a, b):
    for i in range(4):
        for j in range(4):
            if a[i][j] != b[i][j]:
                return False, a[i][j].witness_against(b[i][j])._replace(entry=(i, j))
    return True, None


def _embed_first(m2, n, var):
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


def _embed_second(m2, n, var):
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


def _transpose_first(m4):
    """Partial transpose in the first tensor leg: (ik),(jl) -> (jk),(il)."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = m4[2 * j + k][2 * i + l]
    return out


def _transpose_second(m4):
    """Partial transpose in the second tensor leg: (ik),(jl) -> (il),(jk)."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = m4[2 * i + l][2 * j + k]
    return out


def _rbar(n, c0_lambda, c0_mu, const, eta):
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


# ---------------------------------------------------------------------------
# quantum Lax and monodromy
# ---------------------------------------------------------------------------

def qlax(n_sites, i, params, units=1):
    """Site Lax matrix [[lambda - eta q_i d_i, q_i], [-eta d_i, 1]].

    In units D it is D L(Lambda/D) as a polynomial in Lambda:
    [[Lambda - (D eta) q_i d_i, D q_i], [-(D eta) d_i, D]]."""
    if not 1 <= i <= n_sites:
        raise IndexError(f"site {i} out of range 1..{n_sites}")
    one = WeylOp.identity(n_sites)
    q = WeylOp.q(n_sites, i - 1)
    r = WeylOp.r(n_sites, i - 1, _in_units(params.eta, units))
    return Mat2(Poly([q * r, one]), Poly([units * q]), Poly([r]), Poly([units * one]))


def qmonodromy(n_sites, params, units=1):
    """T(lambda) = L_N ... L_1 with operator-polynomial entries (D^N T(Lambda/D)
    in units D)."""
    t = qlax(n_sites, n_sites, params, units)
    for i in range(n_sites - 1, 0, -1):
        t = t @ qlax(n_sites, i, params, units)
    return t


def op_adjugate_neg(t):
    """sigma2 T^t(-lambda) sigma2 entrywise, without reordering operator factors."""
    return Mat2(t.a22.flip(), -t.a12.flip(), -t.a21.flip(), t.a11.flip())


def dressed_U_op(n_sites, params, units=1):
    """U(lambda) = T(lambda) K_-(lambda - eta/2, xi_-) sigma2 T^t(-lambda) sigma2
    (D^(2N+1) U(Lambda/D) in units D)."""
    t = qmonodromy(n_sites, params, units)
    one = WeylOp.identity(n_sites)
    zero = Poly()
    xi_minus = _in_units(params.xi_minus, units)
    half = _in_units(params.eta / 2, units)
    k_minus = Mat2(Poly([xi_minus * one]),
                   Poly([-half * one, one]),
                   zero,
                   Poly([xi_minus * one]))
    return t @ k_minus @ op_adjugate_neg(t)


def rtt_residual(n_sites, params, force=False):
    """Exact check of the RTT exchange relation, denominators cleared:

        [(l-m) I + eta P] T1(l) T2(m) = T2(m) T1(l) [(l-m) I + eta P]

    run in integer units.  Returns (ok, witness)."""
    if n_sites > 2 and not force:
        raise CostGuard(f"RTT at N={n_sites} is exponential; pass force=True")
    d = integer_units(params)
    t = qmonodromy(n_sites, params, d)
    t1 = _embed_first(t, n_sites, 0)
    t2 = _embed_second(t, n_sites, 1)
    rb = _rbar(n_sites, 1, -1, 0, _in_units(params.eta, d))
    lhs = _mat4_mul(_mat4_mul(rb, t1, n_sites), t2, n_sites)
    rhs = _mat4_mul(_mat4_mul(t2, t1, n_sites), rb, n_sites)
    return _mat4_eq(lhs, rhs)


def _scalar_mat2(n, entries):
    """2x2 of scalar lambda-polynomials as operator polys on an n-site chain."""
    one = WeylOp.identity(n)

    def mk(coeffs):
        return Poly([rat(c) * one for c in coeffs])
    return Mat2(mk(entries[0]), mk(entries[1]), mk(entries[2]), mk(entries[3]))


def q_reflection_minus(params, n_sites=0):
    """Exact check of the reflection algebra for K_-(lambda) (scalar identity):

        Rb(l-m) K1(l) Rb(l+m) K2(m) = K2(m) Rb(l+m) K1(l) Rb(l-m).
    """
    n = n_sites
    k = _scalar_mat2(n, ([params.xi_minus], [0, 1], [0], [params.xi_minus]))
    k1 = _embed_first(k, n, 0)
    k2 = _embed_second(k, n, 1)
    r_minus = _rbar(n, 1, -1, 0, params.eta)
    r_plus = _rbar(n, 1, 1, 0, params.eta)
    lhs = _mat4_mul(_mat4_mul(_mat4_mul(r_minus, k1, n), r_plus, n), k2, n)
    rhs = _mat4_mul(_mat4_mul(_mat4_mul(k2, r_plus, n), k1, n), r_minus, n)
    return _mat4_eq(lhs, rhs)


def q_reflection_plus(params, shift=(1, 1), n_sites=0):
    """Exact check of the dual reflection algebra (scalar identity):

        Rb(-l+m) K1^t1 Rb(-l-m-2s) K2^t2 = K2^t2 Rb(-l-m-2s) K1^t1 Rb(-l+m)

    where the K factors are K_+(lambda + s) and the middle argument carries
    the matching -2s.  The published -2*eta middle argument corresponds to
    s = eta (shift=(1, 1)); the transfer-matrix construction uses s = eta/2
    with middle -l-m-eta; the bare matrix (s = 0) pairs with -l-m.  The
    identity fails for any mismatched (shift, middle) pair.
    """
    n = n_sites
    s = rat(shift[0], shift[1]) * params.eta
    k = _scalar_mat2(n, ([params.xi_plus], [0], [s, 1], [params.xi_plus]))
    k1t = _transpose_first(_embed_first(k, n, 0))
    k2t = _transpose_second(_embed_second(k, n, 1))
    r_a = _rbar(n, -1, 1, 0, params.eta)
    r_b = _rbar(n, -1, -1, -2 * s, params.eta)
    lhs = _mat4_mul(_mat4_mul(_mat4_mul(r_a, k1t, n), r_b, n), k2t, n)
    rhs = _mat4_mul(_mat4_mul(_mat4_mul(k2t, r_b, n), k1t, n), r_a, n)
    return _mat4_eq(lhs, rhs)


def q_reflection_dressed(n_sites, params, force=False):
    """Exact check of the dressed exchange algebra for U(lambda):

        Rb(l-m) U1(l) Rb(l+m-eta) U2(m) = U2(m) Rb(l+m-eta) U1(l) Rb(l-m)

    run in integer units.  Returns (ok, witness)."""
    if n_sites > 2 and not force:
        raise CostGuard(f"dressed reflection at N={n_sites} is exponential; pass force=True")
    d = integer_units(params)
    eta = _in_units(params.eta, d)
    u = dressed_U_op(n_sites, params, d)
    u1 = _embed_first(u, n_sites, 0)
    u2 = _embed_second(u, n_sites, 1)
    r_minus = _rbar(n_sites, 1, -1, 0, eta)
    r_mid = _rbar(n_sites, 1, 1, -eta, eta)
    lhs = _mat4_mul(_mat4_mul(_mat4_mul(r_minus, u1, n_sites), r_mid, n_sites), u2, n_sites)
    rhs = _mat4_mul(_mat4_mul(_mat4_mul(u2, r_mid, n_sites), u1, n_sites), r_minus, n_sites)
    return _mat4_eq(lhs, rhs)


# ---------------------------------------------------------------------------
# transfer polynomial, Hamiltonian, operator relations
# ---------------------------------------------------------------------------

def abcd_operators(n_sites, params, units=1):
    """(A, B, C, D, Dstar) entries of U plus Dstar = 2 lambda D - eta A
    (each D^(2N+1) times the rational entry in units D, Dstar D^(2N+2))."""
    u = dressed_U_op(n_sites, params, units)
    a, b, c, d = u.a11, u.a12, u.a21, u.a22
    dstar = d.shift_up(1) * 2 - a * _in_units(params.eta, units)
    return a, b, c, d, dstar


def qtau(n_sites, params, units=1):
    """Transfer polynomial tau(lambda) = xi_+ (A + D) + (lambda + eta/2) B
    (D^(2N+2) tau(Lambda/D) in units D)."""
    u = dressed_U_op(n_sites, params, units)
    one = WeylOp.identity(n_sites)
    shift = Poly([_in_units(params.eta / 2, units) * one, one])
    return (u.a11 + u.a22) * _in_units(params.xi_plus, units) + shift * u.a12


def tau_commutes(n_sites, params):
    """Exact [tau(lambda), tau(mu)] = 0 check in integer units; returns (ok, witness)."""
    t = qtau(n_sites, params, integer_units(params))
    a = BiOp.lift(n_sites, t, 0)
    b = BiOp.lift(n_sites, t, 1)
    lhs = a * b
    rhs = b * a
    return lhs == rhs, lhs.witness_against(rhs)


HQ_ORDERINGS = ("qrqr", "rqrq", "q2r2", "symmetric")


def hq_candidate(n_sites, params, ordering):
    """Quoted open-chain quantum Hamiltonian under a chosen ordering of (q_i r_i)^2:

        sum q_{i+1} r_i - 1/2 sum (q_i r_i)^2 - eta^2/8 + xi_+ r_N + xi_- q_1
    """
    n = n_sites
    eta = params.eta
    qs = [WeylOp.q(n, i) for i in range(n)]
    rs = [WeylOp.r(n, i, eta) for i in range(n)]
    out = WeylOp.scalar(n, -rat(eta) ** 2 / 8)
    out = out + params.xi_plus * rs[-1] + params.xi_minus * qs[0]
    for i in range(n - 1):
        out = out + qs[i + 1] * rs[i]
    half = rat(1, 2)
    for i in range(n):
        qr = qs[i] * rs[i]
        rq = rs[i] * qs[i]
        if ordering == "qrqr":
            sq = qr * qr
        elif ordering == "rqrq":
            sq = rq * rq
        elif ordering == "q2r2":
            sq = qs[i] * qs[i] * rs[i] * rs[i]
        elif ordering == "symmetric":
            sq = half * (qr * qr + rq * rq)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        out = out - half * sq
    return out


def hq_extract(n_sites, params):
    """Extract the Hamiltonian from tau and identify the matching ordering.

    Returns (operator, report) where report lists the ordering, the constant
    shift against the quoted form (zero when the match is literal), and the
    sign of tau's leading coefficient.
    """
    if n_sites > 3:
        raise CostGuard("hq_extract is exponential in N; N <= 3 supported")
    t = qtau(n_sites, params)
    lead = t.coeff(2 * n_sites + 2)
    sign = lead.scalar_part()
    if not (lead == WeylOp.scalar(n_sites, sign) and sign * sign == 1):
        raise AssertionError("tau leading coefficient is not +-identity")
    sub = t.coeff(2 * n_sites + 1)
    if not (isinstance(sub, WeylOp) and sub.is_zero() or sub == 0):
        raise AssertionError("tau has an unexpected subleading term")
    coeff = t.coeff(2 * n_sites)
    h = rat(1, 2) * (sign * coeff)
    report = {"lead_sign": int(sign), "ordering": None, "constant_shift": None,
              "exact": False}
    for ordering in HQ_ORDERINGS:
        diff = h - hq_candidate(n_sites, params, ordering)
        if diff.is_zero():
            report.update(ordering=ordering, constant_shift=rat(0), exact=True)
            return h, report
        if diff == WeylOp.scalar(n_sites, diff.scalar_part()):
            report.update(ordering=ordering, constant_shift=diff.scalar_part(),
                          exact=False)
            return h, report
    raise NoOrderingMatches(f"extracted minus candidates is operator-valued: {h!r}")


def classical_image(op, eta):
    """Map q^a d^b -> (-1/eta)^{|b|} q^a r^b; returns {(a, b): rational}."""
    n = op.n
    out = {}
    scale = -1 / rat(eta)
    for key, c in op.terms.items():
        tb = sum(key[n:])
        out[(key[:n], key[n:])] = c * scale ** tb
    return out


def hq_classical_limit_residual(n_sites, xi_minus, xi_plus, max_eta_degree=None):
    """Exact eta -> 0 limit of the extracted Hamiltonian's classical image.

    The image coefficients are polynomials in eta; they are interpolated
    exactly from sample values at eta = 1/k and evaluated at eta = 0, then
    compared against the classical open-chain Hamiltonian with the boundary
    couplings (xi_-, xi_+).  Returns the number of mismatched monomials.
    """
    deg = max_eta_degree if max_eta_degree is not None else 2 * n_sites + 2
    etas = [rat(1, k) for k in range(1, deg + 2)]
    images = []
    for eta in etas:
        h, _ = hq_extract(n_sites, QParams(eta, xi_minus, xi_plus))
        images.append(classical_image(h, eta))
    monos = set()
    for img in images:
        monos.update(img)

    def lagrange_at_zero(ys):
        total = rat(0)
        for j, yj in enumerate(ys):
            w = rat(1)
            for k2 in range(len(etas)):
                if k2 != j:
                    w *= (0 - etas[k2]) / (etas[j] - etas[k2])
            total += yj * w
        return total

    n = n_sites
    classical = {}
    for i in range(n - 1):
        a = [0] * n
        b = [0] * n
        a[i + 1] = 1
        b[i] = 1
        classical[(tuple(a), tuple(b))] = rat(1)
    for i in range(n):
        a = [0] * n
        b = [0] * n
        a[i] = 2
        b[i] = 2
        classical[(tuple(a), tuple(b))] = rat(-1, 2)
    a = [0] * n
    a[0] = 1
    classical[(tuple(a), (0,) * n)] = rat(xi_minus)
    b = [0] * n
    b[-1] = 1
    classical[((0,) * n, tuple(b))] = rat(xi_plus)

    bad = 0
    for mono in monos | set(classical):
        limit = lagrange_at_zero([img.get(mono, rat(0)) for img in images])
        if limit != classical.get(mono, rat(0)):
            bad += 1
    return bad


def abd_commutation_residual(n_sites, params, force=False):
    """Exact check of the exchange relations among A, B and Dstar with all
    denominators cleared by 2 mu (l-m)(l+m), run in integer units.
    Returns {name: (ok, witness)}."""
    if n_sites > 1 and not force:
        raise CostGuard("A/B/Dstar relations are exponential in N; pass force=True")
    n = n_sites
    d = integer_units(params)
    a_p, b_p, _, _, ds_p = abcd_operators(n, params, d)
    eta = _in_units(params.eta, d)
    A_l = BiOp.lift(n, a_p, 0)
    A_m = BiOp.lift(n, a_p, 1)
    B_l = BiOp.lift(n, b_p, 0)
    B_m = BiOp.lift(n, b_p, 1)
    D_m = BiOp.lift(n, ds_p, 1)
    D_l = BiOp.lift(n, ds_p, 0)

    def sc(coeffs):
        return BiOp.from_scalar_poly(n, coeffs)

    # scalar prefactor polynomials in (lambda, mu)
    two_mu = sc({(0, 1): 2})
    lm = sc({(1, 0): 1, (0, 1): -1})                    # l - m
    lp = sc({(1, 0): 1, (0, 1): 1})                     # l + m
    lm_e = sc({(1, 0): 1, (0, 1): -1, (0, 0): -eta})    # l - m - eta
    lm_pe = sc({(1, 0): 1, (0, 1): -1, (0, 0): eta})    # l - m + eta
    lp_e = sc({(1, 0): 1, (0, 1): 1, (0, 0): -eta})     # l + m - eta
    lp_pe = sc({(1, 0): 1, (0, 1): 1, (0, 0): eta})     # l + m + eta
    two_mu_e = sc({(0, 1): 2, (0, 0): -eta})            # 2 mu - eta
    two_l_pe = sc({(1, 0): 2, (0, 0): eta})             # 2 lambda + eta
    eta_b = sc({(0, 0): eta})

    out = {}
    lhs11 = B_l * B_m
    rhs11 = B_m * B_l
    out["bb"] = (lhs11 == rhs11, lhs11.witness_against(rhs11))

    lhs12 = two_mu * lm * lp * (A_l * B_m)
    rhs12 = two_mu * lm_e * lp_e * (B_m * A_l) \
        + eta_b * two_mu_e * lp * (B_l * A_m) \
        - eta_b * lm * (B_l * D_m)
    out["ab"] = (lhs12 == rhs12, lhs12.witness_against(rhs12))

    # The coefficient of B(mu) Dstar(lambda) is (l-m+eta)(l+m+eta): the eta-sign
    # of the second factor is the unique one making the relation an identity
    # (pinned by exhaustive sign search against the exact N=1 operators).
    lhs13 = two_mu * lm * lp * (D_l * B_m)
    rhs13 = two_mu * lm_pe * lp_pe * (B_m * D_l) \
        + eta_b * two_l_pe * two_mu_e * lm * (B_l * A_m) \
        - eta_b * two_l_pe * lp * (B_l * D_m)
    out["db"] = (lhs13 == rhs13, lhs13.witness_against(rhs13))
    return out


# ---------------------------------------------------------------------------
# finite-dimensional representations on fixed-degree subspaces
# ---------------------------------------------------------------------------

def degree_basis(n_sites, m):
    """Monomials of total degree m in n variables, lexicographic."""
    def gen(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for k in range(remaining, -1, -1):
            yield from gen(prefix + (k,), remaining - k, slots - 1)
    return sorted(gen((), m, n_sites), reverse=True)


def rep_on_degree(op, n_sites, m, dim_guard=64):
    """Matrix of a WeylOp on the homogeneous degree-m monomial basis.

    Raises DegreeNotPreserved (with the offending basis vector) if the image
    leaves the subspace; entries are exact rationals.
    """
    basis = degree_basis(n_sites, m)
    dim = comb(n_sites + m - 1, m)
    assert len(basis) == dim
    if dim > dim_guard:
        raise CostGuard(f"representation dimension {dim} > {dim_guard}")
    index = {mono: i for i, mono in enumerate(basis)}
    cols = []
    for mono in basis:
        img = op.apply({mono: rat(1)})
        col = [rat(0)] * dim
        for tgt, c in img.items():
            if tgt not in index:
                raise DegreeNotPreserved(f"basis vector {mono} maps onto {tgt}")
            col[index[tgt]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)], basis


def rep_of_op_poly(op_poly, lam0, n_sites, m, dim_guard=64):
    """Complex matrix of an operator polynomial evaluated at lam0.

    Each lambda-coefficient is represented exactly, then the powers of lam0
    are combined numerically (keeps rationals and floats separate)."""
    import numpy as np

    dim = comb(n_sites + m - 1, m)
    if dim > dim_guard:
        raise CostGuard(f"representation dimension {dim} > {dim_guard}")
    total = np.zeros((dim, dim), dtype=complex)
    power = 1.0 + 0j
    for k, c in enumerate(op_poly.c):
        if isinstance(c, WeylOp) and not c.is_zero():
            mat, _ = rep_on_degree(c, n_sites, m, dim_guard)
            total += power * np.array([[float(e) for e in row] for row in mat])
        power *= lam0
    return total
