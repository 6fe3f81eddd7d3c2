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
    -eta^2/8 constant (a -eta/2 shift there does neither);
  * K_-(l) = [[xi_-, l], [0, xi_-]] and K_+(l)^t = [[xi_+, l], [0, xi_+]]
    have one shape, and `_boundary_k` is the one builder of both: K_- for
    dressed_U_op and q_reflection_minus, K_+^t for q_reflection_plus.

Integer units.  RTT, the dressed reflection algebra, [tau(l), tau(m)] = 0,
the A/B/D* relations and the Hamiltonian extraction run with every
coefficient a Python int.  With
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
operator itself; hq_extract makes the one division back to rationals.

Exact residuals.  Every exact operator identity is checked as one
residual lhs - rhs, formed as its antisymmetric part where it has one
rather than as two sides subtracted, and written as parts (scalar, table,
swap): a scalar polynomial in (l, m), a table {(i, j): term dict} of
operator coefficients, and whether to read the table with l and m
exchanged.  _assemble sums the parts by degree shifts and scalings through
add_into; _verdict gives (ok, witness), the witness at the lowest degree
pair, then the lowest exponent key.

  * [tau(l), tau(m)] = 0 and B(l) B(m) = B(m) B(l) are commutator tables,
    {(i, j): [x_i, x_j]} over the lambda-coefficients x_i: each
    commutator is formed once for i < j by the kernel's commutator_into,
    which forms neither product, and negated at (j, i); i = j is zero and
    left out.  The table is the residual itself.
  * RTT, the reflection algebras for K_- and K_+ and the dressed algebra
    have the shape R(s) X1(l) [R(t)] X2(m) = X2(m) [R(t)] X1(l) R(s) for a
    2x2 operator-polynomial matrix X (T, K_-, K_+^t or U) and
    R(s) = s I + eta P with scalar s, t: exchange_residual forms the 16
    entries from the 16 products X_ab(l) X_cd(m), no 4x4 product.  With s
    antisymmetric in (l, m), t symmetric or absent and eta nonzero, as at
    every caller, R(-s) Z(l, m) R(-s) = -(eta^2 - s^2) P Z(m, l) P holds for
    the residual Z of any X, so (0,2), (2,0), (2,3) and (3,2) vanish once
    (0,1), (1,0), (1,3) and (3,1) do, and (2,2) once (1,1), (1,2) and (2,1)
    do.  Each of the five follows those in row-major order, so none is the
    first nonzero entry, which holds the witness: exchange_check skips them.
  * The AB and Dstar-B relations are parts over the four products B A,
    B Dstar, A B and Dstar B, with products of linear factors as scalars.

Packed keys.  Every WeylOp holds its terms on packed int keys (see
dstlab.weyl), and each check brings its operators' own packed dicts to one
slot size (_packed), so its tables and residual are keyed by packed ints,
which hash and add faster than tuples.  Only what leaves a check is
unpacked: the terms of the witness's degree pair, whose lowest key is taken
in tuple order (an int compares the last slot first), and the entries
exchange_residual yields.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm
from typing import NamedTuple

from ._rat import rat
from .errors import CostGuard, DegreeNotPreserved, NoOrderingMatches, TauShapeMismatch
from .poly import Mat2, Poly, adjugate_neg
from .weyl import WeylOp, _kernel, matmul_entries


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
# exact residuals from operator product tables
# ---------------------------------------------------------------------------

def _lift_terms(op_poly, n):
    """{degree: Packed term dict} of a univariate operator polynomial: each
    operator's own packed dict, not copied; scalar coefficients become
    multiples of the identity, whose all-zero key packs to 0."""
    out = {}
    for k, c in enumerate(op_poly.c):
        if isinstance(c, WeylOp):
            if c.packed:
                out[k] = c.packed
        elif c != 0:
            out[k] = WeylOp.scalar(n, c).packed
    return out


def _packed(lifted, n):
    """The lifted polynomials of one check at one slot size, the widest of
    theirs: (size, [{degree: Packed term dict}]), a dict packed narrower
    repacked to it."""
    size = max((t.size for x in lifted for t in x.values()), default=1)
    return size, [{k: t if t.size == size else _kernel.repack(t, n, size)
                   for k, t in x.items()} for x in lifted]


def _product_table(x, y, n):
    """X(l) Y(m) as {(i, j): term dict} from lifted polynomials x and y: one
    operator product per pair of degrees, operator order kept."""
    mul_into = _kernel.mul_into
    return {(i, j): mul_into({}, ti, tj, n) for i, ti in x.items() for j, tj in y.items()}


def _commutator_table(x, n):
    """[X(l), X(m)] as {(i, j): term dict} from a lifted polynomial x:
    [x_i, x_j] is formed once for i < j and its negation stands at (j, i);
    i = j, which is zero, is left out, and so are exactly-zero terms and
    degrees, so the table is an assembled residual."""
    commutator_into, trim = _kernel.commutator_into, _kernel.trim
    degrees = sorted(x)
    out = {}
    for k, i in enumerate(degrees):
        for j in degrees[k + 1:]:
            terms = trim(commutator_into({}, x[i], x[j], n))
            if terms:
                out[(i, j)] = terms
                out[(j, i)] = {key: -c for key, c in terms.items()}
    return out


def _minus_swapped(x, y):
    """The table x - y~, entry (i, j) being x(i, j) - y(j, i), with
    exactly-zero terms and degrees dropped."""
    add_into, trim = _kernel.add_into, _kernel.trim
    out = {ij: dict(terms) for ij, terms in x.items()}
    for (i, j), terms in y.items():
        add_into(out.setdefault((j, i), {}), terms, -1)
    for ij in [ij for ij, terms in out.items() if not trim(terms)]:
        del out[ij]
    return out


def _scalar(c_lambda, c_mu, const):
    """The scalar polynomial c_lambda l + c_mu m + const as {(i, j): coeff}."""
    out = {(1, 0): c_lambda, (0, 1): c_mu, (0, 0): const}
    return {ij: c for ij, c in out.items() if c != 0}


def _scalar_mul(p, *qs):
    """Product of scalar polynomials {(i, j): coeff}."""
    for q in qs:
        out = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0) + c1 * c2
        p = {ij: c for ij, c in out.items() if c != 0}
    return p


def _assemble(parts):
    """lhs - rhs of an exact identity written as parts (scalar, table, swap):
    the sum of scalar(l, m) times the product table, with the table's
    (l, m) degrees swapped when swap is set: the table X(l) Y(m) swapped is
    X(m) Y(l).  The scalars are applied as degree shifts and scalings
    through add_into; exactly-zero terms and degrees are dropped."""
    add_into, trim = _kernel.add_into, _kernel.trim
    res = {}
    for scalar, table, swap in parts:
        for (di, dj), f in scalar.items():
            for (i, j), terms in table.items():
                ij = (j + di, i + dj) if swap else (i + di, j + dj)
                tgt = res.get(ij)
                if tgt is None:
                    tgt = res[ij] = {}
                add_into(tgt, terms, f)
    for ij in [ij for ij, terms in res.items() if not trim(terms)]:
        del res[ij]
    return res


def _verdict(res, entry=None, packing=None):
    """(ok, witness) of an assembled residual; the witness is its lowest
    degree pair, then lowest exponent key.  A residual on packed keys gives
    packing = (n, size): the terms of its lowest degree pair are unpacked
    before the key is chosen, since the int order of packed keys is not the
    tuple order (it reads the last slot first)."""
    if not res:
        return True, None
    ij = min(res)
    terms = res[ij] if packing is None else _kernel.unpack_into({}, res[ij], *packing)
    key = min(terms)
    return False, Witness(ij, key, terms[key], entry)


def exchange_residual(x, n, eta, outer, middle=None):
    """lhs - rhs of the exchange relation of a 2x2 operator-polynomial matrix X,

        R(s) X1(l) R(t) X2(m) = X2(m) R(t) X1(l) R(s)      (middle t)
        R(s) X1(l) X2(m)      = X2(m) X1(l) R(s)           (no middle)

    with X1 = X (x) I, X2 = I (x) X, R(s) = s I + eta P, and s, t the scalar
    polynomials given as (lambda coefficient, mu coefficient, constant).
    Yields ((row, col), {(i, j): term dict}) for the 16 entries of the 4x4
    residual in row-major order, with exactly-zero terms and degrees dropped.

    No 4x4 product is formed.  The 16 operator products
    P[ab][cd] = X_ab(l) X_cd(m) are multiplied once; the reverse order
    X_cd(m) X_ab(l) is P[cd][ab] with its (l, m) degrees swapped (~).  In
    the entry ((a, c), (b, d)), with S[a][d] = sum_e P[ae][ed],

        lhs = s t P[ab][cd]  + eta t P[cb][ad]  + eta s [c=b] S[a][d]  + eta^2 [a=b] S[c][d]
        rhs = s t P[cd][ab]~ + eta t P[cb][ad]~ + eta s [a=d] S[c][b]~ + eta^2 [a=b] S[c][d]~

    (t = 1 and no S terms without a middle), from X1 X2 = P, X2 X1 = P~,
    X1 P X2 = [c=b] S[a][d], X2 P X1 = [a=d] S[c][b]~, and P Z (Z P)
    exchanging rows a<->c (columns b<->d) of Z.

    Parts under the same scalar up to sign are differenced once before they
    are scaled (_minus_swapped).  P[ab][cd] - P[cd][ab]~ is formed once per
    unordered pair {ab, cd}; the mirrored entry ((c, a), (d, b)) reads it
    swapped under -s t.  P[cb][ad] - P[cb][ad]~ and S[c][d] - S[c][d]~ are
    one part each.  Each entry's parts are summed by _assemble on packed
    keys, and a nonzero entry is unpacked as it is yielded."""
    size, lifted = _packed([_lift_terms(e, n) for e in x.entries()], n)
    for entry, res in _exchange_entries(lifted, n, eta, outer, middle, False):
        yield entry, {ij: _kernel.unpack_into({}, terms, n, size) for ij, terms in res.items()}


def _exchange_entries(lifted, n, eta, outer, middle, crossing):
    """The (entry, residual) pairs of exchange_residual on packed keys, in
    row-major order, from X's entries lifted and packed (index 2a + b);
    with `crossing`, less those the crossing identity decides."""
    add_into = _kernel.add_into
    prod = {(u, v): _product_table(xu, xv, n)
            for u, xu in enumerate(lifted) for v, xv in enumerate(lifted)}

    # the entries the crossing identity decides, where it holds, and the
    # swapped differences P[w] - P[w]~ that only they read
    s_lambda, s_mu, s_const = outer
    crossed = ({(0, 2), (2, 0), (2, 2), (2, 3), (3, 2)}
               if crossing and eta and s_lambda == -s_mu != 0 and not s_const
               and (middle is None or middle[0] == middle[1]) else ())
    unread = {(2 * (row % 2) + col // 2, 2 * (row // 2) + col % 2) for row, col in crossed}
    s = _scalar(*outer)
    eta_s = {ij: eta * c for ij, c in s.items()}
    if middle is None:
        t = {(0, 0): 1}
        sums = None
    else:
        t = _scalar(*middle)
        # S[a][d] = P[a0][0d] + P[a1][1d], from copies of the e = 0 cells
        sums = [[{ij: dict(terms) for ij, terms in prod[2 * a, d].items()} for d in range(2)]
                for a in range(2)]
        for a in range(2):
            for d in range(2):
                acc = sums[a][d]
                for ij, terms in prod[2 * a + 1, 2 + d].items():
                    add_into(acc.setdefault(ij, {}), terms)
        sums_swapped = [[_minus_swapped(p, p) for p in row] for row in sums]
    # exchanged[u, v] = P[u][v] - P[v][u]~ (u <= v) and swapped[u, v] =
    # P[u][v] - P[u][v]~; each product is dropped once its differences are formed
    exchanged, swapped = {}, {}
    for u in range(4):
        puu = prod.pop((u, u))
        exchanged[u, u] = swapped[u, u] = _minus_swapped(puu, puu)
        for v in range(u + 1, 4):
            puv, pvu = prod.pop((u, v)), prod.pop((v, u))
            exchanged[u, v] = _minus_swapped(puv, pvu)
            for w, p in (((u, v), puv), ((v, u), pvu)):
                if w not in unread:
                    swapped[w] = _minus_swapped(p, p)

    st = _scalar_mul(s, t)
    eta_t = {ij: eta * c for ij, c in t.items()}
    eta2 = {(0, 0): eta * eta}

    def neg(p):
        return {ij: -c for ij, c in p.items()}

    st_neg, eta_s_neg = neg(st), neg(eta_s)

    for row in range(4):
        a, c = divmod(row, 2)
        for col in range(4):
            if (row, col) in crossed:
                continue
            b, d = divmod(col, 2)
            u, v = 2 * a + b, 2 * c + d
            parts = [(st, exchanged[u, v], False) if u <= v else (st_neg, exchanged[v, u], True),
                     (eta_t, swapped[2 * c + b, 2 * a + d], False)]
            if sums is not None:
                if c == b:
                    parts.append((eta_s, sums[a][d], False))
                if a == d:
                    parts.append((eta_s_neg, sums[c][b], True))
                if a == b:
                    parts.append((eta2, sums_swapped[c][d], False))
            yield (row, col), _assemble(parts)


def exchange_check(x, n, eta, outer, middle=None):
    """Exact check of the exchange relation of exchange_residual.  Returns
    (ok, witness), the witness at the first nonzero residual entry in
    row-major order, lowest degree pair and exponent key; entries after it
    are not formed, nor, under the crossing identity, the five entries that
    cannot be the first nonzero one."""
    size, lifted = _packed([_lift_terms(e, n) for e in x.entries()], n)
    for entry, res in _exchange_entries(lifted, n, eta, outer, middle, True):
        if res:
            return _verdict(res, entry, (n, size))
    return True, None


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


def _boundary_k(n_sites, xi, shift):
    """[[xi, lambda + shift], [0, xi]] with entries multiples of the identity
    on an n-site chain: the exact engine's one K builder.  It is K_-(lambda +
    shift) at xi = xi_-, and K_+(lambda + shift)^t at xi = xi_+."""
    one = WeylOp.identity(n_sites)
    diagonal = Poly([xi * one])
    return Mat2(diagonal, Poly([shift * one, one]), Poly(), diagonal)


def dressed_U_op(n_sites, params, units=1):
    """U(lambda) = T(lambda) K_-(lambda - eta/2, xi_-) sigma2 T^t(-lambda) sigma2
    (D^(2N+1) U(Lambda/D) in units D, where K_- is D K_-(Lambda/D - eta/2)),
    with (T K_-) sigma2 T^t sigma2 multiplied in place by matmul_entries."""
    t = qmonodromy(n_sites, params, units)
    k_minus = _boundary_k(n_sites, _in_units(params.xi_minus, units),
                          -_in_units(params.eta / 2, units))
    return Mat2(*map(Poly, matmul_entries(n_sites, t @ k_minus, adjugate_neg(t))))


def rtt_residual(n_sites, params, force=False):
    """Exact check of the RTT exchange relation, denominators cleared:

        [(l-m) I + eta P] T1(l) T2(m) = T2(m) T1(l) [(l-m) I + eta P]

    run in integer units.  Returns (ok, witness)."""
    if n_sites > 2 and not force:
        raise CostGuard(f"RTT at N={n_sites} is exponential; pass force=True")
    d = integer_units(params)
    t = qmonodromy(n_sites, params, d)
    return exchange_check(t, n_sites, _in_units(params.eta, d), (1, -1, 0))


def q_reflection_minus(params):
    """Exact check of the reflection algebra for K_-(lambda) (scalar identity):

        Rb(l-m) K1(l) Rb(l+m) K2(m) = K2(m) Rb(l+m) K1(l) Rb(l-m).
    """
    k = _boundary_k(0, params.xi_minus, 0)
    return exchange_check(k, 0, params.eta, (1, -1, 0), (1, 1, 0))


def q_reflection_plus(params, shift=(1, 1)):
    """Exact check of the dual reflection algebra (scalar identity):

        Rb(-l+m) K1^t1 Rb(-l-m-2s) K2^t2 = K2^t2 Rb(-l-m-2s) K1^t1 Rb(-l+m)

    where the K factors are K_+(lambda + s) and the middle argument carries
    the matching -2s.  The published -2*eta middle argument corresponds to
    s = eta (shift=(1, 1)); the transfer-matrix construction uses s = eta/2
    with middle -l-m-eta; the bare matrix (s = 0) pairs with -l-m.  The
    identity fails for any mismatched (shift, middle) pair.
    """
    s = rat(shift[0], shift[1]) * params.eta
    # K1^t1 = (K^t) (x) I and K2^t2 = I (x) K^t
    kt = _boundary_k(0, params.xi_plus, s)
    return exchange_check(kt, 0, params.eta, (-1, 1, 0), (-1, -1, -2 * s))


def q_reflection_dressed(n_sites, params, force=False):
    """Exact check of the dressed exchange algebra for U(lambda):

        Rb(l-m) U1(l) Rb(l+m-eta) U2(m) = U2(m) Rb(l+m-eta) U1(l) Rb(l-m)

    run in integer units.  Returns (ok, witness)."""
    if n_sites > 2 and not force:
        raise CostGuard(f"dressed reflection at N={n_sites} is exponential; pass force=True")
    d = integer_units(params)
    eta = _in_units(params.eta, d)
    u = dressed_U_op(n_sites, params, d)
    return exchange_check(u, n_sites, eta, (1, -1, 0), (1, 1, -eta))


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
    size, (t,) = _packed([_lift_terms(qtau(n_sites, params, integer_units(params)), n_sites)],
                         n_sites)
    return _verdict(_commutator_table(t, n_sites), packing=(n_sites, size))


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


def _coefficient_verdict(op, degree):
    """(ok, witness) of a difference of tau's lambda^degree coefficient, or
    of the Hamiltonian taken from it, as a WeylOp: the witness is its lowest
    exponent key."""
    return _verdict({(degree,): op.packed} if op else {}, packing=(op.n, op.packed.size))


def _coefficient(op_poly, k, n):
    """The lambda^k coefficient of an operator polynomial as a WeylOp."""
    c = op_poly.coeff(k)
    return c if isinstance(c, WeylOp) else WeylOp.scalar(n, c)


def hq_extract(n_sites, params):
    """Extract the Hamiltonian from tau and identify the matching ordering.

    Returns (operator, report) where report lists the ordering, the constant
    shift against the quoted form (zero when the match is literal), and the
    sign of tau's leading coefficient.

    Runs in integer units D: qtau(n, params, D) has the lambda-coefficients
    D^(2N+2-k) tau_k, so its lead is tau's own (+-1), its subleading
    coefficient is D tau_(2N+1) (zero), and h = sign tau_(2N) / 2 is its
    lambda^(2N) coefficient divided by sign 2 D^2.  A rejected tau raises
    TauShapeMismatch (lead or subleading term) or NoOrderingMatches, whose
    witness is the first mismatching coefficient: its lambda-degree, lowest
    exponent key and difference from the expected one, as a rational.
    """
    if n_sites > 3:
        raise CostGuard("hq_extract is exponential in N; N <= 3 supported")
    n = n_sites
    d = integer_units(params)
    t = qtau(n, params, d)
    top = 2 * n + 2
    lead = _coefficient(t, top, n)
    sign = -1 if lead.scalar_part() < 0 else 1
    at = f"at eta={params.eta}"
    ok, witness = _coefficient_verdict(lead - sign, top)
    if not ok:
        raise TauShapeMismatch(f"tau leading coefficient is not +-identity {at}", witness)
    ok, witness = _coefficient_verdict(rat(1, d) * _coefficient(t, top - 1, n), top - 1)
    if not ok:
        raise TauShapeMismatch(f"tau has an unexpected subleading term {at}", witness)
    h = rat(sign, 2 * d * d) * _coefficient(t, 2 * n, n)
    report = {"lead_sign": sign, "ordering": None, "constant_shift": None,
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
    _, witness = hq_quoted_verdict(h, n_sites, params)
    raise NoOrderingMatches(f"no candidate ordering matches the extracted Hamiltonian {at}",
                            witness)


def hq_quoted_verdict(h, n_sites, params):
    """(ok, witness) of an extracted Hamiltonian against the quoted form in the
    qrqr ordering; the witness is at tau's degree 2N, lowest exponent key."""
    return _coefficient_verdict(h - hq_candidate(n_sites, params, "qrqr"), 2 * n_sites)


def classical_image(op, eta):
    """Map q^a d^b -> (-1/eta)^{|b|} q^a r^b; returns {(a, b): rational}."""
    n = op.n
    out = {}
    scale = -1 / rat(eta)
    for key, c in op.terms.items():
        tb = sum(key[n:])
        out[(key[:n], key[n:])] = c * scale ** tb
    return out


def _classical_limit_mismatches(n_sites, xi_minus, xi_plus):
    """{(a, b): limit - classical} over the monomials where the eta -> 0 limit
    of the extracted Hamiltonian's classical image misses the classical
    open-chain Hamiltonian.  The image coefficients have eta-degree at most
    2N+2, so 2N+3 samples determine them."""
    etas = [rat(1, k) for k in range(1, 2 * n_sites + 4)]
    images = []
    for eta in etas:
        h, _ = hq_extract(n_sites, QParams(eta, xi_minus, xi_plus))
        images.append(classical_image(h, eta))
    monos = set()
    for img in images:
        monos.update(img)
    # Lagrange weights of the samples at eta = 0, once for every monomial
    weights = []
    for j, ej in enumerate(etas):
        w = rat(1)
        for k, ek in enumerate(etas):
            if k != j:
                w *= ek / (ek - ej)
        weights.append(w)

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

    out = {}
    for mono in monos | set(classical):
        limit = sum(img[mono] * w for img, w in zip(images, weights) if mono in img)
        diff = limit - classical.get(mono, 0)
        if diff != 0:
            out[mono] = diff
    return out


def hq_classical_limit_residual(n_sites, xi_minus, xi_plus):
    """Exact eta -> 0 limit of the extracted Hamiltonian's classical image.

    The image coefficients are polynomials in eta; they are interpolated
    exactly from sample values at eta = 1/k and evaluated at eta = 0, then
    compared against the classical open-chain Hamiltonian with the boundary
    couplings (xi_-, xi_+).  Returns the number of mismatched monomials.
    """
    return len(_classical_limit_mismatches(n_sites, xi_minus, xi_plus))


def hq_classical_limit_witness(n_sites, xi_minus, xi_plus):
    """(ok, witness) form of hq_classical_limit_residual: the witness is the
    lowest mismatched monomial, its key the q exponents then the r
    exponents, its difference the limit minus the classical coefficient."""
    out = _classical_limit_mismatches(n_sites, xi_minus, xi_plus)
    return _verdict({(): {a + b: diff for (a, b), diff in out.items()}} if out else {})


def abd_commutation_residual(n_sites, params, force=False):
    """Exact check of the exchange relations among A, B and Dstar with all
    denominators cleared by 2 mu (l-m)(l+m), run in integer units.
    Returns {name: (ok, witness)}."""
    if n_sites > 1 and not force:
        raise CostGuard("A/B/Dstar relations are exponential in N; pass force=True")
    n = n_sites
    d = integer_units(params)
    eta = _in_units(params.eta, d)
    a, b, _, _, ds = abcd_operators(n, params, d)
    size, (a, b, ds) = _packed([_lift_terms(x, n) for x in (a, b, ds)], n)
    # four operator products X(l) Y(m); each reverse-order product is a degree swap
    BA, BD = _product_table(b, a, n), _product_table(b, ds, n)
    AB, DB = _product_table(a, b, n), _product_table(ds, b, n)

    # scalar prefactors in (lambda, mu), as products of linear factors
    lm, lp = _scalar(1, -1, 0), _scalar(1, 1, 0)
    eta_b, neg_eta, neg_two_mu = _scalar(0, 0, eta), _scalar(0, 0, -eta), _scalar(0, -2, 0)
    two_mu_e = _scalar(0, 2, -eta)                      # 2 mu - eta
    two_l_pe = _scalar(2, 0, eta)                       # 2 lambda + eta
    denom = _scalar_mul(_scalar(0, 2, 0), lm, lp)       # 2 mu (l-m)(l+m)
    relations = {
        # 2m (l-m)(l+m) A(l) B(m) = 2m (l-m-eta)(l+m-eta) B(m) A(l)
        #     + eta (2m-eta)(l+m) B(l) A(m) - eta (l-m) B(l) Dstar(m)
        "ab": [(denom, AB, False),
               (_scalar_mul(neg_two_mu, _scalar(1, -1, -eta), _scalar(1, 1, -eta)), BA, True),
               (_scalar_mul(neg_eta, two_mu_e, lp), BA, False),
               (_scalar_mul(eta_b, lm), BD, False)],
        # 2m (l-m)(l+m) Dstar(l) B(m) = 2m (l-m+eta)(l+m+eta) B(m) Dstar(l)
        #     + eta (2l+eta)(2m-eta)(l-m) B(l) A(m) - eta (2l+eta)(l+m) B(l) Dstar(m)
        # The eta-sign of (l+m+eta) is the unique one making the relation an
        # identity (pinned by exhaustive sign search against the exact N=1
        # operators).
        "db": [(denom, DB, False),
               (_scalar_mul(neg_two_mu, _scalar(1, -1, eta), _scalar(1, 1, eta)), BD, True),
               (_scalar_mul(neg_eta, two_l_pe, two_mu_e, lm), BA, False),
               (_scalar_mul(eta_b, two_l_pe, lp), BD, False)],
    }
    packing = (n, size)
    return {"bb": _verdict(_commutator_table(b, n), packing=packing),  # B(l) B(m) = B(m) B(l)
            **{name: _verdict(_assemble(parts), packing=packing)
               for name, parts in relations.items()}}


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


# Largest dimension comb(N+m-1, m) of a represented subspace.  Past cost, it keeps
# the float Bethe certificates meaningful: |det(M - Lambda I)| / ||M||_F^dim shrinks
# with the dimension, so an unguarded `baxter --n 6 --m 4` (126, about 1 s) reads
# eigen_membership 4.1e-127, certifying nothing, and fails eigenvalue_degree.
REP_DIM_GUARD = 64


def rep_on_degree(op, n_sites, m):
    """Matrix of a WeylOp on the homogeneous degree-m monomial basis.

    Raises DegreeNotPreserved (with the offending basis vector) if the image
    leaves the subspace; entries are exact rationals.
    """
    basis = degree_basis(n_sites, m)
    dim = comb(n_sites + m - 1, m)
    assert len(basis) == dim
    if dim > REP_DIM_GUARD:
        raise CostGuard(f"representation dimension {dim} > {REP_DIM_GUARD}")
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


def rep_of_op_poly(op_poly, lam0, n_sites, m):
    """Complex matrix, a list of rows, of an operator polynomial evaluated
    at lam0.

    Each lambda-coefficient is represented exactly, then the powers of lam0
    are combined numerically (keeps rationals and floats separate)."""
    dim = comb(n_sites + m - 1, m)
    if dim > REP_DIM_GUARD:
        raise CostGuard(f"representation dimension {dim} > {REP_DIM_GUARD}")
    total = [[0j] * dim for _ in range(dim)]
    power = 1.0 + 0j
    for c in op_poly.c:
        if isinstance(c, WeylOp) and not c.is_zero():
            mat, _ = rep_on_degree(c, n_sites, m)
            for row_t, row in zip(total, mat):
                for j, e in enumerate(row):
                    row_t[j] += power * float(e)
        power *= lam0
    return total
