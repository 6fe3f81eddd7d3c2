"""Scalar/kernel realization of the Baxter functional machinery.

The integral-operator kernel factorizes over sites into

    w_i ~ Gamma(sigma/eta + 1) y_i^{-1} z_i^{-sigma/eta - 1} exp(z_i / eta),
    z_i = (y_{i+1} - q_i) / y_i,

known only up to a constant prefactor that cancels in every ratio used here.
Shifting sigma by +-eta multiplies w_i by closed-form ratios; a unit upper
triangular gauge brings the kernel-transformed Lax matrix to lower
triangular form whose diagonal is exactly those ratios, which yields the
scalar three-term functional identity for the twisted transfer polynomial
and, in parallel, the algebraic form whose roots are the Bethe roots.

Gauge convention: the triangularizing matrix S_i carries y_i (the printed
y_{i+1} does not annihilate the upper-right entry; the negative control in
the tests pins this).  The diagonal entries equal the kernel ratios times
eta^{-1} (top) and eta (bottom), so the three-term identity is literal at
eta = 1 and carries correction factors eta^{-N}, eta^{+N} otherwise.

The Bethe side reads one polynomial: the right side of Baxter's relation,
sigma^N/s Q(sigma - eta) + s Q(sigma + eta), as a `poly.Poly` (`_tq_rhs`).
The Bethe system is its value at the roots, Lambda its value over Q, and
the polynomiality certificate the remainder of its division by Q.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._rng import PCG64
from .errors import (EvaluationAtRoot, GammaPole, NewtonDiverged, NoConvergence,
                     PoleInput, RootCollision)
from .lattice import (DEFAULT_FD_STEP, central_differences, lu_factor, newton, relative_steps,
                      worst)
from .poly import Mat2, Poly

POLE_GUARD = 1e-12
BETHE_MAX_STARTS = 64  # randomized Newton starts before bethe_solve gives up
BETHE_MAX_ITER = 80  # Newton iterations from one start before it counts as failed
BETHE_TOL = 1e-12  # max-norm of the Bethe system at which Newton stops, times min(1, |eta|)

# Certificate tolerances by name, applied as written by `verify --suite
# baxter` and `dstlab baxter`.
CERT_TOL = {
    "bethe_residual": 1e-10,
    "polynomiality_remainder": 1e-8,
    "eigenvalue_degree": 1e-8,
    "eigen_membership": 1e-6,
    "three_term_identity": 1e-9,
}
# The points sigma0 at which the membership certificate samples Lambda.
MEMBERSHIP_SAMPLES = (0.3, 1.7, -0.9)


@dataclass(frozen=True)
class QKernelParams:
    """Arguments of the factorized kernel: y has N+1 entries with the
    quasiperiodic closure y_{N+1} = xi y_1 enforced."""

    sigma: complex
    eta: complex
    xi: complex
    y: tuple
    q: tuple

    def __post_init__(self):
        if self.eta == 0 or self.xi == 0:
            raise ValueError("eta and xi must be nonzero")
        y, q = tuple(self.y), tuple(self.q)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "q", q)
        if len(y) != len(q) + 1:
            raise ValueError("y must have N+1 entries for N kernel sites")
        if abs(y[-1] - self.xi * y[0]) > 1e-9 * max(1.0, abs(y[0])):
            raise ValueError("closure y_{N+1} = xi y_1 violated")
        if any(abs(v) < POLE_GUARD for v in y):
            raise PoleInput("y_i = 0 is a kernel pole")
        if any(abs(y[i + 1] - q[i]) < POLE_GUARD for i in range(len(q))):
            raise PoleInput("y_{i+1} = q_i is a kernel pole")

    @property
    def n_sites(self):
        return len(self.q)

    def z(self, i):
        """(y_{i+1} - q_i) / y_i for 0-based site i."""
        return (self.y[i + 1] - self.q[i]) / self.y[i]

    def shifted(self, delta_sigma):
        return QKernelParams(self.sigma + delta_sigma, self.eta, self.xi,
                             self.y, self.q)


def kernel_sites(rng, n, xi):
    """The random kernel sites (y, q) of the checks: y_1 = 0.9 + 0.3i,
    y_2..y_N drawn from rng (a `_rng.PCG64`), y_{N+1} = xi y_1, then
    q_1..q_N drawn, as Python complex."""
    def draw(size, low, high, spread):
        re, im = rng.uniform(low, high, size), rng.uniform(-spread, spread, size)
        return [complex(a, b) for a, b in zip(re, im)]
    y1 = 0.9 + 0.3j
    return (y1, *draw(n - 1, 0.5, 1.5, 0.4), xi * y1), tuple(draw(n, -0.8, 0.8, 0.4))


def _check_gamma_pole(z):
    """GammaPole if z is within 1e-12 of a pole 0, -1, -2, ... of Gamma."""
    if abs(z.imag) < 1e-12 and z.real <= 0 and abs(z.real - round(z.real)) < 1e-12:
        raise GammaPole(f"Gamma argument {z} hits a pole")


# B_2k / (2k (2k - 1)) for k = 1..8: the coefficients of z^(1 - 2k) in
# Stirling's series for log Gamma.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _loggamma(z):
    """Principal branch of log Gamma(z): analytic off (-inf, 0] and real on
    the positive axis, as scipy.special.loggamma.  On the negative axis the
    sign of Im z picks the side, so x + 0j takes the value from above,
    ln|Gamma(x)| - i pi ceil(-x).

    Re z >= 1/2 shifts up to Re z >= 8 by log Gamma(z) = log Gamma(z + 1)
    - log z, then sums Stirling's series; Re z < 1/2 reflects.  Neither
    loop depends on |z|."""
    z = complex(z)
    if math.copysign(1.0, z.imag) < 0:
        return _loggamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        # log sin(pi z) on its branch analytic in the upper half-plane,
        # log(i/2) - i pi z + log(1 - e^(2 pi i z)): |e^(2 pi i z)| <= 1, so
        # nothing overflows at large Im z, and 1 - e^(2 pi i z) is formed
        # from sines so that it keeps its digits near the poles.
        x = z.real - round(z.real)     # exact; e^(2 pi i z) has period 1 in Re z
        a, theta = 2 * math.pi * z.imag, 2 * math.pi * x
        one_minus = complex(2 * math.sin(math.pi * x) ** 2 - math.expm1(-a) * math.cos(theta),
                            -math.exp(-a) * math.sin(theta))
        log_sin = (complex(math.pi * z.imag - math.log(2), math.pi * (0.5 - z.real))
                   + cmath.log(one_minus))
        return math.log(math.pi) - log_sin - _loggamma(1 - z)
    shift = 0j
    while z.real < 8:
        shift += cmath.log(z)
        z += 1
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + _stirling_tail(1 / z) - shift


def _stirling_tail(r):
    """The terms of Stirling's series for log Gamma(z) past its leading
    ones, sum_k _STIRLING[k - 1] r^(2k - 1) at r = 1/z."""
    series = 0j
    for c in reversed(_STIRLING):
        series = series * r * r + c
    return series * r


def _log1p(w):
    """log(1 + w) for complex w, keeping its digits at small |w|."""
    return complex(0.5 * math.log1p(w.real * (2 + w.real) + w.imag ** 2),
                   math.atan2(w.imag, 1 + w.real))


def _loggamma_step(z, a):
    """log Gamma(z + a) - log Gamma(z) for a = +1 or -1, up to a multiple of
    2 pi i.  At |z| >= 8 neither value is formed: Stirling's series is
    differenced term by term, its leading terms as
    a log z + (z + a - 1/2) log1p(a/z) - a, which is good to rounding in every
    direction, the negative axis included.  At |z| < 8 the values are small."""
    if abs(z) < 8:
        return _loggamma(z + a) - _loggamma(z)
    return (a * cmath.log(z) + (z + a - 0.5) * _log1p(a / z) - a
            + _stirling_tail(1 / (z + a)) - _stirling_tail(1 / z))


def log_w(i, p):
    """log of the site kernel (constant prefactor dropped), principal branches."""
    z = complex(p.z(i))
    s = complex(p.sigma) / complex(p.eta)
    _check_gamma_pole(s + 1)
    return (_loggamma(s + 1) - cmath.log(complex(p.y[i]))
            + (-s - 1) * cmath.log(z) + z / complex(p.eta))


def w_ratio_up(i, p):
    """w_i(sigma/eta + 1) / w_i(sigma/eta) = (sigma/eta + 1) / z_i."""
    return (p.sigma / p.eta + 1) / p.z(i)


def w_ratio_down(i, p):
    """w_i(sigma/eta - 1) / w_i(sigma/eta) = (eta/sigma) z_i."""
    return (p.eta / p.sigma) * p.z(i)


def qj_lax(i, p):
    """Kernel-transformed Lax matrix
    [[sigma + eta + eta q d_q log w, q], [eta d_q log w, 1]] with the
    derivative in closed form: eta d_q log w = (sigma+eta)/(y_{i+1}-q) - 1/y_i."""
    dlog = (p.sigma + p.eta) / (p.y[i + 1] - p.q[i]) - 1 / p.y[i]
    return Mat2(p.sigma + p.eta + p.q[i] * dlog, p.q[i], dlog, 1.0)


def gauge_S(y_val):
    """[[1, y], [0, 1]], whose inverse is gauge_S(-y)."""
    return Mat2(1.0, y_val, 0.0, 1.0)


def gauge_triangularize(i, p, wrong_index=False):
    """Conjugate the kernel-transformed Lax matrix by the unit gauge:
    S_{i+1}^{-1} Ltilde_i S_i with S_i = [[1, y_i], [0, 1]].

    Returns (abs of the upper-right entry, (top, bottom) diagonal).  The
    closed forms are top = (y_{i+1}-q_i)/y_i and bottom =
    (sigma+eta) y_i / (y_{i+1}-q_i), i.e. the eta-normalized kernel ratios
    sigma w(down)/w / eta  and  eta w(up)/w.

    wrong_index=True builds the gauge with the shifted index (S_i carrying
    y_{i+1}); the upper-right entry then stays O(1), which is the negative
    control pinning the index convention."""
    k = i + 1 if wrong_index else i  # the wrong index needs i + 2 <= N
    g = gauge_S(-p.y[k + 1]) @ qj_lax(i, p) @ gauge_S(p.y[k])
    return abs(g.a12), (g.a11, g.a22)


def twisted_transfer_value(p):
    """J(sigma, xi) = xi^(-1/2) prod(top diagonals) + xi^(1/2) prod(bottom),
    from the triangularized chain (the gauge leaves the twist matrix
    invariant under the closure y_{N+1} = xi y_1)."""
    top = 1.0 + 0j
    bot = 1.0 + 0j
    for i in range(p.n_sites):
        _, (t, b) = gauge_triangularize(i, p)
        top *= t
        bot *= b
    sq = cmath.sqrt(complex(p.xi))
    return top / sq + sq * bot


def tq_scalar_residual(p):
    """Relative defect of the three-term functional identity

        J(sigma, xi) = xi^(-1/2) eta^(-N) sigma^N prod_i w_i(down)/w_i
                     + xi^(+1/2) eta^(+N)         prod_i w_i(up)/w_i

    with the kernel ratios evaluated through log-gamma differences (the
    special-function path), against J from the triangularization diagonals
    (the matrix path).  The eta^(-+N) factors are the corrections away from
    eta = 1, where the identity is literal; they are returned alongside.

    Each site's log-ratio, with s = sigma/eta, is
    [log Gamma(s + 1 -+ 1) - log Gamma(s + 1)] +- log z_i: no term of log w
    that cancels (near 1e9 at eta = 1e-8) is formed."""
    n = p.n_sites
    eta, sigma = complex(p.eta), complex(p.sigma)
    s = sigma / eta
    _check_gamma_pole(s)  # s + 1 or s + 2 at a pole of Gamma puts s at one too
    log_z = sum(cmath.log(complex(p.z(i))) for i in range(n))
    down = n * _loggamma_step(s + 1, -1) + log_z
    up = n * _loggamma_step(s + 1, 1) - log_z
    sq = cmath.sqrt(complex(p.xi))
    rhs = (sigma ** n / sq) * eta ** (-n) * cmath.exp(down) \
        + sq * eta ** n * cmath.exp(up)
    lhs = twisted_transfer_value(p)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale, (eta ** (-n), eta ** n)


def tq_exact_rational(p_sigma, p_eta, p_xi_sqrt, y, q):
    """Exact-rational form of the three-term identity for N = len(q):
    both sides over a rational field, using the ratio formulas only
    (log-free); returns (lhs, rhs) for equality assertion.

    p_xi_sqrt is the exact square root of xi (the identity is algebraic in
    xi^(1/2))."""
    n = len(q)
    xi = p_xi_sqrt * p_xi_sqrt
    assert y[-1] == xi * y[0]
    z = [(y[i + 1] - q[i]) / y[i] for i in range(n)]
    top = 1
    bot = 1
    for i in range(n):
        top = top * z[i]
        bot = bot * (p_sigma + p_eta) * y[i] / (y[i + 1] - q[i])
    lhs = top / p_xi_sqrt + p_xi_sqrt * bot
    down = 1
    up = 1
    for i in range(n):
        down = down * (p_eta / p_sigma) * z[i]
        up = up * (p_sigma / p_eta + 1) / z[i]
    rhs = (p_sigma ** n / p_xi_sqrt) * down / p_eta ** n + p_xi_sqrt * up * p_eta ** n
    return lhs, rhs


# ---------------------------------------------------------------------------
# Bethe roots and eigenvalue cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetheConfig:
    n_sites: int
    m: int
    xi: complex
    eta: complex
    roots: tuple
    residual: float


def _shifted_q(roots, shift):
    """Q(sigma + shift) = prod_j (sigma + shift - mu_j) as a Poly."""
    return math.prod((Poly([shift - mu, 1]) for mu in roots), start=Poly([1 + 0j]))


def _tq_rhs(roots, n, xi, eta):
    """The right side of the Baxter relation Lambda(sigma) Q(sigma) =
    sigma^N/s Q(sigma - eta) + s Q(sigma + eta), Q(sigma) = prod_j (sigma - mu_j),
    s = xi^(1/2), as a Poly: the one form of it that the Bethe system, Lambda
    and the polynomiality remainder read."""
    sq = cmath.sqrt(complex(xi))
    down, up = _shifted_q(roots, -eta), _shifted_q(roots, eta)
    return down.map(lambda c: c / sq).shift_up(n) + up.map(lambda c: sq * c)


def bethe_system(roots, n, xi, eta):
    """Residual vector R(mu_j), a tuple: the right side of the Baxter
    relation must vanish at every root for the eigenvalue to be a
    polynomial."""
    rhs = _tq_rhs(roots, n, xi, eta)
    return tuple(rhs(mu) for mu in roots)


def bethe_solve(n, m, xi, eta, seed):
    """Solve the m-root algebraic system by `lattice.newton` from randomized
    starts, with the Jacobian from the package's one difference stencil.

    A diverging start, or a converged root set with colliding roots, is
    rejected and the search continues; m = 0 gives the empty configuration.
    Raises NoConvergence after the start budget, RootCollision if only
    collided solutions were found."""
    rng = PCG64(seed)
    radius = 2.0 + abs(complex(eta)) * m
    tol = BETHE_TOL * min(1.0, abs(eta))  # the system scales with |eta|

    def system(z):
        return bethe_system(z, n, xi, eta)

    def jacobian(z):
        return list(zip(*central_differences(system, z, relative_steps(z, DEFAULT_FD_STEP))))

    collided = False
    for _ in range(BETHE_MAX_STARTS):
        re, im = rng.uniform(-1, 1, m), rng.uniform(-1, 1, m)
        start = [radius * (a + 1j * b) for a, b in zip(re, im)]
        try:
            roots, res = newton(system, start, jacobian, tol, BETHE_MAX_ITER, 10 * radius)
        except NewtonDiverged:
            continue
        if m > 1 and min(abs(roots[i] - roots[j])
                         for i in range(m) for j in range(i + 1, m)) < 1e-10:
            collided = True
            continue
        return BetheConfig(n, m, xi, eta, tuple(roots), res)
    if collided:
        raise RootCollision("only colliding root sets found")
    raise NoConvergence(f"no Bethe solution in {BETHE_MAX_STARTS} starts")


def lambda_from_roots(cfg, sigma0):
    """Eigenvalue polynomial value Lambda(sigma0): the Baxter relation's right
    side divided by Q(sigma0)."""
    for mu in cfg.roots:
        if abs(sigma0 - mu) < POLE_GUARD:
            raise EvaluationAtRoot(f"sigma0 = {sigma0} hits root {mu}")
    return (_tq_rhs(cfg.roots, cfg.n_sites, cfg.xi, cfg.eta)(sigma0)
            / math.prod(sigma0 - mu for mu in cfg.roots))


def bethe_remainder(cfg):
    """Max |coefficient| of the remainder of the Baxter relation's right side
    divided by Q: zero when Lambda is a polynomial, i.e. when the roots solve
    the system.  Q is monic, so each step of the long division subtracts the
    leading coefficient times Q, on the coefficients highest power first."""
    q = _shifted_q(cfg.roots, 0).c[::-1]
    r = _tq_rhs(cfg.roots, cfg.n_sites, cfg.xi, cfg.eta).c[::-1]
    top = len(r) - len(q) + 1
    for k in range(top):
        for j in range(1, len(q)):
            r[k + j] -= r[k] * q[j]
    return worst(map(abs, r[top:]))


def lambda_degree_probe(cfg):
    """(N+1)-th forward difference of Lambda at 0.31 + 0.17i + 1.7 k for
    k = 0..N+2; vanishes when Lambda is a polynomial of degree N."""
    n = cfg.n_sites
    base = 0.31 + 0.17j
    vals = [lambda_from_roots(cfg, base + 1.7 * k) for k in range(n + 3)]
    for _ in range(n + 1):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return worst(map(abs, vals))


def transfer_matrix_on_degree(n, m, xi, eta, sigma0):
    """Matrix of the twisted quantum transfer polynomial tr[C(xi) T(sigma0)]
    on the degree-m monomial subspace, as a list of rows of complex."""
    from ._rat import RAT
    from .quantum import QParams, qmonodromy, rep_of_op_poly

    # RAT(eta) keeps a float eta's exact binary value
    t = qmonodromy(n, QParams(RAT(eta)))
    sq = cmath.sqrt(complex(xi))
    m11 = rep_of_op_poly(t.a11, sigma0, n, m)
    m22 = rep_of_op_poly(t.a22, sigma0, n, m)
    return [[a / sq + sq * d for a, d in zip(row11, row22)] for row11, row22 in zip(m11, m22)]


def eigen_membership_residual(cfg, sigma0):
    """Normalized determinant distance certifying that Lambda(sigma0) is an
    eigenvalue of the twisted transfer operator on the degree-m subspace:

        |det(M - Lambda I)| / ||M||_F^dim

    with the determinant from `lattice.lu_factor`.
    """
    mat = transfer_matrix_on_degree(cfg.n_sites, cfg.m, cfg.xi, cfg.eta, sigma0)
    lam = lambda_from_roots(cfg, sigma0)
    dim = len(mat)
    norm = math.hypot(*(x for row in mat for e in row for x in (e.real, e.imag)))
    lu, _, sign = lu_factor([[e - lam if i == j else e for j, e in enumerate(row)]
                             for i, row in enumerate(mat)])
    det = sign * math.prod(row[k] for k, row in enumerate(lu))
    return abs(det) / norm ** dim


def bethe_certificates(cfg):
    """{name: residual} of one Bethe configuration: solver residual, remainder,
    degree probe (both 0.0 for the rootless m = 0), and the worst membership
    residual over MEMBERSHIP_SAMPLES."""
    return {
        "bethe_residual": cfg.residual,
        "polynomiality_remainder": bethe_remainder(cfg) if cfg.m else 0.0,
        "eigenvalue_degree": lambda_degree_probe(cfg) if cfg.m else 0.0,
        "eigen_membership": worst(eigen_membership_residual(cfg, s0)
                                  for s0 in MEMBERSHIP_SAMPLES),
    }


# ---------------------------------------------------------------------------
# separation-of-variables scalar residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SovParams:
    xi_minus: complex
    xi_plus: complex
    eta: complex
    tau_poly: object   # callable or Poly
    phi_poly: object


def sov_residual(p, u, variant="printed"):
    """Scalar three-term defect of the separated difference equation:

        2u tau(u) phi(u) - xi_+ (2u + eta) Dm(u) phi(u - eta)
                         - xi_+ Dp(u) phi(u + eta)

    with Dm(u) = xi_- + (u - eta/2) and Dp(u) = (2u - eta)(xi_- - (u + eta/2)).
    variant="alt" uses the prefactor (2u - eta) on the Dm term (the two
    printed forms of the source relation differ there; both are computed,
    no guess about intent is made)."""
    eta = p.eta
    dm = p.xi_minus + (u - eta / 2)
    dp = (2 * u - eta) * (p.xi_minus - (u + eta / 2))
    pre = (2 * u - eta) if variant == "alt" else (2 * u + eta)
    return (2 * u * p.tau_poly(u) * p.phi_poly(u)
            - p.xi_plus * pre * dm * p.phi_poly(u - eta)
            - p.xi_plus * dp * p.phi_poly(u + eta))
