"""Explicit Bäcklund transformation of the chain and its certificates.

The map (x, X) -> (y, Y) is defined implicitly by

    X_i = -1/y_i - sigma/(x_i - y_{i+1}),
    Y_i = X_{i-1} + (x_i - y_{i+1})/y_i * X_i,

with the ring closure y_{N+1} = xi y_1, X_0 = xi X_N (xi = 1 periodic).
It is solved in closed form, as a dressing by the eigenvector of the
monodromy (Kuznetsov and Sklyanin, J. Phys. A 31 (1998) 2241).  The first
equation says L_i(sigma) (y_i, 1) = (X_i y_i + 1) (y_{i+1}, 1), so the
closure makes (y_1, 1) a fixed point of diag(1/xi, 1) T(sigma): y_1 is a
root of  xi c y^2 + (xi d - a) y - b = 0  with T(sigma) = [[a, b], [c, d]],
and its eigenvalue is kappa = c y_1 + d = prod (X_i y_i + 1).  The two roots
are the two sheets of the spectral curve mu^2 - t(sigma) mu + sigma^N = 0,
on which mu = (-1)^N xi^(-1/2) prod (x_i - y_{i+1})/y_i = sigma^N xi^(-1/2)
/ kappa.  `bt_solve` reports the larger-|mu| sheet, the fixed point with the
smaller |kappa|, and propagates it backward through L_i(sigma)^{-1}, which
contracts toward that fixed point, so the y_i carry no growing error.

The gauge matrices certifying the map carry the *auxiliary* variables of the
extended phase space, which are the negatives of the new site variables
(t_i = -y_i); using +y_i in the local exchange identity leaves an O(1)
defect, and the negated convention is what makes the dressing coefficients
of the boundary matrices come out in closed form.  The dressed-generator
check compares the dressed trace before the map with the open generator of
`monodromy` after it, so the transfer polynomial is written once.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import LogBranch, PoleEncountered, SingularG, SingularPrefactor
from .lattice import (POLE_GUARD, LatticeState, Open, Periodic, central_differences,
                      principal_sqrt, worst)
from .monodromy import boundary_C, boundary_K, generator, lax_L, mat2_array, monodromy
from .poly import Mat2, adjugate_neg


# Certificate tolerances by name, applied as written by `verify --suite
# backlund` and `dstlab backlund`.  Twin certificates share one tolerance.
DRESSING_TOL = 1e-10
CERT_TOL = {
    "map_residual": 1e-11,
    "generating_function": 1e-9,
    "local_exchange": 1e-9,
    # relative to the larger generator coefficient, which reaches 1.8e9 at
    # N = 24: measured <= 1.03e-15 at sigma = 0.3 over N in {3, 6, 10, 16,
    # 24} and seeds {1, 5, 12}, a 100-fold margin
    "spectrum_invariance": 1e-13,
    "closure_exchange": 1e-8,
    # measured <= 1.1e-12 over 3150 solves of `solvable_state` (N <= 24, six
    # xi, five sigma, seeds 1-15): a 9-fold margin
    "spectrality": 1e-11,
    "dressing_plus": DRESSING_TOL,
    "dressing_minus": DRESSING_TOL,
    "symplectic_jacobian": 1e-5,
}

# Evaluation grid for gauge-based identities: off the real axis and away from
# small real sigma values, so g(lambda - sigma) stays invertible.
BT_LAMBDA_GRID = tuple(1.37 * cmath.exp(2j * cmath.pi * (k + 0.5) / 8) for k in range(8)) \
    + (0.45 + 0.2j, -1.61, 2.23, -0.77)


@dataclass(frozen=True)
class BTParams:
    sigma: complex
    closure: object = field(default_factory=Periodic)

    @property
    def xi(self):
        return self.closure.xi


@dataclass(frozen=True)
class BTResult:
    y: tuple
    Y: tuple
    map_residual: float  # max-norm of the implicit equations at y
    mu: complex  # the sheet: (-1)^N xi^(-1/2) prod (x_i - y_{i+1})/y_i

    def state(self):
        return LatticeState(self.y, self.Y)


def g_matrix(lam, sigma, s, S):
    """Elementary gauge matrix [[1, s], [-S, lam - sigma - s S]]; det = lam - sigma."""
    return Mat2(1.0, s, -S, lam - sigma - s * S)


def _g_inverse(lam, sigma, s, S):
    """g_matrix(lam, sigma, s, S)^{-1} = [[lam - sigma - s S, -s], [S, 1]] / (lam - sigma)."""
    det = lam - sigma
    return Mat2((det - s * S) / det, -s / det, S / det, 1.0 / det)


def _ring_next(v, xi):
    """(v_2, ..., v_N, xi v_1): each site's successor under the closure
    v_{N+1} = xi v_1."""
    return (*v[1:], xi * v[0])


def _ring_prev(v, xi):
    """(xi v_N, v_1, ..., v_{N-1}): each site's predecessor under the
    closure v_0 = xi v_N."""
    return (xi * v[-1], *v[:-1])


def _map_defects(x, X, y, y_next, sigma):
    """|X_i + 1/y_i + sigma/(x_i - y_{i+1})| at each site: the map's implicit
    equations, which are also X = -dG/dx."""
    return [abs(X_i + (1.0 / y_i + sigma / (x_i - y_n)))
            for x_i, y_i, y_n, X_i in zip(x, y, y_next, X)]


def _larger_mu_fixed_point(t, xi):
    """The root y of  xi c y^2 + (xi d - a) y - b = 0,  t = [[a, b], [c, d]],
    with the smaller |c y + d|: the larger-|mu| sheet.  With the quadratic
    written qa y^2 + qb y + qc, the roots are q/qa and qc/q for
    q = -(qb + sqrt(qb^2 - 4 qa qc))/2, the square root's sign chosen so the
    sum does not cancel."""
    a, b, c, d = (complex(e) for e in t.entries())
    qa, qb, qc = xi * c, xi * d - a, -b
    root = cmath.sqrt(qb * qb - 4 * qa * qc)
    if (qb.conjugate() * root).real < 0:
        root = -root
    q = -(qb + root) / 2
    if q == 0 or qa == 0:
        raise PoleEncountered("T(sigma) has a fixed point at y = 0 or y = infinity, "
                              "or none isolated")
    return min((q / qa, qc / q), key=lambda y: abs(c * y + d))


def bt_solve(state_x, params):
    """The explicit map on the larger-|mu| sheet: y_{N+1} = xi y_1 from
    `_larger_mu_fixed_point` of T(sigma), then y_i = (y_{i+1} - x_i) /
    (sigma + x_i X_i - X_i y_{i+1}), which is L_i(sigma)^{-1} on (y_{i+1}, 1),
    down to y_1; then Y.  PoleEncountered where some y_i is 0 or infinite,
    or x_i = y_{i+1}."""
    x, X, sigma, xi = state_x.q, state_x.r, params.sigma, params.xi
    y_next = xi * _larger_mu_fixed_point(monodromy(state_x).eval(sigma), xi)
    y = []
    for x_i, X_i in zip(reversed(x), reversed(X)):
        den = sigma + x_i * X_i - X_i * y_next
        if abs(den) < POLE_GUARD:
            raise PoleEncountered("a new site variable y_i is infinite")
        y_next = (y_next - x_i) / den
        y.append(y_next)
    y = tuple(reversed(y))
    y_next = _ring_next(y, xi)
    if min(map(abs, y)) < POLE_GUARD or min(abs(a - b) for a, b in zip(x, y_next)) < POLE_GUARD:
        raise PoleEncountered("the map reached y_i = 0 or x_i = y_{i+1}")
    z = [(x_i - y_n) / y_i for x_i, y_i, y_n in zip(x, y, y_next)]
    Y = tuple(X_p + z_i * X_i for X_p, z_i, X_i in zip(_ring_prev(X, xi), z, X))
    return BTResult(y, Y, worst(_map_defects(x, X, y, y_next, sigma)),
                    (-1) ** len(x) * math.prod(z) / principal_sqrt(xi))


def generating_function(x, y, sigma, xi):
    """G_sigma = sum_i (x_i - y_{i+1})/y_i + sigma log((x_i - y_{i+1})/y_i)."""
    total = 0.0
    for x_i, y_i, y_next in zip(x, y, _ring_next(y, xi)):
        z = (x_i - y_next) / y_i
        if z == 0:
            raise LogBranch("log argument vanished")
        if isinstance(z, complex) or isinstance(sigma, complex):
            lg = cmath.log(z)
        else:
            if z <= 0:
                raise LogBranch("nonpositive real log argument; use complex inputs")
            lg = math.log(z)
        total = total + z + sigma * lg
    return total


def bt_generating_check(x, X, y, Y, sigma, xi):
    """Max defect of X = -dG/dx and Y = +dG/dy, with closed-form partials.

    The partials are assembled term by term from the generating function
    (the closure y_{N+1} = xi y_1 contributes a factor xi to dG/dy_1); the
    test suite cross-checks them against finite differences of G itself.
    """
    y_next = _ring_next(y, xi)
    # term i's partial in y_{i+1}, moved to site i+1 (times xi at the closure)
    via_prev = _ring_prev([-1.0 / y_i - sigma / (x_i - y_n)
                           for x_i, y_i, y_n in zip(x, y, y_next)], xi)
    return worst(_map_defects(x, X, y, y_next, sigma)
                 + [abs(Y_i - (-(x_i - y_n) / y_i ** 2 - sigma / y_i + d_prev))
                    for x_i, y_i, y_n, Y_i, d_prev in zip(x, y, y_next, Y, via_prev)])


def bt_local_identity_residual(x_i, X_i, y_i, y_ip1, X_im1, sigma):
    """Max-norm defect of the local exchange identity

        g(l-s; -y_{i+1}, X_i) L(l; x_i, X_i) = L(l; y_i, Y_i) g(l-s; -y_i, X_{i-1})

    for a quintuple satisfying the implicit map (Y_i is assembled from it).
    """
    Y_i = X_im1 + (x_i - y_ip1) / y_i * X_i
    L_x = lax_L(LatticeState((x_i,), (X_i,)), 1)
    L_y = lax_L(LatticeState((y_i,), (Y_i,)), 1)

    def defect(lam):
        lhs = g_matrix(lam, sigma, -y_ip1, X_i) @ mat2_array(L_x, lam)
        rhs = mat2_array(L_y, lam) @ g_matrix(lam, sigma, -y_i, X_im1)
        return (lhs - rhs).max_abs()
    return worst(map(defect, BT_LAMBDA_GRID))


def bt_invariance_residual(state_x, result, params, y_end=None):
    """(generator defect, closure-exchange defect) certifying spectrum invariance.

    (a) coefficient-wise difference of the conserved-quantity generator on the
        old and new states, relative to max(1, the largest coefficient of
        either); (b) defect of  g_1 C = C g_{N+1}  with the gauge
        matrices at (-y_1, X_0) and (-y_{N+1}, X_N), X_0 = xi X_N.  y_end
        defaults to the ring closure xi y_1; passing a broken y_end is the
        negative control for (b).
    """
    bc = params.closure
    g_old = generator(state_x, bc)
    g_new = generator(result.state(), bc)
    res_gen = (g_old - g_new).max_abs() / max(1.0, g_old.max_abs(), g_new.max_abs())

    xi = params.xi
    y1 = result.y[0]
    if y_end is None:
        y_end = _ring_next(result.y, xi)[-1]
    X_end = state_x.r[-1]
    X0 = _ring_prev(state_x.r, xi)[0]
    cm = mat2_array(boundary_C(xi), 0.0)  # boundary_C(1) is the identity

    def defect(lam):
        if abs(lam - params.sigma) < POLE_GUARD:
            raise SingularG("lambda hit sigma on the grid")
        g1 = g_matrix(lam, params.sigma, -y1, X0)
        g_end = g_matrix(lam, params.sigma, -y_end, X_end)
        return (g1 @ cm - cm @ g_end).max_abs()
    return res_gen, worst(map(defect, BT_LAMBDA_GRID))


def solvable_state(rng, n):
    """A random complex state with every site near (1, 1), which keeps the
    map away from its poles; rng is a `_rng.PCG64`."""
    def sites():
        re, im = rng.uniform(0.6, 1.4, n), rng.uniform(-0.3, 0.3, n)
        return tuple(a + 1j * b for a, b in zip(re, im))
    return LatticeState(sites(), sites())


def bt_certificates(state_x, params):
    """Solve the map for one state; return the BTResult and {name: residual}
    of the map residual, the generating function, the local exchange at
    every site under the ring closure, the bt_invariance_residual pair and
    the spectrality of the sheet."""
    res = bt_solve(state_x, params)
    x, X, y = state_x.q, state_x.r, res.y
    xi, sigma = params.xi, params.sigma
    inv_gen, inv_cl = bt_invariance_residual(state_x, res, params)
    return res, {
        "map_residual": res.map_residual,
        "generating_function": bt_generating_check(x, X, y, res.Y, sigma, xi),
        "local_exchange": worst(map(bt_local_identity_residual, x, X, y, _ring_next(y, xi),
                                    _ring_prev(X, xi), [sigma] * len(x))),
        "spectrum_invariance": inv_gen,
        "closure_exchange": inv_cl,
        "spectrality": bt_spectrality_residual(state_x, res, params, sigma),
    }


def bt_spectrality_residual(state_x, result, params, sigma):
    """|mu^2 - t(sigma) mu + sigma^N| / max(|mu|^2, |t(sigma) mu|, |sigma|^N)
    for the result's mu and the generator t of state_x: zero where (sigma,
    mu) lies on the spectral curve.  At -params.sigma it is a negative
    control."""
    mu, t = result.mu, generator(state_x, params.closure)(sigma)
    terms = (mu * mu, t * mu, sigma ** state_x.n_sites)
    return abs(terms[0] - terms[1] + terms[2]) / max(map(abs, terms))


def bt_symplectic_residual(state_x, params):
    """Max-norm of D^T Omega D - Omega for the Jacobian D of (x,X) -> (y,Y),
    Omega = [[0, I], [-I, 0]].

    D is built by central differences of step 1e-5 of `bt_solve` itself.
    Entry (a, b) of D^T Omega D is the symplectic product of D's columns a
    and b, sum_i D_ia D_(i+N)b - D_(i+N)a D_ib.
    """
    n = state_x.n_sites

    def image(z):
        res = bt_solve(LatticeState.from_flat(z), params)
        return res.y + res.Y

    cols = central_differences(image, [complex(v) for v in state_x.flat()], [1e-5] * (2 * n))

    def omega(a, b):
        return 1.0 if b == a + n else -1.0 if a == b + n else 0.0

    return worst(abs(sum(u[i] * v[i + n] - u[i + n] * v[i] for i in range(n)) - omega(a, b))
                 for a, u in enumerate(cols) for b, v in enumerate(cols))


def v_plus_coeffs(y_end, sigma, theta_plus):
    """(a, d, b) of the upper dressing matrix."""
    return y_end - theta_plus, -sigma * theta_plus, y_end * (2 * theta_plus - y_end)


def v_minus_coeffs(y1, X0, sigma, theta_minus):
    """(A1, A0, delta, beta, B0, C0) of the lower dressing matrix."""
    A1 = X0
    A0 = -(sigma * X0 + theta_minus - y1 * X0 ** 2)
    delta = sigma * theta_minus
    beta = 1.0
    B0 = -(y1 * X0 - sigma) ** 2 + 2 * theta_minus * y1
    C0 = X0 ** 2
    return A1, A0, delta, beta, B0, C0


def v_matrices(y1, y_end, X0, sigma, theta_minus, theta_plus, a_shift=0.0):
    """The lambda-dependent dressing matrices (V_plus, V_minus) as callables.

    a_shift perturbs the V_plus coefficient a (negative control hook).
    """
    a, d, b = v_plus_coeffs(y_end, sigma, theta_plus)
    a = a + a_shift
    A1, A0, delta, beta, B0, C0 = v_minus_coeffs(y1, X0, sigma, theta_minus)

    def v_plus(lam):
        if abs(lam + sigma) < POLE_GUARD:
            raise SingularPrefactor("lambda == -sigma")
        pre = -lam / (lam + sigma)
        return Mat2(a + d / lam, b, 1.0, -a + d / lam).map(lambda e: pre * e)

    def v_minus(lam):
        if abs(lam - sigma) < POLE_GUARD:
            raise SingularPrefactor("lambda == sigma")
        pre = -lam / (lam - sigma)
        return Mat2(lam * A1 + A0 + delta / lam, beta * lam ** 2 + B0,
                    C0, lam * A1 - A0 + delta / lam).map(lambda e: pre * e)

    return v_plus, v_minus


def v_dressing_residual(y1, y_end, X0, X_end, sigma, theta_minus, theta_plus,
                        a_shift=0.0):
    """Defects of the two dressing identities

        g(-l-s; -y_end, X_end) V_+(l) g(l-s; -y_end, X_end)^{-1} = K_+(l)
        g(l-s;  -y_1,   X_0 ) V_-(l) g(-l-s; -y_1,  X_0 )^{-1} = K_-(l)

    (the right side of the lower identity is the K_- matrix, which is the
    displayed target of the construction)."""
    v_plus, v_minus = v_matrices(y1, y_end, X0, sigma, theta_minus, theta_plus,
                                 a_shift=a_shift)
    k_minus, k_plus = boundary_K(Open(theta_minus, theta_plus))
    res_p, res_m = [], []
    for lam in BT_LAMBDA_GRID:
        if abs(lam - sigma) < POLE_GUARD or abs(lam + sigma) < POLE_GUARD:
            raise SingularG("gauge factor singular on the grid")
        kp, km = mat2_array(k_plus, lam), mat2_array(k_minus, lam)
        g_end_m = g_matrix(-lam, sigma, -y_end, X_end)
        g1_p = g_matrix(lam, sigma, -y1, X0)
        res_p.append((g_end_m @ v_plus(lam) @ _g_inverse(lam, sigma, -y_end, X_end) - kp)
                     .max_abs())
        res_m.append((g1_p @ v_minus(lam) @ _g_inverse(-lam, sigma, -y1, X0) - km).max_abs())
    return worst(res_p), worst(res_m)


def jtilde_invariance_residual(state_x, result, params, theta_minus, theta_plus):
    """Composite check: tr[V_+(l) T(x;l) V_-(l) T(x;-l)^{-1}] before the map
    equals tr[K_+(l) T(y;l) K_-(l) T(y;-l)^{-1}] after it.

    Both sides take T^{-1}(-l) as adjugate_neg(T)(l) / (-l)^N, by the
    adjugate identity of the monodromy module's docstring; the after side
    is g(l) / (-l)^N for the open generator g of the new state."""
    xi = params.xi
    v_plus, v_minus = v_matrices(result.y[0], _ring_next(result.y, xi)[-1],
                                 _ring_prev(state_x.r, xi)[0], params.sigma,
                                 theta_minus, theta_plus)
    t_x = monodromy(state_x)
    adj_x = adjugate_neg(t_x)
    g_y = generator(result.state(), Open(theta_minus, theta_plus))
    n = state_x.n_sites

    defects = []
    for lam in BT_LAMBDA_GRID:
        if abs(lam) < POLE_GUARD or abs(lam - params.sigma) < POLE_GUARD \
                or abs(lam + params.sigma) < POLE_GUARD:
            continue
        before = (v_plus(lam) @ mat2_array(t_x, lam) @ v_minus(lam)
                  @ mat2_array(adj_x, lam)).trace() / (-lam) ** n
        defects.append(abs(before - g_y(lam) / (-lam) ** n))
    return worst(defects)
