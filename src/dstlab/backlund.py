"""Explicit Bäcklund transformation of the chain and its certificates.

The map (x, X) -> (y, Y) is defined implicitly by

    X_i = -1/y_i - sigma/(x_i - y_{i+1}),
    Y_i = X_{i-1} + (x_i - y_{i+1})/y_i * X_i,

with the ring closure y_{N+1} = xi y_1, X_0 = xi X_N (xi = 1 periodic).
It is solved by `lattice.newton`, continued in sigma over
BTParams.continuation_steps points from the exact sigma=0 seed y_i = -1/X_i,
halving the step where Newton fails, up to MAX_RAMP_POINTS points.

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

import numpy as np

from .errors import (LogBranch, NewtonDiverged, PoleEncountered, SingularG,
                     SingularPrefactor, ZeroSeed)
from .lattice import (LatticeState, Open, Periodic, Quasiperiodic, central_differences, newton,
                      worst)
from .monodromy import boundary_C, boundary_K, generator, lax_L, mat2_array, monodromy
from .poly import adjugate_neg

POLE_GUARD = 1e-12
NEWTON_TOL = 1e-12  # max-norm of the map's residual at which Newton stops
NEWTON_MAX_ITER = 50  # Newton iterations at one continuation point before NewtonDiverged
NEWTON_MAX_STEP = 0.5  # max-norm of one Newton step in y, so an overshoot cannot run away
MAX_RAMP_POINTS = 200  # sigma points a refined continuation ramp may reach

# Certificate tolerances by name, applied as written by `verify --suite
# backlund` and `dstlab backlund`.  Twin certificates share one tolerance.
INVARIANCE_TOL = 1e-8
DRESSING_TOL = 1e-10
CERT_TOL = {
    "newton_residual": 1e-11,
    "generating_function": 1e-9,
    "local_exchange": 1e-9,
    "spectrum_invariance": INVARIANCE_TOL,
    "closure_exchange": INVARIANCE_TOL,
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
    continuation_steps: int = 10  # sigma points of the Newton continuation ramp

    def __post_init__(self):
        if self.continuation_steps < 1:
            raise ValueError("continuation_steps >= 1 required")

    @property
    def xi(self):
        return self.closure.xi if isinstance(self.closure, Quasiperiodic) else 1.0


@dataclass(frozen=True)
class BTResult:
    y: tuple
    Y: tuple
    newton_residual: float
    steps_used: int

    def state(self):
        return LatticeState(self.y, self.Y)


def g_matrix(lam, sigma, s, S):
    """Elementary gauge matrix [[1, s], [-S, lam - sigma - s S]]; det = lam - sigma."""
    return np.array([[1.0, s], [-S, lam - sigma - s * S]], dtype=complex)


def _ring_next(v, xi):
    """(v_2, ..., v_N, xi v_1): each site's successor under the closure
    v_{N+1} = xi v_1."""
    return (*v[1:], xi * v[0])


def _ring_prev(v, xi):
    """(xi v_N, v_1, ..., v_{N-1}): each site's predecessor under the
    closure v_0 = xi v_N."""
    return (xi * v[-1], *v[:-1])


def _bt_F(y, x, X, sigma, xi):
    y_next = np.array(_ring_next(y, xi), dtype=complex)
    if np.min(np.abs(y)) < POLE_GUARD or np.min(np.abs(x - y_next)) < POLE_GUARD:
        raise PoleEncountered("iterate reached y_i = 0 or x_i = y_{i+1}")
    return X + 1.0 / y + sigma / (x - y_next), y_next


def _bt_jac(y, x, sigma, xi):
    n = len(y)
    jac = np.zeros((n, n), dtype=complex)
    y_next = _ring_next(y, xi)
    for i in range(n):
        jac[i, i] += -1.0 / y[i] ** 2
        d = sigma / (x[i] - y_next[i]) ** 2
        jac[i, (i + 1) % n] += d if i < n - 1 else xi * d
    return jac


def bt_solve(state_x, params, initial_guess=None):
    """Solve the implicit map for y, then assemble Y.

    Continuation ramps sigma linearly from 0 (seed y = -1/X) to the target.
    Where Newton fails at a point, the ramp is refined: the midpoint between
    the last converged sigma and the failed one is solved first, from the
    last converged y, until the ramp holds MAX_RAMP_POINTS points or a
    solve would repeat the last failed one (the same sigma from the same y,
    as when the midpoint rounds onto an end of its interval).  An
    explicit initial_guess skips the ramp (used for warm restarts).
    """
    x = np.asarray(state_x.q, dtype=complex)
    X = np.asarray(state_x.r, dtype=complex)
    if np.min(np.abs(X)) < POLE_GUARD:
        raise ZeroSeed("sigma=0 seed needs all X_i nonzero")
    if initial_guess is None:
        steps = params.continuation_steps
        y, todo = -1.0 / X, [params.sigma * k / steps for k in range(steps, 0, -1)]
        points = steps
    else:
        y, todo, points = initial_guess, [params.sigma], MAX_RAMP_POINTS  # no ramp to refine
    xi, steps_used, done, failure = params.xi, 0, 0.0, None
    while todo:  # the next sigma point is todo[-1]
        sig, start = todo[-1], tuple(y)
        if failure is not None and failure[:2] == (sig, start):
            # the solve would repeat the last failed one: the midpoint rounded
            # onto an end of its interval, or Newton took no step there
            raise NewtonDiverged(f"{failure[2]} at sigma={sig}") from failure[2]
        try:
            y_sig, res, used = newton(lambda z: _bt_F(z, x, X, sig, xi)[0], y,
                                      lambda z: _bt_jac(z, x, sig, xi),
                                      NEWTON_TOL, NEWTON_MAX_ITER, NEWTON_MAX_STEP)
        except NewtonDiverged as exc:
            if points >= MAX_RAMP_POINTS:
                raise NewtonDiverged(f"{exc} at sigma={sig}") from exc
            todo.append((done + sig) / 2)
            points += 1
            failure = (sig, start, exc)
            continue
        y, done = y_sig, todo.pop()
        steps_used += used
    _, y_next = _bt_F(y, x, X, params.sigma, xi)
    Y = np.array(_ring_prev(X, xi), dtype=complex) + (x - y_next) / y * X
    return BTResult(tuple(y), tuple(Y), res, steps_used)


def generating_function(x, y, sigma, xi=1.0):
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


def bt_generating_check(x, X, y, Y, sigma, xi=1.0):
    """Max defect of X = -dG/dx and Y = +dG/dy, with closed-form partials.

    The partials are assembled term by term from the generating function
    (the closure y_{N+1} = xi y_1 contributes a factor xi to dG/dy_1); the
    test suite cross-checks them against finite differences of G itself.
    """
    y_next = _ring_next(y, xi)
    # term i's partial in y_{i+1}, moved to site i+1 (times xi at the closure)
    via_prev = _ring_prev([-1.0 / y_i - sigma / (x_i - y_n)
                           for x_i, y_i, y_n in zip(x, y, y_next)], xi)
    return worst([abs(X_i + (1.0 / y_i + sigma / (x_i - y_n)))
                  for x_i, y_i, y_n, X_i in zip(x, y, y_next, X)]
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
        return float(np.max(np.abs(lhs - rhs)))
    return worst(map(defect, BT_LAMBDA_GRID))


def bt_invariance_residual(state_x, result, params, y_end=None):
    """(generator defect, closure-exchange defect) certifying spectrum invariance.

    (a) coefficient-wise difference of the conserved-quantity generator on the
        old and new states; (b) defect of  g_1 C = C g_{N+1}  with the gauge
        matrices at (-y_1, X_0) and (-y_{N+1}, X_N), X_0 = xi X_N.  y_end
        defaults to the ring closure xi y_1; passing a broken y_end is the
        negative control for (b).
    """
    bc = params.closure
    g_old = generator(state_x, bc)
    g_new = generator(result.state(), bc)
    res_gen = (g_old - g_new).max_abs()

    xi = params.xi
    y1 = result.y[0]
    if y_end is None:
        y_end = _ring_next(result.y, xi)[-1]
    X_end = state_x.r[-1]
    X0 = _ring_prev(state_x.r, xi)[0]
    cm = mat2_array(boundary_C(xi), 0.0)  # boundary_C(1.0) is the identity

    def defect(lam):
        if abs(lam - params.sigma) < POLE_GUARD:
            raise SingularG("lambda hit sigma on the grid")
        g1 = g_matrix(lam, params.sigma, -y1, X0)
        g_end = g_matrix(lam, params.sigma, -y_end, X_end)
        return float(np.max(np.abs(g1 @ cm - cm @ g_end)))
    return res_gen, worst(map(defect, BT_LAMBDA_GRID))


def solvable_state(rng, n):
    """A random complex state whose sigma = 0 seed y = -1/X keeps the map
    away from its poles; rng is a `_rng.PCG64`."""
    def sites():
        re, im = rng.uniform(0.6, 1.4, n), rng.uniform(-0.3, 0.3, n)
        return tuple(a + 1j * b for a, b in zip(re, im))
    return LatticeState(sites(), sites())


def bt_certificates(state_x, params):
    """Solve the map for one state; return the BTResult and {name: residual}
    of the Newton residual, the generating function, the local exchange at
    every site under the ring closure, and the bt_invariance_residual pair."""
    res = bt_solve(state_x, params)
    x, X, y = state_x.q, state_x.r, res.y
    xi, sigma = params.xi, params.sigma
    inv_gen, inv_cl = bt_invariance_residual(state_x, res, params)
    return res, {
        "newton_residual": res.newton_residual,
        "generating_function": bt_generating_check(x, X, y, res.Y, sigma, xi=xi),
        "local_exchange": worst(map(bt_local_identity_residual, x, X, y, _ring_next(y, xi),
                                    _ring_prev(X, xi), [sigma] * len(x))),
        "spectrum_invariance": inv_gen,
        "closure_exchange": inv_cl,
    }


def bt_symplectic_residual(state_x, params):
    """Max-norm of D^T Omega D - Omega for the Jacobian D of (x,X) -> (y,Y).

    D is built by central differences of step 1e-5, re-solving with a warm
    start from the unperturbed solution.
    """
    n = state_x.n_sites
    warm = np.asarray(bt_solve(state_x, params).y, dtype=complex)

    def image(z):
        res = bt_solve(LatticeState.from_flat(z), params, initial_guess=warm)
        return np.array(res.y + res.Y)

    z0 = np.array(state_x.flat(), dtype=complex)
    D = np.column_stack(central_differences(image, z0, [1e-5] * (2 * n)))
    m = 2 * n
    omega = np.zeros((m, m))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return float(np.max(np.abs(D.T @ omega @ D - omega)))


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
        return pre * np.array([[a + d / lam, b], [1.0, -a + d / lam]], dtype=complex)

    def v_minus(lam):
        if abs(lam - sigma) < POLE_GUARD:
            raise SingularPrefactor("lambda == sigma")
        pre = -lam / (lam - sigma)
        return pre * np.array([[lam * A1 + A0 + delta / lam, beta * lam ** 2 + B0],
                               [C0, lam * A1 - A0 + delta / lam]], dtype=complex)

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
        g_end_p = g_matrix(lam, sigma, -y_end, X_end)
        g1_p = g_matrix(lam, sigma, -y1, X0)
        g1_m = g_matrix(-lam, sigma, -y1, X0)
        res_p.append(float(np.max(np.abs(g_end_m @ v_plus(lam) @ np.linalg.inv(g_end_p) - kp))))
        res_m.append(float(np.max(np.abs(g1_p @ v_minus(lam) @ np.linalg.inv(g1_m) - km))))
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
        before = np.trace(v_plus(lam) @ mat2_array(t_x, lam) @ v_minus(lam)
                          @ mat2_array(adj_x, lam)) / (-lam) ** n
        defects.append(abs(before - g_y(lam) / (-lam) ** n))
    return worst(defects)
