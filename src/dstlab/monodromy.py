"""Lax matrices, monodromy, boundary matrices and conserved-quantity generators.

All polynomial-in-lambda objects are exact: Mat2[Poly] over the state's
scalar field (floats, complex, or rationals).  The monodromy ordering is
T = L_N ... L_1, the unique ordering for which the time derivative of T
telescopes to  M_{N+1} T - T M_1.  `monodromy` is the one place T is built,
for every caller and every state: it runs the Lax recurrence on coefficient
lists, which equal the Mat2[Poly] chain's wherever that is finite.

The open-chain generator is Sklyanin's transfer polynomial
tr[K_+ T K_- T^{-1}(-lambda)], built inverse-free: since det T(lambda) =
lambda^N, the inverse T^{-1}(-lambda) is replaced by the adjugate
sigma2 T^t(-lambda) sigma2 = (-lambda)^N T^{-1}(-lambda), which multiplies
the generator by the harmless scalar factor (-lambda)^N and shifts its
degree to 2N+2.  `dressed_U` is the one classical U = T K_- adj(T), for
the generator and `rmatrix` alike.  With it and K_+ = [[theta_+, 0],
[lambda, theta_+]], the trace is read off U as
theta_+ U11 + (lambda U12 + theta_+ U22), as quantum.qtau reads tau off the
dressed operator matrix: no K_+ product is formed, and the sums keep the
grouping of tr(K_+ U), whose finite coefficients they give bit for bit.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NonFiniteState, WrongRegime, ZeroXi
from .lattice import (Open, Periodic, Quasiperiodic, _all_finite, eom,
                      principal_sqrt, step_rk4, worst)
from .poly import Mat2, Poly, adjugate_neg, poly_mat

# Sample grid for floating-point residuals: 8 unit-circle points plus
# off-circle reals; avoids symmetry-induced accidental zeros.
LAMBDA_GRID = tuple(cmath.exp(2j * cmath.pi * k / 8) for k in range(8)) + (0.5, -0.5, 2.0, -2.0)


def lax_L(state, n):
    """Site Lax matrix [[lambda + q_n r_n, q_n], [r_n, 1]] (n is 1-based)."""
    if not 1 <= n <= state.n_sites:
        raise IndexError(f"site {n} out of range 1..{state.n_sites}")
    qn, rn = state.q[n - 1], state.r[n - 1]
    return poly_mat(Poly([qn * rn, 1]), qn, rn, 1)


def lax_M(state, n, bc):
    """Auxiliary matrix [[lambda/2, q_n], [r_{n-1}, -lambda/2]] for n = 1..N+1.

    Out-of-range q_{N+1} and r_0 are resolved by the boundary closure, so
    n = N+1 and n = 1 produce the end matrices of the open chain.
    """
    nn = state.n_sites
    if not 1 <= n <= nn + 1:
        raise IndexError(f"site {n} out of range 1..{nn + 1}")
    q_np1, r_0 = bc.closure(state.q, state.r)
    qn = state.q[n - 1] if n <= nn else q_np1
    rnm1 = state.r[n - 2] if n >= 2 else r_0
    half = Poly([0, 0.5])
    return poly_mat(half, qn, rnm1, -half)


def _times_lax(a, b, s, q, r):
    """Row (a, b) of T times L = [[lambda + s, q], [r, 1]]: the coefficient
    lists of a (lambda + s) + b r and a q + b, for len(a) = len(b) or
    len(b) + 1.  The operations and their order are those of the Poly
    product, with its 0 + x on a lone product."""
    new_a = [0 + a[0] * s + b[0] * r]
    new_a += [x + y * s + z * r for x, y, z in zip(a, a[1:], b[1:])]
    new_b = [x * q + y for x, y in zip(a, b)]
    if len(a) > len(b):
        new_a.append(a[-2] + a[-1] * s)
        new_b.append(0 + a[-1] * q)
    new_a.append(a[-1])
    return new_a, new_b


def monodromy(state):
    """Ordered product T = L_N L_{N-1} ... L_1, by the Lax recurrence.

    Since L_k = [[lambda + s_k, q_k], [r_k, 1]] with s_k = q_k r_k, each
    row (a, b) of T becomes (a (lambda + s_k) + b r_k, a q_k + b): one
    degree shift and two scalar multiples per coefficient, with no Poly or
    Mat2 temporaries.  The recurrence starts from the entries of L_N.
    """
    q, r = state.q, state.r
    a, b = [0 + q[-1] * r[-1], 1], [0 + q[-1]]
    c, d = [0 + r[-1]], [1]
    for qk, rk in zip(q[-2::-1], r[-2::-1]):
        sk = qk * rk
        a, b = _times_lax(a, b, sk, qk, rk)
        c, d = _times_lax(c, d, sk, qk, rk)
    return Mat2(Poly(a), Poly(b), Poly(c), Poly(d))


def boundary_C(xi):
    """Quasiperiodic twist matrix diag(xi^(-1/2), xi^(1/2)), principal branch."""
    if xi == 0:
        raise ZeroXi("xi must be nonzero")
    s = principal_sqrt(xi)
    return Mat2.diag(1 / s, s)


def boundary_K(bc):
    """Open-chain reflection matrices (K_minus, K_plus)."""
    if not isinstance(bc, Open):
        raise WrongRegime("boundary_K needs the open regime")
    lam = Poly([0, 1])
    k_minus = poly_mat(bc.theta_minus, lam, 0, bc.theta_minus)
    k_plus = poly_mat(bc.theta_plus, 0, lam, bc.theta_plus)
    return k_minus, k_plus


def dressed_U(state, bc):
    """Sklyanin's dressed matrix U = T K_- adj(T), with adj(T)(lambda) =
    adjugate_neg(T)(lambda) = (-lambda)^N T^{-1}(-lambda): the one place the
    classical U is formed.  Open regime only."""
    k_minus, _ = boundary_K(bc)
    t = monodromy(state)
    return t @ k_minus @ adjugate_neg(t)


def mat2_array(m, lam):
    """The Mat2 m evaluated at lambda, as a Mat2 of Python complex."""
    return m.eval(lam).map(complex)


def generator(state, bc):
    """Polynomial generator of conserved quantities for the regime.

    periodic:      tr T(lambda)                        degree N
    quasiperiodic: tr[C(xi) T(lambda)]                 degree N
    open:          tr[K_+ T K_- sigma2 T^t(-l) sigma2] degree 2N+2,
                   read off U = T K_- adj(T) (see the module docstring)
    """
    if isinstance(bc, Periodic):
        return monodromy(state).trace()
    if isinstance(bc, Quasiperiodic):
        t = monodromy(state)
        s = principal_sqrt(bc.xi)
        return t.a11 * (1 / s) + t.a22 * s
    if isinstance(bc, Open):
        u = dressed_U(state, bc)
        tp = bc.theta_plus
        return u.a11 * tp + (u.a12.shift_up(1) + u.a22 * tp)
    raise WrongRegime(f"unknown boundary condition {bc!r}")


class Sample(NamedTuple):
    """A sampled point of a trajectory: the step index, the state, the
    generator coefficients as a tuple of complex, and the largest relative
    drift of any coefficient from step 0 over the samples so far."""

    step: int
    state: object
    coeffs: tuple
    drift: float


def relative_drift(c, c0):
    """|c - c0| / max(1, |c0|) per coefficient, as a list: the one drift
    formula.  c0 is finite (a step-0 generator that is not is a blow-up)."""
    return [abs(x - x0) / max(1.0, abs(x0)) for x, x0 in zip(c, c0)]


def _coeffs(state, bc):
    """The generator's coefficients as a tuple of complex."""
    return tuple(map(complex, generator(state, bc).c))


def sampled_trajectory(state, bc, dt, steps, sample_every):
    """Integrate `steps` RK4 steps from `state`; yield a Sample at step 0,
    every `sample_every`-th step and the last step.  Each sample interval
    is one `step_rk4` block of `sample_every` steps (the last may be
    shorter), so only the sampled states are validated.

    On blow-up the block's NonFiniteState propagates, its `steps_done`
    counted from step 0: the number of steps completed before it.  A
    non-finite step-0 generator is a blow-up at step 0, raised after its
    sample (drift NaN).
    """
    c0 = _coeffs(state, bc)
    if not _all_finite(c0):
        yield Sample(0, state, c0, float("nan"))
        exc = NonFiniteState("the step-0 generator is not finite")
        exc.steps_done = 0
        raise exc
    drift = 0.0
    yield Sample(0, state, c0, drift)
    for start in range(0, steps, sample_every):
        k = min(start + sample_every, steps)
        try:
            state = step_rk4(state, bc, dt, k - start)
        except NonFiniteState as exc:
            exc.steps_done += start
            raise
        c = _coeffs(state, bc)
        drift = worst((drift, worst(relative_drift(c, c0))))
        yield Sample(k, state, c, drift)


@dataclass(frozen=True)
class ConservedSet:
    regime: str
    coeffs: tuple
    hamiltonian_value: complex


def conserved_coeffs(state, bc):
    """Coefficient list of the generator and the Hamiltonian read from it.

    hamiltonian_value is reassembled from the generator coefficients alone
    (small-N constant bookkeeping included), so agreement with
    lattice.hamiltonian is a genuine cross-check of the Lax construction.
    """
    n = state.n_sites
    g = generator(state, bc)
    coeffs = tuple(g.c)
    if isinstance(bc, Periodic):
        if n == 1:
            st = g.coeff(0) - 1
            h = st - st * st / 2
        else:
            st = g.coeff(n - 1)
            h = g.coeff(n - 2) - (1 if n == 2 else 0) - st * st / 2
        return ConservedSet("periodic", coeffs, h)
    if isinstance(bc, Quasiperiodic):
        sq = principal_sqrt(bc.xi)
        if n == 1:
            st = sq * g.coeff(0) - bc.xi
            h = bc.xi * st - st * st / 2
        else:
            st = sq * g.coeff(n - 1)
            h = sq * g.coeff(n - 2) - (bc.xi if n == 2 else 0) - st * st / 2
        return ConservedSet("quasiperiodic", coeffs, h)
    if isinstance(bc, Open):
        sign = -1 if n % 2 else 1
        h = g.coeff(2 * n) / (2 * sign)
        return ConservedSet("open", coeffs, h)
    raise WrongRegime(f"unknown boundary condition {bc!r}")


def _ldot(state, bc, j):
    """d/dt of L_j assembled from the equations of motion (chain rule)."""
    d = eom(state, bc)
    qj, rj = state.q[j - 1], state.r[j - 1]
    dqj, drj = d.dq[j - 1], d.dr[j - 1]
    return poly_mat(dqj * rj + qj * drj, dqj, drj, 0)


def _shifted_bc(bc, boundary_shift):
    if boundary_shift == (0.0, 0.0) or not isinstance(bc, Open):
        return bc
    return Open(bc.theta_minus + boundary_shift[0], bc.theta_plus + boundary_shift[1])


def lax_consistency_residual(state, bc, j, boundary_shift=(0.0, 0.0)):
    """Max over the lambda grid of || dL_j/dt - (M_{j+1} L_j - L_j M_j) ||.

    boundary_shift perturbs (theta_-, theta_+) in the auxiliary matrices only
    (negative control: a mismatch with the flow must be detected).
    """
    wbc = _shifted_bc(bc, boundary_shift)
    lhs = _ldot(state, bc, j)
    lj = lax_L(state, j)
    m_next = lax_M(state, j + 1, wbc)
    m_j = lax_M(state, j, wbc)
    defect = lhs - (m_next @ lj - lj @ m_j)
    return worst(defect.eval(lam).max_abs() for lam in LAMBDA_GRID)


def monodromy_evolution_residual(state, bc):
    """Coefficient max-norm of  sum_n L_N..L_{n+1} Ldot_n L_{n-1}..L_1
    minus  (M_{N+1} T - T M_1)  with closure-resolved end matrices."""
    n = state.n_sites
    ls = [lax_L(state, k) for k in range(1, n + 1)]
    total = None
    for k in range(1, n + 1):
        term = _ldot(state, bc, k)
        for m in range(k - 1, 0, -1):
            term = term @ ls[m - 1]
        for m in range(k + 1, n + 1):
            term = ls[m - 1] @ term
        total = term if total is None else total + term
    t = monodromy(state)
    rhs = lax_M(state, n + 1, bc) @ t - t @ lax_M(state, 1, bc)
    return (total - rhs).max_abs()


def sklyanin_condition_residual(bc, state, lam, boundary_shift=(0.0, 0.0)):
    """Boundary compatibility defects at a single lambda.

    Open:          (res_plus, res_minus, None) for
                   K_+(l) W_{N+1}(l) = W_{N+1}(-l) K_+(l)  and
                   W_1(l) K_-(l) = K_-(l) W_1(-l).
    Quasiperiodic: (None, None, res_C) for  C M_{N+1}(l) = M_1(l) C.
    """
    n = state.n_sites
    if isinstance(bc, Open):
        wbc = _shifted_bc(bc, boundary_shift)
        w_end = lax_M(state, n + 1, wbc).eval(lam)
        w_end_neg = lax_M(state, n + 1, wbc).eval(-lam)
        w_one = lax_M(state, 1, wbc).eval(lam)
        w_one_neg = lax_M(state, 1, wbc).eval(-lam)
        k_minus, k_plus = boundary_K(bc)
        km, kp = k_minus.eval(lam), k_plus.eval(lam)
        res_plus = (kp @ w_end - w_end_neg @ kp).max_abs()
        res_minus = (w_one @ km - km @ w_one_neg).max_abs()
        return res_plus, res_minus, None
    if isinstance(bc, Quasiperiodic):
        c = boundary_C(bc.xi)
        m_end = lax_M(state, n + 1, bc).eval(lam)
        m_one = lax_M(state, 1, bc).eval(lam)
        return None, None, (c @ m_end - m_one @ c).max_abs()
    raise WrongRegime("sklyanin_condition_residual needs open or quasiperiodic")
