"""Phase space, equations of motion and Hamiltonians of the discrete
self-trapping chain under periodic, quasiperiodic and open boundaries.

The chain variables (q_n, r_n) are independent canonical coordinates
(r is *not* constrained to be the conjugate of q), so real and complex
states are both supported.  The bulk flow is

    dq_n/dt = q_{n+1} - q_n^2 r_n,      dr_n/dt = -r_{n-1} + q_n r_n^2,

closed by (q_{N+1}, r_0) = (q_1, r_N) for the periodic ring, by
(xi q_1, xi r_N) for the quasiperiodic twist, and by the fixed couplings
(theta_+, theta_-) for the open chain.

`central_differences` is the package's one difference stencil: Poisson
brackets here and in `rmatrix`, the flow Jacobian of `verify` and the
Bäcklund Jacobian of `backlund` all call it, each with its own steps.
`worst` (and its mirror `least`) is the package's one fold of residuals.
`_rates` is the flow's one formula, shared by `eom` and the four stages
of `step_rk4`, which build no `Derivative` or stage object.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NonFiniteDerivative, NonFiniteState, WrongRegime, ZeroXi


def _is_finite(x):
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return True  # exact scalars (rationals, ints too large for a float) are finite


def _all_finite(z):
    """True when every entry of z is finite.

    inf and nan survive addition, so a finite sum proves every entry finite
    with one test.  A non-finite sum may still come from finite entries
    that overflow together; only then are the entries tested one by one.
    """
    return _is_finite(sum(z)) or all(_is_finite(x) for x in z)


def worst(values):
    """The largest of values, 0.0 if there are none, or the first NaN met: the
    one fold of residuals, so a NaN fails wherever it falls (the builtin max
    keeps its first argument against a NaN: max(0.0, nan) is 0.0)."""
    values = list(values)
    return next((v for v in values if v != v), max(values, default=0.0))


def least(values):
    """`worst`'s mirror, for the negative controls' smallest observation."""
    values = list(values)
    return next((v for v in values if v != v), min(values, default=0.0))


# Entry types LatticeState keeps as they are; anything else with .item()
# (numpy scalars) is converted to the plain Python number.
_PLAIN_TYPES = frozenset((float, complex, int))


@dataclass(frozen=True)
class Periodic:
    def closure(self, q, r):
        return q[0], r[-1]

    label = "periodic"


@dataclass(frozen=True)
class Quasiperiodic:
    xi: complex

    def __post_init__(self):
        if self.xi == 0:
            raise ZeroXi("quasiperiodic twist xi must be nonzero")

    def closure(self, q, r):
        return self.xi * q[0], self.xi * r[-1]

    label = "quasiperiodic"


@dataclass(frozen=True)
class Open:
    theta_minus: complex
    theta_plus: complex

    def closure(self, q, r):
        return self.theta_plus, self.theta_minus

    label = "open"


@dataclass(frozen=True)
class LatticeState:
    """Immutable phase-space point; q and r are length-N tuples."""

    q: tuple
    r: tuple

    def __post_init__(self):
        n = len(self.q)
        if len(self.r) != n or n < 1:
            raise ValueError("q and r must have equal positive length")
        z = tuple(self.q) + tuple(self.r)
        if not set(map(type, z)) <= _PLAIN_TYPES:
            # numpy scalars become plain Python numbers (IEEE overflow without warnings)
            z = tuple(v.item() if hasattr(v, "item") else v for v in z)
        if not _all_finite(z):
            raise NonFiniteState("state entries must be finite")
        object.__setattr__(self, "q", z[:n])
        object.__setattr__(self, "r", z[n:])

    @property
    def n_sites(self):
        return len(self.q)

    def flat(self):
        return list(self.q) + list(self.r)

    @classmethod
    def from_flat(cls, z):
        n = len(z) // 2
        return cls(tuple(z[:n]), tuple(z[n:]))


class Derivative(NamedTuple):
    dq: tuple
    dr: tuple


def coordinate(kind, i):
    """The function of a LatticeState picking q_i or r_i (1-based index)."""
    if kind == "q":
        return lambda s: s.q[i - 1]
    if kind == "r":
        return lambda s: s.r[i - 1]
    raise ValueError(kind)


def _rates(q, r, bc):
    """The flow's one formula: lists (dq, dr) at the tuples (q, r)."""
    q_np1, r_0 = bc.closure(q, r)
    # zip q_{n+1} and r_{n-1} with (q_n, r_n), closure values at the ends
    return ([qn1 - qn * qn * rn for qn1, qn, rn in zip(q[1:] + (q_np1,), q, r)],
            [-rm1 + qn * rn * rn for rm1, qn, rn in zip((r_0,) + r[:-1], q, r)])


def eom(state, bc):
    """Time derivative of (q, r) with the regime's closure."""
    dq, dr = _rates(state.q, state.r, bc)
    return Derivative(tuple(dq), tuple(dr))


def hamiltonian(state, bc):
    """Regime Hamiltonian generating `eom` through dq/dt = dH/dr, dr/dt = -dH/dq.

    The quasiperiodic form drops a constant overall xi^(-1/2) factor of the
    trace-generated expression; that factor only rescales time, and dropping
    it makes the flow match the twisted closure literally.
    """
    q, r = state.q, state.r
    n = len(q)
    hop = sum(q[i + 1] * r[i] for i in range(n - 1))
    quart = sum((q[i] * r[i]) ** 2 for i in range(n))
    if isinstance(bc, Periodic):
        return hop + q[0] * r[-1] - quart / 2
    if isinstance(bc, Quasiperiodic):
        return hop + bc.xi * r[-1] * q[0] - quart / 2
    if isinstance(bc, Open):
        return hop - quart / 2 + q[0] * bc.theta_minus + r[-1] * bc.theta_plus
    raise WrongRegime(f"unknown boundary condition {bc!r}")


DEFAULT_FD_STEP = 1e-5


def central_differences(f, z, steps):
    """[(f(z + h_k e_k) - f(z - h_k e_k)) / 2 h_k for each k]: the one
    central-difference stencil of the package, for scalar- and array-valued
    f alike.  f takes a list like z; steps[k] is h_k; z is not mutated."""
    out = []
    for k, h in enumerate(steps):
        zp, zm = list(z), list(z)
        zp[k] = z[k] + h
        zm[k] = z[k] - h
        out.append((f(zp) - f(zm)) / (2 * h))
    return out


def relative_steps(z, h_scale):
    """Steps h_scale * max(1, |z_k|): the bracket stencil's steps, which
    scale with the coordinate."""
    return [h_scale * max(1.0, abs(v)) for v in z]


def _grad(f, state, h_scale=DEFAULT_FD_STEP):
    """Central-difference gradient (df/dq_i, df/dr_i) with relative steps."""
    z, n = state.flat(), state.n_sites
    d = central_differences(lambda w: f(LatticeState.from_flat(w)), z,
                            relative_steps(z, h_scale))
    for k, dk in enumerate(d):
        if not _is_finite(dk):
            raise NonFiniteDerivative(f"non-finite difference quotient at site {k % n + 1}")
    return d[:n], d[n:]


def poisson_bracket(f, g, state, h_scale=DEFAULT_FD_STEP):
    """{f, g} = sum_n df/dq_n dg/dr_n - df/dr_n dg/dq_n by central differences,
    for scalar functions f, g of a LatticeState."""
    fq, fr = _grad(f, state, h_scale)
    gq, gr = _grad(g, state, h_scale)
    return sum(fq[i] * gr[i] - fr[i] * gq[i] for i in range(len(fq)))


def flow_consistency_residual(state, bc):
    """Max-norm gap between `eom` and the symplectic gradient of `hamiltonian`."""
    d = eom(state, bc)
    hq, hr = _grad(lambda s: hamiltonian(s, bc), state)
    return worst([abs(d.dq[i] - hr[i]) for i in range(len(hq))]
                 + [abs(d.dr[i] + hq[i]) for i in range(len(hq))])


def step_rk4(state, bc, dt):
    """One classical RK4 step; raises NonFiniteState on blow-up.

    The stages are unvalidated: a non-finite stage makes the update
    non-finite, which the finiteness check of LatticeState catches.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    q, r = state.q, state.r
    kq1, kr1 = _rates(q, r, bc)
    kq2, kr2 = _rates(tuple([x + half * k for x, k in zip(q, kq1)]),
                      tuple([x + half * k for x, k in zip(r, kr1)]), bc)
    kq3, kr3 = _rates(tuple([x + half * k for x, k in zip(q, kq2)]),
                      tuple([x + half * k for x, k in zip(r, kr2)]), bc)
    kq4, kr4 = _rates(tuple([x + dt * k for x, k in zip(q, kq3)]),
                      tuple([x + dt * k for x, k in zip(r, kr3)]), bc)
    c = dt / 6
    # x + c (k1 + 2 k2 + 2 k3 + k4), entry by entry, summed in that order
    return LatticeState(
        tuple([x + c * (p1 + 2 * p2 + 2 * p3 + p4)
               for x, p1, p2, p3, p4 in zip(q, kq1, kq2, kq3, kq4)]),
        tuple([x + c * (p1 + 2 * p2 + 2 * p3 + p4)
               for x, p1, p2, p3, p4 in zip(r, kr1, kr2, kr3, kr4)]))


def principal_sqrt(x):
    """Principal square root, complex when needed."""
    if isinstance(x, complex) or (isinstance(x, float) and x < 0):
        return cmath.sqrt(x)
    if isinstance(x, int) and x < 0:
        return cmath.sqrt(x)
    return math.sqrt(x)
