"""Phase space, equations of motion and Hamiltonians of the discrete
self-trapping chain under periodic, quasiperiodic and open boundaries.

The chain variables (q_n, r_n) are independent canonical coordinates
(r is *not* constrained to be the conjugate of q), so real and complex
states are both supported.  The bulk flow is

    dq_n/dt = q_{n+1} - q_n^2 r_n,      dr_n/dt = -r_{n-1} + q_n r_n^2,

closed by (xi q_1, xi r_N) for the quasiperiodic twist, by the fixed
couplings (theta_+, theta_-) for the open chain, and by (q_1, r_N) for the
periodic ring, which is the twist at xi = 1: `Periodic.xi` is the int 1, a
class constant and not a field, so `hamiltonian` and
`monodromy.conserved_coeffs` read both rings with one formula.  Only the
kernels and `monodromy.generator`, which run once per step and once per
sample, keep a branch for the ring.

`central_differences` is the package's one difference stencil: the Poisson
bracket, the Bäcklund Jacobian of `backlund` and the Bethe Jacobian of
`baxter` all call it, each with its own steps.  `poisson_bracket` is the
one canonical bracket, for scalar and tuple observables alike: `verify`
takes its coordinate and Hamiltonian brackets from it, and `rmatrix` its
tables of matrix-entry brackets.
`newton` is the Newton loop of the Bethe roots (`baxter.bethe_solve`), and
`lu_factor` its linear algebra: the Newton step's solve and the
determinant of `baxter.eigen_membership_residual`.
`worst` (and its mirror `least`) is the package's one fold of residuals.
The flow's formula is written once, in `_rate_lines`, which emits it as
Python source.  `_kernels(N, regime)` compiles that source, once per chain
length and regime class, into two functions on local variables: `rates`,
which `eom` runs, and `rk4`, which `step_rk4` runs.  Each regime class
writes its closure as source beside its `closure` method
(`kernel_closure`), and the kernels inline it: the ring reads q0 and
r{N-1} directly, and the twist and the open chain bind their dataclass
fields once per call.  `closure` stays for `monodromy.lax_M`
and the tests' reference.  The kernels write three operations otherwise
than the formula above, each the same IEEE operation, so every bit stays:

- dr_n is q_n r_n r_n - r_{n-1}: IEEE 754 defines x - y as x + (-y), a sum
  does not depend on its order, and CPython adds, subtracts and negates
  complex numbers part by part, a float operand entering as x + 0j;
- the RK4 weights are the float 2.0, to which CPython converts the int 2
  exactly before it multiplies; 2.0 lets CPython 3.11 use its
  float-specialised multiply;
- the update assigns one entry at a time, since each new x_i reads only
  its own old value and the stages.

The RK4 kernel writes its four stages and
the update as plain expressions, with no comprehension or stage object,
inside one loop over the steps of a block, so one block (a sample interval
of `monodromy.sampled_trajectory`) builds one `LatticeState`, its result.
A blow-up inside a block leaves the result non-finite, since no update
turns an inf or nan entry finite again; only then does `step_rk4` replay
the block one validated step at a time, to name the step that blew up.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .errors import NewtonDiverged, NonFiniteDerivative, NonFiniteState, WrongRegime, ZeroXi


def _is_finite(x):
    """True when the number x is finite."""
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    try:
        return math.isfinite(x)
    except OverflowError:
        return True  # ints and rationals too large for a float are finite
    except TypeError:
        return True  # other exact scalars are finite


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


# Entry types LatticeState keeps as they are; any other entry with .item()
# (an array library's scalar) becomes the plain Python number, so the
# state's arithmetic is Python's.
_PLAIN_TYPES = frozenset((float, complex, int))


@dataclass(frozen=True)
class Periodic:
    # the twist of the ring: an int, so exact states stay exact, and a class
    # constant, not a field, so the kernels read q0 and r{N-1} bare
    xi = 1

    def closure(self, q, r):
        return q[0], r[-1]

    # `closure` as kernel source, on the kernel's locals: the end sites {q}0
    # and {r}{last}, and the regime's fields, bound once per kernel call
    kernel_closure = ("{q}0", "{r}{last}")
    label = "periodic"


@dataclass(frozen=True)
class Quasiperiodic:
    xi: complex

    def __post_init__(self):
        if self.xi == 0:
            raise ZeroXi("quasiperiodic twist xi must be nonzero")

    def closure(self, q, r):
        return self.xi * q[0], self.xi * r[-1]

    kernel_closure = ("xi * {q}0", "xi * {r}{last}")
    label = "quasiperiodic"


@dataclass(frozen=True)
class Open:
    theta_minus: complex
    theta_plus: complex

    def closure(self, q, r):
        return self.theta_plus, self.theta_minus

    kernel_closure = ("theta_plus", "theta_minus")
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


def _rate_lines(n, regime, x, y, kx, ky):
    """Source lines setting the locals kx0.., ky0.. to the flow's rates at
    the point x0.., y0.. of an n-site chain: the flow's one formula,

        dq_n/dt = q_{n+1} - q_n q_n r_n,   dr_n/dt = q_n r_n r_n - r_{n-1},

    with (q_{N+1}, r_0) the regime class's `kernel_closure` of the end sites."""
    q_end, r_0 = (e.format(q=x, r=y, last=n - 1) for e in regime.kernel_closure)
    succ = [f"{x}{i}" for i in range(1, n)] + [q_end]
    pred = [r_0] + [f"{y}{i}" for i in range(n - 1)]
    lines = []
    for i in range(n):
        qn, rn = f"{x}{i}", f"{y}{i}"
        lines.append(f"{kx}{i} = {succ[i]} - {qn} * {qn} * {rn}")
        lines.append(f"{ky}{i} = {qn} * {rn} * {rn} - {pred[i]}")
    return lines


def _kernel_source(n, regime):
    """Source of `rates(q, r, bc)` and `rk4(q, r, bc, dt, steps)` for
    n-site chains of the regime class, built from integers and fixed names
    only.  Each binds the regime's dataclass fields from bc once and returns
    a pair of n-tuples: the rates (dq, dr), or the state after `steps` RK4
    steps, each x <- x + c (k1 + 2 k2 + 2 k3 + k4) with c = dt/6 and the
    stages k2, k3, k4 at x + half k1, x + half k2 and x + dt k3,
    half = 0.5 dt.  The update assigns one entry at a time: each new x_i
    reads only its own old value and the stages."""
    def names(prefix):
        return "".join(f"{prefix}{i}, " for i in range(n))

    unpack = ([f"{names('q')}= q", f"{names('r')}= r"]
              + [f"{f.name} = bc.{f.name}" for f in fields(regime)])
    rates = unpack + _rate_lines(n, regime, "q", "r", "dq", "dr")
    rates.append(f"return ({names('dq')}), ({names('dr')})")
    step = _rate_lines(n, regime, "q", "r", "kq1_", "kr1_")
    for s, h in ((2, "half"), (3, "half"), (4, "dt")):
        for x in "qr":
            step += [f"{x}{s}_{i} = {x}{i} + {h} * k{x}{s - 1}_{i}" for i in range(n)]
        step += _rate_lines(n, regime, f"q{s}_", f"r{s}_", f"kq{s}_", f"kr{s}_")
    step += [f"{x}{i} = {x}{i} + c * (k{x}1_{i} + 2.0 * k{x}2_{i} + 2.0 * k{x}3_{i}"
             f" + k{x}4_{i})" for x in "qr" for i in range(n)]
    rk4 = (unpack + ["half = 0.5 * dt", "c = dt / 6", "for _ in range(steps):"]
           + [f"    {line}" for line in step]
           + [f"return ({names('q')}), ({names('r')})"])
    return "".join(f"def {head}:\n" + "".join(f"    {line}\n" for line in body)
                   for head, body in (("rates(q, r, bc)", rates),
                                      ("rk4(q, r, bc, dt, steps)", rk4)))


@functools.lru_cache
def _kernels(n, regime):
    """(rates, rk4): the functions of `_kernel_source(n, regime)`, compiled
    once per chain length and regime class."""
    if not issubclass(regime, (Periodic, Quasiperiodic, Open)):
        raise WrongRegime(f"unknown boundary condition {regime!r}")
    namespace = {}
    exec(compile(_kernel_source(n, regime), f"<rk4 n={n} {regime.label}>", "exec"),
         namespace)
    return namespace["rates"], namespace["rk4"]


def eom(state, bc):
    """Time derivative of (q, r) with the regime's closure."""
    rates, _ = _kernels(state.n_sites, type(bc))
    return Derivative(*rates(state.q, state.r, bc))


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
    if isinstance(bc, (Periodic, Quasiperiodic)):
        return hop + bc.xi * r[-1] * q[0] - quart / 2
    if isinstance(bc, Open):
        return hop - quart / 2 + q[0] * bc.theta_minus + r[-1] * bc.theta_plus
    raise WrongRegime(f"unknown boundary condition {bc!r}")


DEFAULT_FD_STEP = 1e-5
POLE_GUARD = 1e-12  # distance below which backlund and baxter call a pole hit


def central_differences(f, z, steps):
    """[(f(z + h_k e_k) - f(z - h_k e_k)) / 2 h_k for each k]: the one
    central-difference stencil of the package, for scalar- and tuple-valued
    f alike (a tuple is differenced entry by entry).  f takes a list like z;
    steps[k] is h_k; z is not mutated."""
    out = []
    for k, h in enumerate(steps):
        zp, zm = list(z), list(z)
        zp[k] = z[k] + h
        zm[k] = z[k] - h
        fp, fm = f(zp), f(zm)
        if isinstance(fp, tuple):
            out.append(tuple((a - b) / (2 * h) for a, b in zip(fp, fm)))
        else:
            out.append((fp - fm) / (2 * h))
    return out


def lu_factor(a):
    """LU factors of the square matrix a (a list of rows, left unchanged) by
    Gaussian elimination with partial pivoting: (lu, order, sign), with U on
    and above the diagonal of lu and L's multipliers below it, order the
    rows of a in pivot order and sign the permutation's parity, so that
    det a = sign * prod(lu[k][k]).  A zero pivot column is left as it is,
    giving det a = 0."""
    lu = [[complex(v) for v in row] for row in a]
    n = len(lu)
    order, sign = list(range(n)), 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            order[k], order[p] = order[p], order[k]
            sign = -sign
        pivot_row = lu[k]
        if pivot_row[k] == 0:
            continue
        for row in lu[k + 1:]:
            m = row[k] = row[k] / pivot_row[k]
            for j in range(k + 1, n):
                row[j] -= m * pivot_row[j]
    return lu, order, sign


def _lu_solve(a, b):
    """x with a x = b, by `lu_factor`; NewtonDiverged at a zero pivot."""
    lu, order, _ = lu_factor(a)
    if any(row[k] == 0 for k, row in enumerate(lu)):
        raise NewtonDiverged("Singular matrix: a zero pivot")
    x = [b[i] for i in order]
    for i, row in enumerate(lu):
        for j in range(i):
            x[i] -= row[j] * x[j]
    for i in reversed(range(len(lu))):
        row = lu[i]
        for j in range(i + 1, len(row)):
            x[i] -= row[j] * x[j]
        x[i] /= row[i]
    return x


def newton(f, z, jacobian, tol, max_iter, max_step):
    """The package's one Newton loop for f(z) = 0 on a list z of complex:
    (z, max |f(z)|) once max |f(z)| <= tol, each step solving
    jacobian(z) step = -f(z) (the Jacobian as a list of rows), cut to
    max-norm max_step.  NewtonDiverged on a non-finite residual or step, a
    zero pivot, a ZeroDivisionError or OverflowError, or max_iter steps."""
    z, res = [complex(v) for v in z], math.inf
    try:
        for _ in range(max_iter):
            fz = f(z)
            res = worst(map(abs, fz))
            if not math.isfinite(res):
                raise NewtonDiverged(f"non-finite residual {res!r}: an overflow or a NaN")
            if res <= tol:
                return z, res
            step = _lu_solve(jacobian(z), [-v for v in fz])
            size = worst(map(abs, step))
            if not math.isfinite(size):
                raise NewtonDiverged("non-finite Newton step")
            cut = min(1.0, max_step / size)
            z = [v + s * cut for v, s in zip(z, step)]
    except (ZeroDivisionError, OverflowError) as exc:
        raise NewtonDiverged(f"no Newton step: {exc}") from exc
    raise NewtonDiverged(f"residual {res:.3e} after {max_iter} iterations")


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
        if not _all_finite(dk if isinstance(dk, tuple) else (dk,)):
            raise NonFiniteDerivative(f"non-finite difference quotient at site {k % n + 1}")
    return d[:n], d[n:]


def _dot(xs, ys):
    """sum_n xs[n] ys[n], accumulated in order from 0, as numpy's einsum
    does (the builtin sum compensates float sums from Python 3.12 on)."""
    acc = 0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def poisson_bracket(f, g, state, h_scale=DEFAULT_FD_STEP):
    """{f, g} = sum_n df/dq_n dg/dr_n - sum_n df/dr_n dg/dq_n by central
    differences: the package's one canonical bracket.  f and g map a
    LatticeState to a scalar or a tuple; for tuples the result is the table
    of every entry pair, {f, g}[u][v] = {f_u, g_v}, so `rmatrix` forms the
    tensor product of two matrix observables from their entries."""
    fq, fr = _grad(f, state, h_scale)
    gq, gr = _grad(g, state, h_scale)
    if not isinstance(fq[0], tuple):
        return _dot(fq, gr) - _dot(fr, gq)
    return tuple(tuple(_dot(fq_u, gr_v) - _dot(fr_u, gq_v)
                       for gq_v, gr_v in zip(zip(*gq), zip(*gr)))
                 for fq_u, fr_u in zip(zip(*fq), zip(*fr)))


def flow_consistency_residual(state, bc):
    """Max-norm gap between `eom` and the symplectic gradient of `hamiltonian`."""
    d = eom(state, bc)
    hq, hr = _grad(lambda s: hamiltonian(s, bc), state)
    return worst([abs(d.dq[i] - hr[i]) for i in range(len(hq))]
                 + [abs(d.dr[i] + hq[i]) for i in range(len(hq))])


def step_rk4(state, bc, dt, steps):
    """`steps` classical RK4 steps in one kernel call, validated once: the
    state they reach.  On blow-up NonFiniteState carries `steps_done`, the
    steps completed before the first non-finite state.

    Neither the stages nor the states between the first and the last are
    validated.  Each entry's update is x + c (...), with no division or
    power, and Python float and complex arithmetic never raises: an entry
    that turns inf or nan stays non-finite, so the last state is non-finite
    exactly when some step's state was.  Only then are the steps replayed
    one at a time from `state`, each validated, to find the first blow-up.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    _, rk4 = _kernels(state.n_sites, type(bc))
    try:
        return LatticeState(*rk4(state.q, state.r, bc, dt, steps))
    except NonFiniteState:
        pass
    for done in range(steps):
        try:
            state = LatticeState(*rk4(state.q, state.r, bc, dt, 1))
        except NonFiniteState as exc:
            exc.steps_done = done
            raise
    return state


def principal_sqrt(x):
    """Principal square root, complex when needed.  An exact square, an int
    or Fraction whose numerator and denominator are perfect squares, has
    its exact root: 1 gives the int 1 and Fraction(4, 9) gives
    Fraction(2, 3), so exact states stay exact (a float times the int 1
    has the bits of the float times 1.0)."""
    if isinstance(x, complex) or x < 0:
        return cmath.sqrt(x)
    num = getattr(x, "numerator", None)                 # int and Fraction, not float
    if num is not None:
        den = x.denominator
        a, b = math.isqrt(num), math.isqrt(den)
        if a * a == num and b * b == den:
            return a if b == 1 else type(x)(a, b)
    return math.sqrt(x)
