"""Identity suites producing machine-readable verification reports.

Each record certifies one identity at concrete parameters:

    {identity_id, parameters, residual, tolerance, pass}

residual is a float for numeric checks and "exact-pass"/"exact-fail" for
rational-arithmetic checks.  Negative controls and threshold-exceed checks
store residual = threshold / observed with tolerance 1.0, so the invariant
pass <=> residual <= tolerance holds uniformly; the raw observation is kept
in parameters.  Reports are deterministic for a fixed (suite, seed,
ξ overrides) and records are sorted by identity_id.  Every record is judged
against its tolerance as written: a literal here or a module's `CERT_TOL`.

A NaN residual fails its record wherever it falls (`lattice.worst`).  A float
that is not finite is written as its repr string ("nan", "inf"; a control
observing 0 has residual "inf"), so the report stays strict JSON.
"""
from __future__ import annotations

import math
import sys
import zlib
from dataclasses import dataclass

from . import __version__
from ._rat import rat
from ._rng import PCG64
from .errors import DstlabError, HamiltonianRejected
# step_rk4 is unused here, but dstbench's tests look it up in this module.
from .lattice import (LatticeState, Open, Periodic, Quasiperiodic,  # noqa: F401
                      coordinate, eom, flow_consistency_residual, hamiltonian, least,
                      poisson_bracket, step_rk4, worst)
from .monodromy import (boundary_K, conserved_coeffs, generator, lax_consistency_residual,
                        lax_L, mat2_array, monodromy, monodromy_evolution_residual,
                        sampled_trajectory, sklyanin_condition_residual)
from .poly import Poly, poly_mat


@dataclass
class Record:
    identity_id: str
    parameters: dict
    residual: object
    tolerance: object
    passed: bool

    def to_json(self):
        return {"identity_id": self.identity_id,
                "parameters": self.parameters,
                "residual": self.residual,
                "tolerance": self.tolerance,
                "pass": self.passed}


def _num(x):
    if isinstance(x, complex):
        return float(abs(x))
    return float(x)


def check(identity_id, residual, tolerance, **params):
    r = _num(residual)
    return Record(identity_id, params, r, float(tolerance), r <= tolerance)


def check_exceeds(identity_id, observed, threshold, **params):
    """Negative controls / order checks: pass iff observed >= threshold."""
    obs = _num(observed)
    ratio = float(threshold) / obs if obs > 0 else float("inf")
    params = dict(params)
    params["observed"] = obs
    params["threshold"] = float(threshold)
    return Record(identity_id, params, ratio, 1.0, ratio <= 1.0)


def check_exact(identity_id, ok, **params):
    return Record(identity_id, params, "exact-pass" if ok else "exact-fail",
                  "exact", bool(ok))


def check_exact_witnessed(identity_id, result, units, **params):
    """check_exact for a (ok, witness) result; a failing record carries the
    witness, whose coefficient difference is in integer units of 1/units."""
    ok, witness = result
    if not ok:
        w = {"degrees": list(witness.degrees), "key": list(witness.key),
             "difference": str(witness.difference), "units": units}
        if witness.entry is not None:
            w["entry"] = list(witness.entry)
        params["witness"] = w
    return check_exact(identity_id, ok, **params)


def _state(rng, n, scale):
    q = rng.uniform(-scale, scale, n)
    r = rng.uniform(-scale, scale, n)
    return LatticeState(tuple(q), tuple(r))


def _regimes():
    return [("periodic", Periodic()),
            ("quasiperiodic", Quasiperiodic(2.0)),
            ("open", Open(0.3, 0.7))]


def _sub_rng(seed, tag):
    return PCG64((int(seed) << 16) ^ zlib.crc32(tag.encode()))


# ---------------------------------------------------------------------------
# classical suite
# ---------------------------------------------------------------------------

def suite_classical(seed):
    recs = []
    for label, bc in _regimes():
        rng = _sub_rng(seed, "flow-" + label)
        recs.append(check(f"flow-consistency-{label}",
                          worst(flow_consistency_residual(_state(rng, n, 1.0), bc)
                                for n in range(1, 7) for _ in range(8)),
                          1e-6, n_max=6, trials=8, seed=seed))

    rng = _sub_rng(seed, "brackets")
    canon, zero, anti = [], [], []
    for n in (1, 2, 4):
        st = _state(rng, n, 1.0)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                qr = poisson_bracket(coordinate("q", i), coordinate("r", j), st)
                canon.append(abs(qr - (1.0 if i == j else 0.0)))
                zero += [abs(poisson_bracket(coordinate("q", i), coordinate("q", j), st)),
                         abs(poisson_bracket(coordinate("r", i), coordinate("r", j), st))]
        h_obs = lambda s: hamiltonian(s, Periodic())
        g_obs = lambda s: s.q[0] ** 2 * s.r[-1]
        anti.append(abs(poisson_bracket(h_obs, g_obs, st) + poisson_bracket(g_obs, h_obs, st)))
    recs.append(check("bracket-canonical-pairs", worst(canon), 1e-9, seed=seed))
    recs.append(check("bracket-coordinates-commute", worst(zero), 1e-9, seed=seed))
    recs.append(check("bracket-antisymmetry", worst(anti), 1e-12, seed=seed))

    for label, bc in _regimes():
        rng = _sub_rng(seed, "lax-" + label)
        lax, evolution = [], []
        for n in range(1, 6):
            for _ in range(5):
                st = _state(rng, n, 1.0)
                lax += [lax_consistency_residual(st, bc, j) for j in range(1, n + 1)]
                evolution.append(monodromy_evolution_residual(st, bc))
        recs.append(check(f"lax-compatibility-{label}", worst(lax), 1e-12,
                          n_max=5, seed=seed))
        recs.append(check(f"monodromy-evolution-{label}", worst(evolution), 1e-12,
                          n_max=5, seed=seed))

    rng = _sub_rng(seed, "sklyanin")
    st = _state(rng, 4, 1.0)
    rp, rm, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, 1.3)
    _, _, rc = sklyanin_condition_residual(Quasiperiodic(2.0), st, 0.8 + 0.3j)
    recs.append(check("boundary-exchange-plus", rp, 1e-13, seed=seed))
    recs.append(check("boundary-exchange-minus", rm, 1e-13, seed=seed))
    recs.append(check("boundary-exchange-twist", rc, 1e-13, seed=seed))
    rp_bad, _, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, 1.3,
                                               boundary_shift=(0.0, 0.5))
    recs.append(check_exceeds("boundary-exchange-control", rp_bad, 1e-3, seed=seed))
    bad_lax = lax_consistency_residual(st, Open(0.3, 0.7), 4, boundary_shift=(0.0, 0.1))
    recs.append(check_exceeds("lax-compatibility-control", bad_lax, 1e-3, seed=seed))

    rng = _sub_rng(seed, "dets")
    ok = True
    for n in range(1, 9):
        q = tuple(rat(int(k), 7) for k in rng.integers(-9, 9, n))
        r = tuple(rat(int(k), 5) for k in rng.integers(-9, 9, n))
        d = monodromy(LatticeState(q, r)).det()
        ok = ok and d.c == [0] * n + [1]
    recs.append(check_exact("monodromy-determinant", ok, n_max=8, seed=seed))

    rng = _sub_rng(seed, "hcoeffs")
    samples = [(bc, _state(rng, n, 1.0))
               for _, bc in _regimes() for n in range(1, 7) for _ in range(17)]
    recs.append(check("hamiltonian-from-coefficients",
                      worst(abs(conserved_coeffs(st, bc).hamiltonian_value - hamiltonian(st, bc))
                            for bc, st in samples),
                      1e-10, trials=17, seed=seed))

    for label, bc in _regimes():
        drift = conservation_run(6, bc, dt=1e-3, t_final=10.0, seed=seed)
        recs.append(check(f"generator-drift-{label}", drift, 1e-8,
                          n=6, dt=1e-3, t_final=10.0, seed=seed))
    return recs


def _flow_rates(z, bc):
    d = eom(LatticeState.from_flat(list(z)), bc)
    return list(d.dq) + list(d.dr)


def equilibrium_state(n, bc):
    """An elliptic equilibrium of the open chain in closed form, as a flat
    list (q_1..q_N, r_1..r_N) of complex.

    Fixed points.  At a fixed point q_{n+1} = q_n p_n and r_{n-1} = r_n p_n,
    with p_n = q_n r_n.  So p_{n+1} = q_n r_{n+1} p_n and p_n = q_n r_{n+1} p_{n+1},
    and p_{n+1}^2 = p_n^2: p_n = s_n p with each s_n = +-1, or every p_n = 0,
    which needs theta_+ = theta_- = 0 (and the vacuum is then one).  For
    p != 0, q_n = q_1 p_1...p_{n-1} and r_n = r_N p_{n+1}...p_N, and the
    closure (q_{N+1}, r_0) = (theta_+, theta_-) gives q_1 = theta_+/P and
    r_N = theta_-/P with P = p_1...p_N.  So p_1 = q_1 r_1 reads
    p^(N+2) s_1...s_N = theta_+ theta_-, and with exactly one coupling 0 there
    is no fixed point.

    Linearization.  In the gauge dq_n = q_n u_n, dr_n = r_n v_n the
    linearized flow is p B, with B real:

        du_n/dt = p s_n (u_{n+1} - 2 u_n - v_n),
        dv_n/dt = p s_n (u_n + 2 v_n - v_{n-1}),      u_{N+1} = v_0 = 0.

    For an eigenvalue x != +-2 of B, eliminating v gives
    (2 - s_n x) (u_{n+1}, v_n) = T (u_n, v_{n-1}) with T = [[3 - x^2, 1], [-1, 1]]
    at every site.  So x is an eigenvalue iff [T^N]_11 = 0, whatever the
    signs: x = +-2 sin(k pi/(N+2)) for 0 < k < (N+2)/2, each with one
    eigenvector.  At x = 2 a site with s_n = -1 sends (u_n, v_{n-1}) to a
    multiple of (1, 1), and a site with s_n = 1 asks u_n = v_{n-1} and leaves
    v_n free; at x = -2 the signs swap roles.  Along the alternating pattern
    s_n = (-1)^(n-1), n < N, counting the free parameters site by site leaves
    floor(N/2) of them at x = 2 and at x = -2.  These kernels and the
    2 floor((N+1)/2) simple eigenvalues fill the 2N dimensions, so B is
    diagonalizable.  Other patterns can have Jordan blocks at +-2, which grow
    perturbations secularly.

    The spectrum of B is real and nonzero, so only an imaginary p makes that
    of p B imaginary.  With p = i |theta_+ theta_-|^(1/(N+2)) and the
    alternating pattern, s_N set by the product, the linearized flow is
    diagonalizable with an imaginary spectrum: the equilibrium is elliptic.
    It needs theta_+ theta_- / p^(N+2) = +-1, which for real couplings means
    even N; a chain without it raises DstlabError naming the reason.  The
    flow residual of the point is checked, relative to its largest coordinate.
    """
    tm, tp = complex(bc.theta_minus), complex(bc.theta_plus)
    c = tp * tm
    if c == 0:
        if tp != 0 or tm != 0:
            raise DstlabError(f"the open chain with one coupling 0 (theta_- = {bc.theta_minus!r}, "
                              f"theta_+ = {bc.theta_plus!r}) has no fixed point")
        return [0j] * (2 * n)
    # s_1...s_N = theta_+ theta_- / p^(N+2): c/|c| is exactly +-1 or +-i for a
    # real or imaginary c, and 1j ** (N+2) is an exact power of i
    product = c / abs(c) / 1j ** (n + 2)
    if product not in (1, -1):
        reason = (f"N = {n} is odd" if c.imag == 0 else
                  f"theta_+ theta_- = {c!r} is not {'imaginary' if n % 2 else 'real'}")
        raise DstlabError(f"the open chain has no elliptic fixed point: {reason}")
    signs = [(-1) ** k for k in range(n - 1)]
    signs.append(int(product.real) * math.prod(signs))
    p = 1j * abs(c) ** (1.0 / (n + 2))
    ps = [s * p for s in signs]
    big_p = math.prod(ps)
    q, r = [tp / big_p], [tm / big_p]
    for k in range(n - 1):
        q.append(q[-1] * ps[k])
        r.append(r[-1] * ps[n - 1 - k])
    z = q + r[::-1]
    residual = worst(map(abs, _flow_rates(z, bc)))
    if not residual <= 1e-12 * max(1.0, worst(map(abs, z))):
        raise DstlabError(f"the closed-form equilibrium has flow residual {residual!r}")
    return z


def initial_state(n, bc, seed, amplitude=None, t_final=10.0):
    """Regime-appropriate initial data for long conservation runs.

    The uniform mode of the ring grows like exp(|xi|^(1/N) t), so closed
    regimes get a seeded random state scaled to stay perturbative out to
    t_final.  The open chain is driven by its boundary couplings and blows
    up from any small state; there the run starts from a seeded perturbation
    of an elliptic equilibrium instead.
    """
    rng = _sub_rng(seed, "traj")
    if isinstance(bc, Open):
        z0 = equilibrium_state(n, bc)
        amp = 1e-3 if amplitude is None else amplitude
        re, im = rng.uniform(-1, 1, 2 * n), rng.uniform(-1, 1, 2 * n)
        return LatticeState.from_flat([z + amp * (a + 1j * b) for z, a, b in zip(z0, re, im)])
    rate = abs(bc.xi) ** (1.0 / n)  # 1.0 on the periodic ring, xi = 1
    scale = amplitude if amplitude is not None else 0.05 * math.exp(-rate * t_final)
    if amplitude is None and scale < sys.float_info.min:
        # a zero (or subnormal) scale integrates the exact vacuum, whose drift
        # 0.0 would check nothing
        raise DstlabError(f"the default amplitude 0.05 exp(-{rate!r} t_final) = {scale!r} "
                          f"underflows at t_final = {t_final!r}; "
                          "set the amplitude (simulate --scale)")
    return _state(rng, n, scale)


def conservation_run(n, bc, dt, t_final, seed):
    """Integrate and track every generator coefficient, sampled every 50
    steps; returns the max relative drift, which the last sample carries."""
    st = initial_state(n, bc, seed, t_final=t_final)
    for sample in sampled_trajectory(st, bc, dt, int(round(t_final / dt)), 50):
        drift = sample.drift
    return drift


# ---------------------------------------------------------------------------
# r-matrix suite
# ---------------------------------------------------------------------------

def suite_rmatrix(seed):
    from .rmatrix import (bracket_table, cism1_residual, cism2_residual_U, max_abs,
                          quadratic_rhs, reflection_residual_K)
    recs = []
    rng = _sub_rng(seed, "cism1")
    states = [_state(rng, 3, 1.0) for _ in range(5)]
    site = lambda n: lambda s: lax_L(s, n)
    recs.append(check("cism1-local", worst(cism1_residual(st, 0.7, -0.3, site(2))
                                           for st in states), 1e-6, n=3, seed=seed))
    # distinct sites have disjoint variables: the right side is zero
    recs.append(check("cism1-ultralocal",
                      worst(max_abs(bracket_table(site(1), site(3), st, 0.7, -0.3))
                            for st in states), 1e-12, n=3, seed=seed))
    recs.append(check("cism1-monodromy",
                      worst(cism1_residual(_state(rng, n, 1.0), 0.7, -0.3, monodromy)
                            for n in (1, 2, 3) for _ in range(7)),
                      1e-5, n_max=3, trials=7, seed=seed))

    theta = 0.7
    k_minus, k_plus = boundary_K(Open(theta, theta))
    # theta I + lambda M with M^2 not proportional to I: no reflection algebra
    x = Poly([0, 1])
    bad = poly_mat(theta, x, x * x, theta)
    pairs = [(0.9, 0.4), (1.3, -0.6), (2.1 + 0.3j, 0.5), (0.31, 1.9), (-1.2, 0.7)]
    for side, k in (("kminus", k_minus), ("kplus", k_plus)):
        recs.append(check(f"reflection-{side}",
                          worst(reflection_residual_K(k, l, m) for l, m in pairs),
                          1e-12, theta=theta, n_pairs=len(pairs)))
    recs.append(check_exceeds("reflection-control",
                              least(reflection_residual_K(bad, l, m) for l, m in pairs),
                              1e-3, theta=theta))
    recs.append(check_exceeds("reflection-printed-variant",
                              least(reflection_residual_K(k_minus, l, m, last_arg="mu")
                                    for l, m in pairs),
                              1e-3, note="the mu-argument variant must not vanish"))

    bc = Open(0.3, 0.7)
    rng = _sub_rng(seed, "cism2")
    for n, tol in ((1, 1e-5), (2, 5e-5), (3, 1e-4)):
        recs.append(check(f"cism2-dressed-n{n}",
                          worst(cism2_residual_U(_state(rng, n, 0.8), bc, 0.9, 0.4)
                                for _ in range(5)),
                          tol, trials=5, seed=seed))

    # convergence order of the bracket stencil, on a cubic witness (the
    # lattice identities themselves are multilinear, hence stencil-exact)
    rng = _sub_rng(seed, "fdorder")
    st = _state(rng, 2, 1.0)
    f = lambda s: s.q[0] ** 3
    g = lambda s: s.r[0]
    exact = 3.0 * st.q[0] ** 2
    e1 = abs(poisson_bracket(f, g, st, h_scale=1e-3) - exact)
    e2 = abs(poisson_bracket(f, g, st, h_scale=5e-4) - exact)
    order = math.log2(e1 / e2) if e2 > 0 else 4.0
    recs.append(check_exceeds("bracket-stencil-order", order, 1.8,
                              h=1e-3, note="order from step halving on a cubic witness"))

    # scale stability: the identities are stencil-exact, so the residual is
    # roundoff noise; normalized by the identity's own magnitude it must stay
    # at machine level under simultaneous rescaling of (lambda, mu)
    rng = _sub_rng(seed, "rescale")
    st = _state(rng, 2, 1.0)
    t = monodromy(st)
    norms = {}
    for c in (0.5, 1.0, 2.0):
        lam, mu = 0.7 * c, -0.3 * c
        res = cism1_residual(st, lam, mu, monodromy)
        rhs = quadratic_rhs(lam, mu, mat2_array(t, lam), mat2_array(t, mu))
        scale = max(1.0, max_abs(rhs))
        norms[str(c)] = float(res / scale)
    fitted_degree = math.log2(max(norms["2.0"], 1e-300) / max(norms["0.5"], 1e-300)) / 2
    recs.append(check("rescale-stability", worst(norms.values()), 1e-9,
                      normalized=norms, noise_degree=fitted_degree, seed=seed))
    return recs


# ---------------------------------------------------------------------------
# Bäcklund suite
# ---------------------------------------------------------------------------

def suite_backlund(seed):
    from .backlund import (CERT_TOL, BTParams, _ring_next, _ring_prev, bt_certificates,
                           bt_invariance_residual, bt_solve, bt_spectrality_residual,
                           bt_symplectic_residual, jtilde_invariance_residual,
                           solvable_state, v_dressing_residual)
    recs = []
    rng = _sub_rng(seed, "bt")
    runs = [bt_certificates(solvable_state(rng, n), BTParams(sigma))[1]
            for n in (1, 2, 3, 4) for sigma in (0.1, 0.3, 1.0)]
    top = {k: worst(certs[k] for certs in runs) for k in runs[0]}
    recs.append(check("bt-map-residual", top["map_residual"],
                      CERT_TOL["map_residual"], n_max=4, sigmas=[0.1, 0.3, 1.0], seed=seed))
    recs.append(check("bt-generating-function", top["generating_function"],
                      CERT_TOL["generating_function"], seed=seed))
    recs.append(check("bt-local-exchange", top["local_exchange"],
                      CERT_TOL["local_exchange"], seed=seed))
    # the periodic closure exchange is 0 by construction: g_1 and g_{N+1}
    # carry the same arguments when xi = 1
    recs.append(check("bt-spectrum-invariance-periodic", top["spectrum_invariance"],
                      CERT_TOL["spectrum_invariance"], seed=seed))

    st = solvable_state(rng, 2)
    pq = BTParams(0.3, Quasiperiodic(2.0))
    rq = bt_solve(st, pq)
    inv_gen, inv_cl = bt_invariance_residual(st, rq, pq)
    recs.append(check("bt-spectrum-invariance-twisted", inv_gen,
                      CERT_TOL["spectrum_invariance"], xi=2.0, seed=seed))
    recs.append(check("bt-closure-exchange-twisted", inv_cl,
                      CERT_TOL["closure_exchange"], xi=2.0, seed=seed))

    st_r = LatticeState(tuple(rng.uniform(0.7, 1.4, 2)), tuple(rng.uniform(0.7, 1.4, 2)))
    recs.append(check("bt-symplectic-jacobian",
                      bt_symplectic_residual(st_r, BTParams(0.3)),
                      CERT_TOL["symplectic_jacobian"], n=2, sigma=0.3, seed=seed))

    # closure-break negative control: end variable off the ring closure
    _, rb_bad = bt_invariance_residual(st, rq, pq, y_end=2.0 * rq.y[0] + 0.5)
    recs.append(check_exceeds("bt-closure-control", rb_bad, 1e-3, seed=seed))

    # one site on the twisted ring: y_{N+1} = xi y_1 and X_0 = xi x_N
    y1, xn, sig, xi = 0.7 + 0.2j, 0.9, 0.25, 2.0
    y_end, x_prev = _ring_next((y1,), xi)[-1], _ring_prev((xn,), xi)[0]
    rp, rm = v_dressing_residual(y1, y_end, x_prev, xn, sig, 0.4, 0.8)
    recs.append(check("bt-dressing-plus", rp, CERT_TOL["dressing_plus"], sigma=sig))
    recs.append(check("bt-dressing-minus", rm, CERT_TOL["dressing_minus"], sigma=sig))
    rp_bad, _ = v_dressing_residual(y1, y_end, x_prev, xn, sig, 0.4, 0.8, a_shift=1e-2)
    recs.append(check_exceeds("bt-dressing-control", rp_bad, 1e-3, a_shift=1e-2))
    recs.append(check("bt-dressed-generator",
                      jtilde_invariance_residual(st, rq, pq, 0.4, 0.8),
                      1e-8, seed=seed))

    recs.append(check("bt-spectrality-periodic", top["spectrality"],
                      CERT_TOL["spectrality"], n_max=4, sigmas=[0.1, 0.3, 1.0], seed=seed))
    recs.append(check("bt-spectrality-twisted", bt_spectrality_residual(st, rq, pq, 0.3),
                      CERT_TOL["spectrality"], xi=2.0, seed=seed))

    st3 = solvable_state(rng, 3)
    r1 = bt_solve(st3, BTParams(0.3))
    # the sheet's mu is off the spectral curve at -sigma
    recs.append(check_exceeds("bt-spectrality-control",
                              bt_spectrality_residual(st3, r1, BTParams(0.3), -0.3), 1e-3,
                              sigma=-0.3, seed=seed))
    r2 = bt_solve(r1.state(), BTParams(-0.3))
    recs.append(check("bt-composition-spectrum",
                      (generator(st3, Periodic()) - generator(r2.state(), Periodic())).max_abs(),
                      1e-7, seed=seed))
    return recs


# ---------------------------------------------------------------------------
# quantum suite
# ---------------------------------------------------------------------------

def _xi_pairs(seed, xi_minus=None, xi_plus=None):
    rng = _sub_rng(seed, "xipairs")
    out = []
    for _ in range(2):
        a, b, c, d = (int(v) for v in rng.integers(1, 9, 4))
        out.append((rat(a, b), rat(c, d)))
    if xi_minus is not None or xi_plus is not None:
        out[0] = (rat(xi_minus if xi_minus is not None else out[0][0]),
                  rat(xi_plus if xi_plus is not None else out[0][1]))
    return out


def suite_quantum(seed, xi_minus=None, xi_plus=None):
    from .quantum import (QParams, _in_units, abd_commutation_residual, exchange_check,
                          hq_classical_limit_residual, hq_classical_limit_witness,
                          hq_extract, hq_quoted_verdict, integer_units, qlax,
                          q_reflection_dressed, q_reflection_minus,
                          q_reflection_plus, rtt_residual, tau_commutes)
    recs = []
    etas = [rat(1), rat(1, 2), rat(3)]
    pairs = _xi_pairs(seed, xi_minus, xi_plus)
    for ei, eta in enumerate(etas):
        for pi, (xm, xp) in enumerate(pairs):
            p = QParams(eta, xm, xp)
            d = integer_units(p)
            tag = f"eta{ei}-xi{pi}"
            for n in (1, 2):
                recs.append(check_exact_witnessed(
                    f"rtt-n{n}-{tag}", rtt_residual(n, p), d,
                    eta=str(eta), xi_minus=str(xm), xi_plus=str(xp)))
                recs.append(check_exact_witnessed(
                    f"reflection-dressed-n{n}-{tag}", q_reflection_dressed(n, p), d,
                    eta=str(eta)))
            # the scalar K checks run over plain rationals: units of 1
            recs.append(check_exact_witnessed(f"reflection-quantum-minus-{tag}",
                                              q_reflection_minus(p), 1, eta=str(eta)))
            for sh, nm in (((1, 1), "printed"), ((1, 2), "tau-matched"), ((0, 1), "bare")):
                recs.append(check_exact_witnessed(
                    f"reflection-quantum-plus-{nm}-{tag}", q_reflection_plus(p, shift=sh), 1,
                    eta=str(eta), shift=f"{sh[0]}/{sh[1]}"))
            recs.append(check_exact_witnessed(f"tau-commutativity-n1-{tag}",
                                              tau_commutes(1, p), d, eta=str(eta)))
            for k, result in abd_commutation_residual(1, p).items():
                recs.append(check_exact_witnessed(f"exchange-{k}-n1-{tag}", result, d,
                                                  eta=str(eta)))

    # a failing Hamiltonian record carries the first mismatching coefficient
    # as a rational: of tau where hq_extract rejects it, else of h against
    # the quoted form, or of the classical limit
    p = QParams(rat(1), *pairs[0])
    for n in (1, 2, 3):
        rid = f"hamiltonian-extraction-n{n}"
        try:
            h, rep = hq_extract(n, p)
        except HamiltonianRejected as e:
            recs.append(check_exact_witnessed(rid, (False, e.witness), 1, rejected=str(e)))
            continue
        ok = rep["exact"] and rep["ordering"] == "qrqr"
        result = (True, None) if ok else hq_quoted_verdict(h, n, p)
        recs.append(check_exact_witnessed(rid, result, 1, ordering=str(rep["ordering"]),
                                          constant_shift=str(rep["constant_shift"])))
    for n in (1, 2):
        rid = f"hamiltonian-classical-limit-n{n}"
        try:
            bad = hq_classical_limit_residual(n, *pairs[0])
        except HamiltonianRejected as e:
            recs.append(check_exact_witnessed(rid, (False, e.witness), 1, rejected=str(e)))
            continue
        result = (True, None) if bad == 0 else hq_classical_limit_witness(n, *pairs[0])
        recs.append(check_exact_witnessed(rid, result, 1, mismatches=bad))

    # negative control: the R-matrix at 2 D eta against T = L_1 at D eta
    # (the one-site monodromy), in the integer units of the RTT check
    d = integer_units(p)
    ok, _ = exchange_check(qlax(1, 1, p, d), 1, 2 * _in_units(p.eta, d), (1, -1, 0))
    recs.append(check_exact("rtt-control", not ok, note="mismatched eta must fail"))
    return recs


# ---------------------------------------------------------------------------
# Baxter suite
# ---------------------------------------------------------------------------

def suite_baxter(seed):
    from .baxter import (CERT_TOL, MEMBERSHIP_SAMPLES, BetheConfig, QKernelParams,
                         SovParams, bethe_certificates, bethe_remainder, bethe_solve,
                         bethe_system, eigen_membership_residual, gauge_triangularize,
                         kernel_sites, lambda_from_roots, sov_residual, tq_scalar_residual,
                         w_ratio_down, w_ratio_up)
    recs = []
    rng = _sub_rng(seed, "baxter")

    def rand_kernel(n, eta=1.0):
        y, q = kernel_sites(rng, n, 1.3)
        (re,), (im,) = rng.uniform(0.4, 1.4, 1), rng.uniform(-0.5, 0.5, 1)
        sigma = re + 1j * im
        return QKernelParams(sigma, eta, 1.3, y, q)

    three_term, offdiagonal, diagonal = [], [], []
    for n in (1, 2, 3, 4):
        for _ in range(13):
            p = rand_kernel(n)
            three_term.append(tq_scalar_residual(p)[0])
            for i in range(n):
                ur, (top, bot) = gauge_triangularize(i, p)
                offdiagonal.append(ur)
                diagonal += [abs(top - p.sigma * w_ratio_down(i, p) / p.eta),
                             abs(bot - p.eta * w_ratio_up(i, p))]
    recs.append(check("tq-three-term-eta1", worst(three_term), CERT_TOL["three_term_identity"],
                      n_max=4, trials=13, seed=seed))
    recs.append(check("gauge-offdiagonal", worst(offdiagonal), 1e-12, seed=seed))
    recs.append(check("gauge-diagonal-vs-kernel", worst(diagonal), 1e-10, seed=seed))

    p = rand_kernel(3, eta=0.7)
    res, corr = tq_scalar_residual(p)
    recs.append(check("tq-three-term-eta-corrected", res, CERT_TOL["three_term_identity"],
                      eta=0.7, correction_down=abs(corr[0]), correction_up=abs(corr[1])))

    p2 = rand_kernel(2)
    ur_bad, _ = gauge_triangularize(0, p2, wrong_index=True)
    recs.append(check_exceeds("gauge-index-control", ur_bad, 1e-3, seed=seed))

    from .baxter import tq_exact_rational
    ok, _, _ = tq_exact_rational(rat(3, 2), rat(1), rat(2),
                                 (rat(1, 3), rat(4, 3)), (rat(-1, 2),))
    recs.append(check_exact("tq-exact-rational-n1", ok))

    solved = {}
    for n, m in ((2, 1), (3, 1), (2, 2)):
        cfg = solved[n, m] = bethe_solve(n, m, 1.0, 1.0, seed=seed)
        certs = bethe_certificates(cfg)
        recs.append(check(f"bethe-residual-n{n}m{m}", certs["bethe_residual"],
                          CERT_TOL["bethe_residual"], roots=[f"{z:.8f}" for z in cfg.roots]))
        recs.append(check(f"bethe-polynomiality-n{n}m{m}", certs["polynomiality_remainder"],
                          CERT_TOL["polynomiality_remainder"]))
        recs.append(check(f"bethe-degree-n{n}m{m}", certs["eigenvalue_degree"],
                          CERT_TOL["eigenvalue_degree"]))
        recs.append(check(f"bethe-membership-n{n}m{m}", certs["eigen_membership"],
                          CERT_TOL["eigen_membership"]))
        if m == 1:
            recs.append(check(f"bethe-closed-form-n{n}m1",
                              abs(cfg.roots[0] ** n - 1.0), 1e-10,
                              note="single-root closed form mu^N = xi"))

    bad = BetheConfig(2, 1, 1.0, 1.0, (1j,), 1.0)
    recs.append(check_exceeds("bethe-membership-control",
                              least(eigen_membership_residual(bad, s0)
                                    for s0 in MEMBERSHIP_SAMPLES), 1e-3,
                              note="non-root candidate must fail membership"))

    vac = bethe_solve(2, 0, 1.0, 1.0, seed=seed)
    recs.append(check("bethe-vacuum",
                      worst(abs(lambda_from_roots(vac, s0) - (s0 ** 2 + 1.0))
                            for s0 in (0.45, 1.2)) +
                      eigen_membership_residual(vac, 0.45),
                      1e-12, note="empty configuration"))

    # roots moved off by 1e-6: the Baxter remainder follows the system's residual
    near = tuple(mu * (1 + 1e-6 * (1 + 1j)) for mu in solved[2, 2].roots)
    off = BetheConfig(2, 2, 1.0, 1.0, near, worst(map(abs, bethe_system(near, 2, 1.0, 1.0))))
    remainder = bethe_remainder(off)
    ratio = remainder / off.residual
    recs.append(check("tq-residual-tracks-solver", max(ratio, 1 / ratio) if ratio > 0 else math.inf,
                      10.0, remainder=remainder, system_residual=off.residual))

    sv = SovParams(1.0, 1.0, 1.0, lambda u: 1.0, lambda u: 1.0)
    recs.append(check("sov-pinned-value", abs(sov_residual(sv, 0.5) - (-1.0)), 1e-12,
                      note="regression value at u = eta/2"))
    # the two printed prefactor variants differ by 2 xi_+ Dm phi at this point
    recs.append(check("sov-variant-difference",
                      abs(sov_residual(sv, 0.5, variant="alt") - 1.0), 1e-12,
                      note="alt prefactor (2u - eta) pinned alongside"))
    return recs


SUITES = {
    "classical": suite_classical,
    "rmatrix": suite_rmatrix,
    "backlund": suite_backlund,
    "quantum": suite_quantum,
    "baxter": suite_baxter,
}


def run_suites(suite="all", seed=1, xi_minus=None, xi_plus=None):
    """Execute a suite (or all of them); returns the report dict."""
    names = list(SUITES) if suite == "all" else [suite]
    records = []
    for nm in names:
        extra = {"xi_minus": xi_minus, "xi_plus": xi_plus} if nm == "quantum" else {}
        records.extend(SUITES[nm](seed, **extra))
    records.sort(key=lambda r: r.identity_id)
    n_pass = sum(1 for r in records if r.passed)
    return {
        "version": __version__,
        "suite": suite,
        "seed": int(seed),
        "records": [r.to_json() for r in records],
        "summary": {"total": len(records), "passed": n_pass,
                    "failed": len(records) - n_pass},
    }
