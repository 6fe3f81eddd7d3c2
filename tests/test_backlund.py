"""The Bäcklund map: solver, certificates and boundary-matrix dressing."""
import cmath
import math

import numpy as np
import pytest
from branch_track import tracked_y1

from dstlab import backlund
from dstlab.backlund import (BT_LAMBDA_GRID, CERT_TOL, BTParams, BTResult,
                             bt_certificates, bt_generating_check,
                             bt_invariance_residual, bt_local_identity_residual,
                             bt_solve, bt_spectrality_residual, bt_symplectic_residual,
                             g_matrix, generating_function, jtilde_invariance_residual,
                             solvable_state, v_dressing_residual, v_matrices,
                             v_minus_coeffs, v_plus_coeffs)
from dstlab._rng import PCG64
from dstlab.errors import LogBranch, PoleEncountered, SingularG, SingularPrefactor
from dstlab.lattice import LatticeState, Periodic, Quasiperiodic
from dstlab.monodromy import generator


def _solvable(rng, n):
    return LatticeState(
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)),
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)))


def _array(m):
    """A Mat2 as a 2x2 numpy array."""
    return np.array([[m.a11, m.a12], [m.a21, m.a22]], dtype=complex)


def test_periodic_params_read_the_ring_twist():
    # BTParams.xi is the closure's own xi; the periodic ring's is the int 1
    for bc in (Periodic(), Quasiperiodic(-2.0)):
        assert BTParams(0.3, bc).xi is bc.xi
    assert BTParams(0.3).xi == 1


def test_g_matrix():
    g = g_matrix(1.3, 0.4, 0.0, 0.0)
    assert np.allclose(_array(g), [[1, 0], [0, 0.9]])
    g = g_matrix(1.3, 0.4, 0.7, -0.2)
    assert abs(np.linalg.det(_array(g)) - (1.3 - 0.4)) < 1e-14
    assert abs(np.linalg.det(_array(g_matrix(0.4, 0.4, 0.7, 0.5)))) < 1e-14
    inverse = _array(backlund._g_inverse(1.3, 0.4, 0.7, -0.2))
    assert np.allclose(inverse, np.linalg.inv(_array(g)), rtol=0, atol=1e-14)


def test_sigma_zero_seed_exact():
    rng = np.random.default_rng(0)
    st = _solvable(rng, 3)
    res = bt_solve(st, BTParams(0.0))
    assert max(abs(res.y[i] + 1.0 / st.r[i]) for i in range(3)) < 1e-14
    # a zero X_i is no pole of the map away from sigma = 0
    _, certs = bt_certificates(LatticeState((1.0, 1.0), (0.5, 0.0)), BTParams(0.1))
    assert all(v <= CERT_TOL[k] for k, v in certs.items())


def test_single_site_quadratic_oracle():
    # X = -1/y - sigma/(x - y) is a quadratic in y; its two roots are the two
    # sheets, named by mu = -(x - y)/y, and the larger |mu| is reported
    x, X, sigma = 2.0, -1.0, 0.1
    res = bt_solve(LatticeState((x,), (X,)), BTParams(sigma))
    roots = np.roots([X, -(X * x + sigma - 1.0), -x])
    mus = -(x - roots) / roots
    larger, smaller = np.argmax(np.abs(mus)), np.argmin(np.abs(mus))
    assert abs(res.y[0] - roots[larger]) < 1e-12
    assert abs(res.mu - mus[larger]) < 1e-12
    # here that sheet is also the branch near the sigma = 0 seed -1/X = 1
    assert abs(roots[larger] - 1.0) < abs(roots[smaller] - 1.0)


def _mu_from_y(st, y, xi):
    """(-1)^N xi^(-1/2) prod (x_i - y_{i+1})/y_i, from the state and y alone."""
    y_next = (*y[1:], xi * y[0])
    return (-1) ** len(y) / cmath.sqrt(xi) * math.prod(
        (x_i - y_n) / y_i for x_i, y_i, y_n in zip(st.q, y, y_next))


def test_the_map_reports_the_larger_mu_sheet():
    # on this grid a 10-point Newton ramp in sigma sometimes ended on the
    # other sheet; the explicit map's mu is the larger root of
    # mu^2 - t(sigma) mu + sigma^N = 0 at every point
    for n in (2, 3, 4, 6, 10):
        for xi in (-1.0, -2.0, 0.5, 3.0):
            bc = Quasiperiodic(xi)
            for seed in range(1, 16):
                st = solvable_state(PCG64(seed), n)
                t = generator(st, bc)
                for sigma in (0.3, 1.0, 3.0):
                    r = bt_solve(st, BTParams(sigma, bc))
                    mu = _mu_from_y(st, r.y, xi)
                    smaller, larger = sorted(np.roots([1.0, -t(sigma), sigma ** n]), key=abs)
                    assert abs(mu - larger) <= 1e-10 * abs(larger)
                    assert abs(mu - smaller) > 1e-3 * abs(larger)
                    assert abs(r.mu - mu) <= 1e-12 * abs(mu)


@pytest.mark.parametrize("n, seed, sigma", [(2, 7, 1.0), (2, 7, 3.0), (3, 5, 3.0), (3, 10, 3.0)])
def test_the_sheet_is_the_tracked_branch_where_a_short_ramp_was_not(n, seed, sigma):
    # at xi = -2 a 10-point Newton ramp ended here on the smaller-|mu| sheet;
    # the fixed point tracked from sigma = 0 over 1000 steps is the larger one
    st = solvable_state(PCG64(seed), n)
    y1 = tracked_y1(st, sigma, -2.0)
    assert abs(bt_solve(st, BTParams(sigma, Quasiperiodic(-2.0))).y[0] - y1) <= 1e-12 * abs(y1)


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0])
def test_solver_and_certificates(sigma):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        st = _solvable(rng, n)
        p = BTParams(sigma)
        r = bt_solve(st, p)
        assert r.map_residual < 1e-11
        assert bt_generating_check(st.q, st.r, r.y, r.Y, sigma, 1.0) < 1e-9
        for i in range(n):
            assert bt_local_identity_residual(
                st.q[i], st.r[i], r.y[i], r.y[(i + 1) % n],
                st.r[i - 1] if i else st.r[n - 1], sigma) < 1e-9
        ra, rb = bt_invariance_residual(st, r, p)
        assert ra < 1e-8 and rb < 1e-8


@pytest.mark.parametrize("closure", [Periodic(), Quasiperiodic(2.0)])
def test_shared_certificates_catch_a_perturbed_solution(monkeypatch, closure):
    rng = np.random.default_rng(13)
    st = _solvable(rng, 3)
    p = BTParams(0.3, closure)
    solved, certs = bt_certificates(st, p)
    assert all(v <= CERT_TOL[k] for k, v in certs.items())
    if isinstance(closure, Periodic):
        # the closure-aware neighbours reduce to the cyclic ones at xi = 1
        assert certs["local_exchange"] == max(bt_local_identity_residual(
            st.q[i], st.r[i], solved.y[i], solved.y[(i + 1) % 3],
            st.r[i - 1] if i else st.r[2], 0.3) for i in range(3))
    moved = BTResult(tuple(v + 1e-3 for v in solved.y), solved.Y,
                     solved.map_residual, solved.mu)
    monkeypatch.setattr(backlund, "bt_solve", lambda state_x, params: moved)
    _, certs = bt_certificates(st, p)
    assert certs["generating_function"] > CERT_TOL["generating_function"]
    assert certs["local_exchange"] > CERT_TOL["local_exchange"]


def test_generating_function_fd_crosscheck():
    rng = np.random.default_rng(7)
    st = LatticeState(tuple(rng.uniform(0.8, 1.5, 3)),
                      tuple(rng.uniform(0.8, 1.5, 3)))
    sigma = 0.3
    r = bt_solve(st, BTParams(sigma))
    h = 1e-6
    x, y = [complex(v) for v in st.q], [complex(v) for v in r.y]
    for i in range(3):
        xp, xm = x[:], x[:]
        xp[i] += h
        xm[i] -= h
        fd = (generating_function(xp, y, sigma, 1.0)
              - generating_function(xm, y, sigma, 1.0)) / (2 * h)
        assert abs(st.r[i] + fd) < 1e-6
    for i in range(3):
        yp, ym = y[:], y[:]
        yp[i] += h
        ym[i] -= h
        fd = (generating_function(x, yp, sigma, 1.0)
              - generating_function(x, ym, sigma, 1.0)) / (2 * h)
        assert abs(r.Y[i] - fd) < 1e-6


def test_generating_function_branch_guard():
    with pytest.raises(LogBranch):
        generating_function([1.0], [-0.5], 0.3, 1.0)   # (x - y)/y < 0 in real mode
    # complex inputs take the principal branch instead
    generating_function([1.0 + 0j], [-0.5 + 0j], 0.3, 1.0)


def test_local_identity_negative_control():
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.5, 1.5, 5)
    assert bt_local_identity_residual(*vals, 0.3) > 1e-3


def test_local_identity_sigma_zero():
    x, X, Xm1 = 1.3, -0.8, 0.6
    y = -1.0 / X
    y_next = 0.9
    # at sigma = 0 the map is closed form: X = -1/y exactly
    assert bt_local_identity_residual(x, X, y, y_next, Xm1, 0.0) < 1e-12


def test_invariance_quasiperiodic_and_control():
    rng = np.random.default_rng(11)
    st = _solvable(rng, 2)
    p = BTParams(0.3, Quasiperiodic(2.0))
    r = bt_solve(st, p)
    ra, rb = bt_invariance_residual(st, r, p)
    assert ra < 1e-8 and rb < 1e-8
    _, rb_bad = bt_invariance_residual(st, r, p, y_end=2.0 * r.y[0] + 0.4)
    assert rb_bad > 1e-3


@pytest.mark.parametrize("closure", [Periodic(), Quasiperiodic(0.5 + 0.5j)])
def test_spectrality_and_its_control(closure):
    st = _solvable(np.random.default_rng(37), 4)
    p = BTParams(0.3, closure)
    r = bt_solve(st, p)
    assert bt_spectrality_residual(st, r, p, 0.3) <= CERT_TOL["spectrality"]
    # the sheet's mu is off the curve at -sigma
    assert bt_spectrality_residual(st, r, p, -0.3) > 1e-3


def test_symplectic_jacobian():
    rng = np.random.default_rng(13)
    st = LatticeState(tuple(rng.uniform(0.7, 1.4, 2)),
                      tuple(rng.uniform(0.7, 1.4, 2)))
    assert bt_symplectic_residual(st, BTParams(0.3)) < 1e-5
    st1 = LatticeState(tuple(rng.uniform(0.7, 1.4, 1)),
                       tuple(rng.uniform(0.7, 1.4, 1)))
    assert bt_symplectic_residual(st1, BTParams(0.0)) < 1e-5


def test_composition_preserves_spectrum():
    rng = np.random.default_rng(19)
    st = _solvable(rng, 3)
    r1 = bt_solve(st, BTParams(0.3))
    r2 = bt_solve(r1.state(), BTParams(-0.3))
    d = (generator(st, Periodic()) - generator(r2.state(), Periodic())).max_abs()
    assert d < 1e-7


def test_v_matrix_coefficients():
    y_end, sigma, thp = 0.9, 0.25, 0.9
    a, d, b = v_plus_coeffs(y_end, sigma, thp)
    assert a == 0.0 and d == -sigma * thp and b == y_end ** 2
    a1, a0, delta, beta, b0, c0 = v_minus_coeffs(0.7, 0.0, sigma, 0.0)
    assert a1 == 0.0 and c0 == 0.0 and delta == 0.0
    vp, vm = v_matrices(0.7, 0.9, 0.0, 0.0, 0.0, thp)
    m = vp(1.3)
    assert abs(m.a11 / (-1.0) - (0.9 - thp)) < 1e-14  # prefactor -1, d = 0
    with pytest.raises(SingularPrefactor):
        v_matrices(0.7, 0.9, 0.0, 0.25, 0.0, thp)[0](-0.25)


def test_dressing_identities_and_control():
    y1, x0, xn, sig = 0.7 + 0.2j, 1.1 - 0.3j, 0.9, 0.25
    rp, rm = v_dressing_residual(y1, 2.0 * y1, 2.0 * xn, xn, sig, 0.4, 0.8)
    assert rp < 1e-10 and rm < 1e-10
    rp_bad, _ = v_dressing_residual(y1, 2.0 * y1, 2.0 * xn, xn, sig, 0.4, 0.8,
                                    a_shift=1e-2)
    assert rp_bad > 1e-3


def test_nan_fails_the_certificate_wherever_it_falls():
    y1, x0, xn, sig = 0.7 + 0.2j, 1.1 - 0.3j, 0.9, 0.25
    rp, rm = v_dressing_residual(y1, 2.0 * y1, 2.0 * xn, xn, sig, 0.4, float("nan"))
    assert np.isnan(rp) and rm < 1e-10
    st = _solvable(np.random.default_rng(5), 3)
    r = bt_solve(st, BTParams(0.3))
    for i in range(3):
        Y = list(r.Y)
        Y[i] = complex("nan")
        assert np.isnan(bt_generating_check(st.q, st.r, r.y, Y, 0.3, 1.0))


def test_dressed_generator_composite():
    rng = np.random.default_rng(23)
    st = _solvable(rng, 2)
    p = BTParams(0.3, Quasiperiodic(2.0))
    r = bt_solve(st, p)
    assert jtilde_invariance_residual(st, r, p, 0.4, 0.8) < 1e-8


def test_solver_failure_modes():
    # X_2 = 0 at sigma = 0 puts y_2 at infinity
    with pytest.raises(PoleEncountered, match="infinite"):
        bt_solve(LatticeState((1.0, 1.0), (0.5, 0.0)), BTParams(0.0))
    # one site with X = 0 has T(sigma) = [[sigma, x], [0, 1]]: one fixed
    # point sits at y = infinity
    with pytest.raises(PoleEncountered, match="infinity"):
        bt_solve(LatticeState((1.0,), (0.0,)), BTParams(0.3))
    # one site with x = 0 and sigma = 3: the larger-|mu| fixed point is y = 0
    with pytest.raises(PoleEncountered, match="y_i = 0"):
        bt_solve(LatticeState((0.0,), (1.0,)), BTParams(3.0))
    st = _solvable(np.random.default_rng(31), 2)
    r = bt_solve(st, BTParams(0.3))
    # sigma on the evaluation grid makes g(lambda - sigma) singular there
    assert -1.61 in BT_LAMBDA_GRID
    with pytest.raises(SingularG):
        bt_invariance_residual(st, r, BTParams(-1.61))


def test_all_certificates_hold_simultaneously():
    rng = np.random.default_rng(29)
    st = _solvable(rng, 3)
    sigma = 0.45
    p = BTParams(sigma)
    r = bt_solve(st, p)
    assert r.map_residual < 1e-11
    assert bt_generating_check(st.q, st.r, r.y, r.Y, sigma, 1.0) < 1e-9
    assert max(bt_local_identity_residual(
        st.q[i], st.r[i], r.y[i], r.y[(i + 1) % 3],
        st.r[i - 1] if i else st.r[2], sigma) for i in range(3)) < 1e-9
