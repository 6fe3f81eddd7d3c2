"""The Bäcklund map: solver, certificates and boundary-matrix dressing."""
import math

import numpy as np
import pytest

from dstlab import backlund
from dstlab.backlund import (BT_LAMBDA_GRID, CERT_TOL, BTParams, BTResult,
                             bt_certificates, bt_generating_check,
                             bt_invariance_residual, bt_local_identity_residual,
                             bt_solve, bt_symplectic_residual, g_matrix,
                             generating_function, jtilde_invariance_residual,
                             v_dressing_residual, v_matrices, v_minus_coeffs,
                             v_plus_coeffs)
from dstlab.errors import LogBranch, SingularPrefactor, ZeroSeed
from dstlab.lattice import LatticeState, Periodic, Quasiperiodic
from dstlab.monodromy import generator


def _solvable(rng, n):
    return LatticeState(
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)),
        tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)))


def test_g_matrix():
    g = g_matrix(1.3, 0.4, 0.0, 0.0)
    assert np.allclose(g, [[1, 0], [0, 0.9]])
    g = g_matrix(1.3, 0.4, 0.7, -0.2)
    assert abs(np.linalg.det(g) - (1.3 - 0.4)) < 1e-14
    assert abs(np.linalg.det(g_matrix(0.4, 0.4, 0.7, 0.5))) < 1e-14


def test_sigma_zero_seed_exact():
    rng = np.random.default_rng(0)
    st = _solvable(rng, 3)
    res = bt_solve(st, BTParams(0.0))
    assert max(abs(res.y[i] + 1.0 / st.r[i]) for i in range(3)) < 1e-14
    with pytest.raises(ZeroSeed):
        bt_solve(LatticeState((1.0, 1.0), (0.5, 0.0)), BTParams(0.1))


def test_single_site_quadratic_oracle():
    # X = -1/y - sigma/(x - y) is a quadratic in y; continuation picks the
    # branch connected to y = -1/X at sigma = 0
    x, X, sigma = 2.0, -1.0, 0.1
    res = bt_solve(LatticeState((x,), (X,)), BTParams(sigma))
    roots = np.roots([X, -(X * x + sigma - 1.0), -x])
    assert min(abs(res.y[0] - r) for r in roots) < 1e-12
    # the continuation branch is the one near -1/X = 1
    near = roots[np.argmin(np.abs(roots - 1.0))]
    far = roots[np.argmax(np.abs(roots - 1.0))]
    assert abs(res.y[0] - near) < 1e-12
    # the other branch is reachable through an explicit initial guess
    other = bt_solve(LatticeState((x,), (X,)), BTParams(sigma),
                     initial_guess=[far + 0.01])
    assert abs(other.y[0] - far) < 1e-12


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0])
def test_solver_and_certificates(sigma):
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        st = _solvable(rng, n)
        p = BTParams(sigma)
        r = bt_solve(st, p)
        assert r.newton_residual < 1e-11
        assert bt_generating_check(st.q, st.r, r.y, r.Y, sigma) < 1e-9
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
                     solved.newton_residual, solved.steps_used)
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
        fd = (generating_function(xp, y, sigma) - generating_function(xm, y, sigma)) / (2 * h)
        assert abs(st.r[i] + fd) < 1e-6
    for i in range(3):
        yp, ym = y[:], y[:]
        yp[i] += h
        ym[i] -= h
        fd = (generating_function(x, yp, sigma) - generating_function(x, ym, sigma)) / (2 * h)
        assert abs(r.Y[i] - fd) < 1e-6


def test_generating_function_branch_guard():
    with pytest.raises(LogBranch):
        generating_function([1.0], [-0.5], 0.3)   # (x - y)/y < 0 in real mode
    # complex inputs take the principal branch instead
    generating_function([1.0 + 0j], [-0.5 + 0j], 0.3)


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


def test_symplectic_jacobian():
    rng = np.random.default_rng(13)
    st = LatticeState(tuple(rng.uniform(0.7, 1.4, 2)),
                      tuple(rng.uniform(0.7, 1.4, 2)))
    assert bt_symplectic_residual(st, BTParams(0.3)) < 1e-5
    st1 = LatticeState(tuple(rng.uniform(0.7, 1.4, 1)),
                       tuple(rng.uniform(0.7, 1.4, 1)))
    assert bt_symplectic_residual(st1, BTParams(0.0)) < 1e-5


def test_branch_stability_under_continuation_refinement():
    rng = np.random.default_rng(17)
    st = _solvable(rng, 3)
    ys = [bt_solve(st, BTParams(0.3, Periodic(), continuation_steps=k)).y
          for k in (10, 20, 40)]
    for yk in ys[1:]:
        assert max(abs(a - b) for a, b in zip(ys[0], yk)) < 1e-10


def test_continuation_needs_a_step():
    with pytest.raises(ValueError):
        BTParams(0.3, continuation_steps=0)


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
    assert abs(m[0, 0] / (-1.0) - (0.9 - thp)) < 1e-14  # prefactor -1, d = 0
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
        assert np.isnan(bt_generating_check(st.q, st.r, r.y, Y, 0.3))


def test_dressed_generator_composite():
    rng = np.random.default_rng(23)
    st = _solvable(rng, 2)
    p = BTParams(0.3, Quasiperiodic(2.0))
    r = bt_solve(st, p)
    assert jtilde_invariance_residual(st, r, p, 0.4, 0.8) < 1e-8


@pytest.mark.parametrize("scale, message", [(0.0, "Singular matrix"),
                                            (1e-310, "non-finite Newton step")])
def test_newton_step_that_is_no_step_is_newton_diverged(scale, message, monkeypatch):
    from dstlab.errors import NewtonDiverged
    st = _solvable(np.random.default_rng(31), 2)
    # a singular Jacobian, and one whose step overflows inside the solve
    monkeypatch.setattr(backlund, "_bt_jac", lambda y, x, sig, xi: scale * np.eye(len(y)))
    with pytest.raises(NewtonDiverged, match=message):
        bt_solve(st, BTParams(0.3))


def _jacobian_failing_at(fails):
    """A `_bt_jac` that records each sigma it is asked at and raises
    NewtonDiverged where fails(sigma, tries so far at sigma) is true; the
    failed solves are recorded as (sigma, the y they started from)."""
    from dstlab.errors import NewtonDiverged
    real, asked, failed = backlund._bt_jac, [], []

    def jac(y, x, sig, xi):
        asked.append(sig)
        if fails(sig, asked.count(sig)):
            failed.append((sig, tuple(y)))
            raise NewtonDiverged("injected")
        return real(y, x, sig, xi)

    return jac, asked, failed


def test_failed_ramp_point_is_refined_from_the_last_converged_one(monkeypatch):
    st = _solvable(np.random.default_rng(17), 3)
    plain = bt_solve(st, BTParams(0.3))
    # Newton fails on its first try at sigma = 0.12: the ramp solves the
    # midpoint 0.105, then 0.12 again from there
    jac, asked, _ = _jacobian_failing_at(lambda sig, tries: sig == 0.3 * 4 / 10 and tries == 1)
    monkeypatch.setattr(backlund, "_bt_jac", jac)
    refined = bt_solve(st, BTParams(0.3))
    ramp = list(dict.fromkeys(asked))
    assert ramp[:5] == [0.3 * k / 10 for k in (1, 2, 3, 4)] + [(0.09 + 0.12) / 2]
    assert ramp[5:] == [0.3 * k / 10 for k in range(5, 11)]
    assert max(abs(a - b) for a, b in zip(plain.y, refined.y)) < 1e-12


def test_ramp_refinement_stops_where_the_midpoint_collapses(monkeypatch):
    from dstlab.errors import NewtonDiverged
    st = _solvable(np.random.default_rng(17), 3)
    jac, _, failed = _jacobian_failing_at(lambda sig, tries: sig > 0.1)
    monkeypatch.setattr(backlund, "_bt_jac", jac)
    with pytest.raises(NewtonDiverged, match="injected at sigma=") as info:
        bt_solve(st, BTParams(0.3))
    # the midpoints close in on 0.1 until the converged one is so near that
    # Newton takes no step there; refinement stops at the failed sigma above
    # it, long before MAX_RAMP_POINTS.  A failed sigma is tried again only
    # from a y nearer to it, so no solve fails twice from the same start
    assert len(failed) == len(set(failed)) < 60
    last = failed[-1][0]
    assert str(info.value).endswith(f"at sigma={last}")
    assert last == min(sig for sig, _ in failed) and last - 0.1 < 1e-10


def test_ramp_refinement_stops_at_max_ramp_points(monkeypatch):
    from dstlab.errors import NewtonDiverged
    st = _solvable(np.random.default_rng(17), 3)
    jac, asked, failed = _jacobian_failing_at(lambda sig, tries: sig > 0.1)
    monkeypatch.setattr(backlund, "_bt_jac", jac)
    # a cap reached before the midpoints collapse
    monkeypatch.setattr(backlund, "MAX_RAMP_POINTS", 20)
    with pytest.raises(NewtonDiverged, match="injected at sigma="):
        bt_solve(st, BTParams(0.3))
    # each failure but the last adds a point to the 10-point ramp
    assert len(failed) == len(set(failed)) == backlund.MAX_RAMP_POINTS - 10 + 1
    # an explicit initial guess has no ramp to refine
    asked.clear()
    with pytest.raises(NewtonDiverged):
        bt_solve(st, BTParams(0.3), initial_guess=list(st.q))
    assert asked == [0.3]


def test_solver_failure_modes(monkeypatch):
    from dstlab.errors import NewtonDiverged, PoleEncountered, SingularG
    rng = np.random.default_rng(31)
    st = _solvable(rng, 2)
    with monkeypatch.context() as m:
        m.setattr(backlund, "NEWTON_MAX_ITER", 0)
        with pytest.raises(NewtonDiverged):
            bt_solve(st, BTParams(0.3))
    # a guess on the pole set trips the guard immediately
    with pytest.raises(PoleEncountered):
        bt_solve(st, BTParams(0.3), initial_guess=[0.0, 1.0])
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
    assert r.newton_residual < 1e-11
    assert bt_generating_check(st.q, st.r, r.y, r.Y, sigma) < 1e-9
    assert max(bt_local_identity_residual(
        st.q[i], st.r[i], r.y[i], r.y[(i + 1) % 3],
        st.r[i - 1] if i else st.r[2], sigma) for i in range(3)) < 1e-9
