"""Kernel ratios, gauge triangularization, the three-term identity and
Bethe-root cross-validation."""
import cmath
import math
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from dstlab._rat import rat
from dstlab.baxter import (CERT_TOL, BetheConfig, QKernelParams,
                           SovParams, _check_gamma_pole, _loggamma, _loggamma_step,
                           bethe_certificates, bethe_remainder, bethe_solve, bethe_system,
                           eigen_membership_residual, gauge_triangularize,
                           kernel_sites, lambda_degree_probe, lambda_from_roots,
                           qj_lax, sov_residual, tq_exact_rational,
                           tq_scalar_residual, w_ratio_down, w_ratio_up)
from dstlab.errors import (EvaluationAtRoot, GammaPole, NoConvergence,
                           PoleInput)


def _params(rng, n, eta=1.0, xi=1.3, sigma=None):
    y, q = kernel_sites(rng, n, xi)
    if sigma is None:
        sigma = rng.uniform(0.4, 1.4) + 1j * rng.uniform(-0.5, 0.5)
    return QKernelParams(sigma, eta, xi, y, q)


def test_kernel_param_validation():
    with pytest.raises(PoleInput):
        QKernelParams(0.5, 1.0, 1.0, (1.0, 1.0), (1.0,))   # y_2 = q_1
    with pytest.raises(ValueError):
        QKernelParams(0.5, 1.0, 2.0, (1.0, 1.0), (0.3,))   # closure broken
    with pytest.raises(PoleInput):
        QKernelParams(0.5, 1.0, 1.0, (0.0, 0.0), (0.3,))


def log_w(i, p):
    """log of the site kernel w_i (constant prefactor dropped), principal
    branches: the oracle for the closed-form kernel ratios and for qj_lax's
    derivative."""
    z = complex(p.z(i))
    s = complex(p.sigma) / complex(p.eta)
    _check_gamma_pole(s + 1)
    return (_loggamma(s + 1) - cmath.log(complex(p.y[i]))
            + (-s - 1) * cmath.log(z) + z / complex(p.eta))


def test_log_w_value_and_poles():
    # sigma/eta = 0, y = (2, 3), q = 1: z = 1, log w = -log 2 + 1
    p = QKernelParams(0.0 + 0j, 1.0, 1.5, (2.0, 3.0), (1.0,))
    assert abs(log_w(0, p) - (1.0 - math.log(2.0))) < 1e-12
    with pytest.raises(GammaPole):
        log_w(0, QKernelParams(-2.0, 1.0, 1.5, (2.0, 3.0), (1.0,)))


def test_shift_ratio_recovery():
    rng = np.random.default_rng(0)
    p = _params(rng, 3)
    for i in range(3):
        up = cmath.exp(log_w(i, p.shifted(p.eta)) - log_w(i, p))
        down = cmath.exp(log_w(i, p.shifted(-p.eta)) - log_w(i, p))
        assert abs(up - w_ratio_up(i, p)) < 1e-12
        assert abs(down - w_ratio_down(i, p)) < 1e-12


def test_qj_lax_closed_form_vs_fd():
    rng = np.random.default_rng(1)
    p = _params(rng, 2)
    h = 1e-6
    for i in range(2):
        qp = list(p.q)
        qm = list(p.q)
        qp[i] += h
        qm[i] -= h
        fd = (log_w(i, QKernelParams(p.sigma, p.eta, p.xi, p.y, tuple(qp)))
              - log_w(i, QKernelParams(p.sigma, p.eta, p.xi, p.y, tuple(qm)))) / (2 * h)
        m = qj_lax(i, p)
        assert abs(m.a21 - p.eta * fd) < 1e-6
        assert m.a22 == 1.0


def test_qj_lax_special_values():
    p = QKernelParams(0.4, 1.0, 1.5, (2.0, 1.5, 3.0), (0.0, 0.5))
    m = qj_lax(0, p)
    assert m.a12 == 0.0
    assert abs(m.a11 - (p.sigma + p.eta)) < 1e-14
    p2 = QKernelParams(-1.0 + 0j, 1.0, 1.5, (2.0, 1.5, 3.0), (0.3, 0.5))
    m2 = qj_lax(0, p2)
    assert abs(m2.a21 + 1.0 / 2.0) < 1e-14   # sigma = -eta kills the first term


def test_gauge_triangularization():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        p = _params(rng, n)
        for i in range(n):
            ur, (top, bot) = gauge_triangularize(i, p)
            assert ur < 1e-12
            z = p.z(i)
            assert abs(top - z) < 1e-12
            assert abs(bot - (p.sigma + p.eta) * p.y[i] / (p.y[i + 1] - p.q[i])) < 1e-12
            # diagonals equal the eta-normalized kernel ratios
            assert abs(top - p.sigma * w_ratio_down(i, p) / p.eta) < 1e-10
            assert abs(bot - p.eta * w_ratio_up(i, p)) < 1e-10


def test_gauge_literal_at_unit_eta():
    # at eta = 1 the diagonal is (sigma w(down)/w, w(up)/w) as displayed
    rng = np.random.default_rng(3)
    p = _params(rng, 2, eta=1.0)
    for i in range(2):
        _, (top, bot) = gauge_triangularize(i, p)
        assert abs(top - p.sigma * w_ratio_down(i, p)) < 1e-10
        assert abs(bot - w_ratio_up(i, p)) < 1e-10


def test_gauge_wrong_index_control():
    rng = np.random.default_rng(4)
    p = _params(rng, 2)
    ur, _ = gauge_triangularize(0, p, wrong_index=True)
    assert ur > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_three_term_identity_unit_eta(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(13):
        p = _params(rng, n)
        res, corr = tq_scalar_residual(p)
        assert res < 1e-9
        assert corr == (1.0, 1.0)


def test_three_term_identity_periodic_specialization():
    rng = np.random.default_rng(20)
    p = _params(rng, 3, xi=1.0)
    res, _ = tq_scalar_residual(p)
    assert res < 1e-9


def test_three_term_identity_corrected_eta():
    rng = np.random.default_rng(21)
    for eta in (0.7, 2.0, 0.5 + 0.2j):
        p = _params(rng, 3, eta=eta)
        res, corr = tq_scalar_residual(p)
        assert res < 1e-9
        n = p.n_sites
        assert abs(corr[0] - complex(eta) ** (-n)) < 1e-12
        assert abs(corr[1] - complex(eta) ** n) < 1e-12


def test_three_term_overflow_free():
    # |sigma/eta| = 50 stays finite through the log-space path
    p = QKernelParams(50.0, 1.0, 1.3, (0.9 + 0.3j, 1.17 + 0.39j), (0.4,))
    res, _ = tq_scalar_residual(p)
    assert res < 1e-9


@pytest.mark.parametrize("eta", [1e-8, -1e-8, 1e-6, -0.001, 0.7, 3.0])
def test_three_term_identity_from_small_to_large_eta(eta):
    # the kernel of `dstlab baxter --eta <eta>`: at |eta| = 1e-8 the kernel
    # ratios may not be taken as differences of log-gamma values near 1e9
    y, q = kernel_sites(np.random.default_rng(1), 2, 1.0)
    res, _ = tq_scalar_residual(QKernelParams(0.8 + 0.4j, eta, 1.0, y, q))
    assert res <= CERT_TOL["three_term_identity"]


def test_three_term_identity_refuses_the_gamma_poles():
    # Gamma(s), Gamma(s + 1) and Gamma(s + 2) at s = sigma/eta all enter
    for sigma in (0.0, -1.0, -2.0, -5.0):
        with pytest.raises(GammaPole):
            tq_scalar_residual(QKernelParams(sigma, 1.0, 1.5, (2.0, 3.0), (1.0,)))


def test_loggamma_step_at_large_argument():
    # Gamma(z + 1) = z Gamma(z), also beside the negative axis, where Stirling's
    # series alone does not hold; exp carries the log's rounding, |log| eps
    for z in (8.5, -8.5 + 1e-9j, -731.4 + 1e-3j, 8e7 + 4e7j, -8e7 - 4e7j, 1e300 + 1j):
        up, down = _loggamma_step(z, 1), _loggamma_step(z, -1)
        assert abs(cmath.exp(up) / z - 1) <= 1e-15 * max(1.0, abs(up))
        assert abs(cmath.exp(down) * (z - 1) - 1) <= 1e-15 * max(1.0, abs(down))


def test_exact_rational_single_site():
    ok, lhs, rhs = tq_exact_rational(rat(3, 2), rat(1), rat(2),
                                     (rat(1, 3), rat(4, 3)), (rat(-1, 2),))
    assert ok and lhs == rhs and type(lhs) is type(rat(1))
    ok2, lhs2, rhs2 = tq_exact_rational(rat(5, 7), rat(1), rat(3),
                                        (rat(2, 5), rat(18, 5)), (rat(1, 9),))
    assert ok2 and lhs2 == rhs2
    # two sites, eta != 1: the eta^(-+N) corrections, over rationals
    ok3, lhs3, rhs3 = tq_exact_rational(rat(2, 3), rat(5, 4), rat(3, 2),
                                        (rat(1, 2), rat(7, 5), rat(9, 8)),
                                        (rat(1, 3), rat(-2, 7)))
    assert ok3 and lhs3 == rhs3


def test_exact_rational_fails_off_the_closure():
    # y_2 moved off y_2 = xi y_1 by 1e-12, inside QKernelParams' tolerance:
    # the twist is no longer triangular in the gauge, so the exact check fails
    y = (rat(1, 3), rat(4, 3) + rat(1, 10 ** 12))
    ok, _, _ = tq_exact_rational(rat(3, 2), rat(1), rat(2), y, (rat(-1, 2),))
    assert not ok
    # the triangularized diagonals are the exact inputs' own
    p = QKernelParams(rat(3, 2), rat(1), rat(4), y, (rat(-1, 2),))
    ur, (top, bot) = gauge_triangularize(0, p)
    assert ur == 0 and top == p.z(0) and bot == (p.sigma + p.eta) / p.z(0)


def test_exact_rational_refuses_through_the_kernel_params():
    # the closure and the poles are QKernelParams' validation, which
    # python -O keeps
    with pytest.raises(ValueError, match="closure"):
        tq_exact_rational(rat(3, 2), rat(1), rat(2), (rat(1, 3), rat(5, 3)), (rat(-1, 2),))
    with pytest.raises(PoleInput):  # y_2 = q_1
        tq_exact_rational(rat(3, 2), rat(1), rat(2), (rat(1, 3), rat(4, 3)), (rat(4, 3),))


def _bits(values):
    return [struct.pack("<dd", complex(v).real, complex(v).imag) for v in values]


@pytest.mark.parametrize("xi", [1.0, 2.0, -1.5, 0.5 + 0.2j, 4])
def test_sqrt_xi_has_the_bits_of_the_complex_root(xi):
    # the three users of xi^(1/2) take lattice.principal_sqrt, a float (an
    # int at xi = 4) at xi > 0; CPython makes a float or int operand
    # complex(x, 0.0) before it divides or multiplies a complex, so every
    # value keeps the bits it has with cmath.sqrt(complex(xi))
    from dstlab import baxter
    from dstlab._rat import RAT
    from dstlab.quantum import QParams, qmonodromy, rep_of_op_poly
    sq = cmath.sqrt(complex(xi))
    roots, n, eta = (0.3 + 0.1j, -0.7 + 0.4j), 3, 0.7
    down, up = baxter._shifted_q(roots, -eta), baxter._shifted_q(roots, eta)
    ref = down.map(lambda c: c / sq).shift_up(n) + up.map(lambda c: sq * c)
    assert _bits(baxter._tq_rhs(roots, n, xi, eta).c) == _bits(ref.c)

    y, q = kernel_sites(np.random.default_rng(5), n, xi)
    p = QKernelParams(0.8 + 0.4j, eta, xi, y, q)
    top = bot = 1.0 + 0j
    for i in range(n):
        _, (t, b) = gauge_triangularize(i, p)
        top *= t
        bot *= b
    assert _bits([baxter.twisted_transfer_value(p)]) == _bits([top / sq + sq * bot])

    t = qmonodromy(2, QParams(RAT(eta)))
    m11, m22 = (rep_of_op_poly(e, 0.3, 2, 2) for e in (t.a11, t.a22))
    ref = [a / sq + sq * d for r11, r22 in zip(m11, m22) for a, d in zip(r11, r22)]
    got = baxter.transfer_matrix_on_degree(2, 2, xi, eta, 0.3)
    assert _bits(e for row in got for e in row) == _bits(ref)


def test_bethe_single_root_closed_form():
    # the single-root equation is xi^(-1/2) mu^N (-eta) + xi^(1/2) eta = 0,
    # i.e. mu^N = xi; for xi = 1 the roots are the N-th roots of unity
    for n in (2, 3):
        cfg = bethe_solve(n, 1, 1.0, 1.0, seed=1)
        assert cfg.residual < 1e-10
        assert abs(cfg.roots[0] ** n - 1.0) < 1e-10


def test_bethe_both_roots_n2():
    # seed 1 lands on mu = +1, seed 2 on mu = -1
    c1 = bethe_solve(2, 1, 1.0, 1.0, seed=1)
    c2 = bethe_solve(2, 1, 1.0, 1.0, seed=2)
    found = sorted([c1.roots[0].real, c2.roots[0].real])
    assert abs(found[0] + 1.0) < 1e-8 and abs(found[1] - 1.0) < 1e-8


def test_bethe_polynomiality_and_degree():
    for n, m in ((2, 1), (3, 1), (2, 2)):
        cfg = bethe_solve(n, m, 1.0, 1.0, seed=3)
        assert cfg.residual < 1e-10
        assert bethe_remainder(cfg) < 1e-8
        assert lambda_degree_probe(cfg) < 1e-8


def test_lambda_vacuum_and_leading():
    vac = BetheConfig(2, 0, 1.0, 1.0, (), 0.0)
    for s0 in (0.45, 1.2, -0.8):
        assert abs(lambda_from_roots(vac, s0) - (s0 ** 2 + 1.0)) < 1e-14
    cfg = bethe_solve(3, 1, 1.0, 1.0, seed=5)
    big = 1e5
    lead = lambda_from_roots(cfg, big) / big ** 3
    assert abs(lead - 1.0) < 1e-3   # xi^(-1/2) = 1
    with pytest.raises(EvaluationAtRoot):
        lambda_from_roots(cfg, cfg.roots[0])


def test_eigen_membership():
    for n, m in ((2, 1), (3, 1), (2, 2)):
        cfg = bethe_solve(n, m, 1.0, 1.0, seed=7)
        for s0 in (0.3, 1.7, -0.9):
            assert eigen_membership_residual(cfg, s0) < 1e-6


def test_eigen_membership_twisted_and_shifted():
    # the root condition mu^N = xi and the eigenvalue membership hold off the
    # periodic point and away from eta = 1
    for xi in (2.0, 0.5):
        cfg = bethe_solve(2, 1, xi, 1.0, seed=1)
        assert abs(cfg.roots[0] ** 2 - xi) < 1e-10
        assert max(eigen_membership_residual(cfg, s) for s in (0.3, 1.7)) < 1e-6
    cfg = bethe_solve(2, 1, 1.0, 2.0, seed=1)
    assert max(eigen_membership_residual(cfg, s) for s in (0.3, 1.7)) < 1e-6


def test_eigen_membership_negative_control():
    bad = BetheConfig(2, 1, 1.0, 1.0, (1j,), 1.0)
    assert min(eigen_membership_residual(bad, s0)
               for s0 in (0.3, 1.7, -0.9)) > 1e-3


def test_shared_certificates_reject_a_non_root():
    good = bethe_certificates(bethe_solve(2, 1, 1.0, 1.0, seed=7))
    assert all(v <= CERT_TOL[k] for k, v in good.items())
    bad = bethe_certificates(BetheConfig(2, 1, 1.0, 1.0, (1j,), 1.0))
    assert bad["eigen_membership"] > CERT_TOL["eigen_membership"]
    # the vacuum has no roots: remainder and degree are 0.0 unevaluated
    vac = bethe_certificates(BetheConfig(2, 0, 1.0, 1.0, (), 0.0))
    assert vac["polynomiality_remainder"] == vac["eigenvalue_degree"] == 0.0


def test_membership_at_non_integer_eta():
    # the transfer matrix is built at the float's exact rational value
    good = bethe_certificates(bethe_solve(3, 1, 2.0, 0.7, seed=1))
    assert all(v <= CERT_TOL[k] for k, v in good.items())
    bad = bethe_certificates(BetheConfig(3, 1, 2.0, 0.7, (1j,), 1.0))
    assert bad["eigen_membership"] > CERT_TOL["eigen_membership"]


def test_membership_vacuum_exact():
    vac = BetheConfig(2, 0, 1.0, 1.0, (), 0.0)
    assert eigen_membership_residual(vac, 0.77) < 1e-14


def test_tq_remainder_tracks_the_system_residual():
    cfg = bethe_solve(2, 2, 1.0, 1.0, seed=3)
    assert bethe_remainder(cfg) < 1e-12
    for eps in (1e-4, 1e-6, 1e-8):
        near = tuple(np.asarray(cfg.roots) * (1 + eps * (1 + 1j)))
        residual = float(np.max(np.abs(bethe_system(near, 2, 1.0, 1.0))))
        remainder = bethe_remainder(BetheConfig(2, 2, 1.0, 1.0, near, residual))
        assert eps < residual < 100 * eps
        assert 0.1 < remainder / residual < 10


def _tq_record(seed):
    from dstlab.verify import suite_baxter
    return next(r for r in suite_baxter(seed) if r.identity_id == "tq-residual-tracks-solver")


@pytest.mark.parametrize("seed", [1, 4, 8])
def test_tq_residual_record_passes_at_every_root_set(seed):
    # the three (2, 2) root sets: the complex pair, (0.48, 2.08), (-0.62, 1.62)
    assert _tq_record(seed).passed


@pytest.mark.parametrize("constant", [0.0, 1e-12, 1.0])
def test_tq_residual_record_fails_on_a_constant_remainder(constant, monkeypatch):
    from dstlab import baxter
    monkeypatch.setattr(baxter, "bethe_remainder", lambda cfg: constant)
    assert not _tq_record(1).passed


@pytest.mark.parametrize("eta", [1e-8, -1e-6, 1e-4, 1e-8j])
def test_bethe_roots_converge_at_small_eta(eta):
    # N=2, m=1, xi=1: the system is eta (1 - mu^2), so its size scales with
    # |eta|; an absolute stop at 1e-12 left mu^2 - 1 at 4.5e-5 for eta = 1e-8
    from dstlab import baxter
    for seed in (1, 2, 3):
        cfg = bethe_solve(2, 1, 1.0, eta, seed=seed)
        assert cfg.residual <= baxter.BETHE_TOL * abs(eta)
        assert abs(cfg.roots[0] ** 2 - 1) < 1e-7


def test_bethe_start_that_overflows_is_a_failed_start(monkeypatch):
    from dstlab import baxter
    calls = []
    system = baxter.bethe_system

    def first_call_overflows(roots, n, xi, eta):
        calls.append(roots)
        f = system(roots, n, xi, eta)
        return tuple(v * 1e308 * 1e308 for v in f) if len(calls) == 1 else f

    monkeypatch.setattr(baxter, "bethe_system", first_call_overflows)
    cfg = bethe_solve(2, 1, 1.0, 1.0, seed=1)
    # the first start ended at its first evaluation; a later one found mu^2 = 1
    assert not np.array_equal(calls[1], calls[0])
    assert cfg.residual <= baxter.BETHE_TOL and abs(cfg.roots[0] ** 2 - 1) < 1e-10


def test_one_baxter_relation_feeds_system_eigenvalue_and_remainder(monkeypatch):
    from dstlab import baxter
    cfg = bethe_solve(2, 2, 1.0, 1.0, seed=1)

    def readings():
        return (bethe_system(cfg.roots, 2, 1.0, 1.0), lambda_from_roots(cfg, 0.3),
                bethe_remainder(cfg))

    before = readings()
    tq_rhs = baxter._tq_rhs
    monkeypatch.setattr(baxter, "_tq_rhs", lambda *args: tq_rhs(*args).map(lambda c: c + 1e-3))
    for old, new in zip(before, readings()):
        assert np.max(np.abs(np.subtract(new, old))) > 1e-5


# Roots found before the Baxter relation was written once, at the `verify`
# configurations and the `dstlab baxter` runs of CI: (n, m, xi, eta, seed).
# The eta = -0.001 root is the one found once Newton's stop scaled with
# |eta|: the absolute stop had left it at 1 + 2.5e-10 + 6.4e-12j, and the
# exact root (the system is eta (1 - mu^2)) is 1.
_PINNED_ROOTS = [
    ((2, 1, 1.0, 1.0, 1), (1.0000000000000009 - 8.635733103399148e-16j,)),
    ((3, 1, 1.0, 1.0, 1), (-0.5 + 0.8660254037844387j,)),
    ((2, 2, 1.0, 1.0, 1), (-0.7807764064044151 - 0.6248105338438266j,
                           -0.7807764064044151 + 0.6248105338438266j)),
    ((2, 1, 1.0, 1.0, 2), (-1 + 2.768747993625444e-21j,)),
    ((3, 1, 1.0, 1.0, 2), (-0.49999999999999056 - 0.8660254037844481j,)),
    ((2, 2, 1.0, 1.0, 2), (-0.7807764064044151 + 0.6248105338438266j,
                           -0.7807764064044151 - 0.6248105338438266j)),
    ((2, 1, 1.0, 1.0, 3), (-1.0000000000000002 + 4.735257248310595e-17j,)),
    ((3, 1, 1.0, 1.0, 3), (-0.5 - 0.8660254037844387j,)),
    ((2, 2, 1.0, 1.0, 3), (-0.78077640640442 + 0.6248105338438318j,
                           -0.7807764064044184 - 0.6248105338438261j)),
    ((3, 1, 2.0, 0.7, 1), (-0.6299605249474366 + 1.0911236359717214j,)),
    ((2, 1, 1.0, -0.001, 1), (0.9999999999999098 + 3.052036997026969e-20j,)),
    ((2, 0, 1.0, 1.0, 1), ()),
]


@pytest.mark.parametrize("config, roots", _PINNED_ROOTS)
def test_bethe_roots_are_pinned(config, roots):
    n, m, xi, eta, seed = config
    found = bethe_solve(n, m, xi, eta, seed=seed).roots
    assert len(found) == len(roots)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(found, roots))


def test_bethe_no_convergence_budget(monkeypatch):
    from dstlab import baxter
    monkeypatch.setattr(baxter, "BETHE_MAX_STARTS", 0)
    with pytest.raises(NoConvergence):
        bethe_solve(2, 1, 1.0, 1.0, seed=1)


def test_bethe_solve_without_roots_is_the_vacuum():
    for n, seed in ((2, 1), (3, 7)):
        assert bethe_solve(n, 0, 1.0, 1.0, seed=seed) == BetheConfig(n, 0, 1.0, 1.0, (), 0.0)


def test_sov_residual_values():
    sv = SovParams(1.0, 1.0, 1.0, lambda u: 1.0, lambda u: 1.0)
    zero = SovParams(1.0, 1.0, 1.0, lambda u: 1.0, lambda u: 0.0)
    assert sov_residual(zero, 0.4) == 0.0
    assert sov_residual(sv, 0.5) == -1.0
    # the alternative printed prefactor shifts the value by 2 xi_+ Dm phi
    assert sov_residual(sv, 0.5, variant="alt") == 1.0


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(1.0, abs(b))


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 3.7, 7.9, 8.0,
                               10.3, 50.0, 171.5, 1e4])
def test_loggamma_matches_lgamma_on_the_positive_axis(x):
    assert _close(_loggamma(x), math.lgamma(x))


def _off_axis_points(count=400):
    rng = np.random.default_rng(11)
    return [complex(a, s * b) for a, b, s in zip(rng.uniform(-20, 20, count),
                                                 rng.uniform(0.1, 30, count),
                                                 rng.choice([-1, 1], count))]


def test_loggamma_recurrence_off_the_real_axis():
    # Re z in [-20, 20]: the recurrence links the reflected and the shifted path
    for z in _off_axis_points():
        step = _loggamma(z + 1) - _loggamma(z)
        assert abs(step - cmath.log(z)) <= 1e-14 * max(1.0, abs(_loggamma(z)))


def test_loggamma_conjugate_symmetry():
    for z in _off_axis_points() + [complex(-2.5, 0.0), complex(0.3, 0.0)]:
        assert _close(_loggamma(z.conjugate()), _loggamma(z).conjugate())


def test_loggamma_closed_forms():
    assert _close(_loggamma(0.5), 0.5 * math.log(math.pi))
    # |Gamma(iy)|^2 = pi / (y sinh(pi y)); Re z = 0 takes the reflection path
    for y in (0.1, 1.0, 5.0, 30.0, 100.0):
        expected = math.log(math.pi) - math.log(y) - math.log(math.sinh(math.pi * y))
        assert _close(2 * _loggamma(1j * y).real, expected)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 3.3, 12.0])
def test_loggamma_continuous_across_the_positive_axis(x):
    on_axis = _loggamma(x)
    for eps in (1e-300, 1e-9):
        above, below = _loggamma(complex(x, eps)), _loggamma(complex(x, -eps))
        assert abs(above - on_axis) <= 10 * eps * max(1.0, abs(on_axis)) + 1e-14
        assert abs(below - on_axis) <= 10 * eps * max(1.0, abs(on_axis)) + 1e-14


@pytest.mark.parametrize("x", [-0.5, -1.3, -2.5, -7.9, -49.3,
                               -0.9999999999, -3.0000001, -49.999999])
def test_loggamma_negative_axis_branch(x):
    # from above (+0.0): ln|Gamma(x)| - i pi ceil(-x); from below (-0.0): its
    # conjugate.  The last three sit near poles, where sin(pi x) must keep
    # its digits.
    above = complex(math.lgamma(x), -math.pi * math.ceil(-x))
    assert _close(_loggamma(complex(x, 0.0)), above)
    assert _close(_loggamma(complex(x, -0.0)), above.conjugate())


def test_loggamma_far_from_the_origin_returns_at_once():
    z = -1e7 - 5e6j
    start = time.perf_counter()
    value = _loggamma(z)
    assert time.perf_counter() - start < 0.1      # no loop grows with |z|
    assert cmath.isfinite(value)
    assert abs(_loggamma(z + 1) - value - cmath.log(z)) <= 1e-14 * abs(value)


def test_baxter_commands_run_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None; from dstlab.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    for argv in (["verify", "--suite", "baxter", "--json"], ["baxter", "--json"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
