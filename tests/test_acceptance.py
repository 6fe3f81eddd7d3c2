"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s / -rA) and
asserts every stated tolerance.  Runtime budgets are asserted where the
criterion carries one.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from dstlab._rat import rat
from dstlab.lattice import LatticeState, Open, Periodic, Quasiperiodic
from dstlab.monodromy import (lax_consistency_residual,
                              monodromy_evolution_residual,
                              sklyanin_condition_residual)


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_conservation():
    from dstlab.verify import conservation_run
    t0 = time.monotonic()
    worst = 0.0
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        drift = conservation_run(6, bc, dt=1e-3, t_final=10.0, seed=42)
        worst = max(worst, drift)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _line(1, "conservation", ok,
          f"max drift {worst:.2e} < 1e-8, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_lax_compatibility():
    rng = np.random.default_rng(0)
    worst = 0.0
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        for n in range(1, 6):
            for _ in range(50):
                st = LatticeState(tuple(rng.uniform(-1, 1, n)),
                                  tuple(rng.uniform(-1, 1, n)))
                worst = max(worst,
                            max(lax_consistency_residual(st, bc, j)
                                for j in range(1, n + 1)),
                            monodromy_evolution_residual(st, bc))
    st = LatticeState(tuple(rng.uniform(-1, 1, 4)), tuple(rng.uniform(-1, 1, 4)))
    rp, rm, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, 1.3)
    _, _, rc = sklyanin_condition_residual(Quasiperiodic(2.0), st, 0.9)
    exact = max(rp, rm, rc)
    rp_bad, _, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, 1.3,
                                               boundary_shift=(0.0, 0.5))
    ok = worst < 1e-12 and exact < 1e-13 and rp_bad > 1e-3
    _line(2, "lax-compatibility", ok,
          f"residuals {worst:.2e} < 1e-12, boundary exact {exact:.2e}, "
          f"control {rp_bad:.2e} > 1e-3")


def test_criterion_3_rmatrix():
    from dstlab.lattice import poisson_bracket
    from dstlab.rmatrix import (cism1_residual, cism2_residual_U,
                                reflection_residual_K)
    rng = np.random.default_rng(1)
    worst_local = worst_mono = worst_u = 0.0
    for n in (1, 2, 3):
        for _ in range(10):
            st = LatticeState(tuple(rng.uniform(-1, 1, n)),
                              tuple(rng.uniform(-1, 1, n)))
            if n >= 2:
                worst_local = max(worst_local,
                                  cism1_residual(st, 0.7, -0.3, "local", n, n))
            worst_mono = max(worst_mono, cism1_residual(st, 0.7, -0.3, "monodromy"))
            worst_u = max(worst_u, cism2_residual_U(st, Open(0.3, 0.7), 0.9, 0.4))
    theta = 0.7
    km = lambda l: np.array([[theta, l], [0.0, theta]])
    kp = lambda l: np.array([[theta, 0.0], [l, theta]])
    worst_k = max(max(reflection_residual_K(km, l, m), reflection_residual_K(kp, l, m))
                  for l, m in ((0.9, 0.4), (1.3, -0.6), (2.1 + 0.3j, 0.5)))
    st = LatticeState(tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2)))
    f = lambda s: s.q[0] ** 3
    g = lambda s: s.r[0]
    exact = 3.0 * st.q[0] ** 2
    e1 = abs(poisson_bracket(f, g, st, h_scale=1e-3) - exact)
    e2 = abs(poisson_bracket(f, g, st, h_scale=5e-4) - exact)
    order = float(np.log2(e1 / e2))
    ok = (worst_local < 1e-6 and worst_mono < 1e-5 and worst_k < 1e-12
          and worst_u < 1e-4 and order >= 1.8)
    _line(3, "r-matrix-algebra", ok,
          f"local {worst_local:.2e}, monodromy {worst_mono:.2e}, "
          f"reflection {worst_k:.2e}, dressed {worst_u:.2e}, order {order:.2f}")


def test_criterion_4_backlund():
    from dstlab.backlund import (BTParams, bt_generating_check,
                                 bt_invariance_residual,
                                 bt_local_identity_residual, bt_solve,
                                 bt_symplectic_residual, v_dressing_residual)
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst_map = worst_inv = 0.0
    for n in (1, 2, 3, 4):
        for sigma in (0.1, 0.3, 1.0):
            st = LatticeState(
                tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)),
                tuple(rng.uniform(0.6, 1.4, n) + 1j * rng.uniform(-0.3, 0.3, n)))
            for bc in (Periodic(), Quasiperiodic(2.0)):
                p = BTParams(sigma, bc)
                r = bt_solve(st, p)
                xi = p.xi
                worst_map = max(
                    worst_map, r.newton_residual,
                    bt_generating_check(st.q, st.r, r.y, r.Y, sigma, xi=xi),
                    max(bt_local_identity_residual(
                        st.q[i], st.r[i], r.y[i],
                        r.y[i + 1] if i + 1 < n else xi * r.y[0],
                        st.r[i - 1] if i else xi * st.r[n - 1], sigma)
                        for i in range(n)))
                ra, rb = bt_invariance_residual(st, r, p)
                worst_inv = max(worst_inv, ra, rb)
    st2 = LatticeState(tuple(rng.uniform(0.7, 1.4, 2)),
                       tuple(rng.uniform(0.7, 1.4, 2)))
    sympl = bt_symplectic_residual(st2, BTParams(0.3))
    dress = max(v_dressing_residual(0.7 + 0.2j, 1.4 + 0.4j, 1.8, 0.9, 0.25,
                                    0.4, 0.8))
    elapsed = time.monotonic() - t0
    ok = (worst_map < 1e-9 and worst_inv < 1e-8 and sympl < 1e-5
          and dress < 1e-10 and elapsed < 30.0)
    _line(4, "backlund", ok,
          f"map {worst_map:.2e} < 1e-9, invariance {worst_inv:.2e} < 1e-8, "
          f"symplectic {sympl:.2e} < 1e-5, dressing {dress:.2e} < 1e-10, "
          f"runtime {elapsed:.1f}s < 30s")


def test_criterion_5_quantum_exactness():
    from dstlab.quantum import (QParams, abd_commutation_residual,
                                q_reflection_dressed, q_reflection_minus,
                                q_reflection_plus, rtt_residual, tau_commutes)
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(2):
        a, b, c, d = (int(v) for v in rng.integers(1, 9, 4))
        pairs.append((rat(a, b), rat(c, d)))
    all_ok = True
    for eta in (rat(1), rat(1, 2), rat(3)):
        for xm, xp in pairs:
            p = QParams(eta, xm, xp)
            for n in (1, 2):
                all_ok &= rtt_residual(n, p)[0]
                all_ok &= q_reflection_dressed(n, p)[0]
            all_ok &= q_reflection_minus(p)[0]
            all_ok &= q_reflection_plus(p, shift=(1, 1))[0]
            all_ok &= q_reflection_plus(p, shift=(1, 2))[0]
            all_ok &= tau_commutes(1, p)[0]
            all_ok &= all(ok for ok, _ in abd_commutation_residual(1, p).values())
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 60.0
    _line(5, "quantum-exactness", ok,
          f"all identities exact, runtime {elapsed:.1f}s < 60s")


def test_criterion_6_quantum_hamiltonian():
    from dstlab.quantum import (QParams, hq_candidate,
                                hq_classical_limit_residual, hq_extract)
    ok = True
    detail = []
    for n in (1, 2, 3):
        p = QParams(rat(1), rat(2, 3), rat(5, 7))
        h, rep = hq_extract(n, p)
        exact = rep["exact"] and h == hq_candidate(n, p, rep["ordering"])
        ok &= exact and rep["constant_shift"] == 0
        detail.append(f"N={n}:{rep['ordering']}")
    for n in (1, 2):
        ok &= hq_classical_limit_residual(n, rat(2, 3), rat(5, 7)) == 0
    _line(6, "quantum-hamiltonian", ok,
          f"exact incl. -eta^2/8 constant [{', '.join(detail)}], "
          "classical limit exact")


def test_criterion_7_baxter_tq():
    from dstlab.baxter import QKernelParams, gauge_triangularize, tq_scalar_residual
    rng = np.random.default_rng(4)

    def params(n, eta=1.0):
        xi = 1.3
        y1 = 0.9 + 0.3j
        mid = (rng.uniform(0.5, 1.5, n - 1) + 1j * rng.uniform(-0.4, 0.4, n - 1)
               if n > 1 else [])
        return QKernelParams(rng.uniform(0.4, 1.4) + 1j * rng.uniform(-0.5, 0.5),
                             eta, xi, (y1, *mid, xi * y1),
                             tuple(rng.uniform(-0.8, 0.8, n)
                                   + 1j * rng.uniform(-0.4, 0.4, n)))
    worst_tq = worst_ur = 0.0
    count = 0
    for n in (1, 2, 3, 4):
        for _ in range(13):
            p = params(n)
            res, corr = tq_scalar_residual(p)
            worst_tq = max(worst_tq, res)
            worst_ur = max(worst_ur, max(gauge_triangularize(i, p)[0]
                                         for i in range(n)))
            count += 1
    p = params(3, eta=0.7)
    res_eta, corr = tq_scalar_residual(p)
    factors_ok = (abs(corr[0] - 0.7 ** -3) < 1e-12
                  and abs(corr[1] - 0.7 ** 3) < 1e-12)
    ok = (worst_tq < 1e-9 and worst_ur < 1e-12 and res_eta < 1e-9
          and factors_ok and count >= 50)
    _line(7, "baxter-tq", ok,
          f"{count} configs, identity {worst_tq:.2e} < 1e-9, "
          f"gauge {worst_ur:.2e} < 1e-12, eta-corrected {res_eta:.2e} "
          f"with factors (eta^-N, eta^N)")


def test_criterion_8_bethe_cross_validation():
    from dstlab.baxter import (bethe_remainder, bethe_solve,
                               eigen_membership_residual)
    t0 = time.monotonic()
    ok = True
    detail = []
    for n, m in ((2, 1), (3, 1), (2, 2)):
        cfg = bethe_solve(n, m, 1.0, 1.0, seed=11)
        rem = bethe_remainder(cfg)
        mem = max(eigen_membership_residual(cfg, s0) for s0 in (0.3, 1.7, -0.9))
        ok &= cfg.residual < 1e-10 and rem < 1e-8 and mem < 1e-6
        if m == 1:
            # closed form: the polynomiality condition at the single root is
            # xi^(-1/2) mu^N (-eta) + xi^(1/2) (+eta) = 0, i.e. mu^N = xi
            ok &= abs(cfg.roots[0] ** n - 1.0) < 1e-10
        detail.append(f"({n},{m}) res={cfg.residual:.1e} mem={mem:.1e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _line(8, "bethe-cross-validation", ok,
          "; ".join(detail) + f"; runtime {elapsed:.1f}s < 30s")


def test_criterion_9_full_suite_determinism():
    cmd = [sys.executable, "-m", "dstlab.cli", "verify", "--suite", "all",
           "--seed", "1", "--json"]
    p1 = subprocess.run(cmd, capture_output=True, text=True)
    p2 = subprocess.run(cmd, capture_output=True, text=True)
    rep = json.loads(p1.stdout)
    ok = (p1.returncode == 0 and p2.returncode == 0
          and rep["summary"]["failed"] == 0
          and p1.stdout == p2.stdout)
    _line(9, "full-suite-determinism", ok,
          f"{rep['summary']['passed']}/{rep['summary']['total']} records, "
          f"byte-identical across two runs")
