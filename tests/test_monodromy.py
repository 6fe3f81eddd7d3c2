"""Lax matrices, monodromy, boundary matrices and conserved generators."""
import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from dstlab._rat import rat
from dstlab.backlund import BTParams, bt_solve, jtilde_invariance_residual, solvable_state
from dstlab.errors import WrongRegime, ZeroXi
from dstlab.lattice import LatticeState, Open, Periodic, Quasiperiodic, hamiltonian
from dstlab.monodromy import (adjugate_neg, boundary_C, boundary_K,
                              conserved_coeffs, generator, lax_L, lax_M,
                              lax_consistency_residual, monodromy,
                              monodromy_evolution_residual,
                              sampled_trajectory, sklyanin_condition_residual)
from dstlab.poly import Mat2, Poly
from dstlab.verify import _sub_rng
from lax_chain import lax_chain


def _rand_state(rng, n, scale=1.0):
    return LatticeState(tuple(rng.uniform(-scale, scale, n)),
                        tuple(rng.uniform(-scale, scale, n)))


def test_lax_L_entries():
    st = LatticeState((1.0,), (2.0,))
    l = lax_L(st, 1)
    assert l.a11.c == [2.0, 1] and l.a12.c == [1.0]
    assert l.a21.c == [2.0] and l.a22.c == [1]
    vac = lax_L(LatticeState((0.0,), (0.0,)), 1)
    assert vac.a11.c == [0.0, 1] and vac.a12 == 0 and vac.a21 == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        st = _rand_state(rng, 2)
        assert lax_L(st, 2).det().c[1:] == [1.0]  # det = lambda
    with pytest.raises(IndexError):
        lax_L(st, 3)


def test_lax_M_closures():
    st = LatticeState((1.0, 2.0), (3.0, 4.0))
    w_end = lax_M(st, 3, Open(0.3, 0.7))
    assert w_end.a12.c == [0.7] and w_end.a21.c == [4.0]
    w_one = lax_M(st, 1, Open(0.3, 0.7))
    assert w_one.a12.c == [1.0] and w_one.a21.c == [0.3]
    per_end = lax_M(st, 3, Periodic())
    per_one = lax_M(st, 1, Periodic())
    assert per_end.a12.c == per_one.a12.c == [1.0]
    assert per_end.a21.c == per_one.a21.c == [4.0]
    for n in (1, 2, 3):
        assert lax_M(st, n, Periodic()).trace() == 0


def test_monodromy_single_site_and_det():
    st = LatticeState((0.7,), (-0.4,))
    t = monodromy(st)
    l = lax_L(st, 1)
    assert t.a11 == l.a11 and t.a12 == l.a12
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        q = tuple(rat(int(k), 7) for k in rng.integers(-9, 9, n))
        r = tuple(rat(int(k), 5) for k in rng.integers(-9, 9, n))
        assert monodromy(LatticeState(q, r)).det().c == [0] * n + [1]


def _coeff_reprs(t):
    """repr of every coefficient of the four entries: shows the sign of a
    zero, int against float, and the trimmed length."""
    return [[repr(c) for c in e.c] for e in t.entries()]


def _as_complex(t):
    return [[complex(c) for c in e.c] for e in t.entries()]


def _assert_matches_the_chain(st):
    """monodromy is finite exactly where the Mat2[Poly] chain is, and there
    every coefficient equals the chain's as a complex number.  Signed zeros
    and int against float or Fraction zeros may differ, since the chain's
    Poly product skips zero terms and the recurrence does not."""
    got, want = _as_complex(monodromy(st)), _as_complex(lax_chain(st))
    finite = all(cmath.isfinite(c) for e in want for c in e)
    assert all(cmath.isfinite(c) for e in got for c in e) == finite, (st.q, st.r)
    if finite:
        assert got == want, (st.q, st.r)


# Scalars that reach every special case of the Poly product: signed zeros,
# also as complex parts; small integers, whose products cancel exactly;
# and magnitudes whose products underflow to zero or overflow.
_PARTS = (0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e-160, -3e-161, 1e-310, 1e200, -1e170)


def _part(rng):
    return rng.choice(_PARTS) if rng.random() < 0.4 else rng.uniform(-2, 2)


def _scalar(rng, kind):
    if kind == "float":
        return _part(rng)
    if kind == "complex":
        return complex(_part(rng), _part(rng))
    if kind == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    # signed zeros: products whose zero parts carry either sign
    return complex(rng.choice(_PARTS[:6]), rng.choice(_PARTS[:6]))


@pytest.mark.parametrize("kind", ["float", "complex", "fraction", "signed-zeros"])
def test_monodromy_matches_the_lax_chain_bit_for_bit(kind):
    rng = random.Random(kind)
    for n in range(1, 9):
        for _ in range(60):
            q = tuple(_scalar(rng, kind) for _ in range(n))
            r = tuple(_scalar(rng, kind) for _ in range(n))
            _assert_matches_the_chain(LatticeState(q, r))


def _determinant_states(seed):
    """The exact states of verify's monodromy-determinant record that have
    a zero entry."""
    rng = _sub_rng(seed, "dets")
    states = []
    for n in range(1, 9):
        q = tuple(rat(int(k), 7) for k in rng.integers(-9, 9, n))
        r = tuple(rat(int(k), 5) for k in rng.integers(-9, 9, n))
        states.append(LatticeState(q, r))
    return [st for st in states if 0 in st.q + st.r]


@pytest.mark.parametrize("kind", ["float", "complex", "fraction"])
def test_generic_monodromy_multiplies_no_mat2(kind, monkeypatch):
    products = []
    real_matmul = Mat2.__matmul__

    def counted(a, b):
        products.append(1)
        return real_matmul(a, b)

    def generic():
        if kind == "fraction":
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 13))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return z.real if kind == "float" else z

    def monodromy_without_products(st):
        with monkeypatch.context() as m:
            m.setattr(Mat2, "__matmul__", counted)
            got = monodromy(st)
        assert not products, (st.q, st.r)
        return got

    rng = random.Random(kind)
    for n in range(1, 9):
        q = tuple(generic() for _ in range(n))
        r = tuple(generic() for _ in range(n))
        st = LatticeState(q, r)
        assert _coeff_reprs(monodromy_without_products(st)) == _coeff_reprs(lax_chain(st))
    if kind == "fraction":
        exact = [st for seed in (1, 2, 3) for st in _determinant_states(seed)]
        assert exact
        for st in exact:
            got = monodromy_without_products(st)
            assert got.det().c == [0] * st.n_sites + [1]
            assert [e.c for e in got.entries()] == [e.c for e in lax_chain(st).entries()]


@pytest.mark.parametrize("q, r", [
    # products that underflow to zero
    ((1e-310, 3.0), (2.0, 1e-310)),
    ((0.5, 1e-200, -2.0), (1e-160, 3.0, 1e-160)),
    ((complex(1e-160, 2), complex(1.5, -0.0), complex(0, 1e-160)),
     (complex(-1e-170, 0), complex(0, 1), complex(2, 0))),
    # coefficients that overflow
    ((1e200, 2.0, 3.0), (1e200, -1.0, 0.5)),
    ((complex(1e200, 1e200), complex(1, 0), complex(0, 0.5)),
     (complex(1e200, 0), complex(2, -0.0), complex(-1, 0))),
    # sums of two products whose imaginary parts are both -0.0
    ((complex(-0.0, -1), complex(-2, 0), complex(0.5, 1)),
     (complex(-2, 0), complex(-0.0, 0.5), complex(0.5, -2))),
    ((complex(-0.0, -0.5), complex(-0.0, -2)), (complex(-0.5, 2), complex(0, 0.5))),
    ((complex(0, -2), complex(1, -0.0)), (complex(0, 1), complex(-0.0, -2))),
    ((complex(-0.0, 0.5), complex(-2, 0)), (complex(-0.0, 2), complex(-0.5, 0))),
])
def test_monodromy_matches_the_lax_chain_at_extremes(q, r):
    _assert_matches_the_chain(LatticeState(q, r))


def test_monodromy_leading_structure():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        st = _rand_state(rng, n)
        t = monodromy(st)
        s_total = sum(q * r for q, r in zip(st.q, st.r))
        assert t.a11.coeff(n) == 1
        assert abs(t.a11.coeff(n - 1) - s_total) < 1e-12
        assert abs(t.a12.coeff(n - 1) - st.q[0]) < 1e-12
        assert abs(t.a21.coeff(n - 1) - st.r[-1]) < 1e-12


def test_adjugate_neg():
    st = LatticeState((0.9,), (0.4,))
    t = monodromy(st)
    adj = adjugate_neg(t)
    assert adj.a11 == 1 and adj.a12.c == [-0.9]
    assert adj.a21.c == [-0.4]
    assert adj.a22.c == [pytest.approx(0.36), -1]  # t11(-l) = -l + q r
    # T(l) adj(T)(l) = l^N I, with adj(T)(l) = adjugate_neg evaluated at -l
    rng = np.random.default_rng(8)
    for n in (1, 2, 4):
        t = monodromy(_rand_state(rng, n))
        back = adjugate_neg(t).map(Poly.flip)   # plain adjugate
        prod = t @ back
        assert max(abs(c) for c in (prod.a12.c + prod.a21.c) or [0]) < 1e-12
        assert max(abs(a - b) for a, b in zip(prod.a11.c, [0] * n + [1])) < 1e-12
    ident = adjugate_neg(monodromy(LatticeState((0.0,), (0.0,))))
    assert ident.a12 == 0 and ident.a21 == 0


def test_boundary_C():
    c = boundary_C(1.0)
    assert c.a11 == 1.0 and c.a22 == 1.0
    c4 = boundary_C(4.0)
    assert c4.a11 == 0.5 and c4.a22 == 2.0
    for xi in (0.3, 2.0, -1.5, 1 + 1j):
        c = boundary_C(xi)
        assert abs(c.a11 * c.a22 - 1) < 1e-14
    with pytest.raises(ZeroXi):
        boundary_C(0)


def test_boundary_K():
    km, kp = boundary_K(Open(0.4, -0.6))
    assert km.a11.c == [0.4] and km.a12.c == [0, 1] and km.a21 == 0
    assert kp.a21.c == [0, 1] and kp.a12 == 0
    assert km.eval(0.0).a11 == 0.4 and km.eval(0.0).a12 == 0.0
    with pytest.raises(WrongRegime):
        boundary_K(Periodic())


def test_generator_quasi_single_site():
    st = LatticeState((0.8,), (0.5,))
    xi = 4.0
    g = generator(st, Quasiperiodic(xi))
    # xi^(-1/2)(lambda + q r) + xi^(1/2)
    assert abs(g.coeff(1) - 0.5) < 1e-14
    assert abs(g.coeff(0) - (0.5 * 0.4 + 2.0)) < 1e-14


def test_generator_periodic_subleading_is_s():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        st = _rand_state(rng, n)
        g = generator(st, Periodic())
        s_total = sum(q * r for q, r in zip(st.q, st.r))
        assert abs(g.coeff(n - 1) - s_total) < 1e-12


def test_generator_open_single_site_frozen():
    q, r, thm, thp = 1.7, -0.6, 0.3, 0.9
    g = generator(LatticeState((q,), (r,)), Open(thm, thp))
    # degree 4, leading -1, only even powers:
    # -l^4 + l^2 (q^2 r^2 - 2 q th- - 2 r th+)
    assert g.degree == 4
    assert g.coeff(4) == -1
    assert g.coeff(3) == 0 and g.coeff(1) == 0 and g.coeff(0) == 0
    assert abs(g.coeff(2) - (q * q * r * r - 2 * q * thm - 2 * r * thp)) < 1e-12


def _open_generator_by_k_plus(st, bc):
    """The open generator as the trace of the full product K_+ U."""
    k_minus, k_plus = boundary_K(bc)
    t = monodromy(st)
    return (k_plus @ (t @ k_minus @ adjugate_neg(t))).trace()


def _finite(p):
    return all(cmath.isfinite(complex(c)) for c in p.c)


# default, negative, signed-zero, complex and rational boundary constants
_THETAS = ((0.3, 0.7), (-1.25, 2.0), (0.0, -0.0), (-0.0, 0.0), (1.0, -0.5),
           (0.4 + 0.2j, -0.6j), (Fraction(2, 3), Fraction(-5, 4)))


@pytest.mark.parametrize("kind", ["float", "complex", "signed-zeros"])
def test_open_generator_matches_the_k_plus_trace_bit_for_bit(kind):
    # theta_+ U11 + (lambda U12 + theta_+ U22) is tr(K_+ U) in the same
    # grouping.  A generator that overflows is a blow-up either way: there
    # only its being non-finite is compared.
    rng = random.Random(kind)
    compared = 0
    for n in range(1, 7):
        for _ in range(20):
            st = LatticeState(tuple(_scalar(rng, kind) for _ in range(n)),
                              tuple(_scalar(rng, kind) for _ in range(n)))
            for thetas in _THETAS:
                want = _open_generator_by_k_plus(st, Open(*thetas))
                got = generator(st, Open(*thetas))
                if not _finite(want):
                    assert not _finite(got), (st, thetas)
                    continue
                assert [repr(c) for c in got.c] == [repr(c) for c in want.c], (st, thetas)
                compared += 1
    assert compared >= 300


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dressed_generator_reads_the_open_generator(seed):
    # the map and boundary constants of verify's bt-dressed-generator record
    st = solvable_state(np.random.default_rng(seed), 2)
    p = BTParams(0.3, Quasiperiodic(2.0))
    assert jtilde_invariance_residual(st, bt_solve(st, p), p, 0.4, 0.8) < 1e-8


def _closed_forms(st):
    """(s_total, p2, p2') of a state: the sum of q_i r_i; the hops plus the
    pairwise products of the s_i; and the boundary hop r_N q_1."""
    q, r = st.q, st.r
    n = st.n_sites
    s = [q[i] * r[i] for i in range(n)]
    pair = sum(s[i] * s[j] for i in range(n) for j in range(i + 1, n))
    hop = sum(q[i + 1] * r[i] for i in range(n - 1))
    return sum(s), hop + pair, r[-1] * q[0]


def test_conserved_closed_forms_vs_coefficients():
    rng = np.random.default_rng(13)
    for n in (2, 3, 5):
        st = _rand_state(rng, n)
        s_total, p2, p2_prime = _closed_forms(st)
        xi = 4.0
        cs = conserved_coeffs(st, Quasiperiodic(xi))
        extra = 1.0 if n == 2 else 0.0
        assert abs(cs.coeffs[n - 2]
                   - (0.5 * p2 + 2.0 * (p2_prime + extra))) < 1e-12
        assert abs(cs.coeffs[n - 1] - 0.5 * s_total) < 1e-12

        bc = Open(0.3, 0.7)
        cso = conserved_coeffs(st, bc)
        sign = -1 if n % 2 else 1
        h = p2 - s_total ** 2 / 2 + st.q[0] * 0.3 + st.r[-1] * 0.7
        assert abs(cso.coeffs[2 * n] - sign * 2 * h) < 1e-12


def test_conserved_vanish_on_vacuum():
    st = LatticeState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    s_total, p2, p2_prime = _closed_forms(st)
    assert s_total == 0 and p2 == 0 and p2_prime == 0
    assert conserved_coeffs(st, Periodic()).hamiltonian_value == 0
    # generator reduces to lambda^N + 1 (trace of diag(lambda, 1) products)
    g = generator(st, Periodic())
    assert g.c[0] == 1 and g.c[-1] == 1 and all(c == 0 for c in g.c[1:-1])


def test_hamiltonian_value_agreement():
    rng = np.random.default_rng(17)
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            st = _rand_state(rng, n)
            cs = conserved_coeffs(st, bc)
            assert abs(cs.hamiltonian_value - hamiltonian(st, bc)) < 1e-10


@pytest.mark.parametrize("bc", [Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)])
def test_lax_residuals(bc):
    rng = np.random.default_rng(19)
    for n in range(1, 6):
        for _ in range(10):
            st = _rand_state(rng, n)
            assert max(lax_consistency_residual(st, bc, j)
                       for j in range(1, n + 1)) < 1e-12
            assert monodromy_evolution_residual(st, bc) < 1e-12


def test_lax_residual_negative_control():
    rng = np.random.default_rng(23)
    st = _rand_state(rng, 3)
    bc = Open(0.3, 0.7)
    assert lax_consistency_residual(st, bc, 3, boundary_shift=(0.0, 0.1)) > 1e-3
    assert lax_consistency_residual(st, bc, 1, boundary_shift=(0.1, 0.0)) > 1e-3
    # vacuum state: residual exactly zero
    vac = LatticeState((0.0, 0.0), (0.0, 0.0))
    assert lax_consistency_residual(vac, Periodic(), 1) == 0.0


def test_trace_conservation_structure():
    rng = np.random.default_rng(29)
    st = _rand_state(rng, 4)
    # periodic: d(tr T)/dt vanishes identically since M_{N+1} = M_1
    n = st.n_sites
    from dstlab.monodromy import _ldot, lax_M

    ls = [lax_L(st, k) for k in range(1, n + 1)]
    total = None
    for k in range(1, n + 1):
        term = _ldot(st, Periodic(), k)
        for m in range(k - 1, 0, -1):
            term = term @ ls[m - 1]
        for m in range(k + 1, n + 1):
            term = ls[m - 1] @ term
        total = term if total is None else total + term
    assert total.trace().max_abs() < 1e-12

    # quasiperiodic: the twisted trace is conserved via the C-exchange
    xi = 2.0
    c = boundary_C(xi)
    twisted = total.a11 * c.a11 + total.a22 * c.a22
    st_q = st
    total_q = None
    for k in range(1, n + 1):
        term = _ldot(st_q, Quasiperiodic(xi), k)
        for m in range(k - 1, 0, -1):
            term = term @ ls[m - 1]
        for m in range(k + 1, n + 1):
            term = ls[m - 1] @ term
        total_q = term if total_q is None else total_q + term
    twisted_q = total_q.a11 * c.a11 + total_q.a22 * c.a22
    assert twisted_q.max_abs() < 1e-12


def test_sklyanin_conditions():
    rng = np.random.default_rng(31)
    st = _rand_state(rng, 3)
    for lam in (0.7, -1.3, 2.0 + 0.5j):
        rp, rm, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, lam)
        assert rp < 1e-13 and rm < 1e-13
        _, _, rc = sklyanin_condition_residual(Quasiperiodic(2.0), st, lam)
        assert rc < 1e-13
    # wiring q_{N+1} to theta_+ + 0.5 leaves a defect >= 0.5 |lambda|
    lam = 1.3
    rp, _, _ = sklyanin_condition_residual(Open(0.3, 0.7), st, lam,
                                           boundary_shift=(0.0, 0.5))
    assert rp >= 0.5 * abs(lam) - 1e-12
    with pytest.raises(WrongRegime):
        sklyanin_condition_residual(Periodic(), st, 1.0)


def test_generator_conserved_along_flow():
    from dstlab.verify import conservation_run, initial_state
    from dstlab.lattice import step_rk4
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        drift = conservation_run(4, bc, dt=1e-3, t_final=2.0, seed=3)
        assert drift < 1e-10
        # energy drift along the same kind of run
        st = initial_state(6, bc, seed=3, t_final=10.0)
        h0 = hamiltonian(st, bc)
        worst = 0.0
        for k in range(10000):
            st = step_rk4(st, bc, 1e-3, 1)
            if k % 500 == 0:
                worst = max(worst, abs(hamiltonian(st, bc) - h0) / max(1.0, abs(h0)))
        assert worst < 1e-8


def test_sampled_trajectory_steps_and_blowup():
    from dstlab.errors import NonFiniteState
    from dstlab.lattice import step_rk4
    bc = Periodic()
    st = LatticeState((0.3, -0.2, 0.1), (0.1, 0.25, -0.15))
    samples = list(sampled_trajectory(st, bc, 1e-2, 23, 10))
    assert [s.step for s in samples] == [0, 10, 20, 23]
    assert samples[0].state is st and samples[0].drift == 0.0
    cur = st
    for _ in range(23):
        cur = step_rk4(cur, bc, 1e-2, 1)
    assert samples[-1].state == cur
    assert list(samples[-1].coeffs) == list(np.array(generator(cur, bc).c, dtype=complex))
    drifts = [s.drift for s in samples]
    assert drifts == sorted(drifts) and drifts[-1] > 0
    # blow-up: the error reports how many steps completed before it
    big = LatticeState((10.0, 10.0), (10.0, 10.0))
    done = 0
    with pytest.raises(NonFiniteState):
        cur = big
        for _ in range(10000):
            cur = step_rk4(cur, bc, 0.05, 1)
            done += 1
    assert done > 0
    with pytest.raises(NonFiniteState) as info:
        list(sampled_trajectory(big, bc, 0.05, 10000, 7))
    assert info.value.steps_done == done
    # a finite state whose generator overflows blows up at step 0, after its sample
    huge = LatticeState((1e150, -2e150, 3e150), (2e150, 1e150, -1e150))
    samples = sampled_trajectory(huge, bc, 1e-3, 5, 1)
    first = next(samples)
    assert first.step == 0 and first.state is huge and np.isnan(first.drift)
    with pytest.raises(NonFiniteState) as info:
        next(samples)
    assert info.value.steps_done == 0


def _per_step_samples(state, bc, dt, steps, sample_every):
    """sampled_trajectory's samples from one step_rk4 step per call, as
    (step, state, coeffs, drift) with the floats as repr."""
    from dstlab.lattice import step_rk4
    from dstlab.monodromy import relative_drift

    def sample(k, st, drift):
        c = tuple(map(complex, generator(st, bc).c))
        drift = max(drift, max(relative_drift(c, c0)))
        out.append((k, list(map(repr, st.flat())), list(map(repr, c)), repr(drift)))
        return drift

    c0 = tuple(map(complex, generator(state, bc).c))
    out = []
    drift = sample(0, state, 0.0)
    for k in range(1, steps + 1):
        state = step_rk4(state, bc, dt, 1)
        if k % sample_every == 0 or k == steps:
            drift = sample(k, state, drift)
    return out


@pytest.mark.parametrize("steps, sample_every", [(0, 5), (3, 10), (10, 10), (23, 10),
                                                 (20, 10), (5, 1), (7, 3)])
def test_sampled_blocks_match_per_step_sampling(steps, sample_every):
    st = LatticeState((0.3, -0.2, 0.1 + 0.05j), (0.1, 0.25, -0.15))
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        got = [(s.step, list(map(repr, s.state.flat())), list(map(repr, s.coeffs)),
                repr(s.drift))
               for s in sampled_trajectory(st, bc, 1e-2, steps, sample_every)]
        assert got == _per_step_samples(st, bc, 1e-2, steps, sample_every)


def test_sampled_blowup_counts_single_steps_in_every_block_layout():
    """The blow-up's steps_done is the single-step count whether it falls on
    a block's first step (sample_every = done), its last (done + 1), in the
    shorter last block (steps = done + 1, sample_every = done) or with
    sample_every = 1, in all three regimes."""
    from dstlab.errors import NonFiniteState
    from dstlab.lattice import step_rk4
    start = LatticeState((3.0, 3.0), (3.0, 3.0))
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        cur, done = start, 0
        with pytest.raises(NonFiniteState):
            while True:
                cur = step_rk4(cur, bc, 0.05, 1)
                done += 1
        for sample_every in (1, 2, 7, done - 1, done, done + 1, 2 * done):
            for steps in (done + 1, done + 2, 10 * done + 3):
                with pytest.raises(NonFiniteState) as info:
                    list(sampled_trajectory(start, bc, 0.05, steps, sample_every))
                assert info.value.steps_done == done, (bc, steps, sample_every)


def test_sampled_drift_stays_nan_after_a_nan_generator(monkeypatch):
    from dstlab import monodromy as mod
    real, calls = mod.generator, []

    def generator_nan_at_step_1(state, bc):
        calls.append(state)
        g = real(state, bc)
        return Poly([float("nan")] + g.c[1:]) if len(calls) == 2 else g

    monkeypatch.setattr(mod, "generator", generator_nan_at_step_1)
    st = LatticeState((0.3, -0.2), (0.1, 0.25))
    drifts = [s.drift for s in sampled_trajectory(st, Periodic(), 1e-2, 3, 1)]
    assert drifts[0] == 0.0 and all(np.isnan(d) for d in drifts[1:])


def test_open_generator_poisson_commutes():
    # {tau(l), tau(m)} = 0 by finite differences, 20 random triples
    from dstlab.lattice import poisson_bracket
    rng = np.random.default_rng(37)
    bc = Open(0.3, 0.7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        st = _rand_state(rng, n, 0.8)
        lam, mu = rng.uniform(0.4, 1.5, 2)
        f = lambda s, x=lam: generator(s, bc)(x)
        g = lambda s, x=mu: generator(s, bc)(x)
        assert abs(poisson_bracket(f, g, st)) < 1e-6
