"""Equations of motion, Hamiltonians, brackets and the RK4 integrator."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies

from dstlab.errors import NewtonDiverged, NonFiniteState, WrongRegime, ZeroXi
from dstlab.lattice import (LatticeState, Open, Periodic,
                            Quasiperiodic, _all_finite, central_differences,
                            coordinate, eom,
                            flow_consistency_residual, hamiltonian, least, newton,
                            poisson_bracket, step_rk4, worst)


def test_eom_periodic_hand_values():
    st = LatticeState((1.0, 2.0), (3.0, 4.0))
    d = eom(st, Periodic())
    assert d.dq == (-1.0, -15.0)
    assert d.dr == (5.0, 29.0)


def test_eom_open_hand_values():
    st = LatticeState((1.0, 2.0), (3.0, 4.0))
    d = eom(st, Open(0.0, 0.0))
    assert d.dq == (-1.0, -16.0)
    assert d.dr == (9.0, 29.0)


def test_eom_zero_momentum_is_shift():
    rng = np.random.default_rng(0)
    for n in (1, 3, 5):
        q = tuple(rng.uniform(-1, 1, n))
        st = LatticeState(q, (0.0,) * n)
        d = eom(st, Periodic())
        assert d.dr == (0.0,) * n
        assert d.dq == q[1:] + (q[0],)


def test_quasiperiodic_closure():
    st = LatticeState((1.0, 2.0), (3.0, 4.0))
    d = eom(st, Quasiperiodic(2.0))
    # q_3 = 2 q_1, r_0 = 2 r_2
    assert d.dq[1] == 2.0 * 1.0 - 16.0
    assert d.dr[0] == -8.0 + 9.0


def test_hamiltonian_hand_values():
    st = LatticeState((1.0, 2.0), (3.0, 4.0))
    assert hamiltonian(st, Periodic()) == -26.5
    # open chain: q2 r1 - (9 + 64)/2 + q1 th- + r2 th+
    assert hamiltonian(st, Open(1.0, 2.0)) == 6.0 - 36.5 + 9.0


def test_hamiltonian_zero_q():
    st = LatticeState((0.0, 0.0, 0.0), (1.0, -2.0, 0.5))
    assert hamiltonian(st, Periodic()) == 0.0
    assert hamiltonian(st, Open(0.3, 0.7)) == 0.5 * 0.7


@pytest.mark.parametrize("bc", [Periodic(), Quasiperiodic(2.0),
                                Quasiperiodic(0.5), Open(0.3, 0.7)])
def test_flow_consistency_all_regimes(bc):
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(50):
            st = LatticeState(tuple(rng.uniform(-1, 1, n)),
                              tuple(rng.uniform(-1, 1, n)))
            assert flow_consistency_residual(st, bc) < 1e-6


def test_canonical_brackets():
    rng = np.random.default_rng(1)
    for n in (1, 2, 4, 6):
        st = LatticeState(tuple(rng.uniform(-1, 1, n)),
                          tuple(rng.uniform(-1, 1, n)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                delta = 1.0 if i == j else 0.0
                assert abs(poisson_bracket(coordinate("q", i), coordinate("r", j), st)
                           - delta) < 1e-9
                assert abs(poisson_bracket(coordinate("q", i), coordinate("q", j), st)) < 1e-9
                assert abs(poisson_bracket(coordinate("r", i), coordinate("r", j), st)) < 1e-9


def test_bracket_antisymmetry_same_stencil():
    rng = np.random.default_rng(5)
    st = LatticeState(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
    h = lambda s: hamiltonian(s, Open(0.3, 0.7))
    g = lambda s: s.q[0] ** 2 * s.r[2] + s.r[0]
    assert abs(poisson_bracket(h, g, st) + poisson_bracket(g, h, st)) < 1e-12
    assert abs(poisson_bracket(h, h, st)) < 1e-12


def test_rk4_local_order():
    rng = np.random.default_rng(2)
    st = LatticeState(tuple(rng.uniform(-0.3, 0.3, 3)),
                      tuple(rng.uniform(-0.3, 0.3, 3)))
    bc = Periodic()
    d = eom(st, bc)
    errs = []
    for dt in (1e-2, 5e-3):
        s1 = step_rk4(st, bc, dt, 1)
        lin = [abs(s1.q[i] - st.q[i] - dt * d.dq[i]) for i in range(3)]
        lin += [abs(s1.r[i] - st.r[i] - dt * d.dr[i]) for i in range(3)]
        errs.append(max(lin))
    # step minus Euler prediction is O(dt^2)
    assert errs[0] / errs[1] > 3.5


def test_rk4_linear_case_matrix_exponential():
    # r = 0 freezes r and the q-flow is the cyclic shift: q(t) = exp(tS) q(0)
    bc = Periodic()
    st = LatticeState((1.0, 0.0), (0.0, 0.0))
    t, dt = 0.5, 1e-3
    cur = st
    for _ in range(int(t / dt)):
        cur = step_rk4(cur, bc, dt, 1)
    assert abs(cur.q[0] - math.cosh(t)) < 1e-10
    assert abs(cur.q[1] - math.sinh(t)) < 1e-10
    assert cur.r == (0.0, 0.0)


def _reference_rates(q, r, bc):
    """The flow's formula as comprehensions: lists (dq, dr) at the tuples (q, r)."""
    q_np1, r_0 = bc.closure(q, r)
    return ([qn1 - qn * qn * rn for qn1, qn, rn in zip(q[1:] + (q_np1,), q, r)],
            [-rm1 + qn * rn * rn for rm1, qn, rn in zip((r_0,) + r[:-1], q, r)])


def _reference_rk4(state, bc, dt):
    """RK4 that rebuilds and validates a LatticeState at every stage, with
    its own copy of the flow's formula."""
    z0 = state.flat()
    m = len(z0)

    def f(z):
        s = LatticeState.from_flat(z)
        dq, dr = _reference_rates(s.q, s.r, bc)
        return dq + dr

    k1 = f(z0)
    k2 = f([z0[i] + 0.5 * dt * k1[i] for i in range(m)])
    k3 = f([z0[i] + 0.5 * dt * k2[i] for i in range(m)])
    k4 = f([z0[i] + dt * k3[i] for i in range(m)])
    z1 = [z0[i] + dt / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(m)]
    return LatticeState.from_flat(z1)


_BLOWUP_REGIMES = (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7))


def test_rk4_blowup_raises():
    """A blow-up raises, at the same step as under the stagewise reference,
    in every regime (after about 1000, 10 and 12 steps)."""
    for bc in _BLOWUP_REGIMES:
        steps = {}
        for name, step in (("fast", lambda s, bc, dt: step_rk4(s, bc, dt, 1)),
                           ("reference", _reference_rk4)):
            cur = LatticeState((3.0, 3.0), (3.0, 3.0))
            with pytest.raises(NonFiniteState):
                for k in range(10000):
                    cur = step(cur, bc, 0.05)
            steps[name] = k
        assert steps["fast"] == steps["reference"] > 0, bc


def test_rk4_blowup_in_a_block_counts_the_steps_before_it():
    """A block reports the steps_done of single steps wherever the blow-up
    falls in it: the first step, the last, or in between."""
    start = LatticeState((3.0, 3.0), (3.0, 3.0))
    for bc in _BLOWUP_REGIMES:
        cur, done = start, 0
        with pytest.raises(NonFiniteState):
            while True:
                cur = step_rk4(cur, bc, 0.05, 1)
                done += 1
        for first, steps, expected in ((start, done + 1, done),   # last step
                                       (start, 3 * done, done),
                                       (cur, 1, 0),               # first step
                                       (cur, 5, 0)):
            with pytest.raises(NonFiniteState) as info:
                step_rk4(first, bc, 0.05, steps)
            assert info.value.steps_done == expected, (bc, steps)


_RK4_CASES = [
    (Periodic(), False),
    (Quasiperiodic(2.0), False),
    (Open(0.3, 0.7), True),
    (Quasiperiodic(-2.0), False),
    # complex closure parameters, which the kernels bind from the regime
    (Quasiperiodic(0.5 + 0.5j), True),
    (Open(0.3 + 0.1j, -0.7j), True),
    # r_1 stays -0.0 while q_1 < 0: dr_1 = -0.0 + q_1 (-0.0)^2 is -0.0
    pytest.param(Open(0.0, -0.7), ((-0.3, -0.2, -0.1), (-0.0, 0.1, 0.0)),
                 id="signed-zero"),
    pytest.param(Open(Fraction(1, 2), 1), ((Fraction(1, 3), 0, Fraction(-1, 5)),
                                           (1, Fraction(1, 4), 0)), id="exact-entries"),
]


def _rk4_starts(start):
    """[(state, steps)]: for start False / True, seeded real / complex
    states of 5, 1, 2, 24 and 300 sites (at N=1 both closure ends come from
    one site; N=300 takes 5 steps, the others 200); else the one (q, r)."""
    if not isinstance(start, bool):
        return [(LatticeState(*start), 200)]
    rng = np.random.default_rng(11)
    starts = []
    for n, steps in ((5, 200), (1, 200), (2, 200), (24, 200), (300, 5)):
        q = rng.uniform(-0.3, 0.3, n)
        r = rng.uniform(-0.3, 0.3, n)
        if start:
            q = q + 1j * rng.uniform(-0.3, 0.3, n)
            r = r + 1j * rng.uniform(-0.3, 0.3, n)
        starts.append((LatticeState(tuple(q), tuple(r)), steps))
    return starts


@pytest.mark.parametrize("bc, start", _RK4_CASES)
def test_rk4_bitwise_equal_to_stagewise_reference(bc, start):
    for first, steps in _rk4_starts(start):
        fast = ref = first
        for _ in range(steps):
            fast = step_rk4(fast, bc, 1e-2, 1)
            ref = _reference_rk4(ref, bc, 1e-2)
            # repr, not ==: 0.0 == -0.0
            assert list(map(repr, fast.flat())) == list(map(repr, ref.flat()))
        assert fast != first
        is_complex = any(isinstance(v, complex) for v in first.flat())
        assert all(type(v) is (complex if is_complex else float) for v in fast.flat())
        if "-0.0" in map(repr, first.flat()):
            assert "-0.0" in map(repr, fast.flat())


@pytest.mark.parametrize("bc, start", _RK4_CASES)
def test_rk4_block_bitwise_equal_to_single_steps(bc, start):
    for first, steps in _rk4_starts(start):
        single = first
        for _ in range(steps):
            single = step_rk4(single, bc, 1e-2, 1)
        block = step_rk4(first, bc, 1e-2, steps)
        assert list(map(repr, block.flat())) == list(map(repr, single.flat()))


@pytest.mark.parametrize("bc", [Periodic(), Quasiperiodic(2.0), Quasiperiodic(0.5 + 0.5j),
                                Open(0.3, 0.7), Open(0.3 + 0.1j, -0.7j)])
def test_eom_bitwise_equal_to_reference_rates(bc):
    # eom runs the rates half of the kernel source that step_rk4 runs
    rng = np.random.default_rng(13)
    for n in (1, 5):
        for is_complex in (False, True):
            q, r = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            if is_complex:
                q, r = q + 1j * rng.uniform(-1, 1, n), r + 1j * rng.uniform(-1, 1, n)
            st = LatticeState(tuple(q), tuple(r))
            d = eom(st, bc)
            ref = _reference_rates(st.q, st.r, bc)
            assert (list(map(repr, d.dq)), list(map(repr, d.dr))) == \
                (list(map(repr, ref[0])), list(map(repr, ref[1])))


def test_unknown_regime_is_refused():
    st = LatticeState((1.0,), (1.0,))
    with pytest.raises(WrongRegime):
        eom(st, object())
    with pytest.raises(WrongRegime):
        step_rk4(st, object(), 1e-3, 1)


def test_rk4_refuses_no_steps_and_a_non_positive_dt():
    st = LatticeState((1.0,), (1.0,))
    for dt, steps in ((1e-3, 0), (1e-3, -1), (0.0, 1), (-1e-3, 1), (float("nan"), 1)):
        with pytest.raises(ValueError):
            step_rk4(st, Periodic(), dt, steps)


def test_all_finite_edge_cases():
    inf, nan = float("inf"), float("nan")
    assert _all_finite((1e308, 1e308))      # the sum overflows, the entries do not
    assert _all_finite((complex(1e308, -1e308), complex(1e308, -1e308)))
    assert _all_finite((1.0, 2.0 + 1j, 3))
    for z in ((inf,), (nan,), (inf, -inf), (complex(1, inf),), (1e308, 1e308, nan)):
        assert not _all_finite(z), z
    assert _all_finite((Fraction(1, 3), Fraction(-7, 2)))
    assert _all_finite((Fraction(10 ** 400, 3), 10 ** 400))   # beyond float range


def test_state_entries_become_plain_numbers():
    st = LatticeState((np.float64(0.5), np.complex128(1 + 2j)), (np.float32(0.25), 3))
    assert [type(v) for v in st.flat()] == [float, complex, float, int]
    assert st.q == (0.5, 1 + 2j) and st.r == (0.25, 3)
    st = LatticeState(np.array([0.5, 1.5]), [2.0, 3.0])
    assert st.q == (0.5, 1.5) and st.r == (2.0, 3.0)
    assert all(type(v) is float for v in st.flat())
    with pytest.raises(NonFiniteState):
        LatticeState((np.float64("inf"),), (0.0,))


def test_state_validation():
    with pytest.raises(ValueError):
        LatticeState((1.0,), (1.0, 2.0))
    with pytest.raises(NonFiniteState):
        LatticeState((float("nan"),), (0.0,))
    with pytest.raises(ZeroXi):
        Quasiperiodic(0.0)


def test_single_site_all_regimes():
    st = LatticeState((0.4,), (-0.2,))
    for bc in (Periodic(), Quasiperiodic(3.0), Open(0.1, 0.2)):
        d = eom(st, bc)
        assert len(d.dq) == 1
        assert flow_consistency_residual(st, bc) < 1e-6
    # periodic closure at N=1 reads q_2 = q_1, r_0 = r_1
    d = eom(st, Periodic())
    assert d.dq[0] == 0.4 - 0.4 ** 2 * (-0.2)


def test_complex_states_supported():
    st = LatticeState((0.1 + 0.2j, -0.3j), (0.05 - 0.1j, 0.2))
    for bc in (Periodic(), Quasiperiodic(2.0), Open(0.3, 0.7)):
        assert flow_consistency_residual(st, bc) < 1e-6


def test_central_differences_on_a_cubic():
    # f = a^3 + a b c: the central difference of a^3 is 3 a^2 + h^2, and
    # that of the multilinear term is exact
    def f(w):
        a, b, c = w
        return a ** 3 + a * b * c

    z = [0.5, -1.25, 2.0]
    steps = [1e-3, 2e-3, 4e-3]
    d = central_differences(f, z, steps)
    exact = [3 * 0.5 ** 2 + (-1.25) * 2.0, 0.5 * 2.0, 0.5 * (-1.25)]
    assert abs(d[0] - exact[0] - steps[0] ** 2) < 1e-9
    assert d[1] == pytest.approx(exact[1], abs=1e-12)
    assert d[2] == pytest.approx(exact[2], abs=1e-12)
    assert z == [0.5, -1.25, 2.0]

    # a tuple-valued f gives one tuple per coordinate, differenced entry by
    # entry as the scalar is
    da = central_differences(lambda w: (f(w), 2 * w[1]), z, steps)
    assert all(type(x) is tuple and len(x) == 2 for x in da)
    assert [x[0] for x in da] == d
    assert np.allclose([x[1] for x in da], [0.0, 2.0, 0.0], rtol=0, atol=1e-12)
    assert z == [0.5, -1.25, 2.0]


def test_non_finite_difference_quotient():
    from dstlab.errors import NonFiniteDerivative
    st = LatticeState((1.0,), (1.0,))
    bad = lambda s: float("inf") if s.q[0] > 1.0 else 0.0
    f = lambda s: s.r[0]
    with pytest.raises(NonFiniteDerivative):
        poisson_bracket(bad, f, st)


def test_non_finite_entry_of_a_matrix_quotient():
    # one NaN entry of a tuple-valued observable fails the bracket as a
    # non-finite scalar does, whichever side it is on
    from dstlab.errors import NonFiniteDerivative
    st = LatticeState((0.5, -0.2), (0.3, 0.9))
    bad = lambda s: (s.q[0], 1.0, 2.0, float("nan"))
    good = lambda s: (s.q[0] * s.r[0], s.q[1], s.r[1], 1.0)
    for f, g in ((bad, good), (good, bad), (bad, lambda s: s.r[0])):
        with pytest.raises(NonFiniteDerivative):
            poisson_bracket(f, g, st)
    table = poisson_bracket(good, good, st)
    assert [len(row) for row in table] == [4] * 4 and np.all(np.isfinite(table))
    # each entry is the scalar bracket of its pair of entries
    for u in range(4):
        for v in range(4):
            assert table[u][v] == poisson_bracket(lambda s: good(s)[u], lambda s: good(s)[v], st)


def _flow_vector(z, bc):
    from dstlab.verify import _flow_rates
    return np.array(_flow_rates(z, bc), dtype=complex)


def _flow_jacobian(z, bc):
    """The flow's Jacobian at z by the package's difference stencil."""
    return np.column_stack(central_differences(lambda w: _flow_vector(w, bc), z,
                                               [1e-7] * len(z)))


def test_open_chain_equilibrium_is_elliptic():
    from dstlab.verify import equilibrium_state, initial_state
    bc = Open(0.3, 0.7)
    z = equilibrium_state(6, bc)
    assert float(np.max(np.abs(_flow_vector(z, bc)))) < 1e-12
    eigs = np.linalg.eigvals(_flow_jacobian(z, bc))
    assert float(np.max(np.abs(eigs.real))) < 1e-5
    st = initial_state(6, bc, seed=42)
    assert st.n_sites == 6


# An equilibrium of the open chain at N = 6, theta = (0.3, 0.7), found by
# Newton's method and kept to four digits: reference data for the closed form.
_NEWTON_EQ_N6 = [
    -2.2565 + 0.0j, 0.0 - 1.8566j, 1.5275 + 0.0j, 0.0 + 1.2568j,
    1.0341 + 0.0j, 0.0 - 0.8508j,
    0.0 - 0.3646j, -0.4432 + 0.0j, 0.0 + 0.5386j, -0.6547 + 0.0j,
    0.0 - 0.7957j, -0.9671 + 0.0j,
]


def test_newton_equilibrium_has_the_closed_form():
    # p_n = q_n r_n = +-p with p imaginary, p^8 s_1...s_6 = theta_+ theta_-,
    # q_1 = theta_+ / P and r_6 = theta_- / P with P = p_1...p_6
    z = np.array(_NEWTON_EQ_N6)
    q, r = z[:6], z[6:]
    p_n = q * r
    a = (0.3 * 0.7) ** (1 / 8)
    assert np.max(np.abs(p_n ** 2 + a ** 2)) < 1e-3
    big_p = np.prod(p_n)
    assert abs(q[0] * big_p - 0.7) < 1e-3 and abs(r[-1] * big_p - 0.3) < 1e-3


@pytest.mark.parametrize("theta", [(0.3, 0.7), (-1.0, 2.0), (2.0, 3.0), (0.3, -0.7)])
def test_open_chain_equilibrium_is_a_diagonalizable_elliptic_point(theta):
    # the spectrum p {+-2 sin(k pi/(N+2))} and +-2p with N/2-dimensional
    # eigenspaces, from the docstring's derivation, read off the flow Jacobian
    from dstlab.errors import DstlabError
    from dstlab.verify import equilibrium_state
    bc = Open(*theta)
    for n in [*range(1, 9), 16, 24]:
        if n % 2:
            with pytest.raises(DstlabError, match="odd"):
                equilibrium_state(n, bc)
            continue
        z = equilibrium_state(n, bc)
        assert float(np.max(np.abs(_flow_vector(z, bc)))) <= 1e-12 * max(1, np.max(np.abs(z)))
        jac = _flow_jacobian(z, bc)
        p = z[0] * z[n]
        assert abs(p.real) < 1e-12 * abs(p)
        assert abs(p) == pytest.approx(abs(theta[0] * theta[1]) ** (1 / (n + 2)))
        simple = [2 * math.sin(k * math.pi / (n + 2)) for k in range(1, n // 2 + 1)]
        expected = sorted([*simple, *(-x for x in simple), *[2.0, -2.0] * (n // 2)])
        eigs = np.linalg.eigvals(jac) / p
        assert np.max(np.abs(eigs.imag)) < 1e-7
        assert np.allclose(sorted(eigs.real), expected, atol=1e-6)
        eye = np.eye(2 * n)
        for mu in (2 * p, -2 * p):
            assert np.linalg.matrix_rank(jac - mu * eye, tol=1e-6 * abs(p)) == 2 * n - n // 2


@pytest.mark.parametrize("n, theta", [(1, (0.3, 0.7)), (3, (0.3, 0.7)), (6, (0.0, 0.7))])
def test_open_chain_without_equilibria_is_refused_before_the_flow_is_evaluated(
        n, theta, monkeypatch):
    from dstlab import verify
    from dstlab.errors import DstlabError

    def eom(*args):
        raise AssertionError("the flow was evaluated")

    monkeypatch.setattr(verify, "eom", eom)
    with pytest.raises(DstlabError):
        verify.initial_state(n, Open(*theta), seed=1)


def test_open_chain_without_couplings_rests_at_the_vacuum():
    from dstlab.verify import equilibrium_state
    for n in (1, 4):
        assert equilibrium_state(n, Open(0.0, 0.0)) == [0j] * (2 * n)


@given(strategies.lists(strategies.floats(allow_nan=False, allow_infinity=False)),
       strategies.data())
def test_residual_folds_keep_a_nan_wherever_it_falls(values, data):
    # on finite values the folds are the builtins, to the bit
    assert repr(worst(values)) == repr(max(values, default=0.0))
    assert repr(least(values)) == repr(min(values, default=0.0))
    at = data.draw(strategies.integers(0, len(values)))
    with_nan = values[:at] + [float("nan")] + values[at:]
    assert math.isnan(worst(with_nan)) and math.isnan(least(with_nan))
    assert math.isnan(worst(iter(with_nan)))
    assert worst([]) == least([]) == 0.0


def _square_roots(z):
    return [z[0] * z[0] - 4.0, z[1] * z[1] - 9.0]


def test_newton_converges_and_counts_its_steps():
    jacobians = []

    def jacobian(z):
        jacobians.append(z)
        return [[2 * z[0], 0.0], [0.0, 2 * z[1]]]

    z, res = newton(_square_roots, [1.0, 1.0], jacobian, 1e-12, 50, 10.0)
    assert np.allclose(z, [2.0, 3.0], rtol=0, atol=1e-12) and res <= 1e-12
    assert len(jacobians) > 0
    # a start on the root takes no step
    jacobians.clear()
    newton(_square_roots, [2.0, 3.0], jacobian, 1e-12, 50, 10.0)
    assert jacobians == []


def test_newton_shortens_a_long_step_to_max_step():
    seen = []

    def f(z):
        seen.append(z)
        return [z[0] - 10.0]

    z, _ = newton(f, [0.0], lambda z: [[1.0]], 1e-12, 50, 1.0)
    # the full step of 10 is cut to 1: the first iterate is 1, then nine more
    assert seen[1][0] == 1.0
    assert z[0] == 10.0 and len(seen) == 11


@pytest.mark.parametrize("f, jacobian, max_iter, message", [
    (lambda z: [z[0] - 1.0], lambda z: [[0.0]], 50, "Singular matrix"),
    (lambda z: [z[0] - 1.0], lambda z: [[1e-310]], 50, "non-finite Newton step"),
    (lambda z: [z[0] * 1e308 * 1e308], lambda z: [[1.0]], 50, "overflow"),
    (lambda z: [complex(1.7e308, 1.7e308)], lambda z: [[1.0]], 50, "absolute value too large"),
    (lambda z: [1.0 / (z[0] - 0.5)], lambda z: [[1.0]], 50, "division by zero"),
    # no iteration at all, even from the root itself
    (lambda z: [z[0] - 0.5], lambda z: [[1.0]], 0, "after 0 iterations"),
])
def test_newton_failures_are_newton_diverged(f, jacobian, max_iter, message):
    with pytest.raises(NewtonDiverged, match=message):
        newton(f, [0.5], jacobian, 1e-12, max_iter, 1.0)


def test_lu_factor_gives_numpy_determinant_and_solve():
    from dstlab.lattice import _lu_solve, lu_factor
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 9):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lu, order, sign = lu_factor(a.tolist())
        assert sorted(order) == list(range(n))
        det = sign * math.prod(row[k] for k, row in enumerate(lu))
        assert abs(det - np.linalg.det(a)) <= 1e-12 * abs(np.linalg.det(a))
        x = _lu_solve(a.tolist(), b.tolist())
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=0)
    # a zero pivot column gives the determinant 0 and no solve
    singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]]
    lu, _, sign = lu_factor(singular)
    assert sign * math.prod(row[k] for k, row in enumerate(lu)) == 0
    with pytest.raises(NewtonDiverged, match="zero pivot"):
        _lu_solve([[0.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
