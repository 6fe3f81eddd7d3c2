"""Classical r-matrix algebras by finite differences."""
import numpy as np
import pytest

from dstlab.errors import CoincidingSpectralParams, ZeroSpectralParam
from dstlab.lattice import LatticeState, Open
from dstlab.rmatrix import (PERM, bracket_table, cism1_residual,
                            cism2_residual_U, classical_r, dressed_U,
                            reflection_residual_K)


def _rand_state(rng, n, scale=1.0):
    return LatticeState(tuple(rng.uniform(-scale, scale, n)),
                        tuple(rng.uniform(-scale, scale, n)))


def test_permutation_operator():
    assert np.allclose(PERM @ PERM, np.eye(4))
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    assert np.allclose(PERM @ np.kron(a, b) @ PERM, np.kron(b, a))


def test_classical_r_values():
    assert np.allclose(classical_r(1.0, 0.0), -PERM)
    assert np.allclose(classical_r(0.3, 0.9), -classical_r(0.9, 0.3))
    assert np.allclose(np.max(np.abs(classical_r(2.0, 1.0))),
                       2 * np.max(np.abs(classical_r(3.0, 1.0))))
    with pytest.raises(CoincidingSpectralParams):
        classical_r(1.0, 1.0)


def test_cism1_local():
    rng = np.random.default_rng(0)
    for _ in range(20):
        st = _rand_state(rng, 3)
        assert cism1_residual(st, 0.7, -0.3, "local", 2, 2) < 1e-6
        assert cism1_residual(st, 1.3, 0.4, "local", 1, 1) < 1e-6
        # ultralocality: disjoint variables give the exact zero table
        assert cism1_residual(st, 0.7, -0.3, "local", 1, 3) == 0.0


def test_cism1_monodromy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        st = _rand_state(rng, 3)
        assert cism1_residual(st, 0.7, -0.3, "monodromy") < 1e-5


def test_bracket_table_antisymmetry():
    from dstlab.monodromy import monodromy
    from dstlab.rmatrix import _mat2_eval
    rng = np.random.default_rng(2)
    st = _rand_state(rng, 2)
    lam, mu = 0.8, -0.5
    a_fn = lambda s: _mat2_eval(monodromy(s), lam)
    b_fn = lambda s: _mat2_eval(monodromy(s), mu)
    t1 = bracket_table(a_fn, b_fn, st)
    t2 = bracket_table(b_fn, a_fn, st)
    # {A_ij(l), B_kl(m)} = -{B_kl(m), A_ij(l)}: swap both tensor legs
    swapped = t2.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.max(np.abs(t1 + swapped)) < 1e-12


def test_reflection_equation_for_boundary_matrices():
    theta = 0.7
    km = lambda l: np.array([[theta, l], [0.0, theta]])
    kp = lambda l: np.array([[theta, 0.0], [l, theta]])
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform(0.2, 2.0) + 1j * rng.uniform(-0.5, 0.5)
        mu = rng.uniform(-2.0, -0.2)
        assert reflection_residual_K(km, lam, mu) < 1e-12
        assert reflection_residual_K(kp, lam, mu) < 1e-12


def test_reflection_identity_matrix_trivial():
    k_id = lambda l: np.eye(2)
    assert reflection_residual_K(k_id, 0.9, 0.4) < 1e-15


def test_reflection_negative_controls():
    # theta I + lambda M with M^2 proportional to I *solves* the algebra,
    # so the genuine control needs a non-involutive lambda-dependence
    theta = 0.7
    sym = lambda l: np.array([[theta, l], [l, theta]])
    assert reflection_residual_K(sym, 0.9, 0.4) < 1e-12
    bad = lambda l: np.array([[theta, l], [l * l, theta]])
    assert reflection_residual_K(bad, 0.9, 0.4) > 1e-3
    # the printed last-argument variant does not vanish for K_-
    km = lambda l: np.array([[theta, l], [0.0, theta]])
    assert reflection_residual_K(km, 0.9, 0.4, last_arg="mu") > 1e-3
    with pytest.raises(CoincidingSpectralParams):
        reflection_residual_K(km, 0.5, -0.5)


def test_cism2_dressed():
    bc = Open(0.3, 0.7)
    rng = np.random.default_rng(4)
    for _ in range(20):
        st = _rand_state(rng, 1)
        assert cism2_residual_U(st, bc, 0.9, 0.4) < 1e-5
    for _ in range(5):
        st = _rand_state(rng, 3, 0.8)
        assert cism2_residual_U(st, bc, 0.9, 0.4) < 1e-4
    with pytest.raises(ZeroSpectralParam):
        cism2_residual_U(_rand_state(rng, 1), bc, 0.0, 0.4)
    with pytest.raises(CoincidingSpectralParams):
        cism2_residual_U(_rand_state(rng, 1), bc, 0.4, -0.4)


def test_cism2_degenerate_nilpotent():
    # theta_+- = 0 and vacuum state: U is nilpotent and every term vanishes
    bc = Open(0.0, 0.0)
    st = LatticeState((0.0,), (0.0,))
    u = dressed_U(st, bc, 0.9)
    assert np.allclose(u @ u, 0)
    assert cism2_residual_U(st, bc, 0.9, 0.4) < 1e-12


def test_stencil_convergence_order_on_cubic_witness():
    # the lattice identities are multilinear per coordinate, hence exact for
    # the central stencil; the order is certified on a cubic observable
    from dstlab.lattice import poisson_bracket
    rng = np.random.default_rng(5)
    st = _rand_state(rng, 2)
    f = lambda s: s.q[0] ** 3
    g = lambda s: s.r[0]
    exact = 3.0 * st.q[0] ** 2
    e1 = abs(poisson_bracket(f, g, st, h_scale=1e-3) - exact)
    e2 = abs(poisson_bracket(f, g, st, h_scale=5e-4) - exact)
    assert e1 / e2 > 3.5  # order >= 1.8


def test_residual_scale_stability():
    from dstlab.monodromy import monodromy
    from dstlab.rmatrix import _kron, _mat2_eval
    rng = np.random.default_rng(6)
    st = _rand_state(rng, 2)
    for c in (0.5, 1.0, 2.0):
        lam, mu = 0.7 * c, -0.3 * c
        res = cism1_residual(st, lam, mu, "monodromy")
        a = _mat2_eval(monodromy(st), lam)
        b = _mat2_eval(monodromy(st), mu)
        r = classical_r(lam, mu)
        rhs = r @ _kron(a, b) - _kron(a, b) @ r
        assert res / max(1.0, float(np.max(np.abs(rhs)))) < 1e-9
