"""Classical r-matrix algebras by finite differences."""
import numpy as np
import pytest

from dstlab import rmatrix
from dstlab.errors import CoincidingSpectralParams, ZeroSpectralParam
from dstlab.lattice import LatticeState, Open
from dstlab.monodromy import dressed_U, lax_L, mat2_array, monodromy
from dstlab.poly import Poly, poly_mat
from dstlab.rmatrix import (PERM, bracket_table, cism1_residual,
                            cism2_residual_U, classical_r,
                            reflection_residual_K)

LAM = Poly([0, 1])


def _array(m):
    """A Mat2 or a 4x4 tuple of rows as a complex numpy array."""
    rows = ((m.a11, m.a12), (m.a21, m.a22)) if hasattr(m, "a11") else m
    return np.array(rows, dtype=complex)


def _rand_state(rng, n, scale=1.0):
    return LatticeState(tuple(rng.uniform(-scale, scale, n)),
                        tuple(rng.uniform(-scale, scale, n)))


def test_permutation_operator():
    perm = _array(PERM)
    assert np.allclose(perm @ perm, np.eye(4))
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[5, 6], [7, 8]])
    assert np.allclose(perm @ np.kron(a, b) @ perm, np.kron(b, a))
    # the package's kron is numpy's, leg for leg
    a2, b2 = poly_mat(1, 2, 3, 4).eval(0), poly_mat(5, 6, 7, 8).eval(0)
    assert np.array_equal(_array(rmatrix._kron(a2, b2)), np.kron(a, b))


def test_classical_r_values():
    r = lambda lam, mu: _array(classical_r(lam, mu))
    assert np.allclose(r(1.0, 0.0), -_array(PERM))
    assert np.allclose(r(0.3, 0.9), -r(0.9, 0.3))
    assert np.allclose(np.max(np.abs(r(2.0, 1.0))), 2 * np.max(np.abs(r(3.0, 1.0))))
    with pytest.raises(CoincidingSpectralParams):
        classical_r(1.0, 1.0)


def test_cism1_local():
    rng = np.random.default_rng(0)
    for _ in range(20):
        st = _rand_state(rng, 3)
        assert cism1_residual(st, 0.7, -0.3, lambda s: lax_L(s, 2)) < 1e-6
        assert cism1_residual(st, 1.3, 0.4, lambda s: lax_L(s, 1)) < 1e-6
        # ultralocality: disjoint variables give the exact zero table
        table = bracket_table(lambda s: lax_L(s, 1), lambda s: lax_L(s, 3), st, 0.7, -0.3)
        assert np.max(np.abs(_array(table))) == 0.0


def test_cism1_monodromy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        st = _rand_state(rng, 3)
        assert cism1_residual(st, 0.7, -0.3, monodromy) < 1e-5


def test_bracket_table_antisymmetry():
    rng = np.random.default_rng(2)
    st = _rand_state(rng, 2)
    lam, mu = 0.8, -0.5
    t1 = _array(bracket_table(monodromy, monodromy, st, lam, mu))
    t2 = _array(bracket_table(monodromy, monodromy, st, mu, lam))
    # {A_ij(l), B_kl(m)} = -{B_kl(m), A_ij(l)}: swap both tensor legs
    swapped = t2.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.max(np.abs(t1 + swapped)) < 1e-12


def test_reflection_equation_for_boundary_matrices():
    theta = 0.7
    km = poly_mat(theta, LAM, 0.0, theta)
    kp = poly_mat(theta, 0.0, LAM, theta)
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform(0.2, 2.0) + 1j * rng.uniform(-0.5, 0.5)
        mu = rng.uniform(-2.0, -0.2)
        assert reflection_residual_K(km, lam, mu) < 1e-12
        assert reflection_residual_K(kp, lam, mu) < 1e-12


def test_reflection_identity_matrix_trivial():
    k_id = poly_mat(1.0, 0.0, 0.0, 1.0)
    assert reflection_residual_K(k_id, 0.9, 0.4) < 1e-15


def test_reflection_negative_controls():
    # theta I + lambda M with M^2 proportional to I *solves* the algebra,
    # so the genuine control needs a non-involutive lambda-dependence
    theta = 0.7
    sym = poly_mat(theta, LAM, LAM, theta)
    assert reflection_residual_K(sym, 0.9, 0.4) < 1e-12
    bad = poly_mat(theta, LAM, LAM * LAM, theta)
    assert reflection_residual_K(bad, 0.9, 0.4) > 1e-3
    # the printed last-argument variant does not vanish for K_-
    km = poly_mat(theta, LAM, 0.0, theta)
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
    u = _array(mat2_array(dressed_U(st, bc), 0.9))
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
    rng = np.random.default_rng(6)
    st = _rand_state(rng, 2)
    for c in (0.5, 1.0, 2.0):
        lam, mu = 0.7 * c, -0.3 * c
        res = cism1_residual(st, lam, mu, monodromy)
        a = _array(mat2_array(monodromy(st), lam))
        b = _array(mat2_array(monodromy(st), mu))
        r = _array(classical_r(lam, mu))
        rhs = r @ np.kron(a, b) - np.kron(a, b) @ r
        assert res / max(1.0, float(np.max(np.abs(rhs)))) < 1e-9


def _einsum_table(a_fn, b_fn, st):
    """The bracket table as an einsum over per-site gradients: the reference
    `bracket_table` must reproduce."""
    from dstlab.lattice import DEFAULT_FD_STEP, central_differences, relative_steps
    z, n = st.flat(), st.n_sites

    def grads(fn):
        d = np.array(central_differences(lambda w: fn(LatticeState.from_flat(w)), z,
                                         relative_steps(z, DEFAULT_FD_STEP)), dtype=complex)
        return d[:n].reshape(n, 2, 2), d[n:].reshape(n, 2, 2)

    daq, dar = grads(a_fn)
    dbq, dbr = grads(b_fn)
    table = np.einsum("nij,nkl->ikjl", daq, dbr) - np.einsum("nij,nkl->ikjl", dar, dbq)
    bound = (np.einsum("nij,nkl->ikjl", abs(daq), abs(dbr))
             + np.einsum("nij,nkl->ikjl", abs(dar), abs(dbq)))
    return table.reshape(4, 4), bound.reshape(4, 4)


def _complex_products_round_per_term():
    """True when einsum's complex products round each real product as
    Python's complex `*` does; a loop built on fused multiply-add rounds
    once per pair of products instead, which moves the last bit."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    b = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    e = np.einsum("nij,nkl->ikjl", a, b)
    return all(complex(a[0, i, j]) * complex(b[0, k, l]) == e[i, k, j, l]
               for i, j, k, l in np.ndindex(2, 2, 2, 2))


def test_bracket_table_matches_the_einsum_reference():
    bit_for_bit = _complex_products_round_per_term()
    bc = Open(0.3, 0.7)
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for st in (_rand_state(rng, n),
                   LatticeState(tuple(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)),
                                tuple(rng.uniform(-1, 1, n)))):
            for lam, mu in ((0.7, -0.3), (2.1 + 0.3j, 0.5)):
                for matrix in (monodromy, lambda s: dressed_U(s, bc)):
                    table = _array(bracket_table(matrix, matrix, st, lam, mu))
                    ref, bound = _einsum_table(lambda s: mat2_array(matrix(s), lam).entries(),
                                               lambda s: mat2_array(matrix(s), mu).entries(),
                                               st)
                    if bit_for_bit:
                        assert table.tobytes() == ref.tobytes()
                    else:
                        # one rounding per product apart, summed over 2N terms
                        eps = np.finfo(float).eps
                        assert np.all(abs(table - ref) <= 4 * n * eps * bound)


def test_reflection_rhs_takes_r_of_the_sum_from_classical_r():
    from dstlab.poly import Mat2
    from dstlab.rmatrix import _add, _kron, _mm, _sub, quadratic_rhs, reflection_rhs
    rng = np.random.default_rng(8)
    i2 = Mat2.identity()
    for lam, mu in ((0.9, 0.4), (2.1 + 0.3j, 0.5), (-1.2, 0.7)):
        x, y, x_last = (Mat2(*map(complex, rng.normal(size=4) + 1j * rng.normal(size=4)))
                        for _ in range(3))
        rp = tuple(tuple(-p / (lam + mu) for p in row) for row in PERM)
        y2 = _kron(i2, y)
        inline = _sub(_add(quadratic_rhs(lam, mu, x, y), _mm(_mm(_kron(x, i2), rp), y2)),
                      _mm(_mm(y2, rp), _kron(x_last, i2)))
        assert (_array(reflection_rhs(lam, mu, x, y, x_last)).tobytes()
                == _array(inline).tobytes())


def test_each_matrix_is_built_once_per_stencil_state(monkeypatch):
    # N = 3 has 12 stencil states and the centre: 13 builds per residual
    calls = []

    def counted(build):
        def wrapper(*args):
            calls.append(args[0])
            return build(*args)
        return wrapper

    st = _rand_state(np.random.default_rng(9), 3)
    cism1_residual(st, 0.7, -0.3, counted(monodromy))
    assert len(calls) == 13
    calls.clear()
    monkeypatch.setattr(rmatrix, "dressed_U", counted(rmatrix.dressed_U))
    cism2_residual_U(st, Open(0.3, 0.7), 0.9, 0.4)
    assert len(calls) == 13
    assert len(set(calls)) == 13
