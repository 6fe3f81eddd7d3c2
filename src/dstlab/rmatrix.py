"""Numerical checks of the classical r-matrix Poisson algebras.

Brackets of matrix entries are taken by `lattice.poisson_bracket`, the
package's one canonical bracket, applied to the matrix-valued functions of
the state (uniform machinery for the site Lax matrix, the monodromy and the
dressed open-chain matrix); the r-matrix side is plain tensor algebra, with
r(lambda, mu) written once in `classical_r`.
Tensor-leg ordering: a 4x4 matrix acts on e1(x)e1, e1(x)e2, e2(x)e1,
e2(x)e2, and the bracket table stores {A_ij(lambda), B_kl(mu)} at row
2i+k, column 2j+l (0-based).
"""
from __future__ import annotations

import numpy as np

from .errors import CoincidingSpectralParams, WrongRegime, ZeroSpectralParam
from .lattice import Open, poisson_bracket
from .monodromy import boundary_K, lax_L, mat2_array, monodromy
from .poly import adjugate_neg

PERM = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def classical_r(lam, mu):
    """r(lambda, mu) = -P / (lambda - mu)."""
    if lam == mu:
        raise CoincidingSpectralParams("lambda == mu")
    return -PERM / (lam - mu)


def bracket_table(a_fn, b_fn, state):
    """4x4 table of {A_ij, B_kl} at row (i,k), column (j,l).

    A gets two trailing unit axes, so the bracket's products broadcast to the
    tensor [i, j, k, l]; the transpose puts its legs in table order."""
    table = poisson_bracket(lambda s: a_fn(s).reshape(2, 2, 1, 1), b_fn, state)
    return table.transpose(0, 2, 1, 3).reshape(4, 4)


def _kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def quadratic_rhs(lam, mu, a, b):
    """[r(lambda, mu), A (x) B]: the right side of the quadratic algebra."""
    r = classical_r(lam, mu)
    ab = _kron(a, b)
    return r @ ab - ab @ r


def reflection_rhs(lam, mu, x, y, x_last):
    """[r(l-m), X (x) Y] + X1 r(l+m) Y2 - Y2 r(l+m) X1': the right side of the
    reflection algebra for X = X(l), Y = Y(m), with X' the argument of the
    final X1 factor."""
    i2 = np.eye(2)
    rp = classical_r(lam, -mu)
    y2 = _kron(i2, y)
    return (quadratic_rhs(lam, mu, x, y) + _kron(x, i2) @ rp @ y2
            - y2 @ rp @ _kron(x_last, i2))


def cism1_residual(state, lam, mu, level="monodromy", n=None, m=None):
    """Defect of the quadratic Poisson algebra {A(l) (x), A(m)} = [r, A(l) x A(m)].

    level="local" checks the site Lax matrices L_n, L_m (zero RHS for n != m);
    level="monodromy" checks the full monodromy matrix.
    """
    if lam == mu:
        raise CoincidingSpectralParams("lambda == mu")
    if level == "local":
        if n is None or m is None:
            raise ValueError("local level needs site indices n and m")
        a_fn = lambda s: mat2_array(lax_L(s, n), lam)
        b_fn = lambda s: mat2_array(lax_L(s, m), mu)
    elif level == "monodromy":
        a_fn = lambda s: mat2_array(monodromy(s), lam)
        b_fn = lambda s: mat2_array(monodromy(s), mu)
    else:
        raise ValueError(f"unknown level {level!r}")
    lhs = bracket_table(a_fn, b_fn, state)
    if level == "local" and n != m:
        return float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - quadratic_rhs(lam, mu, a_fn(state), b_fn(state)))))


def reflection_residual_K(k_fn, lam, mu, last_arg="lambda"):
    """Defect of the classical reflection equation for a state-independent K(lambda).

    [r(l-m), K(l) x K(m)] + K1(l) r(l+m) K2(m) - K2(m) r(l+m) K1(last)

    last_arg selects the spectral argument of the final K1 factor: "lambda"
    is the standard algebra (and the one the triangular boundary matrices
    satisfy); "mu" is also computable for comparison.
    """
    if lam == mu:
        raise CoincidingSpectralParams("lambda == mu")
    if lam == -mu:
        raise CoincidingSpectralParams("lambda == -mu")
    kl = np.asarray(k_fn(lam), dtype=complex)
    km = np.asarray(k_fn(mu), dtype=complex)
    expr = reflection_rhs(lam, mu, kl, km, kl if last_arg == "lambda" else km)
    return float(np.max(np.abs(expr)))


def dressed_U(state, bc, lam):
    """U(lambda) = T(lambda) K_-(lambda) T^{-1}(-lambda), evaluated numerically.

    T^{-1}(-lambda) is restored from the adjugate by the scalar (-lambda)^N.
    """
    if not isinstance(bc, Open):
        raise WrongRegime("dressed_U needs the open regime")
    if lam == 0:
        raise ZeroSpectralParam("lambda == 0")
    n = state.n_sites
    t = monodromy(state)
    k_minus, _ = boundary_K(bc)
    u = mat2_array(t, lam) @ mat2_array(k_minus, lam) @ mat2_array(adjugate_neg(t), lam)
    return u / (-lam) ** n


def cism2_residual_U(state, bc, lam, mu):
    """Defect of the reflection-type Poisson algebra for the dressed matrix U:

    {U1(l), U2(m)} = [r(l-m), U(l) x U(m)] + U1(l) r(l+m) U2(m)
                                           - U2(m) r(l+m) U1(l)
    """
    if lam in (mu, -mu):
        raise CoincidingSpectralParams("lambda in {mu, -mu}")
    if lam == 0 or mu == 0:
        raise ZeroSpectralParam("adjugate normalization needs lambda, mu != 0")
    a_fn = lambda s: dressed_U(s, bc, lam)
    b_fn = lambda s: dressed_U(s, bc, mu)
    lhs = bracket_table(a_fn, b_fn, state)
    ul = a_fn(state)
    rhs = reflection_rhs(lam, mu, ul, b_fn(state), ul)
    return float(np.max(np.abs(lhs - rhs)))
