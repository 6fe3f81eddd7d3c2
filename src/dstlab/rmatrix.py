"""Numerical checks of the classical r-matrix Poisson algebras.

The checks take matrix polynomials of the state: functions mapping a
LatticeState to a Mat2 of Poly, such as `lax_L` at a site, `monodromy` and
`dressed_U` (the one classical dressed matrix, built in `monodromy`), and a
state-independent Mat2 such as a K matrix of `boundary_K`.  They evaluate
them with `mat2_array`, to a Mat2 of complex.  Brackets of matrix entries
are taken by `lattice.poisson_bracket`, the package's one canonical
bracket; the r-matrix side is plain tensor algebra, with r(lambda, mu)
written once in `classical_r`.
Tensor-leg ordering: a 4x4 matrix, a tuple of four rows, acts on e1(x)e1,
e1(x)e2, e2(x)e1, e2(x)e2, and the bracket table stores {A_ij(lambda),
B_kl(mu)} at row 2i+k, column 2j+l (0-based).
"""
from __future__ import annotations

import functools

from .errors import CoincidingSpectralParams, ZeroSpectralParam
from .lattice import poisson_bracket, worst
from .monodromy import dressed_U, mat2_array
from .poly import Mat2

PERM = ((1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1))
_I2 = Mat2.identity()


def max_abs(m):
    """The largest |entry| of a 4x4 matrix (a NaN wins, as in `worst`)."""
    return worst(abs(x) for row in m for x in row)


def _scaled(m, c):
    return tuple(tuple(x / c for x in row) for row in m)


def _sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mm(a, b):
    """The matrix product of two 4x4 matrices."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _kron(a, b):
    """A (x) B for Mat2 a and b: row 2i+k, column 2j+l holds A_ij B_kl."""
    rows = lambda m: ((m.a11, m.a12), (m.a21, m.a22))
    return tuple(tuple(x * y for x in ra for y in rb) for ra in rows(a) for rb in rows(b))


def classical_r(lam, mu):
    """r(lambda, mu) = -P / (lambda - mu)."""
    if lam == mu:
        raise CoincidingSpectralParams("lambda == mu")
    return tuple(tuple(-p / (lam - mu) for p in row) for row in PERM)


def bracket_table(a, b, state, lam, mu):
    """4x4 table of {A_ij(lam), B_kl(mu)} at row (i,k), column (j,l), for
    matrix polynomials a(s) and b(s) of the state.

    Both gradients visit the same stencil states, so each matrix is built
    once per stencil state and evaluated there at lam and mu (the memo lives
    for this call only).  The bracket of the four entries of A with the four
    of B, each a sum over the sites, is taken at row 2i+j, column 2k+l and
    moved to table order."""
    build = functools.cache(lambda fn, s: fn(s))
    table = poisson_bracket(lambda s: mat2_array(build(a, s), lam).entries(),
                            lambda s: mat2_array(build(b, s), mu).entries(), state)
    return tuple(tuple(table[2 * i + j][2 * k + l] for j in (0, 1) for l in (0, 1))
                 for i in (0, 1) for k in (0, 1))


def quadratic_rhs(lam, mu, a, b):
    """[r(lambda, mu), A (x) B]: the right side of the quadratic algebra."""
    r = classical_r(lam, mu)
    ab = _kron(a, b)
    return _sub(_mm(r, ab), _mm(ab, r))


def reflection_rhs(lam, mu, x, y, x_last):
    """[r(l-m), X (x) Y] + X1 r(l+m) Y2 - Y2 r(l+m) X1': the right side of the
    reflection algebra for X = X(l), Y = Y(m), with X' the argument of the
    final X1 factor."""
    rp = classical_r(lam, -mu)
    y2 = _kron(_I2, y)
    return _sub(_add(quadratic_rhs(lam, mu, x, y), _mm(_mm(_kron(x, _I2), rp), y2)),
                _mm(_mm(y2, rp), _kron(x_last, _I2)))


def cism1_residual(state, lam, mu, matrix):
    """Defect of the quadratic Poisson algebra {A(l) (x), A(m)} = [r, A(l) x A(m)]
    for the matrix polynomial A = matrix(s): the monodromy, or `lax_L` at a site.
    """
    lhs = bracket_table(matrix, matrix, state, lam, mu)
    a = matrix(state)
    return max_abs(_sub(lhs, quadratic_rhs(lam, mu, mat2_array(a, lam), mat2_array(a, mu))))


def reflection_residual_K(k, lam, mu, last_arg="lambda"):
    """Defect of the classical reflection equation for a state-independent
    Mat2 K(lambda).

    [r(l-m), K(l) x K(m)] + K1(l) r(l+m) K2(m) - K2(m) r(l+m) K1(last)

    last_arg selects the spectral argument of the final K1 factor: "lambda"
    is the standard algebra (and the one the triangular boundary matrices
    satisfy); "mu" is also computable for comparison.
    """
    if lam == mu:
        raise CoincidingSpectralParams("lambda == mu")
    if lam == -mu:
        raise CoincidingSpectralParams("lambda == -mu")
    kl, km = mat2_array(k, lam), mat2_array(k, mu)
    return max_abs(reflection_rhs(lam, mu, kl, km, kl if last_arg == "lambda" else km))


def cism2_residual_U(state, bc, lam, mu):
    """Defect of the reflection-type Poisson algebra for the dressed matrix
    U(l) = dressed_U(l) / (-l)^N = T(l) K_-(l) T^{-1}(-l):

    {U1(l), U2(m)} = [r(l-m), U(l) x U(m)] + U1(l) r(l+m) U2(m)
                                           - U2(m) r(l+m) U1(l)
    """
    if lam in (mu, -mu):
        raise CoincidingSpectralParams("lambda in {mu, -mu}")
    if lam == 0 or mu == 0:
        raise ZeroSpectralParam("adjugate normalization needs lambda, mu != 0")
    scale_l, scale_m = (-lam) ** state.n_sites, (-mu) ** state.n_sites
    u_fn = lambda s: dressed_U(s, bc)
    lhs = _scaled(bracket_table(u_fn, u_fn, state, lam, mu), scale_l * scale_m)
    u = u_fn(state)
    ul = mat2_array(u, lam).map(lambda e: e / scale_l)
    rhs = reflection_rhs(lam, mu, ul, mat2_array(u, mu).map(lambda e: e / scale_m), ul)
    return max_abs(_sub(lhs, rhs))
