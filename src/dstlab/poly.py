"""Dense univariate polynomials in the spectral parameter, over any coefficient ring.

Coefficients may be floats, complex numbers, exact rationals, or
noncommutative operators; the only requirements are +, * and comparison
with 0.  Products keep the left factor's coefficients on the left, so the
same class serves both scalar and operator-valued matrices.
"""
from __future__ import annotations

from .lattice import worst


def _is_zero(c):
    try:
        return c == 0
    except TypeError:  # pragma: no cover
        return False


class Poly:
    """Coefficients stored lowest degree first; trailing zeros trimmed."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and _is_zero(c[-1]):
            c.pop()
        self.c = c

    @classmethod
    def const(cls, value):
        return cls([value])

    @property
    def degree(self):
        return len(self.c) - 1

    def coeff(self, k):
        """Coefficient of lambda^k (0 beyond the stored degree)."""
        return self.c[k] if 0 <= k < len(self.c) else 0

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.c == other.c
        if _is_zero(other):
            return not self.c
        return self.c == [other]

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        n = max(len(self.c), len(other.c))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.c])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return Poly.const(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([a * other for a in self.c])
        if not self.c or not other.c:
            return Poly()
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if _is_zero(a):
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        # scalar * poly; scalars multiply coefficients from the left
        return Poly([other * a for a in self.c])

    def __call__(self, x):
        """Horner evaluation; x must commute with the coefficients."""
        acc = 0
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def flip(self):
        """Substitution lambda -> -lambda."""
        return Poly([a if k % 2 == 0 else -a for k, a in enumerate(self.c)])

    def shift_up(self, k):
        """Multiply by lambda^k."""
        if not self.c:
            return Poly()
        return Poly([0] * k + self.c)

    def map(self, f):
        return Poly([f(a) for a in self.c])

    def max_abs(self):
        return worst(abs(a) for a in self.c)

    def __repr__(self):
        return f"Poly({self.c!r})"


class Mat2:
    """2x2 matrix over any ring (numbers, Poly, operators)."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def diag(cls, a, d):
        return cls(a, 0, 0, d)

    def __matmul__(self, other):
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    __mul__ = __matmul__

    def __add__(self, other):
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other):
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __neg__(self):
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def trace(self):
        return self.a11 + self.a22

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def map(self, f):
        return Mat2(f(self.a11), f(self.a12), f(self.a21), f(self.a22))

    def eval(self, x):
        """Evaluate Poly entries at x (constants pass through)."""
        def ev(e):
            return e(x) if isinstance(e, Poly) else e
        return self.map(ev)

    def max_abs(self):
        return worst(e.max_abs() if isinstance(e, Poly) else abs(e) for e in self.entries())

    def __repr__(self):
        return f"Mat2({self.a11!r}, {self.a12!r}, {self.a21!r}, {self.a22!r})"


def adjugate_neg(t):
    """sigma2 T^t(-lambda) sigma2 = [[t22(-l), -t12(-l)], [-t21(-l), t11(-l)]]
    for a Mat2 of Poly entries, without reordering (operator) coefficients.

    Equals det(T)(-lambda) * T^{-1}(-lambda) when the coefficients commute;
    for the monodromy the determinant is (-lambda)^N.
    """
    return Mat2(t.a22.flip(), -t.a12.flip(), -t.a21.flip(), t.a11.flip())


def poly_mat(a11, a12, a21, a22):
    """Mat2 with every entry coerced to Poly."""
    def co(e):
        return e if isinstance(e, Poly) else Poly.const(e)
    return Mat2(co(a11), co(a12), co(a21), co(a22))
