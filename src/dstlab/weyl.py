"""Normal-ordered Weyl-algebra engine over exact rationals.

An operator is a finite sum  sum c * prod_i q_i^{a_i} d_i^{b_i}  with the
canonical (anti-normal derivative) order fixed per site, so equality of
operators is equality of term maps.  The defining relation is
[d_i, q_j] = delta_ij; the lattice momentum is realized as r_i = -eta d_i,
giving [q_i, r_j] = eta delta_ij.

The term-product inner loop, and the commutator formed without either
product, live in one pure-Python kernel, dstlab._weylkernel_py, bound here
as `_kernel` (dstlab.quantum uses the same binding).
"""
from __future__ import annotations

from itertools import chain
from math import lcm, perm
from operator import add

from . import _weylkernel_py as _kernel
from ._rat import rat

BACKEND = _kernel.BACKEND


def kernel_backend():
    """Name of the term-product kernel ("python")."""
    return BACKEND


class WeylOp:
    """Immutable normal-ordered operator on an n-site chain."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = dict(terms) if terms else {}
        _kernel.trim(t)
        self.terms = t

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def scalar(cls, n, c):
        if c == 0:
            return cls(n)
        return cls(n, {(0,) * (2 * n): c})

    @classmethod
    def identity(cls, n):
        return cls.scalar(n, 1)

    @classmethod
    def q(cls, n, i):
        key = [0] * (2 * n)
        key[i] = 1
        return cls(n, {tuple(key): 1})

    @classmethod
    def dq(cls, n, i):
        key = [0] * (2 * n)
        key[n + i] = 1
        return cls(n, {tuple(key): 1})

    @classmethod
    def r(cls, n, i, eta):
        """Momentum r_i = -eta d_i, for an int or exact rational eta."""
        key = [0] * (2 * n)
        key[n + i] = 1
        return cls(n, {tuple(key): -eta})

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, WeylOp):
            return self.n == other.n and self.terms == other.terms
        # comparison against a scalar (0, 1, rationals)
        if other == 0:
            return not self.terms
        return self.terms == {(0,) * (2 * self.n): other}

    def __hash__(self):
        raise TypeError("WeylOp is not hashable")

    # -- ring operations ------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            from .errors import SiteCountMismatch
            raise SiteCountMismatch(f"{self.n} vs {other.n} sites")

    def __add__(self, other):
        if not isinstance(other, WeylOp):
            other = WeylOp.scalar(self.n, other)
        self._check(other)
        out = dict(self.terms)
        _kernel.add_into(out, other.terms)
        return WeylOp(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylOp(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WeylOp):
            other = WeylOp.scalar(self.n, other)
        self._check(other)
        out = dict(self.terms)
        _kernel.add_into(out, other.terms, -1)
        return WeylOp(self.n, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return WeylOp(self.n, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out = {}
        _kernel.mul_into(out, self.terms, other.terms, self.n)
        return WeylOp(self.n, out)

    def __rmul__(self, other):
        return WeylOp(self.n, {k: other * c for k, c in self.terms.items()})

    # -- actions and views ----------------------------------------------
    def apply(self, poly):
        """Act on a commuting polynomial {exponent tuple: coeff}.

        q_i multiplies and d_i differentiates: q^a d^b sends the monomial
        x^m (m >= b at every site) to prod_i m_i!/(m_i - b_i)! x^(m - b + a)
        and any monomial below the derivative order b to zero.  The
        coefficients are ints or exact rationals.  The operator and the
        polynomial are each scaled once by the lcm of their denominators,
        so every term-monomial pair adds an int product, and each output
        coefficient is one rational over the product of the two lcms (an
        int when every input coefficient is an int)."""
        n = self.n
        op_den, op_coeffs = _cleared(self.terms.values())
        poly_den, poly_coeffs = _cleared(poly.values())
        monos = list(zip(poly, poly_coeffs))
        acc = {}
        get = acc.get
        for key, c in zip(self.terms, op_coeffs):
            shift = [ai - bi for ai, bi in zip(key[:n], key[n:])]
            orders = [(i, bi) for i, bi in enumerate(key[n:]) if bi]
            for mono, pc in monos:
                w = c * pc
                for i, bi in orders:
                    if mono[i] < bi:
                        break
                    w *= perm(mono[i], bi)
                else:
                    tgt = tuple(map(add, mono, shift))
                    acc[tgt] = get(tgt, 0) + w
        if all(type(c) is int for c in chain(self.terms.values(), poly.values())):
            return {m: c for m, c in acc.items() if c}
        den = op_den * poly_den
        return {m: rat(c, den) for m, c in acc.items() if c}

    def scalar_part(self):
        """Coefficient of the identity term."""
        return self.terms.get((0,) * (2 * self.n), 0)

    def degree_shift_balanced(self):
        """True if every term raises and lowers total degree equally."""
        n = self.n
        return all(sum(k[:n]) == sum(k[n:]) for k in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            c = self.terms[key]
            n = self.n
            facs = [str(c)]
            for i in range(n):
                if key[i]:
                    facs.append(f"q{i+1}" + (f"^{key[i]}" if key[i] > 1 else ""))
            for i in range(n):
                if key[n + i]:
                    facs.append(f"d{i+1}" + (f"^{key[n+i]}" if key[n+i] > 1 else ""))
            bits.append("*".join(facs))
        return " + ".join(bits)


def _cleared(coeffs):
    """(D, [D c for c in coeffs]) with D the lcm of the coefficients'
    denominators, so that every D c is an int."""
    coeffs = list(coeffs)
    dens = [int(c.denominator) for c in coeffs]
    den = lcm(*dens)
    return den, [int(c.numerator) * (den // d) for c, d in zip(coeffs, dens)]


def commutator(a, b):
    """[a, b] = a b - b a, formed by the kernel without either product."""
    a._check(b)
    return WeylOp(a.n, _kernel.commutator_into({}, a.terms, b.terms, a.n))
