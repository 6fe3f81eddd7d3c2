"""Normal-ordered Weyl-algebra engine over exact rationals.

An operator is a finite sum  sum c * prod_i q_i^{a_i} d_i^{b_i}  with the
canonical (anti-normal derivative) order fixed per site, so equality of
operators is equality of term maps.  The defining relation is
[d_i, q_j] = delta_ij; the lattice momentum is realized as r_i = -eta d_i,
giving [q_i, r_j] = eta delta_ij.

The term-product inner loop, and the commutator formed without either
product, live in one pure-Python kernel, dstlab._weylkernel_py, bound here
as `_kernel` (dstlab.quantum uses the same binding).

Packed terms.  A WeylOp holds its terms as one Packed dict of the kernel,
keyed by exponent tuples packed into ints, with an upper bound on its
largest exponent.  The bound is exact when an operator is built from a
term map, the sum of the operands' bounds for a product or commutator, and
the larger of the two for a sum.  It picks the bytes per slot: a product is
formed at a size whose top bit the product's bound does not set, so every
operator can feed the next product as it is, and an operand is repacked
wider only when the product needs more bytes than it has.  Products, sums
and commutators hand their operands' packed dicts straight to the kernel.
`terms` unpacks the keys to exponent tuples each time it is read, as a
read-only mapping, for the readers that need exponents (repr, the classical
image, the tests).
matmul_entries multiplies 2x2 matrices of operator polynomials in place:
the products that land on one coefficient accumulate in one packed dict.
"""
from __future__ import annotations

from itertools import chain
from math import lcm, perm
from operator import add
from types import MappingProxyType

from . import _weylkernel_py as _kernel
from ._rat import rat

BACKEND = _kernel.BACKEND


def kernel_backend():
    """Name of the term-product kernel ("python")."""
    return BACKEND


def _packed_at(size, terms):
    """A Packed term dict at `size` bytes per slot holding `terms`."""
    out = _kernel.Packed(terms)
    out.size = size
    return out


class WeylOp:
    """Immutable normal-ordered operator on an n-site chain: `packed` is its
    Packed term dict and `bound` an upper bound on its exponents."""

    __slots__ = ("n", "packed", "bound")

    def __init__(self, n, terms=None):
        """The operator of the term map {exponent tuple: coefficient}."""
        terms = terms or {}
        top = _kernel.top_exponent(terms)
        self.n = n
        self.packed = _kernel.trim(_kernel.pack(terms, _kernel.size_for(top)))
        self.bound = top

    @classmethod
    def _of(cls, n, packed, bound):
        """The operator of a Packed dict without exactly-zero terms whose
        exponents are at most `bound`; the dict is not copied."""
        op = object.__new__(cls)
        op.n, op.packed, op.bound = n, packed, bound
        return op

    @property
    def terms(self):
        """The terms on exponent-tuple keys, as a read-only mapping unpacked
        from `packed` when it is read."""
        return MappingProxyType(_kernel.unpack_into({}, self.packed, self.n, self.packed.size))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls._of(n, _packed_at(1, ()), 0)

    @classmethod
    def scalar(cls, n, c):
        if c == 0:
            return cls.zero(n)
        return cls._of(n, _packed_at(1, {0: c}), 0)     # the all-zero key packs to 0

    @classmethod
    def identity(cls, n):
        return cls.scalar(n, 1)

    @classmethod
    def q(cls, n, i):
        return cls._of(n, _packed_at(1, {1 << 8 * i: 1}), 1)

    @classmethod
    def dq(cls, n, i):
        return cls._of(n, _packed_at(1, {1 << 8 * (n + i): 1}), 1)

    @classmethod
    def r(cls, n, i, eta):
        """Momentum r_i = -eta d_i, for an int or exact rational eta."""
        return cls._of(n, _kernel.trim(_packed_at(1, {1 << 8 * (n + i): -eta})), 1)

    # -- predicates ----------------------------------------------------
    def is_zero(self):
        return not self.packed

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        if isinstance(other, WeylOp):
            if self.n != other.n or len(self.packed) != len(other.packed):
                return False
            a, b = _common(self, other, 1)
            return a == b
        # comparison against a scalar (0, 1, rationals)
        if other == 0:
            return not self.packed
        return self.packed == {0: other}

    def __hash__(self):
        raise TypeError("WeylOp is not hashable")

    # -- ring operations ------------------------------------------------
    def _check(self, other):
        if self.n != other.n:
            from .errors import SiteCountMismatch
            raise SiteCountMismatch(f"{self.n} vs {other.n} sites")

    def _plus(self, other, factor):
        """self + factor * other for factor 1 or -1."""
        if not isinstance(other, WeylOp):
            if other == 0:
                return self
            other = WeylOp.scalar(self.n, other)
        self._check(other)
        if not other.packed:
            return self
        a, b = _common(self, other, 1)
        out = _kernel.add_into(_packed_at(a.size, a), b, factor)
        return WeylOp._of(self.n, _kernel.trim(out), max(self.bound, other.bound))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return WeylOp._of(self.n, _packed_at(self.packed.size,
                                             {k: -c for k, c in self.packed.items()}), self.bound)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return self._scaled({k: c * other for k, c in self.packed.items()})
        self._check(other)
        bound = self.bound + other.bound
        a, b = _common(self, other, _kernel.size_for(bound))
        out = _packed_at(a.size, ())
        _kernel.mul_into(out, a, b, self.n)
        return WeylOp._of(self.n, _kernel.trim(out), bound)

    def __rmul__(self, other):
        return self._scaled({k: other * c for k, c in self.packed.items()})

    def _scaled(self, terms):
        """This operator's exponents with the coefficients `terms`."""
        return WeylOp._of(self.n, _kernel.trim(_packed_at(self.packed.size, terms)), self.bound)

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
        n, packed = self.n, self.packed
        op_den, op_coeffs = _cleared(packed.values())
        poly_den, poly_coeffs = _cleared(poly.values())
        monos = list(zip(poly, poly_coeffs))
        acc = {}
        get = acc.get
        for key, c in zip(_kernel.unpack_keys(packed, n, packed.size), op_coeffs):
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
        if all(type(c) is int for c in chain(packed.values(), poly.values())):
            return {m: c for m, c in acc.items() if c}
        den = op_den * poly_den
        return {m: rat(c, den) for m, c in acc.items() if c}

    def scalar_part(self):
        """Coefficient of the identity term."""
        return self.packed.get(0, 0)

    def degree_shift_balanced(self):
        """True if every term raises and lowers total degree equally."""
        n = self.n
        return all(sum(k[:n]) == sum(k[n:]) for k in self.terms)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for key in sorted(terms, key=lambda k: (sum(k), k)):
            c = terms[key]
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


def _common(x, y, size):
    """The packed dicts of operators x and y at one size, at least `size`:
    the wider of the two, the narrower one repacked to it."""
    a, b = x.packed, y.packed
    size = max(a.size, b.size, size)
    if a.size < size:
        a = _kernel.repack(a, x.n, size)
    if b.size < size:
        b = _kernel.repack(b, y.n, size)
    return a, b


def commutator(a, b):
    """[a, b] = a b - b a, formed by the kernel without either product."""
    a._check(b)
    bound = a.bound + b.bound
    x, y = _common(a, b, _kernel.size_for(bound))
    out = _kernel.commutator_into(_packed_at(x.size, ()), x, y, a.n)
    return WeylOp._of(a.n, _kernel.trim(out), bound)


def matmul_entries(n, x, y):
    """The entries of the 2x2 product x y of matrices of operator
    polynomials (coefficients WeylOps or 0), as lists of lambda-coefficients,
    lowest degree first.  The products that land on one coefficient are
    accumulated by the kernel into one packed dict, at the size of the
    largest of their bounds, so no two operators are summed."""
    x, y = [e.c for e in x.entries()], [e.c for e in y.entries()]
    out = []
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        pairs = {}
        for xs, ys in ((x[i], y[j]), (x[i + 1], y[j + 2])):
            for p, a in enumerate(xs):
                for r, b in enumerate(ys):
                    if a and b:
                        pairs.setdefault(p + r, []).append((a, b))
        coeffs = []
        for k in range(max(pairs, default=-1) + 1):
            bound = max((a.bound + b.bound for a, b in pairs.get(k, ())), default=0)
            size = _kernel.size_for(bound)
            acc = _packed_at(size, ())
            for a, b in pairs.get(k, ()):
                a._check(b)
                _kernel.mul_into(acc, *_common(a, b, size), n)
            coeffs.append(WeylOp._of(n, _kernel.trim(acc), bound))
        out.append(coeffs)
    return out
