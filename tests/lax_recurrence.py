"""Bit-for-bit reference for monodromy: the Lax recurrence on coefficient
lists, written with slices and zip.

Each row (a, b) of T = L_N ... L_1 becomes (a (lambda + s) + b r, a q + b)
at the next site, with the operations of the Mat2[Poly] product in its
order: 0 + x on a lone product and sums grouped left to right.
dstlab.monodromy emits the same expressions as generated straight-line code,
so every coefficient of the two agrees in type and in its IEEE bits.
"""
from dstlab.poly import Mat2, Poly


def _times_lax(a, b, s, q, r):
    """Row (a, b) of T times L = [[lambda + s, q], [r, 1]]: the coefficient
    lists of a (lambda + s) + b r and a q + b, for len(a) = len(b) or
    len(b) + 1.  The operations and their order are those of the Poly
    product, with its 0 + x on a lone product."""
    new_a = [0 + a[0] * s + b[0] * r]
    new_a += [x + y * s + z * r for x, y, z in zip(a, a[1:], b[1:])]
    new_b = [x * q + y for x, y in zip(a, b)]
    if len(a) > len(b):
        new_a.append(a[-2] + a[-1] * s)
        new_b.append(0 + a[-1] * q)
    new_a.append(a[-1])
    return new_a, new_b


def lax_recurrence(state):
    """T = L_N ... L_1 by the recurrence, starting from the entries of L_N."""
    q, r = state.q, state.r
    a, b = [0 + q[-1] * r[-1], 1], [0 + q[-1]]
    c, d = [0 + r[-1]], [1]
    for qk, rk in zip(q[-2::-1], r[-2::-1]):
        sk = qk * rk
        a, b = _times_lax(a, b, sk, qk, rk)
        c, d = _times_lax(c, d, sk, qk, rk)
    return Mat2(Poly(a), Poly(b), Poly(c), Poly(d))
