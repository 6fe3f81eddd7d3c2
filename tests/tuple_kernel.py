"""Independent oracle for the kernel's product: the reordering loop on tuple
keys.

Each term pair adds its plain key sum, and each site where the left key has
d and the right key has q is reordered with
d^b q^a = sum_k C(b,k) a!/(a-k)! q^{a-k} d^{b-k}, on lists of exponents.
This shares nothing with dstlab._weylkernel_py's packed keys, site flags or
move tables.
"""
from itertools import islice, product
from math import comb, perm
from operator import add


def _expansion(b, a):
    return [(k, comb(b, k) * perm(a, k)) for k in range(min(a, b) + 1)]


def _reordered_into(out, base, need, d_left, q_right, n, c):
    """Accumulate c times the k >= 1 terms of reordering the d's of the left
    key past the q's of the right one at the sites `need`; base is the
    plain key sum."""
    combos = product(*(_expansion(d_left[n + i], q_right[i]) for i in need))
    for combo in islice(combos, 1, None):              # the first is all k = 0
        coef = c
        ee = base[:]
        for i, (k, w) in zip(need, combo):
            coef = coef * w
            ee[i] -= k
            ee[n + i] -= k
        key = tuple(ee)
        out[key] = out.get(key, 0) + coef


def mul_into(out, ta, tb, n, factor=1):
    """Accumulate factor * ta * tb into the term dict `out`."""
    for ka, ca in ta.items():
        ca = ca * factor
        for kb, cb in tb.items():
            c = ca * cb
            base = list(map(add, ka, kb))
            key = tuple(base)                           # the k = 0 term
            out[key] = out.get(key, 0) + c
            need = [i for i in range(n) if ka[n + i] and kb[i]]
            if need:
                _reordered_into(out, base, need, ka, kb, n, c)
    return out
