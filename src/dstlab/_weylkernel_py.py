"""Pure-Python kernel for the normal-ordered Weyl-algebra product.

Terms are dicts mapping exponent keys (a_1..a_n, b_1..b_n) -> coefficient,
encoding c * prod_i q_i^{a_i} d_i^{b_i}.  Multiplication reorders each site
with  d^b q^a = sum_k C(b,k) * a!/(a-k)! * q^{a-k} d^{b-k}.

This is the only kernel; dstlab.weyl imports it as `_kernel`.
"""
from itertools import product
from math import comb
from operator import add

BACKEND = "python"

_EXP_CACHE = {}


def _falling(a, k):
    out = 1
    for j in range(k):
        out *= a - j
    return out


def _expansion(b, a):
    out = _EXP_CACHE.get((b, a))
    if out is None:
        out = tuple((k, comb(b, k) * _falling(a, k)) for k in range(min(a, b) + 1))
        _EXP_CACHE[(b, a)] = out
    return out


def mul_into(out, ta, tb, n, factor=1):
    """Accumulate factor * ta * tb into the term dict `out`."""
    if len(tb) == 1 and not any(next(iter(tb))):       # ta times a scalar
        c = next(iter(tb.values())) * factor
        for ka, ca in ta.items():
            out[ka] = out.get(ka, 0) + ca * c
        return out
    if len(ta) == 1 and not any(next(iter(ta))):       # a scalar times tb
        c = next(iter(ta.values())) * factor
        for kb, cb in tb.items():
            out[kb] = out.get(kb, 0) + c * cb
        return out
    # the q-part of each right key, once per call: the sites where it has q
    right = [(kb, cb, [i for i in range(n) if kb[i]]) for kb, cb in tb.items()]
    for ka, ca in ta.items():
        if factor != 1:
            ca = ca * factor
        d_sites = ka[n:]
        for kb, cb, q_sites in right:
            c = ca * cb
            need = [i for i in q_sites if d_sites[i]]
            if not need:
                key = tuple(map(add, ka, kb))
                out[key] = out.get(key, 0) + c
                continue
            base = list(map(add, ka, kb))
            if len(need) == 1:
                i = need[0]
                for k, w in _expansion(d_sites[i], kb[i]):
                    ee = base[:]
                    ee[i] -= k
                    ee[n + i] -= k
                    key = tuple(ee)
                    out[key] = out.get(key, 0) + c * w
                continue
            for combo in product(*(_expansion(d_sites[i], kb[i]) for i in need)):
                coef = c
                ee = base[:]
                for i, (k, w) in zip(need, combo):
                    coef = coef * w
                    ee[i] -= k
                    ee[n + i] -= k
                key = tuple(ee)
                out[key] = out.get(key, 0) + coef
    return out


def add_into(out, t, factor=1):
    """Accumulate factor * t into `out`."""
    if factor == 1:
        for k, c in t.items():
            out[k] = out.get(k, 0) + c
    else:
        for k, c in t.items():
            out[k] = out.get(k, 0) + c * factor
    return out


def trim(t):
    """Drop exactly-zero coefficients in place."""
    dead = [k for k, c in t.items() if c == 0]
    for k in dead:
        del t[k]
    return t
