"""Pure-Python kernel for the normal-ordered Weyl-algebra product.

Terms are dicts mapping exponent keys (a_1..a_n, b_1..b_n) -> coefficient,
encoding c * prod_i q_i^{a_i} d_i^{b_i}.  Multiplication reorders each site
with  d^b q^a = sum_k C(b,k) * a!/(a-k)! * q^{a-k} d^{b-k}.

The k = 0 term is the plain key sum with weight 1; _reordered_into forms
the k >= 1 terms, and mul_into adds the key sum itself.  commutator_into
forms ta * tb - tb * ta without either product: a term pair that needs no
reordering in one order gives the plain key sum in that order, and the
k = 0 term of every reordering is that same key with the same coefficient,
so both cancel against the other order and neither is formed; only the
k >= 1 terms of each order that reorders are accumulated.

This is the only kernel; dstlab.weyl imports it as `_kernel`.
"""
from itertools import islice, product
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


def _reordered_into(out, base, need, d_left, q_right, n, c):
    """Accumulate c times the k >= 1 terms of reordering the d's of the left
    key past the q's of the right one at the sites `need`; base is the
    plain key sum."""
    if len(need) == 1:
        i = need[0]
        for k, w in _expansion(d_left[n + i], q_right[i])[1:]:
            ee = base[:]
            ee[i] -= k
            ee[n + i] -= k
            key = tuple(ee)
            out[key] = out.get(key, 0) + c * w
        return
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
            key = tuple(base)                           # the k = 0 term
            out[key] = out.get(key, 0) + c
            _reordered_into(out, base, need, ka, kb, n, c)
    return out


def commutator_into(out, ta, tb, n):
    """Accumulate ta * tb - tb * ta into the term dict `out`."""
    # per right key: the sites where it has q (met by the left key's d in
    # ta * tb) and where it has d (meeting the left key's q in tb * ta)
    right = [(kb, cb, [i for i in range(n) if kb[i]], [i for i in range(n) if kb[n + i]])
             for kb, cb in tb.items()]
    for ka, ca in ta.items():
        for kb, cb, q_sites, d_sites in right:
            need_ab = [i for i in q_sites if ka[n + i]]
            need_ba = [i for i in d_sites if ka[i]]
            if not (need_ab or need_ba):
                continue
            c = ca * cb
            base = list(map(add, ka, kb))
            if need_ab:
                _reordered_into(out, base, need_ab, ka, kb, n, c)
            if need_ba:
                _reordered_into(out, base, need_ba, kb, ka, n, -c)
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
