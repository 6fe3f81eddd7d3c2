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

For the length of one call, commutator_into packs each exponent key into
one int, `width` bits per slot: one bit more than the largest exponent
needs, which holds the sum of any two, so the packed sum of two keys is the
packed key sum (no slot carries).  A reordering by k at site i subtracts k from the q_i
and the d_i slot, never more than either holds, so no slot borrows.  The
sites a pair must reorder come from bit masks of the sites where a key has
q and where it has d.  The keys are unpacked to tuples once, at the end.
mul_into keeps tuple keys: packing did not pay for its own conversions
there.

This is the only kernel; dstlab.weyl imports it as `_kernel`.
"""
from itertools import islice, product
from math import comb, perm
from operator import add

BACKEND = "python"

_EXP_CACHE = {}


def _expansion(b, a):
    out = _EXP_CACHE.get((b, a))
    if out is None:
        out = tuple((k, comb(b, k) * perm(a, k)) for k in range(min(a, b) + 1))
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
    if not (n and ta and tb):
        return out                                     # scalars commute
    width = max(max(k) for t in (ta, tb) for k in t).bit_length() + 1
    shifts = range(0, 2 * n * width, width)
    steps = [(1 << (width * i)) | (1 << (width * (n + i))) for i in range(n)]
    sites = {}                                         # site mask -> its sites
    moves = {}                                         # (i, b, a) -> ((k * steps[i], w), ...)

    def packed(t):
        # (key, coeff, packed key, mask of the sites with q, mask of those with d)
        return [(k, c, sum(e << s for e, s in zip(k, shifts)),
                 sum(1 << i for i in range(n) if k[i]),
                 sum(1 << i for i in range(n) if k[n + i]))
                for k, c in t.items()]

    def move(i, b, a):
        # the k >= 1 terms of d_i^b q_i^a as (packed step, weight)
        terms = moves.get((i, b, a))
        if terms is None:
            terms = moves[i, b, a] = tuple((k * steps[i], w) for k, w in _expansion(b, a)[1:])
        return terms

    acc = {}
    get = acc.get
    right = packed(tb)
    for ka, ca, pa, qa, da in packed(ta):
        for kb, cb, pb, qb, db in right:
            need_ab, need_ba = da & qb, qa & db        # d of one key meets q of the other
            if not (need_ab or need_ba):
                continue
            c = ca * cb
            base = pa + pb
            for need, left, right_key, sc in ((need_ab, ka, kb, c), (need_ba, kb, ka, -c)):
                if not need:
                    continue
                need_sites = sites.get(need)
                if need_sites is None:
                    need_sites = sites[need] = tuple(i for i in range(n) if need >> i & 1)
                if len(need_sites) == 1:
                    i = need_sites[0]
                    for step, w in move(i, left[n + i], right_key[i]):
                        key = base - step
                        acc[key] = get(key, 0) + sc * w
                    continue
                lists = [((0, 1),) + move(i, left[n + i], right_key[i]) for i in need_sites]
                for combo in islice(product(*lists), 1, None):  # the first is all k = 0
                    coef, key = sc, base
                    for step, w in combo:
                        coef *= w
                        key -= step
                    acc[key] = get(key, 0) + coef
    slot = (1 << width) - 1
    for key, c in acc.items():
        key = tuple(key >> s & slot for s in shifts)
        out[key] = out.get(key, 0) + c
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
