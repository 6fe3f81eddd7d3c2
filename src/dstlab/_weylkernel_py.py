"""Pure-Python kernel for the normal-ordered Weyl-algebra product.

Terms are dicts mapping exponent keys (a_1..a_n, b_1..b_n) -> coefficient,
encoding c * prod_i q_i^{a_i} d_i^{b_i}.  Multiplication reorders each site
with  d^b q^a = sum_k C(b,k) * a!/(a-k)! * q^{a-k} d^{b-k}.

The k = 0 term is the plain key sum with weight 1.  One loop,
_product_loop, forms every product: per term pair the plain key sum, then
the k >= 1 terms at the sites the pair reorders.  mul_into runs it once.
commutator_into forms ta * tb - tb * ta without either product: it runs the
loop over both orders, the second negated, without the plain key sums,
since those are the same key with the same coefficient in either order and
cancel; a pair that reorders in neither order adds nothing.

Packed keys.  The loop runs on keys packed into one int, `size` whole bytes
per slot, little-endian in key order: at one byte per slot a key packs as
int.from_bytes(bytes(key), "little") and unpacks as
tuple(p.to_bytes(2 n, "little")).  A slot is one byte while every packed
exponent is at most 127 (slot_size gives the fewest bytes whose top bit no
exponent sets), so that
  * the sum of two exponents fits in the slot: the packed sum of two keys is
    the packed key sum;
  * adding 0x7f to a slot sets its top bit exactly when it is nonzero, so one
    add and one mask, (p + 0x7f7f..) >> 7 & 0x0101.., flag the sites where a
    key has q and where it has d.  A pair reorders at the sites where the d
    flags of the left key meet the q flags of the right one;
  * a reordering by k at site i subtracts k from the q_i and the d_i slot,
    never more than either holds, so no slot borrows.
Wider exponents take more bytes per slot in the same loop.  The k >= 1
terms of a reordering depend only on the exponents it reorders, so they are
kept per layout, keyed by the left key's d slots and the right key's q
slots at those sites, masked into one int.

pack gives a Packed term dict, which carries its slot size; repack moves
one to a wider size, slot by slot, without forming tuple keys.  On two
Packed operands of one size, mul_into and commutator_into accumulate
packed keys into `out`.  An operand's slots must not have their top bit set,
and the result's slots must hold the exponent sums: a caller that feeds a
product into a second product packs at a size whose top bit no exponent sum
sets.  dstlab.weyl.WeylOp holds its terms this way, with an upper bound on
its exponents that picks the size, so its products, sums and commutators,
and the exact checks of dstlab.quantum, run on packed keys throughout.
commutator_into takes Packed operands only.  On tuple-keyed dicts mul_into
packs both operands, runs the loop and unpacks the result into `out`; no
library caller uses that entry, which dstbench's kernel micro-benchmark and
the tests call.
An int key hashes without walking a tuple, which also speeds add_into.

This is the only kernel; dstlab.weyl imports it as `_kernel`.
"""
from itertools import islice, product
from math import comb, perm

BACKEND = "python"

_LAYOUTS = {}


class Packed(dict):
    """A term dict on packed keys of `size` bytes per slot (see pack)."""

    __slots__ = ("size",)


def _expansion(b, a):
    """(k, C(b, k) a!/(a-k)!) for k = 0..min(a, b): the terms of d^b q^a.
    Its one caller, `_moves`, runs once per layout and reordering signature,
    whose table keeps the result."""
    return tuple((k, comb(b, k) * perm(a, k)) for k in range(min(a, b) + 1))


def top_exponent(*terms):
    """The largest exponent in the keys of these tuple-keyed term dicts (0
    for none)."""
    top = 0
    for t in terms:
        for key in t:
            if key and max(key) > top:
                top = max(key)
    return top


def size_for(top):
    """Bytes per slot whose top bit no exponent up to `top` sets."""
    return top.bit_length() // 8 + 1


def slot_size(*terms):
    """Bytes per slot that pack every key of these tuple-keyed term dicts:
    the fewest whose top bit no exponent sets."""
    return size_for(top_exponent(*terms))


def pack(t, size):
    """The term dict t on packed keys of `size` bytes per slot, as Packed."""
    out = Packed()
    out.size = size
    if size == 1:
        for key, c in t.items():
            out[int.from_bytes(bytes(key), "little")] = c
    else:
        for key, c in t.items():
            out[int.from_bytes(b"".join(e.to_bytes(size, "little") for e in key), "little")] = c
    return out


def repack(t, n, size):
    """The Packed term dict t, on 2n slots, at the wider `size` bytes per
    slot: each slot's bytes are padded with zero bytes above them."""
    out = Packed()
    out.size = size
    old = t.size
    width, pad = 2 * n * old, bytes(size - old)
    for p, c in t.items():
        raw = p.to_bytes(width, "little")
        out[int.from_bytes(b"".join(raw[j:j + old] + pad for j in range(0, width, old)),
                           "little")] = c
    return out


def unpack_keys(t, n, size):
    """The keys of the term dict t on packed keys of `size` bytes per slot,
    as exponent tuples in t's order."""
    width = 2 * n * size
    if size == 1:
        return [tuple(p.to_bytes(width, "little")) for p in t]
    return [tuple(int.from_bytes(raw[j:j + size], "little") for j in range(0, width, size))
            for raw in (p.to_bytes(width, "little") for p in t)]


def unpack_into(out, t, n, size):
    """Accumulate the term dict t on packed keys of `size` bytes per slot
    into `out` on tuple keys."""
    get = out.get
    for key, c in zip(unpack_keys(t, n, size), t.values()):
        old = get(key)
        out[key] = c if old is None else old + c
    return out


def _layout(n, size):
    """(d offset in bits, flag addend, flag shift, flag mask, sites, moves)
    for 2n slots of `size` bytes; sites and moves are filled as keys are met.
    sites maps a mask of site flags to (the sites' (q shift, d shift),
    the d slots' mask, the q slots' mask).  moves maps the d exponents of a
    left key and the q exponents of a right key at the sites they reorder,
    masked into one int, to the k >= 1 terms as (packed step, weight): the
    sites are those where both are nonzero."""
    lay = _LAYOUTS.get((n, size))
    if lay is None:
        bits = 8 * size
        ones = sum(1 << (bits * j) for j in range(2 * n))
        lay = _LAYOUTS[n, size] = (bits * n, ones * ((1 << (bits - 1)) - 1), bits - 1,
                                   ones, {}, {})
    return lay


def _sites(need, half, bits):
    """The sites flagged in `need` as (q shift, d shift), and the masks of
    their d slots and of their q slots."""
    slot = (1 << bits) - 1
    sites = tuple((s, s + half) for s in range(0, half, bits) if need >> s & 1)
    return sites, sum(slot << ds for _, ds in sites), sum(slot << qs for qs, _ in sites)


def _moves(sites, left, right, slot):
    """The k >= 1 terms of reordering the d's of `left` past the q's of
    `right` at `sites`, as (packed step, weight)."""
    lists = [tuple((k * ((1 << qs) | (1 << ds)), w)
                   for k, w in _expansion(left >> ds & slot, right >> qs & slot))
             for qs, ds in sites]
    out = []
    for combo in islice(product(*lists), 1, None):     # the first is all k = 0
        step, weight = 0, 1
        for s, w in combo:
            step += s
            weight *= w
        out.append((step, weight))
    return tuple(out)


def _product_loop(out, ta, tb, n, factor, plain):
    """Accumulate factor * ta * tb on packed keys into `out`; without the
    plain key sums (the k = 0 terms) unless `plain`."""
    size = ta.size
    if tb.size != size:
        raise ValueError(f"operands packed at {size} and {tb.size} bytes per slot")
    half, low, shift, ones, sites_of, moves = _layout(n, size)
    get = out.get
    right = [(pb, cb, (pb + low) >> shift & ones) for pb, cb in tb.items()]
    for pa, ca in ta.items():
        if factor != 1:
            ca = ca * factor
        da = ((pa + low) >> shift & ones) >> half       # the d flags, at the q slots
        for pb, cb, fb in right:
            need = da & fb                              # d of pa meets q of pb
            if not (need or plain):
                continue
            c = ca * cb
            base = pa + pb
            if plain:
                old = get(base)
                out[base] = c if old is None else old + c
                if not need:
                    continue
            at = sites_of.get(need)
            if at is None:
                at = sites_of[need] = _sites(need, half, shift + 1)
            sig = pa & at[1] | pb & at[2]
            terms = moves.get(sig)
            if terms is None:
                terms = moves[sig] = _moves(at[0], pa, pb, (1 << (shift + 1)) - 1)
            for step, w in terms:
                key = base - step
                old = get(key)
                out[key] = c * w if old is None else old + c * w
    return out


def mul_into(out, ta, tb, n, factor=1):
    """Accumulate factor * ta * tb into the term dict `out`: on packed keys
    for two Packed operands, else on tuple keys."""
    if type(ta) is Packed:
        return _product_loop(out, ta, tb, n, factor, True)
    size = slot_size(ta, tb)
    acc = _product_loop({}, pack(ta, size), pack(tb, size), n, factor, True)
    return unpack_into(out, acc, n, size)


def commutator_into(out, ta, tb, n):
    """Accumulate ta * tb - tb * ta on packed keys into the term dict `out`,
    from two Packed operands of one size.  The plain key sums of the two
    orders cancel, so each order adds only its k >= 1 terms."""
    _product_loop(out, ta, tb, n, 1, False)
    return _product_loop(out, tb, ta, n, -1, False)


def add_into(out, t, factor=1):
    """Accumulate factor * t into `out`."""
    get = out.get
    if factor == 1:
        for k, c in t.items():
            out[k] = get(k, 0) + c
    elif factor == -1:
        for k, c in t.items():
            out[k] = get(k, 0) - c
    else:
        for k, c in t.items():
            out[k] = get(k, 0) + c * factor
    return out


def trim(t):
    """Drop exactly-zero coefficients in place.  A dict that cancelled
    whole, as a passing check's residual does, is cleared in one pass, and
    the keys to drop are only listed when some coefficient is zero."""
    values = t.values()
    if not any(values):
        t.clear()
    elif 0 in values:
        for k in [k for k, c in t.items() if c == 0]:
            del t[k]
    return t
