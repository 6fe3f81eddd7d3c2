"""Exact normal-ordering engine: ring axioms and action on polynomials."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstlab._rat import rat
from dstlab.errors import SiteCountMismatch
from dstlab.poly import Mat2, Poly
from dstlab.weyl import WeylOp, commutator, kernel_backend, matmul_entries
from dstlab import _weylkernel_py
from tuple_kernel import mul_into as tuple_mul_into


def test_defining_relation():
    q = WeylOp.q(1, 0)
    d = WeylOp.dq(1, 0)
    assert d * q == q * d + 1
    assert commutator(d, q) == WeylOp.identity(1)


def test_reordering_brute_force():
    # d^2 q^2 = q^2 d^2 + 4 q d + 2, checked by applying both sides to x^k
    q = WeylOp.q(1, 0)
    d = WeylOp.dq(1, 0)
    lhs = d * d * q * q
    rhs = q * q * d * d + 4 * q * d + 2
    assert lhs == rhs
    for k in range(5):
        mono = {(k,): rat(1)}
        assert lhs.apply(mono) == rhs.apply(mono)


def test_disjoint_sites_commute():
    q1, d1 = WeylOp.q(2, 0), WeylOp.dq(2, 0)
    q2, d2 = WeylOp.q(2, 1), WeylOp.dq(2, 1)
    assert commutator(q1 * d1, q2 * d2).is_zero()


def test_momentum_commutator():
    for eta in (rat(1), rat(1, 3), rat(-2)):
        q = WeylOp.q(1, 0)
        r = WeylOp.r(1, 0, eta)
        assert commutator(q, r) == WeylOp.scalar(1, eta)


def _rand_op(rng, n, terms=4):
    t = {}
    for _ in range(terms):
        key = tuple(rng.randint(0, 2) for _ in range(2 * n))
        t[key] = rat(rng.randint(-5, 5), rng.randint(1, 4))
    return WeylOp(n, t)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_rand_op(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_apply_composition():
    rng = random.Random(3)
    for _ in range(60):
        a, b = _rand_op(rng, 2), _rand_op(rng, 2)
        p = {(rng.randint(0, 4), rng.randint(0, 4)): rat(rng.randint(-3, 3))
             for _ in range(3)}
        assert (a * b).apply(p) == a.apply(b.apply(p))


def test_scalar_embedding():
    a = WeylOp.q(1, 0) * WeylOp.dq(1, 0)
    assert a + 0 == a
    assert 1 * a == a
    assert a - a == 0
    assert (a * rat(1, 2)) + (a * rat(1, 2)) == a
    assert WeylOp.scalar(1, rat(3, 4)) == rat(3, 4)


def test_site_count_mismatch():
    with pytest.raises(SiteCountMismatch):
        WeylOp.q(1, 0) * WeylOp.q(2, 0)


def test_zero_site_algebra_is_scalar():
    one = WeylOp.scalar(0, rat(5, 3))
    two = WeylOp.scalar(0, rat(3, 5))
    assert one * two == WeylOp.identity(0)


# Property tests of the kernel through WeylOp.  Operators mix exponents up to
# 3 with exact rational coefficients; pure scalars (a lone all-zero key) are
# drawn on purpose, since mul_into takes a separate path for them.

_coeff = st.builds(rat, st.integers(-5, 5).filter(bool), st.integers(1, 4))


def _terms(n, max_exp=3, min_size=0, max_size=5):
    key = st.tuples(*[st.integers(0, max_exp)] * (2 * n))
    return st.dictionaries(key, _coeff, min_size=min_size, max_size=max_size)


def _ops(n):
    scalar = st.dictionaries(st.just((0,) * (2 * n)), _coeff, min_size=1)
    return st.one_of(_terms(n), scalar).map(lambda t: WeylOp(n, t))


_triples = st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n), _ops(n), _ops(n)))
# exponents up to 4..40: many sites reorder by several k at once
_wide_pairs = st.tuples(st.integers(1, 2), st.integers(4, 40)).flatmap(
    lambda ne: st.tuples(*[_terms(*ne, 1, 3).map(lambda t: WeylOp(ne[0], t))] * 2))

# Exponents on both sides of the byte boundary: operands up to 127 pack at
# one byte per slot, 128..300 at two.  A key has at most one slot drawn
# from these, the rest 0..3, so a pair reorders a large exponent at one
# site at most.
_boundary_exp = st.one_of(st.integers(0, 127), st.integers(128, 300),
                          st.sampled_from([127, 128, 255, 256]))


def _boundary_key(n):
    def widen(key, slot, e):
        key = list(key)
        key[slot] = e
        return tuple(key)
    small = st.tuples(*[st.integers(0, 3)] * (2 * n))
    return st.one_of(small, st.builds(widen, small, st.integers(0, 2 * n - 1), _boundary_exp))


def _boundary_ops(n):
    coeff = st.one_of(st.integers(-5, 5).filter(bool), _coeff)
    terms = st.dictionaries(_boundary_key(n), coeff, min_size=1, max_size=3)
    return terms.map(lambda t: WeylOp(n, t))


_boundary_pairs = st.integers(1, 2).flatmap(lambda n: st.tuples(_boundary_ops(n), _boundary_ops(n)))


def _boundary_poly(n):
    # monomials reach past the derivative orders, so large ones act nontrivially
    mono = st.tuples(*[st.one_of(st.integers(0, 6), st.integers(120, 310))] * n)
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=3)


@settings(max_examples=150, deadline=None)
@given(_triples)
def test_products_associative_and_distributive(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert kernel_backend() == "python"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(_ops(n), _ops(n))), st.data())
def test_product_acts_as_composition(ab, data):
    # an oracle independent of the kernel: the action on commuting polynomials
    a, b = ab
    mono = st.tuples(*[st.integers(0, 5)] * a.n)
    p = data.draw(st.dictionaries(mono, st.integers(-3, 3), max_size=4))
    assert (a * b).apply(p) == a.apply(b.apply(p))


@settings(max_examples=60, deadline=None)
@given(_triples, st.integers(-4, 4))
def test_mul_into_factor_scales_the_product(abc, factor):
    a, b, _ = abc
    out = _weylkernel_py.mul_into({}, a.terms, b.terms, a.n, factor)
    assert WeylOp(a.n, out) == (a * b) * factor


@settings(max_examples=150, deadline=None)
@given(_boundary_pairs, st.integers(-3, 3).filter(bool), st.data())
def test_products_match_the_tuple_loop(ab, factor, data):
    # the packed loop, through tuple keys and on operands packed once, against
    # the tuple loop kept in tests/tuple_kernel.py
    a, b = ab
    k, n = _weylkernel_py, a.n
    expected = k.trim(tuple_mul_into({}, a.terms, b.terms, n, factor))
    assert k.trim(k.mul_into({}, a.terms, b.terms, n, factor)) == expected
    size = k.slot_size(a.terms, b.terms)
    assert size == (1 if max(max(key) for t in (a.terms, b.terms) for key in t) < 128 else 2)
    packed = k.mul_into({}, k.pack(a.terms, size), k.pack(b.terms, size), n, factor)
    assert all(type(key) is int for key in packed)
    assert k.trim(k.unpack_into({}, packed, n, size)) == expected
    # the action on commuting polynomials is an oracle independent of both
    p = data.draw(_boundary_poly(n))
    composed = {m: factor * c for m, c in a.apply(b.apply(p)).items()}
    assert WeylOp(n, expected).apply(p) == composed


@settings(max_examples=200, deadline=None)
@given(st.one_of(_triples.map(lambda abc: abc[:2]), _wide_pairs, _boundary_pairs), st.data())
def test_commutator_into_is_both_products_differenced(ab, data):
    # the pairs and the k = 0 terms that commutator_into skips cancel exactly;
    # the two products come from the tuple loop kept in tests/tuple_kernel.py
    a, b = ab
    k = _weylkernel_py
    comm = k.trim(k.commutator_into({}, a.terms, b.terms, a.n))
    both = tuple_mul_into({}, a.terms, b.terms, a.n)
    tuple_mul_into(both, b.terms, a.terms, a.n, -1)
    assert comm == k.trim(both)
    size = k.slot_size(a.terms, b.terms)
    packed = k.commutator_into({}, k.pack(a.terms, size), k.pack(b.terms, size), a.n)
    assert k.trim(k.unpack_into({}, packed, a.n, size)) == comm
    # the action on commuting polynomials is an oracle independent of both
    p = data.draw(_boundary_poly(a.n))
    expected = dict(a.apply(b.apply(p)))
    for m, c in b.apply(a.apply(p)).items():
        expected[m] = expected.get(m, 0) - c
    assert WeylOp(a.n, comm).apply(p) == k.trim(expected)


def _tuple_product(*ops):
    # the chained product by the tuple loop of tests/tuple_kernel.py
    n, k = ops[0].n, _weylkernel_py
    acc = dict(ops[0].terms)
    for op in ops[1:]:
        acc = k.trim(tuple_mul_into({}, acc, op.terms, n))
    return acc


def test_chained_products_cross_the_byte_boundary():
    # q^100 q^100 d^90: the second product's exponent sums pass 127, so the
    # operands are repacked to two bytes per slot on the way
    q100, d90 = WeylOp(1, {(100, 0): 1}), WeylOp(1, {(0, 90): rat(1, 3)})
    assert (q100.packed.size, q100.bound) == (1, 100)
    prod = q100 * q100 * d90
    assert prod.packed.size == 2 and prod.bound == 290
    assert dict(prod.terms) == _tuple_product(q100, q100, d90) == {(200, 90): rat(1, 3)}
    assert prod == WeylOp(1, {(200, 90): rat(1, 3)})
    # d^90 q^100 reorders down to q^10: a bound of 190 packs at two bytes,
    # the same terms built from their map, whose largest exponent is 100, at one
    wide, narrow = d90 * q100, WeylOp(1, _tuple_product(d90, q100))
    assert (wide.packed.size, narrow.packed.size) == (2, 1)
    assert wide == narrow and narrow == wide and wide - narrow == 0
    assert dict(wide.terms) == dict(narrow.terms)
    assert wide != narrow * 2 and wide * 1 != narrow + WeylOp.q(1, 0)


def test_matmul_entries_cross_the_byte_boundary():
    # coefficients q_1^100 and d_1^90: the products that land on a coefficient
    # reach exponent 200, so each is accumulated at two bytes per slot; the
    # entries equal the Mat2 chain's, a zero given as 0 included
    q100, d90 = WeylOp(1, {(100, 0): 1}), WeylOp(1, {(0, 90): rat(1, 3)})
    x = Mat2(Poly([q100, d90]), Poly(), Poly([0, q100]), Poly([WeylOp.identity(1)]))
    entries = matmul_entries(1, x, x)
    for coeffs, chained in zip(entries, (x @ x).entries()):
        assert Poly(coeffs) == chained
        for c in coeffs:
            assert isinstance(c, WeylOp)
            assert c.packed.size == _weylkernel_py.size_for(c.bound)
            assert c.bound >= max((max(key) for key in c.terms), default=0)
    a, b = entries[0][1], entries[2][2]
    assert a.packed.size == b.packed.size == 2
    assert dict((a * b).terms) == _tuple_product(a, b)


@settings(max_examples=80, deadline=None)
@given(_wide_pairs, st.integers(64, 120))
def test_chained_wide_products_match_the_tuple_loop(ab, e):
    # q_1^e a b d_1^e: exponent sums pass 127 along the chain, so products
    # feed products at the size their bound needs; against the tuple loop and
    # the same operator built from its term map at its own size
    a, b = ab
    n = a.n
    qe = WeylOp(n, {(e,) + (0,) * (2 * n - 1): 1})
    de = WeylOp(n, {(0,) * n + (e,) + (0,) * (n - 1): rat(1, e)})
    prod = qe * a * b * de
    expected = _tuple_product(qe, a, b, de)
    assert dict(prod.terms) == expected
    built = WeylOp(n, expected)
    assert prod == built and built == prod
    assert prod.packed.size == _weylkernel_py.size_for(prod.bound) == 2
    assert commutator(qe * a, b) == qe * a * b - b * qe * a


def _apply_stepwise(op, poly):
    # the reference action: one coefficient product per derivative order
    n = op.n
    out = {}
    for key, c in op.terms.items():
        a, b = key[:n], key[n:]
        for mono, pc in poly.items():
            if any(mono[i] < b[i] for i in range(n)):
                continue
            w = pc * c
            for i in range(n):
                for j in range(b[i]):
                    w *= mono[i] - j
            tgt = tuple(mono[i] - b[i] + a[i] for i in range(n))
            out[tgt] = out.get(tgt, 0) + w
    return {m: c for m, c in out.items() if c != 0}


_ints = st.integers(-5, 5).filter(bool)
# ints mixed with rationals of unlike denominators, whose lcm clears them
_mixed = st.one_of(_ints, st.builds(rat, st.integers(-9, 9).filter(bool), st.integers(1, 12)))


def _op_and_poly(n, coeff):
    # monomial exponents 0..4 against derivative orders 0..3: many monomials
    # sit below an operator term's derivative order
    op = st.dictionaries(st.tuples(*[st.integers(0, 3)] * (2 * n)), coeff, max_size=5)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), coeff, max_size=5)
    return st.tuples(op.map(lambda t: WeylOp(n, t)), poly)


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 3), st.sampled_from([_ints, _mixed])).flatmap(
    lambda nc: _op_and_poly(*nc)))
def test_apply_matches_the_stepwise_reference(op_poly):
    # the same coefficients in the same order; each is an int when every
    # input coefficient is one, and otherwise one rational over the cleared
    # denominators, also where the value is whole
    op, poly = op_poly
    got, ref = op.apply(poly), _apply_stepwise(op, poly)
    assert list(got.items()) == list(ref.items())
    ints = all(type(c) is int for c in [*op.terms.values(), *poly.values()])
    assert all(type(c) is (int if ints else type(rat(1))) for c in got.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_of_canonical_pairs(n):
    for i in range(n):
        for j in range(n):
            expected = WeylOp.identity(n) if i == j else WeylOp.zero(n)
            assert commutator(WeylOp.dq(n, i), WeylOp.q(n, j)) == expected
            assert commutator(WeylOp.q(n, j), WeylOp.dq(n, i)) == -expected


def test_euler_operator_degree():
    n = 3
    euler = sum((WeylOp.q(n, i) * WeylOp.dq(n, i) for i in range(n)),
                WeylOp.zero(n))
    assert euler.degree_shift_balanced()
    mono = {(2, 1, 0): rat(1)}
    assert euler.apply(mono) == {(2, 1, 0): rat(3)}
