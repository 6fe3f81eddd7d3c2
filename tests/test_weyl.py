"""Exact normal-ordering engine: ring axioms and action on polynomials."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstlab._rat import rat
from dstlab.errors import SiteCountMismatch
from dstlab.weyl import WeylOp, commutator, kernel_backend
from dstlab import _weylkernel_py


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

def _ops(n):
    key = st.tuples(*[st.integers(0, 3)] * (2 * n))
    coeff = st.builds(rat, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    general = st.dictionaries(key, coeff, max_size=5)
    scalar = st.dictionaries(st.just((0,) * (2 * n)), coeff, min_size=1)
    return st.one_of(general, scalar).map(lambda t: WeylOp(n, t))


_triples = st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n), _ops(n), _ops(n)))


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


@settings(max_examples=200, deadline=None)
@given(_triples, st.data())
def test_commutator_into_is_both_products_differenced(abc, data):
    # the pairs and the k = 0 terms that commutator_into skips cancel exactly
    a, b, _ = abc
    k = _weylkernel_py
    comm = k.trim(k.commutator_into({}, a.terms, b.terms, a.n))
    both = k.mul_into({}, a.terms, b.terms, a.n)
    k.mul_into(both, b.terms, a.terms, a.n, -1)
    assert comm == k.trim(both)
    # mul_into shares the reordering with commutator_into, so check the
    # action on commuting polynomials too, an oracle independent of both
    mono = st.tuples(*[st.integers(0, 6)] * a.n)
    p = data.draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=4))
    expected = dict(a.apply(b.apply(p)))
    for m, c in b.apply(a.apply(p)).items():
        expected[m] = expected.get(m, 0) - c
    assert WeylOp(a.n, comm).apply(p) == k.trim(expected)


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
