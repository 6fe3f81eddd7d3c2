"""Exact quantum-chain identities over the Weyl engine."""
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstlab import errors, quantum, verify, weyl
from dstlab._rat import rat
from dstlab.errors import CostGuard, DegreeNotPreserved
from dstlab.poly import Mat2, Poly, adjugate_neg
from dstlab.quantum import (QParams, _boundary_k, _in_units, abcd_operators,
                            abd_commutation_residual, classical_image,
                            degree_basis, dressed_U_op, exchange_check,
                            exchange_residual, hq_candidate,
                            hq_classical_limit_residual, hq_extract,
                            integer_units, q_reflection_dressed,
                            q_reflection_minus, q_reflection_plus, qlax,
                            qmonodromy, qtau, rep_on_degree, rtt_residual,
                            tau_commutes)
from dstlab.verify import suite_quantum
from dstlab.weyl import WeylOp
from mat4_chain import (BiOp, chain_sides, embed_first, embed_second, mat4_eq,
                        transpose_first, transpose_second)
from tuple_kernel import mul_into as tuple_mul_into

P = QParams(1, rat(2, 3), rat(5, 7))
ETAS = [rat(1), rat(1, 2), rat(3)]
XI_PAIRS = [(rat(2, 3), rat(5, 7)), (rat(-1, 4), rat(3, 2))]


def test_qlax_entries_and_classical_limit():
    l = qlax(1, 1, P)
    q = WeylOp.q(1, 0)
    d = WeylOp.dq(1, 0)
    assert l.a11.c == [-1 * (q * d), WeylOp.identity(1)]
    assert l.a12.c == [q]
    assert l.a21.c == [-1 * d]
    assert l.a22.c == [WeylOp.identity(1)]
    with pytest.raises(IndexError):
        qlax(1, 2, P)


def test_qlax_determinant_orderings():
    # a11 a22 - a12 a21 = lambda;  a22 a11 - a21 a12 = lambda + eta
    l = qlax(1, 1, P)
    d1 = l.a11 * l.a22 - l.a12 * l.a21
    d2 = l.a22 * l.a11 - l.a21 * l.a12
    one = WeylOp.identity(1)
    assert d1.degree == 1
    assert d1.coeff(1) == one and d1.coeff(0) == 0
    assert d2.coeff(1) == one and d2.coeff(0) == WeylOp.scalar(1, P.eta)


def test_qmonodromy_structure():
    t1 = qmonodromy(1, P)
    l = qlax(1, 1, P)
    assert t1.a11 == l.a11 and t1.a21 == l.a21
    t2 = qmonodromy(2, P)
    one = WeylOp.identity(2)
    assert t2.a11.coeff(2) == one
    s = sum((WeylOp.q(2, i) * WeylOp.r(2, i, P.eta) for i in range(2)),
            WeylOp.zero(2))
    # subleading coefficient of the (1,1) entry is exactly the number-like sum
    assert t2.a11.coeff(1) == s


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("pair", XI_PAIRS)
def test_rtt_exact(eta, pair):
    p = QParams(eta, *pair)
    for n in (1, 2):
        ok, witness = rtt_residual(n, p)
        assert ok, witness


def test_rtt_cost_guard():
    with pytest.raises(CostGuard):
        rtt_residual(3, P)


def _chain_check(x, n, eta, outer, middle=None):
    """The exchange check multiplied out as the explicit 4x4 chain."""
    lhs, rhs = chain_sides(embed_first(x, n, 0), embed_second(x, n, 1), n, eta,
                           outer, middle)
    return mat4_eq(lhs, rhs)


def test_rtt_negative_control():
    # the R-matrix at 2 eta against T at eta
    t = qmonodromy(1, P)
    ok, witness = exchange_check(t, 1, 2 * P.eta, (1, -1, 0))
    assert not ok and witness is not None
    assert (ok, witness) == _chain_check(t, 1, 2 * P.eta, (1, -1, 0))


@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("pair", XI_PAIRS)
def test_reflection_algebra_exact(eta, pair):
    p = QParams(eta, *pair)
    assert q_reflection_minus(p)[0]
    # shift family: K_+(l+s) pairs with middle argument -(l+m)-2s
    for shift in ((0, 1), (1, 2), (1, 1)):
        assert q_reflection_plus(p, shift=shift)[0]
    for n in (1, 2):
        ok, witness = q_reflection_dressed(n, p)
        assert ok, witness


def test_dressed_reflection_cost_guard():
    with pytest.raises(CostGuard):
        q_reflection_dressed(3, P)
    with pytest.raises(CostGuard):
        hq_extract(4, P)


def test_dressed_reflection_integer_boundary():
    assert q_reflection_dressed(1, QParams(1, 2, 1))[0]


@pytest.mark.parametrize("eta", ETAS)
def test_tau_commutes(eta):
    p = QParams(eta, rat(2, 3), rat(5, 7))
    ok, witness = tau_commutes(1, p)
    assert ok, witness


def test_tau_commutes_two_sites():
    ok, witness = tau_commutes(2, P)
    assert ok, witness


def test_tau_degree_and_leading():
    for n in (1, 2):
        t = qtau(n, P)
        assert t.degree == 2 * n + 2
        sign = -1 if n % 2 else 1
        assert t.coeff(2 * n + 2) == WeylOp.scalar(n, sign)
        assert t.coeff(2 * n + 1) == 0 or t.coeff(2 * n + 1) == WeylOp.zero(n)


def test_tau_block_decomposition():
    # tau = xi_+ (A + D) + (lambda + eta/2) B with (A,B,D) the dressed blocks
    n = 1
    a, b, c, d, _ = abcd_operators(n, P)
    lhs = qtau(n, P)
    from dstlab.poly import Poly
    shift = Poly([rat(P.eta) / 2 * WeylOp.identity(n), WeylOp.identity(n)])
    rhs = (a + d) * P.xi_plus + shift * b
    assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_extraction(n):
    for eta in ETAS:
        p = QParams(eta, rat(2, 3), rat(5, 7))
        h, report = hq_extract(n, p)
        assert report["exact"]
        assert report["ordering"] == "qrqr"
        assert report["constant_shift"] == 0
        assert h == hq_candidate(n, p, "qrqr")


def test_hamiltonian_orderings_differ():
    # at eta != 0 the candidate orderings are genuinely different operators
    assert hq_candidate(1, P, "qrqr") != hq_candidate(1, P, "q2r2")
    assert hq_candidate(1, P, "qrqr") != hq_candidate(1, P, "rqrq")


def test_hamiltonian_classical_limit():
    for n in (1, 2):
        assert hq_classical_limit_residual(n, rat(2, 3), rat(5, 7)) == 0


# (eta, xi_-, xi_+) with eta denominators 1..4 and xi = 0 among the xi
HQ_PARAMS = [QParams(eta, xm, xp)
             for eta in (rat(1), rat(-1, 2), rat(2, 3), rat(5, 4))
             for xm, xp in ((0, 0), (rat(2, 3), rat(5, 7)), (0, rat(-3, 2)))]


def _rational_h(n, p):
    # the Hamiltonian over rationals (units 1): 1/2 sign tau_(2N)
    t = qtau(n, p)
    sign = t.coeff(2 * n + 2).scalar_part()
    assert t.coeff(2 * n + 2) == sign and sign * sign == 1 and t.coeff(2 * n + 1) == 0
    return rat(1, 2) * (sign * t.coeff(2 * n)), sign


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hq_extract_matches_the_rational_path(n):
    for p in HQ_PARAMS:
        h_rat, sign = _rational_h(n, p)
        h, report = hq_extract(n, p)
        assert h == h_rat
        assert report == {"lead_sign": sign, "ordering": "qrqr", "constant_shift": 0,
                          "exact": True}


def _tau_plus(monkeypatch, offset, extra):
    # tau in integer units with the operator extra(N) added at lambda^(2N + offset)
    real = quantum.qtau

    def perturbed(n_sites, params, units=1):
        t = real(n_sites, params, units)
        if units == 1:
            return t
        return t + Poly([0] * (2 * n_sites + offset) + [extra(n_sites)])

    monkeypatch.setattr(quantum, "qtau", perturbed)


@pytest.mark.parametrize("n", [1, 2])
def test_hq_extract_rejections_carry_witness(monkeypatch, n):
    p = QParams(rat(1, 2), rat(2, 3), rat(5, 7))
    d, (_, sign) = integer_units(p), _rational_h(n, p)
    key0, q1_key = (0,) * (2 * n), next(iter(WeylOp.q(n, 0).terms))
    # 1 added to the lead +-1 gives 0 or 2, each `sign` off the identity
    cases = [(2, WeylOp.identity, errors.TauShapeMismatch, key0, sign),
             (1, lambda m: WeylOp.q(m, 0), errors.TauShapeMismatch, q1_key, rat(1, d)),
             (0, lambda m: WeylOp.q(m, 0), errors.NoOrderingMatches, q1_key,
              rat(sign, 2 * d * d))]
    for offset, extra, error, key, difference in cases:
        with monkeypatch.context() as m:
            _tau_plus(m, offset, extra)
            with pytest.raises(error) as info:
                hq_extract(n, p)
        assert info.value.witness == quantum.Witness((2 * n + offset,), key, difference)


def test_hamiltonian_records_fail_with_witness(monkeypatch):
    # a scalar added to tau~_(2N): h is the quoted form up to a constant,
    # so extraction succeeds inexactly, and the eta -> 0 limit of the
    # constant, sign / (2 D^2) at D = integer_units(1/k, xi), misses 0
    _tau_plus(monkeypatch, 0, WeylOp.identity)
    recs = {r.identity_id: r for r in suite_quantum(seed=1)}
    failing = {k for k, r in recs.items() if not r.passed}
    assert failing == {"hamiltonian-extraction-n1", "hamiltonian-extraction-n2",
                       "hamiltonian-extraction-n3", "hamiltonian-classical-limit-n1",
                       "hamiltonian-classical-limit-n2"}
    for n in (1, 2, 3):
        rec = recs[f"hamiltonian-extraction-n{n}"]
        shift = Fraction(rec.parameters["constant_shift"])
        assert rec.parameters["ordering"] == "qrqr" and shift != 0
        assert rec.parameters["witness"] == {"degrees": [2 * n], "key": [0] * (2 * n),
                                             "difference": str(shift), "units": 1}
    for n in (1, 2):
        rec = recs[f"hamiltonian-classical-limit-n{n}"]
        w = rec.parameters["witness"]
        assert rec.parameters["mismatches"] >= 1
        assert w["degrees"] == [] and w["key"] == [0] * (2 * n)
        assert Fraction(w["difference"]) != 0


def test_classical_image_mapping():
    # -1/2 q r q r = -1/2 q^2 r^2 + (eta/2) q r maps onto those classical monomials
    q = WeylOp.q(1, 0)
    r = WeylOp.r(1, 0, rat(1))
    op = rat(-1, 2) * (q * r * q * r)
    img = classical_image(op, rat(1))
    assert img[((2,), (2,))] == rat(-1, 2)
    assert img[((1,), (1,))] == rat(1, 2)


@pytest.mark.parametrize("eta", ETAS)
def test_abd_exchange_relations(eta):
    p = QParams(eta, rat(2, 3), rat(5, 7))
    out = abd_commutation_residual(1, p)
    for name, (ok, witness) in out.items():
        assert ok, (name, witness)


def test_abd_negative_control():
    # dropping the (2 lambda + eta) factor of the last term must fail
    a_p, b_p, _, _, ds_p = abcd_operators(1, P)
    eta = P.eta
    B_l = BiOp.lift(1, b_p, 0)
    B_m = BiOp.lift(1, b_p, 1)
    A_m = BiOp.lift(1, a_p, 1)
    D_l = BiOp.lift(1, ds_p, 0)
    D_m = BiOp.lift(1, ds_p, 1)
    sc = lambda c: BiOp.from_scalar_poly(1, c)
    two_mu = sc({(0, 1): 2})
    lm = sc({(1, 0): 1, (0, 1): -1})
    lp = sc({(1, 0): 1, (0, 1): 1})
    lm_pe = sc({(1, 0): 1, (0, 1): -1, (0, 0): eta})
    lp_pe = sc({(1, 0): 1, (0, 1): 1, (0, 0): eta})
    two_mu_e = sc({(0, 1): 2, (0, 0): -eta})
    two_l_pe = sc({(1, 0): 2, (0, 0): eta})
    eta_b = sc({(0, 0): eta})
    lhs = two_mu * lm * lp * (D_l * B_m)
    rhs_bad = two_mu * lm_pe * lp_pe * (B_m * D_l) \
        + eta_b * two_l_pe * two_mu_e * lm * (B_l * A_m) \
        - eta_b * lp * (B_l * D_m)
    assert lhs != rhs_bad


def test_abcd_asymptotics():
    for n in (1, 2):
        for xim in (rat(0), rat(2, 3)):
            p = QParams(rat(1), xim, rat(5, 7))
            a, b, c, d, ds = abcd_operators(n, p)
            sign = -1 if n % 2 else 1
            r_n = WeylOp.r(n, n - 1, p.eta)
            assert a.coeff(2 * n) == sign * r_n
            assert d.coeff(2 * n) == sign * r_n
            # B = (lambda - eta/2) * (monic), exact synthetic division
            coeffs = list(b.c)
            acc = coeffs[-1]
            quotient = []
            for k in range(len(coeffs) - 1, 0, -1):
                quotient.append(acc)
                acc = coeffs[k - 1] + rat(1, 2) * p.eta * acc
            assert acc == 0 or acc.is_zero()
            assert quotient[0] == WeylOp.scalar(n, sign)
            assert ds == d.shift_up(1) * 2 - a * p.eta


def test_abcd_subleading_single_site():
    # at xi_- = 0 the subleading coefficients collapse to ordered products
    p = QParams(rat(1), rat(0), rat(5, 7))
    a, b, c, d, _ = abcd_operators(1, p)
    r1 = WeylOp.r(1, 0, p.eta)
    s = WeylOp.q(1, 0) * r1
    half_eta = rat(1, 2) * p.eta
    assert a.coeff(1) == -1 * (r1 * (s + half_eta))
    assert d.coeff(1) == r1 * (s + half_eta)


def test_degree_basis_and_rep():
    basis = degree_basis(3, 2)
    assert len(basis) == 6                       # C(4, 2)
    euler = sum((WeylOp.q(3, i) * WeylOp.dq(3, i) for i in range(3)),
                WeylOp.zero(3))
    mat, _ = rep_on_degree(euler, 3, 2)
    for i in range(6):
        for j in range(6):
            assert mat[i][j] == (2 if i == j else 0)
    with pytest.raises(DegreeNotPreserved):
        rep_on_degree(WeylOp.q(2, 0), 2, 1)
    # degree 4 on 6 sites spans C(9, 4) = 126 monomials, above the guard's 64
    euler6 = sum((WeylOp.q(6, i) * WeylOp.dq(6, i) for i in range(6)), WeylOp.zero(6))
    with pytest.raises(CostGuard):
        rep_on_degree(euler6, 6, 4)


def test_twisted_transfer_preserves_degree():
    # tr[C(xi) T(lambda)] has balanced raising/lowering in every term
    t = qmonodromy(2, P)
    for entry in (t.a11, t.a22):
        for coeff in entry.c:
            if isinstance(coeff, WeylOp):
                assert coeff.degree_shift_balanced()
    for m in (1, 2, 3):
        for coeff in t.a11.c:
            if isinstance(coeff, WeylOp) and not coeff.is_zero():
                rep_on_degree(coeff, 2, m)   # must not raise


# ---------------------------------------------------------------------------
# integer units: lambda = Lambda / D, every factor times D
# ---------------------------------------------------------------------------

UNIT_PARAMS = QParams(rat(3, 5), rat(-2, 3), rat(5, 4))


def test_integer_units_clear_denominators():
    d = integer_units(UNIT_PARAMS)
    assert d == 60                                   # lcm(2 * 5, 3, 4)
    assert integer_units(QParams(1, 2, 1)) == 2
    for x in (UNIT_PARAMS.eta, UNIT_PARAMS.eta / 2, UNIT_PARAMS.xi_minus,
              UNIT_PARAMS.xi_plus):
        v = _in_units(x, d)
        assert type(v) is int and v == d * x
        assert _in_units(x, 1) is x
    with pytest.raises(ValueError):
        _in_units(rat(1, 7), d)


@pytest.mark.parametrize("i", [1, 2])
def test_qlax_integer_units_rescale_coefficients(i):
    # coefficient of Lambda^k in units D is D^(1-k) times that of lambda^k
    d = integer_units(UNIT_PARAMS)
    scaled = qlax(2, i, UNIT_PARAMS, d)
    plain = qlax(2, i, UNIT_PARAMS)
    for s_entry, p_entry in zip(scaled.entries(), plain.entries()):
        assert s_entry.degree == p_entry.degree
        for k in range(p_entry.degree + 1):
            assert s_entry.coeff(k) == rat(d) ** (1 - k) * p_entry.coeff(k)
            assert all(type(c) is int for c in s_entry.coeff(k).terms.values())


def test_integer_checks_feed_only_ints_to_the_kernel(monkeypatch):
    kernel = weyl._kernel
    assert quantum._kernel is kernel
    real = kernel.mul_into
    seen = set()

    def spy(out, ta, tb, n, factor=1):
        res = real(out, ta, tb, n, factor)
        for t in (ta, tb, out):
            seen.update(type(c) for c in t.values())
        return res

    monkeypatch.setattr(kernel, "mul_into", spy)
    assert rtt_residual(1, UNIT_PARAMS)[0]
    assert q_reflection_dressed(1, UNIT_PARAMS)[0]
    assert tau_commutes(1, UNIT_PARAMS)[0]
    assert all(ok for ok, _ in abd_commutation_residual(1, UNIT_PARAMS).values())
    assert seen == {int}


def test_integer_negative_controls_fail():
    p = UNIT_PARAMS
    d = integer_units(p)
    eta = _in_units(p.eta, d)
    # RTT with the R-matrix at 2 D eta against T at D eta
    t = qmonodromy(1, p, d)
    ok, witness = exchange_check(t, 1, 2 * eta, (1, -1, 0))
    assert not ok and type(witness.difference) is int
    assert (ok, witness) == _chain_check(t, 1, 2 * eta, (1, -1, 0))
    # dressed algebra with middle argument -2 D eta instead of -D eta
    u = dressed_U_op(1, p, d)
    ok, witness = exchange_check(u, 1, eta, (1, -1, 0), (1, 1, -2 * eta))
    assert not ok and witness.entry is not None
    assert (ok, witness) == _chain_check(u, 1, eta, (1, -1, 0), (1, 1, -2 * eta))


_small_rats = st.builds(rat, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=20, deadline=None)
@given(eta=_small_rats.filter(lambda x: x != 0), xi_minus=_small_rats,
       xi_plus=_small_rats)
def test_integer_checks_hold_at_random_rational_parameters(eta, xi_minus, xi_plus):
    p = QParams(eta, xi_minus, xi_plus)
    assert rtt_residual(1, p)[0]
    assert q_reflection_dressed(1, p)[0]
    assert tau_commutes(1, p)[0]
    for name, (ok, witness) in abd_commutation_residual(1, p).items():
        assert ok, (name, witness)


def test_failing_exact_check_records_witness(monkeypatch):
    # break the monodromy in integer units, where every exact check and the
    # Hamiltonian extraction build it: T is built at 2 eta against the
    # R-matrix at eta
    real = quantum.qmonodromy

    def wrong_eta(n_sites, params, units=1):
        if units != 1:
            params = QParams(2 * params.eta, params.xi_minus, params.xi_plus)
        return real(n_sites, params, units)

    monkeypatch.setattr(quantum, "qmonodromy", wrong_eta)
    recs = {r.identity_id: r for r in suite_quantum(seed=1)}
    rec = recs["rtt-n1-eta0-xi0"]
    assert not rec.passed
    w = rec.parameters["witness"]
    assert set(w) == {"entry", "degrees", "key", "difference", "units"}
    assert len(w["degrees"]) == 2 and len(w["key"]) == 2
    assert int(w["difference"]) != 0
    p = QParams(*(Fraction(rec.parameters[k]) for k in ("eta", "xi_minus", "xi_plus")))
    assert w["units"] == integer_units(p)
    for r in recs.values():
        assert ("witness" in r.parameters) == (not r.passed)
    assert recs["rtt-control"].passed
    # hq_extract rejects the broken tau: its records fail with the first
    # mismatching coefficient instead of raising out of the suite
    for rid in ("hamiltonian-extraction-n1", "hamiltonian-extraction-n2",
                "hamiltonian-extraction-n3", "hamiltonian-classical-limit-n1",
                "hamiltonian-classical-limit-n2"):
        rec = recs[rid]
        assert not rec.passed and rec.parameters["rejected"]
        w = rec.parameters["witness"]
        assert set(w) == {"degrees", "key", "difference", "units"} and w["units"] == 1
        assert Fraction(w["difference"]) != 0


def test_failing_reflection_record_carries_witness(monkeypatch):
    # K_+ shifted by s against the middle argument of the shift s + eta/2
    def mismatched(params, shift=(1, 1)):
        s = rat(shift[0], shift[1]) * params.eta
        kt = _boundary_k(0, params.xi_plus, s)
        return exchange_check(kt, 0, params.eta, (-1, 1, 0),
                              (-1, -1, -2 * s - params.eta))

    monkeypatch.setattr(quantum, "q_reflection_plus", mismatched)
    recs = {r.identity_id: r for r in suite_quantum(seed=1)}
    plus = {k: r for k, r in recs.items() if k.startswith("reflection-quantum-plus-")}
    assert len(plus) == 18 and not any(r.passed for r in plus.values())
    for r in recs.values():
        assert ("witness" in r.parameters) == (not r.passed)
        assert r.passed or r.identity_id in plus
    rec = plus["reflection-quantum-plus-tau-matched-eta1-xi0"]
    p = QParams(rat(1, 2), *verify._xi_pairs(1, None, None)[0])
    ok, witness = mismatched(p, shift=(1, 2))
    assert not ok and witness.difference != 0
    assert rec.parameters["witness"] == {
        "degrees": list(witness.degrees), "key": [], "entry": list(witness.entry),
        "difference": str(witness.difference), "units": 1}


def test_verdict_picks_the_tuple_order_of_packed_keys():
    # little-endian packing reads the last slot first: at N=1, (1, 0) packs
    # to 1 and (0, 1) to 256, so the int minimum is not the tuple minimum
    residual = {(1, 0): {(0, 0): 3}, (0, 2): {(1, 0): 5, (0, 1): -7}}
    packed = {ij: weyl._kernel.pack(terms, 1) for ij, terms in residual.items()}
    assert sorted(packed[0, 2]) == [1, 256]
    expected = (False, quantum.Witness((0, 2), (0, 1), -7, (1, 2)))
    assert quantum._verdict(packed, (1, 2), (1, 1)) == expected
    assert quantum._verdict(residual, (1, 2)) == expected
    assert quantum._verdict({}, (1, 2), (1, 1)) == (True, None)


# ---------------------------------------------------------------------------
# exchange checks from the product table against the explicit 4x4 chain
# ---------------------------------------------------------------------------

def _assert_residual_matches_chain(x, n, eta, outer, middle, x1, x2):
    lhs, rhs = chain_sides(x1, x2, n, eta, outer, middle)
    residual = dict(exchange_residual(x, n, eta, outer, middle))
    assert list(residual) == [(i, j) for i in range(4) for j in range(4)]
    for (i, j), res in residual.items():
        assert res == (lhs[i][j] - rhs[i][j]).t, (i, j)
    assert exchange_check(x, n, eta, outer, middle) == mat4_eq(lhs, rhs)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("check", ["rtt", "dressed"])
def test_exchange_residual_matches_chain(check, n):
    p = UNIT_PARAMS
    d = integer_units(p)
    eta = _in_units(p.eta, d)
    if check == "rtt":
        x, middles = qmonodromy(n, p, d), [None]
    else:
        # the identity, and a mismatched middle, where every entry fails
        x, middles = dressed_U_op(n, p, d), [(1, 1, -eta), (1, 1, -2 * eta)]
    x1, x2 = embed_first(x, n, 0), embed_second(x, n, 1)
    for middle in middles:
        _assert_residual_matches_chain(x, n, eta, (1, -1, 0), middle, x1, x2)
    if check == "dressed":
        assert not exchange_check(x, n, eta, (1, -1, 0), middles[1])[0]


def test_reflection_minus_residual_matches_chain():
    p = UNIT_PARAMS
    k = _boundary_k(0, p.xi_minus, 0)
    _assert_residual_matches_chain(k, 0, p.eta, (1, -1, 0), (1, 1, 0),
                                   embed_first(k, 0, 0), embed_second(k, 0, 1))


@pytest.mark.parametrize("shift", [(0, 1), (1, 2), (1, 1)])
def test_reflection_plus_residual_matches_chain(shift):
    # the chain transposes the embedded K_+ in each leg; the table takes K_+^t
    p = UNIT_PARAMS
    s = rat(*shift) * p.eta
    kt = _boundary_k(0, p.xi_plus, s)
    k = Mat2(kt.a11, kt.a21, kt.a12, kt.a22)
    for middle in ((-1, -1, -2 * s), (-1, -1, -s - 1)):   # identity and a mismatch
        _assert_residual_matches_chain(
            kt, 0, p.eta, (-1, 1, 0), middle,
            transpose_first(embed_first(k, 0, 0)), transpose_second(embed_second(k, 0, 1)))
    assert q_reflection_plus(p, shift=shift)[0]
    assert not exchange_check(kt, 0, p.eta, (-1, 1, 0), (-1, -1, -s - 1))[0]


# ---------------------------------------------------------------------------
# the crossing identity: a check forms 11 of the 16 entries
# ---------------------------------------------------------------------------

CROSSED = {(0, 2), (2, 0), (2, 2), (2, 3), (3, 2)}


def _full_scan(x, n, eta, outer, middle=None):
    """(ok, witness) at the first nonzero of all 16 entries, row-major."""
    for entry, res in exchange_residual(x, n, eta, outer, middle):
        if res:
            return quantum._verdict(res, entry)
    return True, None


def _perturbed(x, n, rng):
    """x with one lambda-coefficient of one entry, up to one past its
    degree, moved by +-1 or +-q_1."""
    entries = list(x.entries())
    e = rng.randrange(4)
    c = list(entries[e].c)
    k = rng.randrange(len(c) + 1)
    c += [0] * (k + 1 - len(c))
    c[k] = c[k] + rng.choice((1, -1)) * rng.choice((WeylOp.identity(n), WeylOp.q(n, 0)))
    entries[e] = Poly(c)
    return Mat2(*entries)


def test_exchange_check_is_the_first_entry_of_the_full_scan():
    # 60 perturbations of U (dressed, N = 1, 2) and T (RTT, N = 1..3): the
    # check leaves five entries out, yet its verdict and witness are those of
    # the scan of all 16
    rng = random.Random(34)
    p = UNIT_PARAMS
    d = integer_units(p)
    eta = _in_units(p.eta, d)
    cases = [(dressed_U_op(n, p, d), n, (1, 1, -eta)) for n in (1, 2)]
    cases += [(qmonodromy(n, p, d), n, None) for n in (1, 2, 3)]
    witnessed = set()
    for x, n, middle in cases:
        for _ in range(12):
            y = _perturbed(x, n, rng)
            ok, witness = exchange_check(y, n, eta, (1, -1, 0), middle)
            assert (ok, witness) == _full_scan(y, n, eta, (1, -1, 0), middle)
            if not ok:
                witnessed.add(witness.entry)
    assert len(witnessed) > 3 and not witnessed & CROSSED


@pytest.mark.parametrize("index, entry", [(0, (0, 0)), (1, (0, 3)), (2, (3, 0)), (3, (3, 3))])
def test_exchange_check_reaches_entries_past_the_crossed_ones(index, entry):
    # X whose only nonzero entry is f(l) = q_1 + l d_1, [f(l), f(m)] = l - m:
    # its RTT residual is nonzero at one entry alone
    f = Poly([WeylOp.q(1, 0), WeylOp.dq(1, 0)])
    x = Mat2(*(f if k == index else Poly() for k in range(4)))
    ok, witness = exchange_check(x, 1, 1, (1, -1, 0))
    assert not ok and witness.entry == entry
    assert (ok, witness) == _full_scan(x, 1, 1, (1, -1, 0))


def _crossing_defects(residual, eta, outer):
    """The entries (i, j) of the 4x4 residual Z at which the crossing identity
    R(s) P Z(m, l) P R(s) = -(eta^2 - s^2) Z(l, m) fails; P Z P exchanges
    the indices 1 and 2, and Z(m, l) is the table read swapped."""
    s = quantum._scalar(*outer)
    s2 = quantum._scalar_mul(s, s)
    s_eta = {ij: eta * c for ij, c in s.items()}
    eta2 = {(0, 0): eta * eta}
    rhs = {ij: -c for ij, c in s2.items()}
    rhs[0, 0] = rhs.get((0, 0), 0) + eta * eta
    pi = (0, 2, 1, 3)
    return [(i, j) for i in range(4) for j in range(4)
            if quantum._assemble([(s2, residual[pi[i], pi[j]], True),
                                  (s_eta, residual[i, pi[j]], True),
                                  (s_eta, residual[pi[i], j], True),
                                  (eta2, residual[i, j], True),
                                  (rhs, residual[i, j], False)])]


def test_crossing_identity_holds_for_any_matrix():
    # on perturbed U and T, whose residuals are nonzero, every entry obeys
    # the identity; a middle argument antisymmetric in (l, m) breaks it
    rng = random.Random(341)
    p = UNIT_PARAMS
    d = integer_units(p)
    eta = _in_units(p.eta, d)
    u = _perturbed(dressed_U_op(1, p, d), 1, rng)
    for x, n, middle in ((u, 1, (1, 1, -eta)), (_perturbed(qmonodromy(2, p, d), 2, rng), 2, None)):
        residual = dict(exchange_residual(x, n, eta, (1, -1, 0), middle))
        assert sum(map(bool, residual.values())) > 5
        assert _crossing_defects(residual, eta, (1, -1, 0)) == []
    residual = dict(exchange_residual(u, 1, eta, (1, -1, 0), (1, -1, 0)))
    assert _crossing_defects(residual, eta, (1, -1, 0))


@pytest.mark.parametrize("eta", ETAS)
def test_crossed_entries_vanish_on_passing_checks(eta):
    p = QParams(eta, *XI_PAIRS[0])
    d = integer_units(p)
    e = _in_units(eta, d)
    s = rat(1, 2) * eta
    checks = [(qmonodromy(2, p, d), 2, e, (1, -1, 0), None),
              (dressed_U_op(2, p, d), 2, e, (1, -1, 0), (1, 1, -e)),
              (_boundary_k(0, p.xi_minus, 0), 0, eta, (1, -1, 0), (1, 1, 0)),
              (_boundary_k(0, p.xi_plus, s), 0, eta, (-1, 1, 0), (-1, -1, -2 * s))]
    for x, n, eta_x, outer, middle in checks:
        assert exchange_check(x, n, eta_x, outer, middle) == (True, None)
        residual = dict(exchange_residual(x, n, eta_x, outer, middle))
        assert len(residual) == 16 and all(residual[entry] == {} for entry in CROSSED)


def _count_assembled(monkeypatch):
    calls = []
    real = quantum._assemble

    def counted(parts):
        calls.append(parts)
        return real(parts)
    monkeypatch.setattr(quantum, "_assemble", counted)
    return calls


@pytest.mark.parametrize("eta, outer, middle, formed", [
    (1, (1, -1, 0), None, 11), (1, (1, -1, 0), (1, 1, -1), 11),
    (1, (-3, 3, 0), (-1, -1, 0), 11), (1, (1, 1, 0), None, 16),
    (1, (1, -1, 0), (1, -1, 0), 16), (1, (1, -1, 1), None, 16),
    (1, (0, 0, 0), (1, 1, 0), 16), (0, (1, -1, 0), None, 16)])
def test_crossing_leaves_entries_out_only_where_it_holds(monkeypatch, eta, outer, middle,
                                                         formed):
    # the identity matrix satisfies every exchange relation, so a check of it
    # forms every entry it does not leave out
    calls = _count_assembled(monkeypatch)
    one = Mat2(Poly([1]), Poly(), Poly(), Poly([1]))
    assert exchange_check(one, 0, eta, outer, middle) == (True, None)
    assert len(calls) == formed
    assert len(dict(exchange_residual(one, 0, eta, outer, middle))) == 16
    assert len(calls) == formed + 16


def test_passing_dressed_check_assembles_eleven_entries(monkeypatch):
    calls = _count_assembled(monkeypatch)
    assert q_reflection_dressed(2, UNIT_PARAMS) == (True, None)
    assert len(calls) == 11


@pytest.mark.parametrize("n", [1, 2])
def test_reverse_products_are_degree_swaps(n):
    p = UNIT_PARAMS
    d = integer_units(p)
    t = qtau(n, p, d)
    assert (BiOp.lift(n, t, 0) * BiOp.lift(n, t, 1)).swapped() \
        == BiOp.lift(n, t, 1) * BiOp.lift(n, t, 0)
    a_p, b_p, _, _, ds_p = abcd_operators(n, p, d)
    B_l, B_m = BiOp.lift(n, b_p, 0), BiOp.lift(n, b_p, 1)
    for x_p in (a_p, b_p, ds_p):
        # B(l) X(m) with lambda <-> mu is B(m) X(l)
        assert (B_l * BiOp.lift(n, x_p, 1)).swapped() == B_m * BiOp.lift(n, x_p, 0)


def _biop_tau(n, p):
    t = qtau(n, p, integer_units(p))
    lhs = BiOp.lift(n, t, 0) * BiOp.lift(n, t, 1)
    rhs = BiOp.lift(n, t, 1) * BiOp.lift(n, t, 0)
    return lhs == rhs, lhs.witness_against(rhs)


def _biop_abd(n, p):
    """The A/B/Dstar relations with both sides multiplied out in BiOp."""
    d = integer_units(p)
    a_p, b_p, _, _, ds_p = abcd_operators(n, p, d)
    A_l, A_m = BiOp.lift(n, a_p, 0), BiOp.lift(n, a_p, 1)
    B_l, B_m = BiOp.lift(n, b_p, 0), BiOp.lift(n, b_p, 1)
    D_l, D_m = BiOp.lift(n, ds_p, 0), BiOp.lift(n, ds_p, 1)

    def sc(c_lambda, c_mu, const):
        return BiOp.from_scalar_poly(n, {(1, 0): c_lambda, (0, 1): c_mu, (0, 0): const})

    e = _in_units(p.eta, d)
    eta = sc(0, 0, e)
    denom = sc(0, 2, 0) * sc(1, -1, 0) * sc(1, 1, 0)
    sides = {
        "bb": (B_l * B_m, B_m * B_l),
        "ab": (denom * (A_l * B_m),
               sc(0, 2, 0) * sc(1, -1, -e) * sc(1, 1, -e) * (B_m * A_l)
               + eta * sc(0, 2, -e) * sc(1, 1, 0) * (B_l * A_m)
               - eta * sc(1, -1, 0) * (B_l * D_m)),
        "db": (denom * (D_l * B_m),
               sc(0, 2, 0) * sc(1, -1, e) * sc(1, 1, e) * (B_m * D_l)
               + eta * sc(2, 0, e) * sc(0, 2, -e) * sc(1, -1, 0) * (B_l * A_m)
               - eta * sc(2, 0, e) * sc(1, 1, 0) * (B_l * D_m)),
    }
    return {name: (lhs == rhs, lhs.witness_against(rhs)) for name, (lhs, rhs) in sides.items()}


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("pair", XI_PAIRS)
@pytest.mark.parametrize("n", [1, 2])
def test_assembled_residuals_match_biop(monkeypatch, n, pair, flip):
    # the parts assembly gives the BiOp oracle's (ok, witness) for tau and
    # A/B/Dstar; flipping the sign of A makes tau, AB and DstarB fail
    if flip:
        real = quantum.dressed_U_op

        def flipped(n_sites, params, units=1):
            u = real(n_sites, params, units)
            return Mat2(-u.a11, u.a12, u.a21, u.a22)
        monkeypatch.setattr(quantum, "dressed_U_op", flipped)
    p = QParams(rat(1, 2), *pair)
    tau = tau_commutes(n, p)
    abd = abd_commutation_residual(n, p, force=True)
    assert tau == _biop_tau(n, p)
    assert abd == _biop_abd(n, p)
    failing = {name for name, (ok, _) in abd.items() if not ok}
    assert (tau[0], failing) == ((False, {"ab", "db"}) if flip else (True, set()))


@pytest.mark.parametrize("n", [1, 2])
def test_perturbed_tau_residual_matches_biop(monkeypatch, n):
    # one coefficient of tau moved by q_1: the whole commutator table, not
    # only its first witness, is the BiOp lhs - rhs
    real = quantum.qtau

    def perturbed(n_sites, params, units=1):
        t = real(n_sites, params, units)
        c = list(t.c)
        c[1] = c[1] + 3 * WeylOp.q(n_sites, 0)
        return Poly(c)
    monkeypatch.setattr(quantum, "qtau", perturbed)
    p = QParams(rat(1, 2), *XI_PAIRS[0])
    t = perturbed(n, p, integer_units(p))
    lhs = BiOp.lift(n, t, 0) * BiOp.lift(n, t, 1)
    rhs = BiOp.lift(n, t, 1) * BiOp.lift(n, t, 0)
    # the table is on packed keys; it is unpacked before the comparison
    size, (lifted,) = quantum._packed([quantum._lift_terms(t, n)], n)
    residual = {ij: weyl._kernel.unpack_into({}, terms, n, size)
                for ij, terms in quantum._commutator_table(lifted, n).items()}
    assert residual and residual == (lhs - rhs).t
    assert tau_commutes(n, p) == (False, lhs.witness_against(rhs))


@pytest.mark.parametrize("n", [1, 2])
def test_perturbed_b_fails_bb_as_biop(monkeypatch, n):
    # B moved by q_1 in its constant coefficient no longer commutes with itself
    real = quantum.dressed_U_op

    def perturbed(n_sites, params, units=1):
        u = real(n_sites, params, units)
        c = list(u.a12.c)
        c[0] = c[0] + WeylOp.q(n_sites, 0)
        return Mat2(u.a11, Poly(c), u.a21, u.a22)
    monkeypatch.setattr(quantum, "dressed_U_op", perturbed)
    p = QParams(rat(1, 2), *XI_PAIRS[1])
    abd = abd_commutation_residual(n, p, force=True)
    assert not abd["bb"][0]
    assert abd == _biop_abd(n, p)


def _dressed_chain(n_sites, params, units):
    """U as the Mat2 chain T @ K_- @ sigma2 T^t sigma2, the oracle of the
    in-place product in dressed_U_op."""
    t = qmonodromy(n_sites, params, units)
    k_minus = _boundary_k(n_sites, _in_units(params.xi_minus, units),
                          -_in_units(params.eta / 2, units))
    return t @ k_minus @ adjugate_neg(t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dressed_U_op_is_the_chain(n):
    for p in (UNIT_PARAMS, QParams(rat(-3, 4), 0, 2)):
        for units in (1, integer_units(p)):
            u, chain = dressed_U_op(n, p, units), _dressed_chain(n, p, units)
            for entry, chained in zip(u.entries(), chain.entries()):
                assert entry == chained and len(entry.c) == len(chained.c)
                for c, d in zip(entry.c, chained.c):
                    assert isinstance(c, WeylOp) or not isinstance(d, WeylOp)
    # one product of two coefficients, at the slot size their bounds give,
    # against the tuple loop
    a, b = u.a11.c[n], u.a12.c[n - 1]
    assert all(c.packed.size == weyl._kernel.size_for(c.bound) for c in (a, b))
    expected = weyl._kernel.trim(tuple_mul_into({}, a.terms, b.terms, n))
    assert dict((a * b).terms) == expected and expected


def test_quantum_import_loads_no_numpy():
    # the exact engine needs no numpy, whose import costs about 0.17 s
    code = "import sys, dstlab.quantum; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_builders_and_a_passing_check_unpack_no_keys(monkeypatch):
    # WeylOp products hand packed dicts to the kernel, and a check unpacks
    # only what leaves it, so a passing one unpacks nothing
    kernel = weyl._kernel
    calls = []
    real = kernel.unpack_into

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(kernel, "unpack_into", counted)
    p = UNIT_PARAMS
    dressed_U_op(3, p, integer_units(p))
    assert q_reflection_dressed(2, p) == (True, None)
    assert calls == []


def test_dressed_reflection_three_sites_exact():
    ok, witness = q_reflection_dressed(3, UNIT_PARAMS, force=True)
    assert ok is True and witness is None
