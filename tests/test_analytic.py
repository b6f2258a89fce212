import cmath
import json
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilgap.characters import ResidueChar, all_characters, primitive_characters
from weilgap.series import delta_coeffs, delta_delta_p, series_evaluator
from weilgap.analytic import (
    _auto_window,
    _f_side,
    _ghat,
    _ghat_trust,
    _tail_upper_gamma,
    AdditiveTwist,
    FEStatement,
    additive_statements_for_psi,
    certify_modularity,
    cgamma,
    check_fe_additive,
    check_fe_multiplicative,
    check_modular_relation,
    fe_for_q,
    gauss_assembly_residual,
    gauss_sum,
    lambda_additive,
    lambda_multiplicative,
    upper_incomplete_gamma,
)


# -- oracles ---------------------------------------------------------------------


def lambda_direct_dirichlet(f, psi_or_twist, s):
    """Oracle: (2 pi)^{-s} Gamma(s) sum a_m chi(m) m^{-s} by direct summation."""
    s = complex(s)
    ms = np.arange(1, f.M + 1)
    if isinstance(psi_or_twist, AdditiveTwist):
        weights = psi_or_twist.phases(f.M)
    else:
        weights = np.array([psi_or_twist(int(m)) for m in ms])
    total = complex(np.sum(f.as_array() * weights * np.exp(-s * np.log(ms))))
    return (2 * math.pi) ** (-s) * cgamma(s) * total


def mp_gammainc(s, a, b):
    """Oracle: int_a^b t^{s-1} e^{-t} dt by mpmath at 30 digits."""
    with mp.workdps(30):
        return complex(mp.gammainc(mp.mpc(s), a=a, b=b))


def lower_incomplete_gamma(s, x):
    return mp_gammainc(s, 0, x)


def tail_upper_gamma_loop(f, re_s, y0):
    """Oracle: the scalar loop that _tail_upper_gamma replaced."""
    gamma_re = abs(cgamma(re_s)) if re_s > 1 else math.inf
    total = 0.0
    m = f.M + 1
    while True:
        x = 2 * math.pi * m * y0
        if re_s <= 1:
            g = x ** (re_s - 1) * math.exp(-x)
        elif x <= abs(re_s) + 1:
            g = gamma_re
        else:
            g = x**re_s * math.exp(-x) / (x - re_s)
        term = f.growth_c * m**f.sigma * (2 * math.pi * m) ** (-re_s) * g
        total += term
        if term < 1e-20 * (1 + total):
            return total
        if m > f.M + 100000:
            return math.inf
        m += 1


def auto_window_loop(f, g, fe, cut):
    """Oracle: _auto_window as two while loops of single-point probes."""
    y_bal = 1.0 / (fe.q * math.sqrt(fe.p))

    def reliable(y):
        ys = np.array([y])
        trust = f.tail_bound(y) + _ghat_trust(g, fe, y)
        return trust <= cut * (abs(_f_side(f, fe, ys)[0]) + abs(_ghat(g, fe, ys)[0]))

    assert reliable(y_bal)
    y_lo = y_hi = y_bal
    while y_lo / 1.25 > y_bal / 4096 and reliable(y_lo / 1.25):
        y_lo /= 1.25
    while y_hi * 1.25 < y_bal * 4096 and reliable(y_hi * 1.25):
        y_hi *= 1.25
    return y_lo, y_hi


@pytest.fixture(scope="module")
def delta2000():
    return delta_coeffs(2000)


@pytest.fixture(scope="module")
def dd5():
    return delta_delta_p(5, 1200)


@pytest.fixture(scope="module")
def dd11():
    return delta_delta_p(11, 2400)


# -- gamma kernels -----------------------------------------------------------


def test_gamma_classical_values():
    assert abs(cgamma(1) - 1) < 1e-14
    assert abs(cgamma(0.5) - math.sqrt(math.pi)) < 1e-13


def test_gamma_pole_rejected():
    with pytest.raises(ValueError):
        cgamma(0)
    with pytest.raises(ValueError):
        cgamma(-3)


def test_gamma_recurrence_on_strip():
    rng = random.Random(12)
    for _ in range(100):
        s = complex(rng.uniform(-39, 39), rng.uniform(-39, 39))
        if abs(s - round(s.real)) < 0.1 and s.real <= 0:
            continue
        lhs = cgamma(s + 1)
        rhs = s * cgamma(s)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_incomplete_gamma_exponential():
    for x in (0.1, 1.0, 5.0, 40.0):
        assert abs(upper_incomplete_gamma(1, x) - math.exp(-x)) < 1e-13 * max(1, math.exp(-x))


def test_incomplete_gamma_limit():
    s = 2.5 + 0.5j
    assert abs(upper_incomplete_gamma(s, 1e-9) - cgamma(s)) < 1e-8


def test_incomplete_gamma_recurrence():
    rng = random.Random(13)
    for _ in range(40):
        s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        x = rng.uniform(0.1, 60.0)
        lhs = upper_incomplete_gamma(s + 1, x)
        rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-290)


@pytest.mark.parametrize("s", [12, 12 + 1j, 12 - 1j, 13.5, 14, 10, 10.5, 2.5 + 0.5j, 1])
def test_incomplete_gamma_matches_mpmath(s):
    edge = max(complex(s).real, 0) + 1
    xs = np.r_[np.geomspace(0.05, 80, 120), abs(s) + 1 - 1e-9, abs(s) + 1 + 1e-9,
               edge - 1e-9, edge + 1e-9]
    values = upper_incomplete_gamma(s, xs)
    for x, value in zip(xs, values):
        want = mp_gammainc(s, float(x), mp.inf)
        assert abs(value - want) <= 1e-13 * abs(want), (s, x)


def test_incomplete_gamma_shapes_and_overflow():
    value = upper_incomplete_gamma(12, 3.0)
    assert isinstance(value, complex)
    assert upper_incomplete_gamma(12, np.array([3.0]))[0] == value
    assert upper_incomplete_gamma(12, np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(12, np.array([1.0, 0.0]))
    with pytest.raises(OverflowError):
        upper_incomplete_gamma(400, 3.0)


def test_incomplete_gamma_split():
    s = 3.2 - 1.1j
    x = 2.7
    total = upper_incomplete_gamma(s, x) + lower_incomplete_gamma(s, x)
    assert abs(total - cgamma(s)) < 1e-12 * abs(cgamma(s))


# -- one-sided truncated Lambda ----------------------------------------------


def test_lambda_additive_convergent_oracle(delta2000):
    lv = lambda_additive(delta2000, AdditiveTwist(0, 1), 14 + 0j)
    direct = lambda_direct_dirichlet(delta2000, AdditiveTwist(0, 1), 14 + 0j)
    assert abs(lv.value - direct) < 1e-8
    assert lv.error < 1e-8


def test_lambda_additive_twisted_oracle(delta2000):
    twist = AdditiveTwist(1, 3)
    lv = lambda_additive(delta2000, twist, 13.5 + 0.5j)
    direct = lambda_direct_dirichlet(delta2000, twist, 13.5 + 0.5j)
    assert abs(lv.value - direct) < 1e-8


def test_lambda_additive_y0_independence(delta2000):
    rng = random.Random(14)
    for _ in range(20):
        q = rng.choice([1, 2, 3, 5])
        a = 0 if q == 1 else rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
        s = complex(rng.uniform(8, 15), rng.uniform(-2, 2))
        base = 1.0 / q
        values = [
            lambda_additive(delta2000, AdditiveTwist(a, q), s, y0=f * base)
            for f in (0.3, 1.0, 3.0)
        ]
        for other in values[1:]:
            assert values[0].agrees_with(other, slack=1e-9)


def test_lambda_additive_quadrature_route(delta2000):
    # the same split with both parts from mpmath: Gamma(s, x) by gammainc and
    # the lower integral by adaptive quadrature of the truncated q-expansion
    short = delta2000.copy_with(coeffs=delta2000.coeffs[:60], exact=None)
    s, y0 = 13 + 0.7j, 1.0
    lv = lambda_additive(short, AdditiveTwist(0, 1), s, y0=y0)
    upper = sum(
        short.a(m) * (2 * math.pi * m) ** (-s) * mp_gammainc(s, 2 * math.pi * m * y0, mp.inf)
        for m in range(1, short.M + 1)
    )
    f_trunc = series_evaluator(short)
    with mp.workdps(30):
        lower = complex(mp.quad(lambda y: f_trunc(mp.mpc(0, y)) * mp.mpc(y) ** (s - 1), [0, y0]))
    assert abs(lv.value - (upper + lower)) < 1e-10 * max(1.0, abs(lv.value))


def test_lambda_central_value_real_with_infinite_error(delta2000):
    lv = lambda_additive(delta2000, AdditiveTwist(0, 1), 6 + 0j)
    assert abs(lv.value.imag) < 1e-12
    assert lv.error == math.inf  # below the abscissa: honestly unbounded


def test_lambda_error_monotone_in_M(delta2000):
    s = 14 + 0j
    short = delta2000.copy_with(coeffs=delta2000.coeffs[:500], exact=None)
    e_short = lambda_additive(short, AdditiveTwist(0, 1), s).error
    e_long = lambda_additive(delta2000, AdditiveTwist(0, 1), s).error
    assert 0 <= e_long <= e_short


def test_tail_upper_gamma_capped_sum_is_infinite():
    # at y0 = 1e-5 the terms still matter after 100000 of them; the partial
    # sum (0.017) would under-report.  The q-expansion tail bound is a closed
    # form, finite there and not below C int_11^inf x^sigma e^{-t x} dx
    d = delta_coeffs(10)
    t = 2 * math.pi * 1e-5
    with mp.workdps(30):
        integral = d.growth_c * mp.quad(lambda x: x**d.sigma * mp.exp(-t * x), [11, mp.inf])
    assert integral <= d.tail_bound(1e-5) < math.inf
    assert _tail_upper_gamma(d, 7.0, 1e-5) == math.inf


@pytest.mark.parametrize("M", [10, 600, 2000])
@pytest.mark.parametrize("re_s", [0.5, 1.0, 6.0, 7.0, 10.0, 14.0])
def test_tail_upper_gamma_matches_the_loop(M, re_s):
    d = delta_coeffs(M)
    for y0 in (2e-4, 1e-3, 1e-2, 0.1, 1.0):
        want = tail_upper_gamma_loop(d, re_s, y0)
        got = _tail_upper_gamma(d, re_s, y0)
        if want == math.inf:
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_tail_upper_gamma_bounds_the_tail():
    # Gamma(7, x) = 6! e^{-x} sum_{j < 7} x^j / j! in closed form
    d = delta_coeffs(10)
    y0, s = 1e-3, 7.0
    total = 0.0
    for m in range(11, 20000):
        x = 2 * math.pi * m * y0
        upper = 720 * math.exp(-x) * sum(x**j / math.factorial(j) for j in range(7))
        total += d.growth_c * m**d.sigma * (2 * math.pi * m) ** (-s) * upper
    assert total <= _tail_upper_gamma(d, s, y0) < math.inf


def test_lambda_additive_rejects_empty():
    empty = delta_coeffs(1).copy_with(coeffs=[], exact=None)
    with pytest.raises(ValueError):
        lambda_additive(empty, AdditiveTwist(0, 1), 14 + 0j)


def test_hecke_functional_equation_residuals(delta2000):
    fe = FEStatement(1, 12, -1, 1, -1, 0, 1.0)
    rep = check_fe_additive(delta2000, delta2000, 1, 12, fe, s_samples=[6 + 0j, 7 + 1j],
                            tolerance=1e-8)
    assert rep.verdict
    for sample in rep.samples:
        assert abs(sample.defect_integral) < 1e-8


# -- modular relations ---------------------------------------------------------


def test_modular_relation_dd5(dd5):
    f, g = dd5
    fe = FEStatement(5, 24, -1, 1, -1, 1 - 5, 1.0)
    res = check_modular_relation(f, g, 5, 24, fe, 0.2 + 0.9j)
    assert res.residual < 1e-8
    assert abs(res.fitted_phase - 1.0) < 1e-6


def test_modular_relation_detects_corruption(dd5):
    f, g = dd5
    bad = f.copy_with(coeffs=[c + (1 if m == 5 else 0) for m, c in enumerate(f.coeffs)], exact=None)
    fe = FEStatement(5, 24, -1, 1, -1, 1 - 5, 1.0)
    res = check_modular_relation(bad, g, 5, 24, fe, 0.2 + 0.9j)
    assert res.residual > 1e-3


def test_fitted_phase_recovers_rotation(dd5):
    # rotate g by e(-theta): the pair then satisfies the relation with
    # declared phase e(theta), and the fitted phase must land on it
    f, g = dd5
    theta = 1.0 / 7.0
    rot = cmath.exp(-2j * cmath.pi * theta)
    g_rot = g.copy_with(coeffs=[rot * c for c in g.coeffs], exact=None)
    fe = FEStatement(5, 24, -1, 1, -1, 1 - 5, cmath.exp(2j * cmath.pi * theta))
    res = check_modular_relation(f, g_rot, 5, 24, fe, 0.05 + 0.45j)
    assert res.residual < 1e-8
    assert abs(res.fitted_phase - fe.phase) < 1e-6


def test_modular_relation_swap_symmetry(dd5):
    # swapping roles via z' = -1/(p q^2 z) rescales the absolute residual by
    # exactly |p^{k/2} q^k z^k|; checked on a perturbed pair so both sides
    # are nonzero
    f, g = dd5
    bad = f.copy_with(coeffs=[c + (1 if m == 5 else 0) for m, c in enumerate(f.coeffs)], exact=None)
    p, k = 5, 24
    fe = FEStatement(p, k, -1, 1, -1, 1 - p, 1.0)
    z = 0.08 + 0.5j
    res = check_modular_relation(bad, g, p, k, fe, z)
    z_dual = -1.0 / (p * z)
    res_dual = check_modular_relation(g, bad, p, k, fe.dual(), z_dual)
    expected = abs(p ** (k / 2) * z**k) * res.absolute
    assert abs(res_dual.absolute - expected) < 1e-6 * expected


def test_fe_statement_validation():
    with pytest.raises(ValueError):
        FEStatement(5, 24, 1, 3, 1, 1, 1.0)  # determinant violated
    with pytest.raises(ValueError):
        FEStatement(5, 24, -1, 5, -1, 0, 1.0)  # q divisible by p
    with pytest.raises(ValueError):
        FEStatement(5, 24, -1, 1, -1, 1 - 5, 2.0)  # phase off the circle


def test_fe_for_q_matches_generator_matrix():
    from weilgap.presentation import v_matrix

    for p in (5, 13):
        for q in (1, 2, 3):
            fe = fe_for_q(p, 24, q, 1.0)
            assert fe.matrix() == v_matrix(p, q)


PRIMES = [n for n in range(5, 500) if all(n % f for f in range(2, n))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 5000))
def test_fe_for_q_at_random_levels(p, q):
    from weilgap.presentation import v_matrix

    assume(q % p != 0)
    fe = fe_for_q(p, 24, q)
    assert fe.matrix() == v_matrix(p, q)
    # q q* = -1 mod p with 1 <= q* <= p, by brute force
    qs = next(s for s in range(1, p + 1) if (q * s + 1) % p == 0)
    assert (fe.a, fe.q, fe.B, fe.D) == (-1, q, -(q * qs + 1) // p, -qs)


def test_additive_twist_reduction():
    t = AdditiveTwist(7, 3)
    assert t.a == 1
    with pytest.raises(ValueError):
        AdditiveTwist(2, 4)
    assert AdditiveTwist(0, 1).a == 0


# -- additive FE reports -------------------------------------------------------


def test_check_fe_additive_dd11_q3(dd11):
    f, g = dd11
    fe = FEStatement(11, 24, 1, 3, 2, -7, 1.0)
    rep = check_fe_additive(f, g, 11, 24, fe, s_samples=[12 + 0j, 12 + 1j, 13.5 + 0j],
                            tolerance=1e-6)
    assert rep.verdict
    for sample in rep.samples:
        assert sample.relative < 1e-6


@pytest.mark.parametrize("q", [1, 2, 3])
def test_auto_window_matches_single_point_ladder(dd5, dd11, q):
    for (f, g), p in ((dd5, 5), (dd11, 11)):
        fe = fe_for_q(p, 24, q)
        assert _auto_window(f, g, fe, cut=1e-8) == auto_window_loop(f, g, fe, 1e-8)


def test_check_fe_additive_wrong_phase_fails(dd5):
    f, g = dd5
    wrong = cmath.exp(2j * cmath.pi / 7)
    fe = FEStatement(5, 24, -1, 1, -1, 1 - 5, wrong)
    rep = check_fe_additive(f, g, 5, 24, fe, s_samples=[12 + 0j], tolerance=1e-6,
                            with_lambda=False)
    assert not rep.verdict
    assert max(s.relative for s in rep.samples) > 1e-3


# -- Gauss sums and multiplicative assembly ------------------------------------


def test_gauss_sum_trivial_mod_1():
    psi = all_characters(1)[0]
    assert abs(gauss_sum(psi) - 1.0) < 1e-14


def test_gauss_sum_quadratic_mod_5():
    psi = quadratic_char_residue(5)
    assert abs(gauss_sum(psi) - math.sqrt(5)) < 1e-10


def quadratic_char_residue(p):
    for psi in all_characters(p):
        values = [psi(x) for x in range(1, p)]
        if all(abs(v.imag) < 1e-12 for v in values) and any(v.real < 0 for v in values):
            return psi
    raise AssertionError


def test_gauss_sum_norm_primitive():
    for q in range(2, 9):
        for psi in primitive_characters(q):
            assert abs(abs(gauss_sum(psi)) ** 2 - q) < 1e-12


def test_gauss_assembly_identity_exact():
    # every modulus q <= 8 carrying primitive characters, coprime levels
    rng = random.Random(15)
    for q in (3, 4, 5, 7, 8):
        for psi in primitive_characters(q):
            for p in (11, 13, 29):
                vec = {b: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for b in range(q)}
                assert gauss_assembly_residual(psi, p, vec) < 1e-10


def test_conj_built_once_per_call(monkeypatch, delta2000):
    calls = []
    conj = ResidueChar.conj

    def counting_conj(psi):
        calls.append(psi.q)
        return conj(psi)

    monkeypatch.setattr(ResidueChar, "conj", counting_conj)
    psi = primitive_characters(7)[1]
    gauss_assembly_residual(psi, 11, {b: complex(b, 1) for b in range(7)})
    assert calls == [7]
    calls.clear()
    lambda_multiplicative(delta2000, psi, 14 + 0j, level=1)
    assert calls == [7]


def test_dual_twist_b_invariance_literal(delta2000):
    # Lambda(g, -B/q, s) depends on B only through B mod q: e(-Bm/q) is
    # literally q-periodic in B
    s = 14 + 0j
    for B in (2, 2 + 3, 2 - 3):
        assert AdditiveTwist(-B, 3).a == AdditiveTwist(-2, 3).a
    v1 = lambda_additive(delta2000, AdditiveTwist(-2, 3), s)
    v2 = lambda_additive(delta2000, AdditiveTwist(-2 - 3, 3), s)
    assert v1.value == v2.value


def test_lambda_multiplicative_trivial_reduces(delta2000):
    psi = all_characters(1)[0]
    lv = lambda_multiplicative(delta2000, psi, 14 + 0j, level=1)
    untwisted = lambda_additive(delta2000, AdditiveTwist(0, 1), 14 + 0j)
    assert abs(lv.value - untwisted.value) < 1e-12


def test_lambda_multiplicative_oracle(delta2000):
    psi = quadratic_char_residue(5)
    s = 14 + 0j
    lv = lambda_multiplicative(delta2000, psi, s, level=1)
    direct = lambda_direct_dirichlet(delta2000, psi, s)
    assert abs(lv.value - direct) < 1e-8


def test_lambda_multiplicative_rejects_imprimitive(delta2000):
    imprimitive = next(c for c in all_characters(9) if not c.is_primitive() and not c.is_trivial())
    with pytest.raises(ValueError):
        lambda_multiplicative(delta2000, imprimitive, 14 + 0j, level=1)


def test_check_fe_multiplicative_dd11(dd11):
    f, g = dd11
    psi = next(c for c in primitive_characters(3))
    rep = check_fe_multiplicative(f, g, 11, 24, 1.0, psi, s_samples=[12 + 0j], tolerance=1e-6)
    assert rep.verdict
    assert rep.samples[0]["residual"] < 1e-6


def test_check_fe_multiplicative_q1_specialization(dd5):
    f, g = dd5
    psi = all_characters(1)[0]
    rep = check_fe_multiplicative(f, g, 5, 24, 1.0, psi, s_samples=[12 + 0j, 13 + 0j],
                                  tolerance=1e-6)
    assert rep.verdict
    # the constant reduces to i^k chi(1) p^{k/2 - s} scaling: tau(psi)^2/q = 1
    assert abs(rep.constant - 1.0) < 1e-14


def test_check_fe_multiplicative_sign_sensitivity(dd11):
    f, g = dd11
    psi = next(c for c in primitive_characters(3))
    flipped = -psi(11) * gauss_sum(psi) ** 2 / 3
    rep = check_fe_multiplicative(
        f, g, 11, 24, 1.0, psi, s_samples=[12 + 0j], tolerance=1e-6,
        constant_override=flipped,
    )
    assert not rep.verdict
    assert rep.samples[0]["residual"] > 1e-2


def test_dual_statements_cover_units():
    for q in (3, 5, 7):
        sts = additive_statements_for_psi(11, 24, q)
        duals = sorted((-fe.B) % q for fe in sts.values())
        assert duals == sorted(a for a in range(1, q) if math.gcd(a, q) == 1)


# -- certification ---------------------------------------------------------------


def test_certify_dd5(dd5):
    f, g = dd5
    cert = certify_modularity(f, g, 5, 24, None, tolerance=1e-7)
    assert cert.verdict
    assert cert.Q == [1, 2, 3]
    assert all(c.residual < 1e-7 for c in cert.checks)


def test_certify_level1_form_at_level_5():
    # Delta is also a level-5 form; g = Delta|W_5 has b_m = 5^6 tau(m/5)
    d = delta_coeffs(600)
    b = [0] * 600
    for j in range(1, 121):
        b[5 * j - 1] = 5**6 * d.exact[j - 1]
    from weilgap.series import CoeffSeries

    g = CoeffSeries([complex(x) for x in b], 12, 5, 6.0, "delta_fricke5", exact=b)
    cert = certify_modularity(d.copy_with(level=5), g, 5, 12, None, tolerance=1e-7)
    assert cert.verdict


def test_certify_names_failing_generator(dd5):
    f, g = dd5
    bad = f.copy_with(coeffs=[c + (1 if m == 5 else 0) for m, c in enumerate(f.coeffs)], exact=None)
    cert = certify_modularity(bad, g, 5, 24, None, tolerance=1e-7)
    assert not cert.verdict
    assert cert.failing is not None
    assert cert.failing in {"W_p", "V_2", "V_3"}


def test_error_budget_in_json(dd5):
    f, g = dd5
    rep = check_fe_additive(f, g, 5, 24, fe_for_q(5, 24, 1), s_samples=[12 + 0j], with_lambda=False)
    doc = json.loads(json.dumps(rep.to_json()))
    assert doc == rep.to_json()
    for sample, obj in zip(doc["samples"], rep.samples):
        assert sample["quadrature_error"] == obj.quadrature_error
        assert sample["scale"] == obj.scale
    cert = certify_modularity(f, g, 5, 24, None, tolerance=1e-7)
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc == cert.to_json()
    assert [c["truncation"] for c in doc["per_generator"]] == [c.truncation for c in cert.checks]
