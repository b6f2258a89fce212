import cmath
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilgap.characters import all_characters, primitive_characters
from weilgap.series import delta_coeffs, delta_delta_p
from weilgap.analytic import (
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
    lambda_direct_dirichlet,
    lambda_multiplicative,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)


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
    short = delta2000.copy_with(coeffs=delta2000.coeffs[:60], exact=None)
    s = 13 + 0.7j
    v1 = lambda_additive(short, AdditiveTwist(0, 1), s, method="gamma")
    v2 = lambda_additive(short, AdditiveTwist(0, 1), s, method="quad")
    assert abs(v1.value - v2.value) < 1e-10 * max(1.0, abs(v1.value))


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
    # sum (0.017) would under-report, as the q-expansion tail bound says
    d = delta_coeffs(10)
    assert d.tail_bound(1e-5) == math.inf
    assert _tail_upper_gamma(d, 7.0, 1e-5) == math.inf


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
