import cmath
import dataclasses
import json
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weilgap.analytic as analytic
from weilgap.matrices import Mat2, S, T
from weilgap.characters import ResidueChar, all_characters, primitive_characters
from weilgap.presentation import compute_Q
from weilgap.series import _cgamma, delta_coeffs, delta_delta_p, series_evaluator, upper_incomplete_gamma
from weilgap.analytic import (
    _auto_window,
    _leggauss,
    _relation,
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
)

from oracles import eisenstein_level1, lambda_multiplicative

# [[D, a], [-pB, q]] for (a, q, B, D) = (-1, 1, -1, -4): V_1 at p = 5
V1_AT_5 = Mat2(-4, -1, 5, 1)


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


def auto_window_loop(f, g, fe, cut):
    """Oracle: _auto_window as two while loops of single-point probes."""
    y_bal = 1.0 / (fe.q * math.sqrt(fe.p))

    def reliable(y):
        lhs, rhs, trust = _relation(f, g, fe, np.array([1j * y]))
        return trust[0] <= cut * (abs(lhs[0]) + abs(rhs[0]))

    assert reliable(y_bal)
    y_lo = y_hi = y_bal
    while y_lo / 1.25 > y_bal / 4096 and reliable(y_lo / 1.25):
        y_lo /= 1.25
    while y_hi * 1.25 < y_bal * 4096 and reliable(y_hi * 1.25):
        y_hi *= 1.25
    return y_lo, y_hi


def eval_many_padded_per_call(series, zs):
    """Oracle: CoeffSeries.eval_many as it was before the coefficient
    matrix was kept, padding a fresh array of the coefficients per call."""
    qs = np.exp(2j * np.pi * np.asarray(zs, dtype=complex))
    B = max(1, math.isqrt(series.M))
    blocks = -(-series.M // B)
    coeffs = np.pad(np.asarray(series.coeffs, dtype=complex), (0, blocks * B - series.M))
    baby = qs[:, None] ** np.arange(1, B + 1)
    giant = baby[:, -1:] ** np.arange(blocks)
    inner = np.einsum("nb,jb->nj", baby, coeffs.reshape(blocks, B))
    return series.a0 + np.sum(inner * giant, axis=1)


def fe_report_from_separate_calls(f, g, fe, s_samples, tolerance):
    """Oracle: check_fe_additive (with_lambda off) from separate relation
    calls for the window, the full rule, the half rule and each modular
    point."""
    y_lo, y_hi = _auto_window(f, g, fe, cut=min(1e-8, tolerance * 1e-2))
    nodes = min(384, max(96, int(40 * math.log(y_hi / y_lo))))
    ts, ws = analytic._gl_log_nodes(y_lo, y_hi, nodes)
    ts_half, ws_half = analytic._gl_log_nodes(y_lo, y_hi, nodes // 2)
    lhs, rhs, trust = _relation(f, g, fe, 1j * np.exp(ts))
    lhs_half, rhs_half, _ = _relation(f, g, fe, 1j * np.exp(ts_half))
    mag = 0.5 * (np.abs(lhs) + np.abs(rhs))
    samples = []
    for s in map(complex, s_samples):
        d_full = complex(np.sum(ws * (lhs - rhs) * np.exp(ts * s)))
        d_half = complex(np.sum(ws_half * (lhs_half - rhs_half) * np.exp(ts_half * s)))
        win_err = float(np.sum(ws * trust * np.exp(ts * s.real)))
        scale = float(np.sum(ws * mag * np.exp(ts * s.real))) + 1e-300
        quad_err = abs(d_full - d_half)
        passed = analytic._passes(abs(d_full), win_err + quad_err, scale, tolerance)
        samples.append(analytic.DefectSample(s, d_full, abs(d_full) / scale, scale, win_err, quad_err, passed))
    y_bal = fe.balance_height
    points = []
    for scale_y, re_frac in ((0.8, 0.0), (1.0, 0.21), (1.3, -0.13)):
        pt = check_modular_relation(f, g, fe.p, fe.k, fe, complex(re_frac * y_bal, scale_y * y_bal), tolerance)
        pt.passed = analytic._passes(pt.absolute, pt.truncation, max(abs(pt.lhs), abs(pt.rhs), 1e-300), tolerance)
        points.append(pt)
    verdict = all(s.passed for s in samples) and all(pt.passed for pt in points)
    return analytic.FEReport(fe, (y_lo, y_hi), samples, points, tolerance, verdict)


def relation_on_axis(f, g, fe, ys):
    """Oracle: the imaginary-axis formulas that _relation replaced (the f
    side, ghat and the trust of ghat), at z = iy."""
    pq2 = fe.p * fe.q * fe.q
    lhs = f.eval_many(fe.twist().a / fe.q + 1j * ys)
    vs = 1.0 / (pq2 * ys)
    jacobian = pq2 ** (-fe.k / 2) * ys ** (-float(fe.k))
    rhs = (1j**fe.k) * fe.phase * jacobian * g.eval_many(fe.dual_twist().a / fe.q + 1j * vs)
    return lhs, rhs, f.tail_bound(ys) + jacobian * g.tail_bound(vs)


def relation_at_point(f, g, fe, z):
    """Oracle: the scalar formulas of check_modular_relation before it
    became a view of _relation."""
    p, k, q = fe.p, fe.k, fe.q
    lhs = complex(f.eval_many(np.array([fe.twist().a / q + z]))[0])
    pq2 = p * q * q
    w = -1.0 / (pq2 * z)
    g_val = complex(g.eval_many(np.array([fe.dual_twist().a / q + w]))[0])
    rhs = (-1) ** k * fe.phase * p ** (-k / 2) * float(q) ** (-k) * z ** (-k) * g_val
    dual_height = z.imag / (pq2 * abs(z) ** 2)
    trunc = f.tail_bound(z.imag) + abs(z) ** (-k) * p ** (-k / 2) * float(q) ** (-k) * g.tail_bound(
        dual_height
    )
    return lhs, rhs, trunc


def term_scale(f, g, fe, z):
    """sum |a_m e(m z)| + |(p q^2)^{-k/2} z^{-k}| sum |b_m e(m w)|: the size
    of the terms both sides of the relation add up, so the most their
    rounding can move them.  Far above the balance height the dual side is
    a sum of large terms that cancel, and this is much more than |rhs|."""
    pq2 = fe.p * fe.q * fe.q

    def terms(series, y):
        ms = np.arange(1, series.M + 1)
        return abs(series.a0) + float(np.sum(np.abs(series.as_array()) * np.exp(-2 * np.pi * ms * y)))

    w = -1 / (pq2 * z)
    return terms(f, z.imag) + abs(pq2 ** (-fe.k / 2) * z ** (-fe.k)) * terms(g, w.imag)


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


def test_gamma_memo_keeps_values_not_errors():
    s = 7.25 + 0.5j
    with mp.workdps(30):
        want = complex(mp.gamma(mp.mpc(s)))
    assert cgamma(s) == want
    hits = _cgamma.cache_info().hits
    assert cgamma(s) == want and _cgamma.cache_info().hits == hits + 1
    size = _cgamma.cache_info().currsize
    for bad, error in ((0, ValueError), (-3 + 0j, ValueError), (200, OverflowError), (180.5 + 1j, OverflowError)):
        for _ in range(2):
            with pytest.raises(error):
                cgamma(bad)
    assert _cgamma.cache_info().currsize == size


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


def test_lambda_additive_quadrature_route(delta2000):
    # the incomplete-gamma split at y0 = 1 with both parts from mpmath:
    # Gamma(s, x) by gammainc and the lower integral by adaptive quadrature
    # of the truncated q-expansion
    short = delta2000.copy_with(coeffs=delta2000.coeffs[:60], exact=None)
    s, y0 = 13 + 0.7j, 1.0
    lv = lambda_additive(short, AdditiveTwist(0, 1), s)
    upper = sum(
        short.a(m) * (2 * math.pi * m) ** (-s) * mp_gammainc(s, 2 * math.pi * m * y0, mp.inf)
        for m in range(1, short.M + 1)
    )
    f_trunc = series_evaluator(short)
    with mp.workdps(30):
        lower = complex(mp.quad(lambda y: f_trunc(mp.mpc(0, y)) * mp.mpc(y) ** (s - 1), [0, y0]))
    assert abs(lv.value - (upper + lower)) < 1e-10 * max(1.0, abs(lv.value))


@pytest.mark.parametrize("twist", [AdditiveTwist(0, 1), AdditiveTwist(1, 3)])
def test_lambda_additive_leaves_out_the_constant_term(twist):
    # Lambda starts at m = 1: for E_4 the value is Gamma(s) times the
    # Dirichlet sum of a_1..a_M, with no term from a_0
    e4 = eisenstein_level1(4, 600)
    for s in (2 + 0j, 2 + 1j, 6 + 0j, 7.5 - 2j):
        direct = lambda_direct_dirichlet(e4, twist, s)
        assert abs(lambda_additive(e4, twist, s).value - direct) <= 1e-13 * abs(direct)


@pytest.mark.parametrize("M", [50, 200, 500])
def test_lambda_error_bounds_the_truncation(delta2000, M):
    # the stated error of a short prefix covers its distance to the M = 2000
    # value, which holds the first 2000 - M dropped terms
    short = delta2000.copy_with(coeffs=delta2000.coeffs[:M], exact=None)
    for twist in (AdditiveTwist(0, 1), AdditiveTwist(1, 3)):
        for s in (8 + 0j, 9.5 + 2j, 11 + 0j, 14 + 0j):
            lv = lambda_additive(short, twist, s)
            gap = abs(lv.value - lambda_additive(delta2000, twist, s).value)
            assert gap <= lv.error < math.inf


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


def test_tail_bound_is_finite_at_a_small_height():
    # at y0 = 1e-5 the tail terms m^sigma e^{-2 pi m y0} grow up to m near
    # 95,000; the closed form is finite there and not below
    # C int_11^inf x^sigma e^{-t x} dx
    d = delta_coeffs(10)
    t = 2 * math.pi * 1e-5
    with mp.workdps(30):
        integral = d.growth_c * mp.quad(lambda x: x**d.sigma * mp.exp(-t * x), [11, mp.inf])
    assert integral <= d.tail_bound(1e-5) < math.inf


def test_lambda_additive_rejects_empty():
    empty = delta_coeffs(1).copy_with(coeffs=[], exact=None)
    with pytest.raises(ValueError):
        lambda_additive(empty, AdditiveTwist(0, 1), 14 + 0j)


def test_lambda_additive_tells_a_nan_coefficient_from_an_overflow():
    # a NaN coefficient used to be reported as an overflow
    nan = analytic.CoeffSeries([1, math.nan, 3], 12, 1, 6.0, "x")
    with pytest.raises(ValueError, match=r"a_2 = \(nan\+0j\) is not finite"):
        lambda_additive(nan, AdditiveTwist(0, 1), 10)
    huge = analytic.CoeffSeries([1e308, 1e308], 12, 1, 6.0, "x")
    with pytest.raises(OverflowError, match="overflows double precision"):
        lambda_additive(huge, AdditiveTwist(0, 1), -0.5)


def test_hecke_functional_equation_residuals(delta2000):
    fe = fe_for_q(1, 12, 1)
    rep = check_fe_additive(delta2000, delta2000, 1, 12, fe, s_samples=[6 + 0j, 7 + 1j],
                            tolerance=1e-8)
    assert rep.verdict
    for sample in rep.samples:
        assert abs(sample.defect_integral) < 1e-8


# -- modular relations ---------------------------------------------------------


def test_modular_relation_dd5(dd5):
    f, g = dd5
    fe = FEStatement(5, 24, V1_AT_5, 1.0)
    res = check_modular_relation(f, g, 5, 24, fe, 0.2 + 0.9j)
    assert res.residual < 1e-8
    assert abs(res.fitted_phase - 1.0) < 1e-6


def test_modular_relation_detects_corruption(dd5):
    f, g = dd5
    bad = f.copy_with(coeffs=[c + (1 if m == 5 else 0) for m, c in enumerate(f.coeffs)], exact=None)
    fe = FEStatement(5, 24, V1_AT_5, 1.0)
    res = check_modular_relation(bad, g, 5, 24, fe, 0.2 + 0.9j)
    assert res.residual > 1e-3


def test_fitted_phase_recovers_rotation(dd5):
    # rotate g by e(-theta): the pair then satisfies the relation with
    # declared phase e(theta), and the fitted phase must land on it
    f, g = dd5
    theta = 1.0 / 7.0
    rot = cmath.exp(-2j * cmath.pi * theta)
    g_rot = g.copy_with(coeffs=[rot * c for c in g.coeffs], exact=None)
    fe = FEStatement(5, 24, V1_AT_5, cmath.exp(2j * cmath.pi * theta))
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
    fe = FEStatement(p, k, V1_AT_5, 1.0)
    z = 0.08 + 0.5j
    res = check_modular_relation(bad, g, p, k, fe, z)
    z_dual = -1.0 / (p * z)
    res_dual = check_modular_relation(g, bad, p, k, fe.dual(), z_dual)
    expected = abs(p ** (k / 2) * z**k) * res.absolute
    assert abs(res_dual.absolute - expected) < 1e-6 * expected


@pytest.mark.parametrize("p", [5, 11])
def test_relation_matches_the_formulas_it_replaced(dd5, dd11, p):
    f, g = dd5 if p == 5 else dd11
    rng = random.Random(p)
    for q in sorted(compute_Q(p)):
        fe = fe_for_q(p, 24, q, cmath.exp(2j * cmath.pi * rng.random()))
        y_bal = fe.balance_height
        zs = np.array(
            [complex(rng.uniform(-0.5, 0.5) * y_bal, rng.uniform(0.2, 5) * y_bal) for _ in range(20)]
        )
        lhs, rhs, trunc = _relation(f, g, fe, zs)
        for z, l, r, t in zip(zs, lhs, rhs, trunc):
            l0, r0, t0 = relation_at_point(f, g, fe, complex(z))
            budget = 1e-13 * term_scale(f, g, fe, complex(z))
            assert abs(l - l0) <= budget and abs(r - r0) <= budget
            assert t == pytest.approx(t0, rel=1e-12, abs=0)
        lhs, rhs, trunc = _relation(f, g, fe, 1j * zs.imag)
        l0, r0, t0 = relation_on_axis(f, g, fe, zs.imag)
        budget = 1e-13 * np.array([term_scale(f, g, fe, 1j * y) for y in zs.imag])
        assert np.all(np.abs(lhs - l0) <= budget) and np.all(np.abs(rhs - r0) <= budget)
        np.testing.assert_allclose(trunc, t0, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p, qs", [(5, [1, 2, 3]), (11, [1, 3, 6])])
def test_fe_modular_points_are_the_one_point_relation(p, qs):
    # the batched modular points of check_fe_additive are
    # check_modular_relation at the same z bit for bit, passing with the
    # truncation as their error
    f, g = delta_delta_p(p, 600)
    assert sorted(compute_Q(p)) == qs
    for q in qs:
        fe = fe_for_q(p, 24, q, 1.0)
        points = check_fe_additive(f, g, p, 24, fe, tolerance=1e-6).modular_points
        assert len(points) == 3
        for pt in points:
            one = check_modular_relation(f, g, p, 24, fe, pt.z, tolerance=1e-6)
            one.passed = analytic._passes(one.absolute, one.truncation, max(abs(one.lhs), abs(one.rhs), 1e-300), 1e-6)
            assert repr(dataclasses.astuple(pt)) == repr(dataclasses.astuple(one))


@pytest.mark.parametrize("p, q, phase", [(5, 2, 1.0), (11, 1, 1.0), (11, 6, cmath.exp(0.7j))])
def test_check_fe_additive_is_the_separate_calls_bit_for_bit(monkeypatch, p, q, phase):
    # one relation call for both rules and the modular points, on the
    # coefficient matrix built once, gives the report of the separate calls
    # on a freshly padded one, bit for bit
    f, g = delta_delta_p(p, 900)
    fe = fe_for_q(p, 24, q, phase)
    s_samples = [*analytic.default_s_grid(24, f.sigma), 9.5 - 2j]
    report = check_fe_additive(f, g, p, 24, fe, s_samples, tolerance=1e-6)
    monkeypatch.setattr(analytic.CoeffSeries, "eval_many", eval_many_padded_per_call)
    assert repr(report) == repr(fe_report_from_separate_calls(f, g, fe, s_samples, 1e-6))


@pytest.mark.parametrize("p", [5, 11])
def test_certify_modularity_is_the_padded_evaluation_bit_for_bit(monkeypatch, p):
    # the certificates of a series and of a corrupted copy_with of it, made
    # after the series built its matrix, are those of a fresh pad per call
    f, g = delta_delta_p(p, 900)
    bad = f.copy_with(coeffs=[c + (m == p + 2) for m, c in enumerate(f.coeffs, start=1)], exact=None)
    certificates = [certify_modularity(x, g, p, 24, None, tolerance=1e-6) for x in (f, bad)]
    monkeypatch.setattr(analytic.CoeffSeries, "eval_many", eval_many_padded_per_call)
    assert repr(certificates) == repr([certify_modularity(x, g, p, 24, None, tolerance=1e-6) for x in (f, bad)])
    assert certificates[0].verdict and not certificates[1].verdict


@pytest.mark.parametrize("p", [5, 11])
def test_certificate_residual_is_the_worst_one_point_residual(p):
    # each generator's residual, truncation and pass are those of the
    # one-point check at its three points, bit for bit, on an honest pair
    # and on a corrupted one
    f, g = delta_delta_p(p, 900)
    bad = f.copy_with(coeffs=[c + (m == p + 2) for m, c in enumerate(f.coeffs, start=1)], exact=None)
    for x in (f, bad):
        cert = certify_modularity(x, g, p, 24, None, tolerance=1e-6)
        for check in cert.checks[1:]:
            fe = fe_for_q(p, 24, check.q, 1.0 + 0j)
            zs = [fe.balance_height * (0.17 * (i - 1) + 1j * (0.75 + 0.25 * i)) for i in range(3)]
            points = [check_modular_relation(x, g, p, 24, fe, z, tolerance=1e-6) for z in zs]
            assert check.residual == max(pt.residual for pt in points)
            assert check.truncation == max(pt.truncation for pt in points)
            assert check.passed == all(pt.passed for pt in points)
    assert not certify_modularity(bad, g, p, 24, None, tolerance=1e-6).verdict


def test_certificate_residual_reads_nan(monkeypatch, dd5):
    # a NaN at a generator's middle point is its residual, not skipped
    relation = analytic._relation

    def nan_in_the_middle(f, g, fe, zs):
        lhs, rhs, trunc = relation(f, g, fe, zs)
        lhs = lhs.copy()
        lhs[1] = complex("nan")
        return lhs, rhs, trunc

    monkeypatch.setattr(analytic, "_relation", nan_in_the_middle)
    cert = certify_modularity(*dd5, 5, 24, None, tolerance=1e-6)
    assert all(math.isnan(c.residual) and not c.passed for c in cert.checks[1:])
    assert not cert.verdict and cert.failing == "W_p"


def test_level_and_weight_must_match_the_statement(dd5):
    # a level-5 statement checked at (11, 24) used to run its defect
    # integrals at level 5 and its modular points at level 11
    f, g = dd5
    fe = fe_for_q(5, 24, 1)
    for p, k in ((11, 24), (5, 12)):
        with pytest.raises(ValueError, match="differs from the statement"):
            check_fe_additive(f, g, p, k, fe, with_lambda=False)
        with pytest.raises(ValueError, match="differs from the statement"):
            check_modular_relation(f, g, p, k, fe, 0.2 + 0.9j)


def test_fe_statement_validation():
    with pytest.raises(ValueError):
        FEStatement(5, 24, Mat2(1, 1, -5, 3), 1.0)  # determinant violated
    with pytest.raises(ValueError):
        FEStatement(5, 24, Mat2(1, 1, 4, 5), 1.0)  # p does not divide c (here p | q)
    with pytest.raises(ValueError):
        FEStatement(5, 24, Mat2(1, 1, -5, -4), 1.0)  # q < 1
    with pytest.raises(ValueError):
        FEStatement(1, 12, T, 1.0)  # q = 0 at level 1
    with pytest.raises(ValueError):
        FEStatement(5, 24, V1_AT_5, 2.0)  # phase off the circle


def test_fe_statement_reads_its_matrix():
    fe = FEStatement(11, 24, Mat2(-7, 1, -22, 3), 1j)
    assert (fe.a, fe.q, fe.B, fe.D) == (1, 3, 2, -7)
    assert (str(fe.twist()), str(fe.dual_twist())) == ("1/3", "1/3")
    dual = fe.dual()
    assert dual.gamma == Mat2(-7, -2, 11, 3) and dual.phase == -1j
    assert (dual.a, dual.B, dual.D) == (-fe.B, -fe.a, fe.D)
    # level 1: T S = [[0, -1], [1, 1]], the Hecke statement
    level1 = fe_for_q(1, 12, 1)
    assert level1.gamma == T * S
    assert (level1.a, level1.q, level1.B, level1.D) == (-1, 1, -1, 0)


def test_additive_statements_sit_on_the_constraint_matrices():
    from weilgap.presentation import constraint_matrix

    for a, fe in additive_statements_for_psi(13, 24, 7, 1j).items():
        assert fe.gamma == constraint_matrix(13, a, 7)[0] and fe.phase == 1j


def test_fe_for_q_matches_generator_matrix():
    from weilgap.presentation import v_matrix

    for p in (5, 13):
        for q in (1, 2, 3):
            fe = fe_for_q(p, 24, q, 1.0)
            assert fe.gamma == v_matrix(p, q)


PRIMES = [n for n in range(5, 500) if all(n % f for f in range(2, n))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 5000))
def test_fe_for_q_at_random_levels(p, q):
    from weilgap.presentation import v_matrix

    assume(q % p != 0)
    fe = fe_for_q(p, 24, q)
    assert fe.gamma == v_matrix(p, q)
    # q q* = -1 mod p with 1 <= q* <= p, by brute force
    qs = next(s for s in range(1, p + 1) if (q * s + 1) % p == 0)
    assert (fe.a, fe.q, fe.B, fe.D) == (-1, q, -(q * qs + 1) // p, -qs)


def test_fe_for_q_at_level_1_twists_by_minus_one_over_q():
    from weilgap.presentation import constraint_matrix

    assert fe_for_q(1, 12, 1).gamma == T * S
    for q in range(2, 10):
        fe = fe_for_q(1, 12, q)
        assert fe.gamma == constraint_matrix(1, -1, q)[0]
        assert (fe.a, fe.q) == (-1, q)
        assert fe.twist() == AdditiveTwist(-1, q)


def test_additive_twist_reduction():
    t = AdditiveTwist(7, 3)
    assert t.a == 1
    with pytest.raises(ValueError):
        AdditiveTwist(2, 4)
    assert AdditiveTwist(0, 1).a == 0


# -- additive FE reports -------------------------------------------------------


def test_check_fe_additive_dd11_q3(dd11):
    f, g = dd11
    fe = FEStatement(11, 24, Mat2(-7, 1, -22, 3), 1.0)
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


def counting_relation(monkeypatch):
    """Count the _relation calls, and the points of each."""
    sizes = []
    relation = analytic._relation

    def counting(f, g, fe, zs, **bounded):
        sizes.append(len(zs))
        return relation(f, g, fe, zs, **bounded)

    monkeypatch.setattr(analytic, "_relation", counting)
    return sizes


def test_auto_window_rounds_on_runs_the_honest_ladders_miss(monkeypatch):
    # against a zero series, one side's trust is that of f alone: its run
    # takes a second round and reaches 4096 y_bal, while a cut just above
    # the balance height's ratio leaves the other side's run empty (M = 100
    # keeps that ratio, 3.6e-100, from underflowing)
    f, _ = delta_delta_p(5, 100)
    zero = f.copy_with(coeffs=[0.0] * f.M, exact=None)
    fe = fe_for_q(5, 24, 1)
    y_bal = fe.balance_height
    lhs, rhs, trust = _relation(f, zero, fe, np.array([1j * y_bal]))
    at_balance = float(trust[0] / (abs(lhs[0]) + abs(rhs[0])))
    sizes = counting_relation(monkeypatch)
    for pair, cut in (((f, zero), 1e-8), ((zero, f), 1e-8), ((f, zero), 1.01 * at_balance)):
        sizes.clear()
        window = _auto_window(*pair, fe, cut=cut)
        assert window == auto_window_loop(*pair, fe, cut)
        rungs = [round(math.log(y_bal / window[0], 1.25)), round(math.log(window[1] / y_bal, 1.25))]
        wide = 0 if pair[0] is zero else 1  # the side that reaches the ladder's end
        assert rungs[wide] == 37 and window[wide] == pytest.approx(y_bal * 1.25 ** (37 if wide else -37))
        # both sides' first round (rung 0 once), then the wide side's other 18 or 17 rungs
        assert sizes == [40, 17 if wide else 18]
        if cut != 1e-8:
            assert rungs[0] == 0 and window[0] == y_bal
    with pytest.raises(ValueError, match="unreliable at the balance height"):
        _auto_window(f, zero, fe, cut=0.99 * at_balance)


@pytest.mark.parametrize("p, M", [(5, 2000), (11, 3000)])
def test_a_converse_desk_statement_makes_two_relation_calls(monkeypatch, p, M):
    # one ladder round for the window, then the rules' nodes and the
    # modular points; each run ends inside the first round
    f, g = delta_delta_p(p, M)
    sizes = counting_relation(monkeypatch)
    for q in sorted(compute_Q(p)):
        sizes.clear()
        check_fe_additive(f, g, p, 24, fe_for_q(p, 24, q))
        assert len(sizes) == 2 and sizes[0] == 2 * analytic._WINDOW_ROUND


@pytest.mark.parametrize("p, M", [(5, 20), (11, 36)])
def test_a_window_of_the_balance_height_alone_is_insufficient(p, M):
    # no rung beside y_bal is reliable: the window would be [y_bal, y_bal],
    # every sample would read 0 at scale 1e-300, and the verdict would pass
    f, g = delta_delta_p(p, M)
    fe = fe_for_q(p, 24, 1)
    with pytest.raises(ValueError, match="^insufficient coefficients: .* beside the balance height$"):
        _auto_window(f, g, fe)
    with pytest.raises(ValueError, match="^insufficient coefficients"):
        check_fe_additive(f, g, p, 24, fe)


@pytest.mark.parametrize("p, q", [(5, 2), (11, 1)])
def test_check_fe_additive_bounds_only_the_points_it_reads(monkeypatch, p, q):
    # the full rule's nodes and the modular points are bounded, the half
    # rule's nodes are not, and the report is that of bounding every point
    f, g = delta_delta_p(p, 900)
    fe = fe_for_q(p, 24, q)
    report = check_fe_additive(f, g, p, 24, fe, tolerance=1e-6)
    relation, bounded_counts = analytic._relation, []

    def bounding_every_point(f, g, fe, zs, bounded=slice(None)):
        lhs, rhs, trust = relation(f, g, fe, zs)
        bounded_counts.append((len(zs), len(trust[bounded])))
        assert trust[bounded].tobytes() == relation(f, g, fe, zs, bounded)[2].tobytes()
        return lhs, rhs, trust[bounded]

    monkeypatch.setattr(analytic, "_relation", bounding_every_point)
    assert repr(check_fe_additive(f, g, p, 24, fe, tolerance=1e-6)) == repr(report)
    (window_points, window_bounded), (points, bounded) = bounded_counts
    nodes = bounded - 3
    assert window_points == window_bounded and points == nodes + nodes // 2 + 3


def test_residue_of_psi_mod_3_is_the_v3_report_bit_for_bit(monkeypatch):
    # at p = 11, residue 2 of psi mod 3 is V_3's statement (twist 2/3, dual
    # twist 2/3, phase 1) on another matrix, so it reads eval_many's memo
    # for every array; its report is the standalone V_3 report on fresh
    # series, apart from the matrix
    f, g = delta_delta_p(11, 1200)
    psi = next(c for c in primitive_characters(3) if not c.is_trivial())
    v3 = check_fe_additive(f, g, 11, 24, fe_for_q(11, 24, 3), tolerance=1e-6)
    contractions = []
    block_sums = analytic.CoeffSeries._block_sums

    def counting(series, zs):
        contractions.append(len(zs))
        return block_sums(series, zs)

    monkeypatch.setattr(analytic.CoeffSeries, "_block_sums", counting)
    rep = check_fe_multiplicative(f, g, 11, 24, 1.0, psi, tolerance=1e-6)
    count = len(contractions)
    residue = rep.additive_reports[list(additive_statements_for_psi(11, 24, 3)).index(2)]
    assert (residue.fe.twist(), residue.fe.dual_twist(), residue.fe.phase) == (v3.fe.twist(), v3.fe.dual_twist(), 1)
    assert residue.fe.gamma != v3.fe.gamma
    check_fe_additive(f, g, 11, 24, residue.fe, tolerance=1e-6)
    assert count > 0 and len(contractions) == count
    monkeypatch.undo()
    fresh = check_fe_additive(*delta_delta_p(11, 1200), 11, 24, fe_for_q(11, 24, 3), tolerance=1e-6)

    def fields(report):
        return repr((report.window, report.samples, report.modular_points, report.verdict))

    assert fields(residue) == fields(v3) == fields(fresh)


def test_lambda_pairs_only_where_they_can_gate(monkeypatch, dd5, delta2000):
    calls = []
    one_sided = analytic.lambda_additive

    def counting(f, twist, s):
        calls.append(complex(s))
        return one_sided(f, twist, s)

    monkeypatch.setattr(analytic, "lambda_additive", counting)
    # k = 24, sigma = 12: no s has Re s > 13 and 24 - Re s > 13, so none runs
    f, g = dd5
    assert check_fe_additive(f, g, 5, 24, fe_for_q(5, 24, 1)).verdict
    assert len(calls) == 0
    # k = 12 with sigma lowered to 4: a sample gates when 5 < Re s < 7
    calls.clear()
    d = delta2000.copy_with(sigma=4.0)
    check_fe_additive(d, d, 1, 12, fe_for_q(1, 12, 1), s_samples=[6 + 0j, 6.5 + 1j, 7 + 0j, 8 + 0j])
    assert calls[:4] == [6, 6, 6.5 + 1j, 5.5 - 1j]
    assert len(calls) == 4


@pytest.mark.parametrize("k", [4, 6, 8])
def test_level1_eisenstein_passes_check_fe_additive(k):
    # a constant term a_0 = 1 does not spoil the functional equation
    e = eisenstein_level1(k, 600)
    rep = check_fe_additive(e, e, 1, k, fe_for_q(1, k, 1), s_samples=[k / 2 + 0j, k / 2 + 1j])
    assert rep.verdict


def test_check_fe_additive_wrong_phase_fails(dd5):
    f, g = dd5
    wrong = cmath.exp(2j * cmath.pi / 7)
    fe = FEStatement(5, 24, V1_AT_5, wrong)
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
    lambda_multiplicative(delta2000, psi, 14 + 0j)
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
    lv = lambda_multiplicative(delta2000, psi, 14 + 0j)
    untwisted = lambda_additive(delta2000, AdditiveTwist(0, 1), 14 + 0j)
    assert abs(lv.value - untwisted.value) < 1e-12


def test_lambda_multiplicative_oracle(delta2000):
    psi = quadratic_char_residue(5)
    s = 14 + 0j
    lv = lambda_multiplicative(delta2000, psi, s)
    direct = lambda_direct_dirichlet(delta2000, psi, s)
    assert abs(lv.value - direct) < 1e-8


def test_lambda_multiplicative_rejects_imprimitive(delta2000):
    imprimitive = next(c for c in all_characters(9) if not c.is_primitive() and not c.is_trivial())
    with pytest.raises(ValueError):
        lambda_multiplicative(delta2000, imprimitive, 14 + 0j)


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
    # the declared constant is chi(q) psi(p) tau(psi)^2/q, so chi(q) = -1 flips it
    f, g = dd11
    psi = next(c for c in primitive_characters(3))
    rep = check_fe_multiplicative(f, g, 11, 24, -1.0, psi, s_samples=[12 + 0j], tolerance=1e-6)
    assert not rep.verdict
    assert rep.samples[0]["residual"] > 1e-2


def test_check_fe_multiplicative_samples_read_g(dd11):
    # every 7th coefficient of g off by 30%: the samples themselves fail,
    # not only the per-residue reports
    f, g = dd11
    bad = g.copy_with(coeffs=[c * 1.3 if m % 7 == 0 else c for m, c in enumerate(g.coeffs, start=1)], exact=None)
    psi = next(c for c in primitive_characters(3))
    rep = check_fe_multiplicative(f, bad, 11, 24, 1.0, psi, s_samples=[12 + 0j, 13 + 0j], tolerance=1e-6)
    assert not rep.verdict
    for smp in rep.samples:
        assert not smp["pass"]
        assert smp["residual"] > 1e-2


def test_fe_checks_refuse_an_empty_sample_list(dd11):
    # with no s a check would decide on its modular points alone, or, for
    # the multiplicative check, on nothing
    f, g = dd11
    with pytest.raises(ValueError, match="^s_samples is empty"):
        check_fe_additive(f, g, 11, 24, fe_for_q(11, 24, 1), s_samples=[])
    psi = next(c for c in primitive_characters(3))
    with pytest.raises(ValueError, match="^s_samples is empty"):
        check_fe_multiplicative(f, g, 11, 24, 1.0, psi, s_samples=[])


def test_check_fe_multiplicative_q1_is_the_additive_sample(dd11):
    f, g = dd11
    rep = check_fe_multiplicative(f, g, 11, 24, 1.0, all_characters(1)[0])
    (additive,) = rep.additive_reports
    assert len(rep.samples) == len(additive.samples) == 4
    for smp, one in zip(rep.samples, additive.samples):
        assert smp["s"] == one.s
        assert smp["defect"] == one.defect_integral
        assert smp["scale"] == one.scale
        assert smp["error"] == one.window_error + one.quadrature_error
        assert smp["residual"] == one.relative
        assert smp["pass"] == one.passed


@pytest.mark.parametrize("q", [3, 5])
def test_check_fe_multiplicative_relative_defect_within_the_residues(dd11, q):
    # |conj psi(a)| = 1 and |tau| = sqrt q, so the combined relative defect
    # is at most the largest per-residue one
    f, g = dd11
    for psi in primitive_characters(q):
        rep = check_fe_multiplicative(f, g, 11, 24, 1.0, psi)
        assert rep.verdict
        for i, smp in enumerate(rep.samples):
            assert smp["residual"] <= max(r.samples[i].relative for r in rep.additive_reports)


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


def mp_gauss_legendre_node(n, i, dps=40):
    """Oracle: node i (ascending) of the n-point Gauss-Legendre rule and its
    weight, by Newton on the three-term recurrence at dps digits from the
    classical start cos(pi (4j - 1)/(4n + 2)), j = n - i."""

    def legendre(x):  # P_n(x) and P_n'(x)
        p0, p1 = mp.mpf(1), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        return p1, n * (x * p1 - p0) / (x * x - 1)

    with mp.workdps(dps):
        x = mp.cos(mp.pi * (4 * (n - i) - 1) / (4 * n + 2))
        for _ in range(100):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) < mp.mpf(10) ** (5 - dps):
                break
        dp = legendre(x)[1]
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [48, 96, 97, 116, 133, 232, 321, 384])
def test_gauss_legendre_rule_is_numpys_once_and_read_only(n):
    # numpy's rule up to numpy's own error, and a 40-digit mpmath rule to
    # 4 ulp in the nodes and 1e-12 in the weights
    x, w = _leggauss(n)
    assert len(x) == len(w) == n and np.all(np.diff(x) > 0)
    rng = random.Random(n)
    for i in {0, n - 1, n // 2, *rng.sample(range(n), 5)}:
        want_x, want_w = mp_gauss_legendre_node(n, i)
        assert abs(x[i] - want_x) <= 4 * np.finfo(float).eps
        assert abs(w[i] - want_w) <= 1e-12 * want_w
    assert abs(w.sum() - 2) <= 1e-14
    # numpy's eigenvalue rule, for every node: its weights miss the mpmath
    # rule by up to 3.9e-10 relative at these n
    numpy_x, numpy_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - numpy_x) <= 4 * np.finfo(float).eps)
    assert np.all(np.abs(w - numpy_w) <= 1e-9 * numpy_w)
    j = np.arange(n)
    moments = (w[:, None] * x[:, None] ** (2 * j)).sum(axis=0)
    assert np.all(np.abs(moments - 2 / (2 * j + 1)) <= 1e-13)
    assert _leggauss(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
