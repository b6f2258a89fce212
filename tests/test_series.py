import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgap.characters import quadratic_char
from weilgap.matrices import T, FrickeMat
from weilgap.multiplier import char_multiplier, trivial_multiplier
from weilgap.presentation import build_presentation
from weilgap.series import (
    _kronecker_mul,
    CoeffSeries,
    coeffs_via_fourier_extraction,
    delta_coeffs,
    delta_delta_p,
    eisenstein_multiplier_coeffs,
    eisenstein_tail_bound,
    eta_product_coeffs,
    lift_bottom_row,
    multiply,
    series_evaluator,
    slash_evaluator,
    twisted_kloosterman,
)


@pytest.fixture(scope="module")
def tau200():
    return delta_coeffs(200)


def one_series(M, level=1):
    """The constant series 1 (a0 = 1, all a_m = 0)."""
    return CoeffSeries([0j] * M, 0, level, 0.0, "one", a0=1 + 0j, exact=[0] * M)


def tail_bound_loop(series, y):
    """Oracle: the loop the closed-form tail_bound replaced, summing
    C m^sigma e^{-2 pi m y} over m > M until a geometric remainder is
    negligible (inf after 200000 terms)."""
    start = series.M + 1
    t = 2 * math.pi * y
    total, m = 0.0, start
    while True:
        term = m**series.sigma * math.exp(-t * m)
        total += term
        ratio = ((m + 1) / m) ** series.sigma * math.exp(-t)
        if ratio < 1 and term * ratio / (1 - ratio) < 1e-18 * (total + 1e-300):
            total += term * ratio / (1 - ratio)
            break
        if term == 0.0:
            break
        m += 1
        if m > start + 200000:
            return math.inf
    return series.growth_c * total


def naive_delta_prefix(M):
    """Oracle: expand q * prod_{n <= M} (1 - q^n)^24 by repeated naive
    polynomial multiplication."""
    poly = [1] + [0] * M
    for n in range(1, M + 1):
        for _ in range(24):
            new = list(poly)
            for i in range(M + 1 - n):
                if poly[i]:
                    new[i + n] -= poly[i]
            poly = new
    return poly[:M]  # tau(m) = coefficient of q^{m-1}


def test_tau_normalization(tau200):
    assert tau200.exact[0] == 1


def test_tau_against_naive_oracle(tau200):
    oracle = naive_delta_prefix(10)
    assert tau200.exact[:10] == oracle
    assert oracle[1] == -24 and oracle[2] == 252


def test_tau_multiplicativity(tau200):
    tau = tau200.exact
    assert tau[5] == tau[1] * tau[2]
    assert tau[11] == tau[2] * tau[3]  # tau(12) = tau(3) tau(4)


def test_delta_growth_model(tau200):
    assert tau200.sigma == 6.0
    for m, c in enumerate(tau200.coeffs, start=1):
        assert abs(c) <= tau200.growth_c * m**tau200.sigma + 1e-9


def test_delta_delta_p_structure():
    p = 5
    f, g = delta_delta_p(p, 40)
    assert all(c == 0 for c in f.exact[:p])
    assert f.exact[p] == 1
    assert f.exact[p + 1] == -24
    assert g.exact == f.exact  # Fricke eigenvalue +1


def test_sigma_series_values():
    from weilgap.series import sigma_coeffs

    s3 = sigma_coeffs(3, 6)
    assert s3 == [1, 9, 28, 73, 126, 252]


def test_classical_discriminant_identity(tau200):
    # E4^3 - E6^2 = 1728 Delta: an independent route to tau
    from weilgap.series import eisenstein_level1

    M = 40
    e4 = eisenstein_level1(4, M)
    e6 = eisenstein_level1(6, M)
    lhs = multiply(multiply(e4, e4), e4)
    rhs = multiply(e6, e6)
    for m in range(1, M + 1):
        diff = lhs.exact[m - 1] - rhs.exact[m - 1]
        assert diff == 1728 * tau200.exact[m - 1]


def test_eisenstein_level1_rejects_odd_weight():
    from weilgap.series import eisenstein_level1

    with pytest.raises(ValueError):
        eisenstein_level1(12, 10)


def test_multiply_by_one():
    d = delta_coeffs(30)
    assert multiply(d, one_series(30)).exact == d.exact


def test_multiply_delta_squared():
    d = delta_coeffs(30)
    sq = multiply(d, d)
    assert sq.exact[0] == 0 and sq.exact[1] == 1
    assert sq.weight == 24


def test_multiply_eisenstein_delta_leading_term():
    gens = build_presentation(5)
    eis = eisenstein_multiplier_coeffs(5, trivial_multiplier(gens), 4, M=20, c_max=200)
    prod = multiply(eis, delta_coeffs(20))
    assert abs(prod.coeffs[0] - 1.0) < 1e-12  # a_0(Eis) * tau(1)
    assert prod.weight == 16


def test_kloosterman_m0_is_phi(gens5=None):
    gens = build_presentation(5)
    ups = trivial_multiplier(gens)
    for c in (5, 10, 15):
        phi = len([d for d in range(1, c + 1) if math.gcd(d, c) == 1])
        ks = twisted_kloosterman(5, ups, 0, c)
        assert ks.is_exact and ks.exact_value == phi


def test_kloosterman_trivial_vs_bruteforce():
    gens = build_presentation(5)
    ups = trivial_multiplier(gens)
    for c in (5, 10, 15):
        for m in (1, 2, 3, 7, 11):
            ks = twisted_kloosterman(5, ups, m, c)
            brute = sum(
                cmath.exp(2j * cmath.pi * m * d / c)
                for d in range(1, c + 1)
                if math.gcd(d, c) == 1
            )
            assert abs(ks.value - brute) < 1e-10
            phi = len([d for d in range(1, c + 1) if math.gcd(d, c) == 1])
            assert abs(ks.value) <= phi + 1e-9


def test_kloosterman_character_twist_factorization():
    # with upsilon = upsilon_chi the sum is the chi-bar-twisted classical sum
    p = 5
    gens = build_presentation(p)
    chi = quadratic_char(p)
    ups = char_multiplier(chi, gens)
    for c in (5, 10, 15):
        for m in (0, 1, 2, 4):
            ks = twisted_kloosterman(p, ups, m, c)
            brute = sum(
                chi(d).conjugate() * cmath.exp(2j * cmath.pi * m * d / c)
                for d in range(1, c + 1)
                if math.gcd(d, c) == 1
            )
            assert abs(ks.value - brute) < 1e-9


def test_kloosterman_rejects_bad_modulus():
    gens = build_presentation(5)
    ups = trivial_multiplier(gens)
    with pytest.raises(ValueError):
        twisted_kloosterman(5, ups, 1, 7)


def test_kloosterman_requires_upsilon_s_trivial():
    from fractions import Fraction

    from weilgap.multiplier import Angle, MultiplierSystem

    gens = build_presentation(5)
    angles = {lbl: Angle() for lbl in gens.labels}
    angles["S"] = Angle(Fraction(1, 7))
    bad = MultiplierSystem(gens, angles)
    with pytest.raises(ValueError):
        twisted_kloosterman(5, bad, 1, 5)


def test_eisenstein_constant_term_and_tail():
    gens = build_presentation(5)
    ups = trivial_multiplier(gens)
    eis = eisenstein_multiplier_coeffs(5, ups, 4, M=10, c_max=400)
    assert eis.a0 == 1
    # tail bound behaves like c_max^{-2} at weight 4
    for m in (1, 5, 10):
        ratio = eisenstein_tail_bound(5, 4, m, 800) / eisenstein_tail_bound(5, 4, m, 400)
        assert ratio < 0.3


def test_eisenstein_rejects_low_weight():
    gens = build_presentation(5)
    with pytest.raises(ValueError):
        eisenstein_multiplier_coeffs(5, trivial_multiplier(gens), 2, M=5)


def test_eisenstein_character_multiplier_modularity():
    # weight-4 series with upsilon = upsilon_chi: residual of
    # (F|_4 gamma)(z) - chi(d) F(z) shrinks with c_max at the generators.
    # M is sized for the smallest Im(gamma z) over the test configuration.
    from weilgap.matrices import slash_action

    p = 5
    gens = build_presentation(p)
    chi = quadratic_char(p)
    ups = char_multiplier(chi, gens)
    z = 0.1 + 0.8j
    residuals = []
    for c_max in (30 * p, 60 * p):
        eis = eisenstein_multiplier_coeffs(p, ups, 4, M=700, c_max=c_max)
        worst = 0.0
        for lbl, mat in gens.generators:
            lhs = slash_action(eis.eval_truncated, 4, mat, z)
            rhs = complex(ups.value(mat)) * eis.eval_truncated(z)
            worst = max(worst, abs(lhs - rhs))
        residuals.append(worst)
    assert residuals[1] < residuals[0]
    assert residuals[1] < 5e-2


def test_lift_bottom_row():
    m = lift_bottom_row(10, 3)
    assert m.det() == 1 and (m.c, m.d) == (10, 3)
    with pytest.raises(ValueError):
        lift_bottom_row(10, 4)


def test_fourier_extraction_recovers_tau(tau200):
    ev = series_evaluator(delta_coeffs(400))
    slashed = slash_evaluator(ev, 12, T)  # Delta|T = Delta
    rec = coeffs_via_fourier_extraction(slashed, 12, 1.0, 10, growth_c=2.0, growth_sigma=6.0)
    for m in range(1, 11):
        assert abs(rec.coeffs[m - 1] - tau200.exact[m - 1]) <= 1e-6 * max(1, abs(tau200.exact[m - 1]))


def test_fourier_extraction_recovers_fricke_pair():
    p = 5
    f, _ = delta_delta_p(p, 400)
    ev = slash_evaluator(series_evaluator(f), 24, FrickeMat(p))  # g = f|W_p = f
    rec = coeffs_via_fourier_extraction(
        ev, 24, 0.45, 8, growth_c=max(f.growth_c, 1.0), growth_sigma=12.0
    )
    for m in range(1, 9):
        assert abs(rec.coeffs[m - 1] - f.coeffs[m - 1]) < 1e-6 * max(1.0, abs(f.coeffs[m - 1]))


def test_fourier_extraction_linearity():
    ev1 = series_evaluator(delta_coeffs(50))
    ev2 = series_evaluator(one_series(50))

    def combined(z):
        return ev1(z) + ev2(z)

    rec1 = coeffs_via_fourier_extraction(ev1, 12, 0.8, 4, growth_c=2.0, growth_sigma=6.0)
    rec12 = coeffs_via_fourier_extraction(combined, 12, 0.8, 4, growth_c=3.0, growth_sigma=6.0)
    for m in range(4):
        # the constant series contributes nothing at m >= 1
        assert abs(rec12.coeffs[m] - rec1.coeffs[m]) < 1e-9 * max(1, abs(rec1.coeffs[m]))


def test_fourier_extraction_refuses_unreachable():
    ev = series_evaluator(delta_coeffs(50))
    with pytest.raises(ValueError):
        coeffs_via_fourier_extraction(
            ev, 12, 1.0, 10, growth_c=2.0, growth_sigma=6.0, eval_error=1e-3
        )


def test_json_lines_roundtrip_exact_and_float():
    f, _ = delta_delta_p(5, 25)
    back = CoeffSeries.from_json_lines(f.to_json_lines())
    assert back.exact == f.exact and back.level == 5 and back.weight == 24
    gens = build_presentation(5)
    eis = eisenstein_multiplier_coeffs(5, trivial_multiplier(gens), 4, M=8, c_max=100)
    back2 = CoeffSeries.from_json_lines(eis.to_json_lines())
    assert back2.a0 == 1
    assert np.allclose(back2.as_array(), eis.as_array())


small_floats = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    M=st.integers(1, 40),
    exact=st.booleans(),
    with_errors=st.booleans(),
    c_max=st.one_of(st.none(), st.integers(1, 10**6)),
    data=st.data(),
)
def test_json_lines_roundtrip_property(M, exact, with_errors, c_max, data):
    if exact:
        ints = data.draw(st.lists(st.integers(-(10**40), 10**40), min_size=M, max_size=M))
        kwargs = dict(coeffs=ints, exact=ints)
    else:
        coeffs = [complex(data.draw(small_floats), data.draw(small_floats)) for _ in range(M)]
        kwargs = dict(coeffs=coeffs, a0=complex(data.draw(small_floats), data.draw(small_floats)))
    errors = st.one_of(st.floats(0, 1e100), st.just(math.inf))
    series = CoeffSeries(
        weight=4,
        level=29,
        sigma=data.draw(st.floats(0, 12)),
        label="random",
        error_bound=data.draw(errors),
        per_coeff_error=[data.draw(errors) for _ in range(M)] if with_errors else None,
        c_max=c_max,
        **kwargs,
    )
    assert CoeffSeries.from_json_lines(series.to_json_lines()) == series


# ---------------------------------------------------------------------------
# The FFT Eisenstein sum against a direct phase-matrix sum over MultiplierSystem.value


def _direct_eisenstein(p, ups, weight, M, c_max):
    """The sum term by term: upsilon from MultiplierSystem.value on a lift of
    each bottom row, one e(m d / c) per (m, d).  Returns the coefficients and
    the triangle-inequality scale of each one."""
    ms = np.arange(1, M + 1)
    sums = np.zeros(M, dtype=complex)
    scale = 0.0
    for c in range(p, c_max + 1, p):
        ds = np.array([d for d in range(1, c + 1) if math.gcd(d, c) == 1])
        vals = np.array([ups.value(lift_bottom_row(c, int(d))).conjugate() for d in ds])
        phase = np.exp(2j * np.pi / c * (ms[:, None] * ds[None, :] % c))
        sums += (phase @ vals) * float(c) ** (-weight)
        scale += len(ds) * float(c) ** (-weight)
    front = (-2j * np.pi) ** weight / math.factorial(weight - 1) * ms ** (weight - 1)
    return front * sums, np.abs(front) * scale


def _pretend29():
    from weilgap.characters import DirichletChar
    from weilgap.multiplier import pretend_constraints, solve_pretend

    gens = build_presentation(29)
    chi = DirichletChar(29, 0)
    cs = pretend_constraints(29, gens, chi, 1, verify_b_dependence=False)
    return solve_pretend(cs, chi, gens).upsilon


@pytest.mark.parametrize("case", ["p5_quadratic", "p29_pretend"])
def test_eisenstein_fft_matches_direct_sum(case):
    if case == "p5_quadratic":
        p, ups, M, c_max = 5, char_multiplier(quadratic_char(5), build_presentation(5)), 300, 60 * 5
    else:
        p, ups, M, c_max = 29, _pretend29(), 300, 10 * 29
    eis = eisenstein_multiplier_coeffs(p, ups, 4, M=M, c_max=c_max)
    direct, scale = _direct_eisenstein(p, ups, 4, M, c_max)
    assert np.all(np.abs(eis.as_array() - direct) <= 1e-10 * scale)
    # m > c_max reads the FFT row at m mod c
    assert M > c_max // 2
    for m, c in ((1, p), (M, p), (M - 1, 2 * p), (0, c_max), (-3, p)):
        ks = twisted_kloosterman(p, ups, m, c)
        brute = sum(
            ups.value(lift_bottom_row(c, d)).conjugate() * cmath.exp(2j * cmath.pi * m * d / c)
            for d in range(1, c + 1)
            if math.gcd(d, c) == 1
        )
        assert abs(ks.value - brute) < 1e-10 * c


def test_eisenstein_copy_with_keeps_error_fields():
    gens = build_presentation(5)
    eis = eisenstein_multiplier_coeffs(5, trivial_multiplier(gens), 4, M=8, c_max=100)
    assert eis.c_max == 100 and len(eis.per_coeff_error) == 8
    assert max(eis.per_coeff_error) == eis.error_bound
    copy = eis.copy_with(label="x")
    assert copy.label == "x"
    assert copy.c_max == eis.c_max and copy.per_coeff_error == eis.per_coeff_error


def _lines(f):
    return f.to_json_lines().splitlines()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda lines: lines[:-2], "records; a_4 is missing"),
        (lambda lines: [lines[0].replace('"sigma"', '"sgma"')] + lines[1:], "lacks sigma"),
        (lambda lines: lines + [lines[3]], "duplicate coefficient record for m = 3"),
        (lambda lines: lines + [lines[3].replace('"m": 3', '"m": 9')], "outside 0..M"),
        (lambda lines: lines[:2] + ['{"m": 2, "re": "1"}'] + lines[3:], "malformed"),
        (lambda lines: [], "empty"),
    ],
    ids=["truncated", "missing-key", "duplicate", "out-of-range", "malformed-record", "empty"],
)
def test_json_lines_rejects_malformed(mutate, message):
    f, _ = delta_delta_p(5, 5)
    text = "\n".join(mutate(_lines(f))) + "\n"
    with pytest.raises(ValueError, match=message):
        CoeffSeries.from_json_lines(text)


def test_json_lines_records_in_any_order():
    f, _ = delta_delta_p(5, 12)
    lines = _lines(f)
    back = CoeffSeries.from_json_lines("\n".join([lines[0]] + lines[1:][::-1]))
    assert back.exact == f.exact and back.coeffs == f.coeffs


# ---------------------------------------------------------------------------
# The series kernels against test-local oracles: schoolbook products and
# mpmath Horner


def schoolbook(a, b, size):
    """Oracle: the first ``size`` coefficients of a * b, term by term."""
    out = [0] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


def mp_horner(coeffs, z, prec):
    """Oracle: sum_m c_m e(m z) by mpmath Horner at ``prec`` bits, and the
    scale sum_m |c_m| |e(z)|^m."""
    with mp.workprec(prec):
        q = mp.exp(2j * mp.pi * mp.mpc(z))
        total = mp.mpc(0)
        for c in reversed(coeffs):
            total = total * q + mp.mpc(c)
        scale = sum((abs(mp.mpc(c)) * abs(q) ** m for m, c in enumerate(coeffs)), mp.mpf(0))
    return total, scale


signed = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200))
signed_polys = st.lists(signed, max_size=40)


@settings(max_examples=200, deadline=None)
@given(signed_polys, signed_polys, st.integers(0, 90))
def test_kronecker_mul_matches_schoolbook(a, b, size):
    assert _kronecker_mul(a, b, size) == schoolbook(a, b, size)


@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 5), signed_polys, st.integers(-5, 5), signed_polys)
def test_multiply_exact_with_constant_terms(a0, fa, b0, gb):
    f = CoeffSeries([complex(x) for x in fa], 4, 1, 4.0, "f", a0=complex(a0), exact=fa)
    g = CoeffSeries([complex(x) for x in gb], 6, 1, 6.0, "g", a0=complex(b0), exact=gb)
    M = min(len(fa), len(gb))
    prod = multiply(f, g)
    assert prod.exact == schoolbook([a0, *fa], [b0, *gb], M + 1)[1:]
    assert prod.a0 == a0 * b0


finite = st.floats(-1e30, 1e30, allow_nan=False)
complex_coeffs = st.lists(st.one_of(st.just(0j), st.builds(complex, finite, finite)), max_size=40)


@settings(max_examples=50, deadline=None)
@given(complex_coeffs, complex_coeffs)
def test_multiply_float_matches_schoolbook(fa, gb):
    f = CoeffSeries(fa[1:], 4, 1, 4.0, "f", a0=fa[0] if fa else 0j)
    g = CoeffSeries(gb[1:], 6, 1, 6.0, "g", a0=gb[0] if gb else 0j)
    prod = multiply(f, g)
    a, b = [f.a0, *f.coeffs], [g.a0, *g.coeffs]
    for m in range(1, prod.M + 1):
        terms = [a[i] * b[m - i] for i in range(m + 1)]
        assert abs(prod.a(m) - sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)


def test_eta_product_matches_schoolbook_squaring():
    M = 120
    eta3 = [0] * M
    for k in range(16):
        if k * (k + 1) // 2 < M:
            eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    eta24 = eta3
    for _ in range(3):
        eta24 = schoolbook(eta24, eta24, M)
    assert eta_product_coeffs(M) == eta24


@pytest.mark.parametrize("p", [2, 5, 11])
def test_delta_delta_p_matches_convolution_oracle(p):
    M = 150
    tau = delta_coeffs(M).exact
    c = [0] * M
    for j in range(1, M // p + 1):
        for i in range(1, M - p * j + 1):
            c[p * j + i - 1] += tau[i - 1] * tau[j - 1]
    assert delta_delta_p(p, M)[0].exact == c


@settings(max_examples=60, deadline=None)
@given(
    complex_coeffs,
    st.floats(-1, 1),
    st.floats(1e-3, 10),
    st.sampled_from([15, 30, 59, 100]),
)
def test_fixed_point_horner_matches_mpmath(coeffs, x, y, dps):
    series = CoeffSeries(coeffs[1:], 4, 1, 4.0, "h", a0=coeffs[0] if coeffs else 0j)
    with mp.workdps(dps):
        prec = mp.mp.prec
        z = mp.mpc(x, y)
        value = series_evaluator(series)(z)
        oracle, scale = mp_horner([series.a0, *series.coeffs], z, prec + 64)
    with mp.workprec(prec + 64):
        assert abs(value - oracle) <= mp.ldexp(scale, -prec)


def test_fixed_point_horner_cache_follows_the_scale():
    # a tiny |q| raises the fixed-point scale; coming back must not reuse it
    ev = series_evaluator(delta_coeffs(300))
    with mp.workdps(30):
        near, far = mp.mpc(0.1, 0.01), mp.mpc(0.2, 8.0)
        first = ev(near)
        oracle_far, _ = mp_horner([0, *delta_coeffs(300).coeffs], far, mp.mp.prec + 64)
        assert abs(ev(far) - oracle_far) <= mp.mpf(2) ** (-90) * abs(oracle_far)
        assert ev(near) == first


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 3000),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.floats(-1, 1), st.floats(1e-4, 2)), min_size=1, max_size=2),
)
def test_eval_many_matches_mpmath_horner(M, seed, points):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-5, 5, M + 1)
    coeffs = scale * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
    series = CoeffSeries(list(coeffs[1:]), 12, 1, 6.0, "random", a0=complex(coeffs[0]))
    zs = np.array([complex(x, y) for x, y in points])
    values = series.eval_many(zs)
    for z, value in zip(zs, values):
        oracle, size = mp_horner(list(coeffs), z, 80)
        with mp.workprec(80):
            assert abs(mp.mpc(value) - oracle) <= 64 * math.sqrt(max(M, 1)) * 2.0**-53 * size


def test_eval_many_rounds_each_point_alone(tau200):
    # a value does not depend on which other points share the call
    zs = 0.3 + 1j * np.geomspace(1e-3, 3, 50)
    batch = tau200.eval_many(zs)
    assert all(tau200.eval_many(zs[i : i + 1])[0] == batch[i] for i in range(len(zs)))
    assert tau200.copy_with(coeffs=[]).eval_many(zs).tolist() == [0j] * len(zs)


@pytest.mark.parametrize("sigma", [0.5, 3.0, 6.0, 12.0, 21.0])
@pytest.mark.parametrize("M", [10, 300, 3000])
def test_tail_bound_closed_form_against_the_loop(sigma, M):
    series = CoeffSeries([1.0] * M, 12, 1, sigma, "ones")
    ys = np.geomspace(2e-4, 20, 13)
    bounds = series.tail_bound(ys)
    for y, bound in zip(ys, bounds):
        assert series.tail_bound(float(y)) == bound
        loop = tail_bound_loop(series, float(y))
        if math.isfinite(loop):
            # the loop's terms underflow to 0 below 1e-308; the closed form
            # works in logarithms and may answer a subnormal-sized bound there
            assert loop <= bound <= 1.25 * loop + 1e-300, (y, loop, bound)
        else:
            assert math.isfinite(bound)


def test_tail_bound_edges():
    d = delta_coeffs(50)
    assert isinstance(d.tail_bound(0.1), float)
    assert d.tail_bound(np.array([0.1, 1e3])).tolist() == [d.tail_bound(0.1), 0.0]
    assert one_series(20).tail_bound(0.01) == 0.0
    with pytest.raises(ValueError):
        d.tail_bound(0.0)
