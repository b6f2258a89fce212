import cmath
import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilgap import acceptance, series
from weilgap.characters import DirichletChar
from weilgap.matrices import T, FrickeMat
from weilgap.multiplier import char_multiplier, pretend_constraints, solve_pretend, trivial_multiplier
from weilgap.presentation import build_presentation
from weilgap.series import (
    _giant_reach,
    _kloosterman_rows,
    _ramanujan_sum,
    _kronecker_mul,
    _RUN,
    _digit_count,
    _digit_rows,
    _exact_matmul,
    _limb_ints,
    _node_sums,
    _rounded,
    _times,
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
    tail_bounds,
    twisted_kloosterman,
)

from oracles import eisenstein_level1, sigma_coeffs
from test_analytic import eval_many_padded_per_call
from test_characters import quadratic_char


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


def tail_bound_alone(cs, y):
    """Oracle: CoeffSeries.tail_bound as it was before it became the
    one-pair view of tail_bounds, with its own incomplete-gamma call."""
    scalar = np.ndim(y) == 0
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if cs.growth_c in (0, math.inf):
        return cs.growth_c if scalar else np.full(ys.shape, cs.growth_c)
    t, m0, sigma = 2 * np.pi * ys, cs.M + 1, cs.sigma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r = (1 + 1 / m0) ** sigma * np.exp(-t)
        bound = np.where(r < 1, np.exp(sigma * math.log(m0) - t * m0) / (1 - r), np.inf)
        loose = -np.expm1(-t) > 1.05 * (1 - r)
        if loose.any():
            tl = t[loose]
            peak = np.maximum(m0, sigma / tl)
            top = np.exp(sigma * np.log(peak) - tl * peak)
            integral = series.upper_incomplete_gamma(sigma + 1, tl * m0).real / tl ** (sigma + 1)
            bound[loose] = np.minimum(bound[loose], top + integral)
        out = cs.growth_c * bound * (1 + 1e-12)
    return float(out[0]) if scalar else out


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


def test_fricke_partner_shares_the_coefficients_of_f():
    # g = f is a relabelled copy: one coefficient list, growth constant and matrix
    f, g = delta_delta_p(5, 300)
    assert g.label == "delta_delta_5_fricke" and f.label == "delta_delta_5"
    assert g.coeffs is f.coeffs and g.growth_c == f.growth_c
    assert g._blocks is f._blocks
    # a new sigma shares the matrix and has its own growth constant
    wider = f.copy_with(sigma=13.0)
    assert wider._blocks is f._blocks
    assert wider.growth_c == CoeffSeries(f.coeffs, 24, 5, 13.0, "fresh").growth_c < f.growth_c
    with pytest.raises(TypeError):
        f.copy_with(colour="red")


def test_sigma_series_values():
    s3 = sigma_coeffs(3, 6)
    assert s3 == [1, 9, 28, 73, 126, 252]


def test_classical_discriminant_identity(tau200):
    # E4^3 - E6^2 = 1728 Delta: an independent route to tau
    M = 40
    e4 = eisenstein_level1(4, M)
    e6 = eisenstein_level1(6, M)
    lhs = multiply(multiply(e4, e4), e4)
    rhs = multiply(e6, e6)
    for m in range(1, M + 1):
        diff = lhs.exact[m - 1] - rhs.exact[m - 1]
        assert diff == 1728 * tau200.exact[m - 1]


def test_eisenstein_level1_rejects_odd_weight():
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


def test_ramanujan_sum_is_the_cosine_sum():
    # c_c(m) = sum over the units d of cos(2 pi m d / c), an integer
    for c in range(1, 61):
        units = [d for d in range(c) if math.gcd(d, c) == 1]
        for m in range(-c, 2 * c):
            assert _ramanujan_sum(m, c) == round(sum(math.cos(2 * math.pi * m * d / c) for d in units))


def test_kloosterman_and_eisenstein_reject_another_level():
    # twisted_kloosterman ignored p; the level-58 series summed only the
    # moduli c = 0 mod 58 of the level-29 multiplier
    ups29 = trivial_multiplier(build_presentation(29))
    with pytest.raises(ValueError, match="^p = 5 differs from the level 29 of the MultiplierSystem$"):
        twisted_kloosterman(5, ups29, 1, 29)
    assert twisted_kloosterman(29, ups29, 1, 29).exact_value == -1


def test_eisenstein_multiplier_coeffs_rejects_another_level():
    ups29 = trivial_multiplier(build_presentation(29))
    with pytest.raises(ValueError, match="^p = 58 differs from the level 29 of the MultiplierSystem$"):
        eisenstein_multiplier_coeffs(58, ups29, 4, M=5, c_max=116)


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


def test_eisenstein_rejects_c_max_below_p():
    # below p the tail bound would under-report: negative at -10, a division by zero at -1
    ups = trivial_multiplier(build_presentation(5))
    for c_max in (-10, -1, 0, 4):
        with pytest.raises(ValueError, match="need c_max >= p = 5"):
            eisenstein_tail_bound(5, 4, 3, c_max)
        with pytest.raises(ValueError, match="need c_max >= p = 5"):
            eisenstein_multiplier_coeffs(5, ups, 4, M=3, c_max=c_max)
    assert eisenstein_tail_bound(5, 4, 3, 5) > 0


def test_eisenstein_weight_8_powers_do_not_wrap():
    # m^7 passes 2^63 at m = 512: an int64 power wrapped there and gave
    # negative bounds and wrong coefficients from m = 512 on
    p, M, c_max = 5, 600, 100
    ups = trivial_multiplier(build_presentation(p))
    eis = eisenstein_multiplier_coeffs(p, ups, 8, M=M, c_max=c_max)
    bounds = np.array(eis.per_coeff_error)
    assert np.all(bounds > 0)
    assert list(bounds) == [eisenstein_tail_bound(p, 8, m, c_max) for m in range(1, M + 1)]
    assert np.array_equal(eisenstein_tail_bound(p, 8, np.arange(1, M + 1), c_max), bounds)
    kloosterman = sum(twisted_kloosterman(p, ups, M, c).value * c ** -8.0 for c in range(p, c_max + 1, p))
    want = (-2j * math.pi) ** 8 / math.factorial(7) * M**7 * kloosterman
    assert abs(eis.a(M) - want) <= 1e-10 * abs(want)


def test_eisenstein_rejects_low_weight():
    gens = build_presentation(5)
    with pytest.raises(ValueError):
        eisenstein_multiplier_coeffs(5, trivial_multiplier(gens), 2, M=5)


def test_eisenstein_character_multiplier_modularity():
    # weight-4 series with upsilon = upsilon_chi: residual of
    # (F|_4 gamma)(z) - chi(d) F(z) shrinks with c_max at the generators.
    # M is sized for the smallest Im(gamma z) over the test configuration.
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
            lhs = slash_evaluator(eis.eval_truncated, 4, mat)(z)
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


def test_fourier_extraction_matches_phase_recurrence():
    # reference: the per-m phase recurrence e(-m/N)^n; both sums keep >= 25
    # guard digits, so they agree to a double's rounding
    p, M, y = 5, 16, 0.45
    f, _ = delta_delta_p(p, 400)
    ev = slash_evaluator(series_evaluator(f), 24, FrickeMat(p))
    rec = coeffs_via_fourier_extraction(ev, 24, y, M, growth_c=max(f.growth_c, 1.0), growth_sigma=12.0)
    N = max(4 * M, 64)
    with mp.workdps(int(2 * math.pi * M * y / math.log(10)) + 25):
        values = [mp.mpc(ev(mp.mpc(mp.mpf(n) / N, y))) for n in range(N)]
        root = mp.e ** (-2j * mp.pi / N)
        for m in range(1, M + 1):
            total, phase, step = mp.mpc(0), mp.mpc(1), root**m
            for v in values:
                total += v * phase
                phase *= step
            want = complex(total / N * mp.e ** (2 * mp.pi * m * y))
            assert rec.coeffs[m - 1] == pytest.approx(want, rel=2**-52, abs=1e-20)


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


@pytest.mark.parametrize(
    "M, y, named",
    [(0, 1.0, "M = 0"), (-3, 1.0, "M = -3"), (4, 0.0, "y = 0.0"), (4, -0.5, "y = -0.5"),
     (4, math.nan, "y = nan"), (4, math.inf, "y = inf")],
)
def test_fourier_extraction_names_a_bad_argument(M, y, named):
    ev = series_evaluator(delta_coeffs(50))
    with pytest.raises(ValueError, match=named):
        coeffs_via_fourier_extraction(ev, 12, y, M, growth_c=2.0, growth_sigma=6.0)


def test_fourier_extraction_rejects_a_non_finite_value():
    with pytest.raises(ValueError, match="node 0/64"):
        coeffs_via_fourier_extraction(lambda z: mp.mpc(mp.nan, 0), 12, 1.0, 4)


def full_length_horner(series):
    """Oracle: ``series_evaluator``'s fixed-point Horner over all M + 1
    terms at every point, with no cutoff.  Returns the value and the scale
    P of its units 2^-P."""
    c = np.array([series.a0, *series.coeffs], dtype=complex)
    parts = np.stack([c.real, c.imag])
    frac, exp = np.frexp(parts)
    log2_bound = np.where(parts == 0, -np.inf, exp).max(axis=0) + 0.5
    ms = np.arange(len(c))
    mant, exp = (frac * 2.0**53).astype(np.int64)[:, ::-1], (exp - 53)[:, ::-1]
    guard = len(c).bit_length() + 16

    def evaluate(z):
        z = mp.mpc(z)
        log2_q = -2 * math.pi * float(z.imag) / math.log(2)
        top = float(np.max(log2_bound + ms * log2_q, initial=-np.inf))
        if top == -np.inf:
            return mp.mpc(0), 0
        prec = mp.mp.prec
        P = prec + guard + max(0, -math.floor(top))
        Q = P + max(0, math.ceil(-log2_q))
        with mp.workprec(prec + guard):
            q = mp.expjpi(2 * mp.mpc(abs(z.real), z.imag))
        qr, qi = int(mp.ldexp(q.real, Q)), int(mp.ldexp(q.imag, Q))
        if z.real < 0:
            qi = -qi
        fixed = [
            [x << (e + P) if e + P >= 0 else x >> -(e + P) for x, e in zip(xs.tolist(), es.tolist())]
            for xs, es in zip(mant, exp)
        ]
        re = im = 0
        for cr, ci in zip(*fixed):
            re, im = ((re * qr - im * qi) >> Q) + cr, ((re * qi + im * qr) >> Q) + ci
        return mp.make_mpc((mp.libmp.from_man_exp(re, -P), mp.libmp.from_man_exp(im, -P))), P

    return evaluate


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.floats(0, 12),
    st.floats(-1, 1),
    st.floats(1e-3, 10),
    st.sampled_from([15, 30, 59, 100]),
)
def test_horner_cutoff_matches_the_full_length_horner(M, seed, sigma, x, y, dps):
    # Each Horner is within R = 2 sqrt(2) sum_{j <= M} |q|^j units of its own
    # exact sum (one floor in the shift and one in the coefficient per step),
    # and the dropped terms add up to under half a unit, so the two differ
    # by under 1/2 + 2R units at 2^-P.  They share P, and both stay within
    # 2^-prec sum |a_m||q|^m of the mpmath oracle.
    rng = np.random.default_rng(seed)
    size = np.arange(1, M + 2) ** sigma * 10.0 ** rng.uniform(-3, 3, M + 1)
    coeffs = size * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
    coeffs[rng.random(M + 1) < 0.1] = 0
    series = CoeffSeries(list(coeffs[1:]), 4, 1, 4.0, "h", a0=complex(coeffs[0]))
    with mp.workdps(dps):
        prec, z = mp.mp.prec, mp.mpc(x, y)
        value = series_evaluator(series)(z)
        full, P = full_length_horner(series)(z)
        oracle, scale = mp_horner(list(coeffs), z, prec + 64)
    r = math.exp(-2 * math.pi * y)
    R = 2 * math.sqrt(2) * (M + 1 if r == 1 else (1 - r ** (M + 1)) / (1 - r))
    with mp.workprec(prec + P + 64):
        assert abs(value - full) * mp.mpf(2) ** P <= 0.5 + 2 * R
        assert abs(value - oracle) <= mp.ldexp(scale, -prec)


def symmetric_roots(N):
    """e(-n/N) for n <= N/2, and r_{N-n} = conj r_n above: the extraction's
    root table."""
    roots = [mp.expjpi(-2 * (mp.mpf(n) / N)) for n in range(N // 2 + 1)]
    return roots + [mp.conj(roots[N - n]) for n in range(N // 2 + 1, N)]


def fdot_sums(values, M):
    """Oracle: the node sums of the extraction, one mp.fdot each."""
    N = len(values)
    roots = symmetric_roots(N)
    return [mp.fdot(values, [roots[m * n % N] for n in range(N)]) for m in range(1, M + 1)]


# normal mantissas of magnitude [1/2, 1]: the exponent comes from the integer
# alone, so the span stays inside the premise below (a float draw alone can be
# subnormal, and its span of ~1000 bits is checked by the exact oracle instead)
mpc_parts = st.one_of(
    st.just((0, 0)),
    st.tuples(st.one_of(st.floats(-1, -0.5), st.floats(0.5, 1)), st.integers(-16, 16)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(mpc_parts, mpc_parts), min_size=1, max_size=80), st.sampled_from([15, 30, 59]), st.data())
def test_node_sums_equal_fdot_bit_for_bit(parts, dps, data):
    # full-precision mantissas whose exponents span well under 2 prec, the
    # range where mp.fdot's sum is exact before its one rounding
    M = data.draw(st.integers(1, len(parts)))
    with mp.workdps(dps):
        scramble = mp.exp(mp.mpf(1) / 7)
        values = [
            mp.mpc(*(mp.ldexp(mp.mpf(a) * scramble, e) for a, e in part)) for part in parts
        ]
        assert _node_sums(values, M) == fdot_sums(values, M)


def exact_sums(values, M):
    """Oracle: each node sum taken in mpmath at a precision that holds it
    exactly, then rounded once to nearest at the working precision."""
    N = len(values)
    roots = symmetric_roots(N)

    def bit_range(zs):
        parts = [x._mpf_ for z in zs for x in (z.real, z.imag) if x]
        return min(exp for _, _, exp, _ in parts), max(exp + bc for _, _, exp, bc in parts)

    if not any(values):
        return [mp.mpc(0)] * M
    (vlo, vhi), (rlo, rhi) = bit_range(values), bit_range(roots)
    with mp.workprec(vhi + rhi - vlo - rlo + N.bit_length() + 8):
        wide = [mp.fsum(values[n] * roots[m * n % N] for n in range(N)) for m in range(1, M + 1)]
    return [+s for s in wide]


wide_parts = st.one_of(st.just((0, 0)), st.tuples(st.floats(-1, 1), st.integers(-1100, 1100)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(wide_parts, wide_parts), min_size=1, max_size=40),
    st.sampled_from([15, 30, 59]),
    st.integers(1, 40),
)
@example(
    parts=[((0, 0), (1.0, 0)), ((0, 0), (0, 0)), ((0, 0), (1.1125369292536007e-308, 0)), ((0, 0), (1.0, 0))],
    dps=15,
    M=2,
)
def test_node_sums_are_correctly_rounded_at_any_span(parts, dps, M):
    # beyond the premise above mp.fdot may round a cancelled sum to 0; the
    # node sums stay the correctly rounded sums
    M = min(M, len(parts))
    with mp.workdps(dps):
        scramble = mp.exp(mp.mpf(1) / 7)
        values = [
            mp.mpc(*(mp.ldexp(mp.mpf(a) * scramble, e) for a, e in part)) for part in parts
        ]
        assert _node_sums(values, M) == exact_sums(values, M)


def horner_units(M, y):
    """R = 2 sqrt(2) sum_{j <= M} |q|^j, |q| = e^{-2 pi y}: the bound, in units
    at 2^-P, on how far full_length_horner is from its own exact sum (one
    floor in the shift and one in the coefficient per step)."""
    r = math.exp(-2 * math.pi * y)
    return 2 * math.sqrt(2) * (M + 1 if r == 1 else (1 - r ** (M + 1)) / (1 - r))


def blocked_units(M):
    """The stated bound of series_evaluator, in units at 2^-P: sqrt(2) per
    block of 32 that can be kept, plus 3/2."""
    return math.sqrt(2) * -(-(M + 1) // 32) + 1.5


def test_extraction_matches_the_full_length_pipeline():
    # criterion 10's pipeline at p = 29 on a shorter prefix, against the
    # same pipeline on the full-length Horner and mp.fdot sums: every
    # series value is within both stated bounds of the Horner's, and the
    # extracted coefficients are the same doubles
    p, M, y, count = 29, 500, 0.16, 40
    gens = build_presentation(p)
    chi = DirichletChar(p, 0)
    sol = solve_pretend(pretend_constraints(p, gens, chi, 1, verify_b_dependence=False), chi, gens)
    eis = eisenstein_multiplier_coeffs(p, sol.upsilon, 4, M=M, c_max=4 * p)
    f = multiply(eis, delta_coeffs(M)).copy_with(level=p, sigma=9.0)
    full, blocked, points = full_length_horner(f), series_evaluator(f), []

    def recorded(z):  # the points at which the slash evaluates f
        points.append(z)
        return blocked(z)

    cut = slash_evaluator(recorded, 16, FrickeMat(p))
    full_slashed = slash_evaluator(lambda z: full(z)[0], 16, FrickeMat(p))

    def periodic(ev):
        return lambda z: ev(mp.mpc(z.real - mp.nint(z.real), z.imag))

    got = coeffs_via_fourier_extraction(periodic(cut), 16, y, count, growth_c=f.growth_c, growth_sigma=9.0)
    N = max(4 * count, 64)
    with mp.workdps(int(2 * math.pi * count * y / math.log(10)) + 25):
        assert len(points) == N
        for w in points:
            want, P = full(w)
            bound = blocked_units(f.M) + horner_units(f.M, float(w.imag))
            assert abs(blocked(w) - want) * mp.mpf(2) ** P <= bound
        nodes = [mp.mpc(mp.mpf(n) / N, y) for n in range(N)]
        full_values = [mp.mpc(periodic(full_slashed)(z)) for z in nodes]
        want = [complex(s / N * mp.e ** (2 * mp.pi * m * y)) for m, s in enumerate(fdot_sums(full_values, count), 1)]
    assert got.coeffs == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 400),
    st.integers(0, 2**32 - 1),
    st.floats(-300, math.log10(0.99)),
    st.floats(-1, 1),
    st.sampled_from([15, 30, 59, 100]),
    st.sampled_from([0, 30, 90]),
    st.booleans(),
)
def test_blocked_evaluator_matches_per_term_horner_and_mpmath(M, seed, log10_q, x, dps, size, real):
    # |q| from 1e-300 to 0.99; terms up to about 10^(size + 5), so that the
    # bound in units at 2^-P holds where the terms are far above 1; a0 != 0;
    # parts and whole coefficients that are zero; and coefficients 1e-290
    # beside ordinary ones, so that a block's integers span a thousand bits;
    # real series take the two-product path
    rng = np.random.default_rng(seed)
    coeffs = 10.0 ** rng.uniform(size - 5, size + 5, M + 1) * (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1))
    if real:
        coeffs.imag = 0
    coeffs[rng.random(M + 1) < 0.1] *= 1e-290
    rest = coeffs[1:]  # a view: a0 keeps both parts
    rest.real[rng.random(M) < 0.1] = 0
    rest.imag[rng.random(M) < 0.1] = 0
    rest[rng.random(M) < 0.1] = 0
    y = -log10_q * math.log(10) / (2 * math.pi)
    series = CoeffSeries(list(coeffs[1:]), 4, 1, 4.0, "b", a0=complex(coeffs[0]))
    with mp.workdps(dps):
        prec, z = mp.mp.prec, mp.mpc(x, y)
        value = series_evaluator(series)(z)
        full, P = full_length_horner(series)(z)
        oracle, scale = mp_horner(list(coeffs), z, prec + 64)
    with mp.workprec(prec + P + 64):
        assert abs(value - oracle) <= mp.ldexp(scale, -prec)
        assert abs(value - full) * mp.mpf(2) ** P <= blocked_units(M) + horner_units(M, y)


def three_product_evaluator(series, two_when_real=False):
    """Oracle: ``series_evaluator``'s blocked sum with three Python-int dot
    products per block (Gauss's complex product) whatever the coefficients,
    as it was before real series took two; with two_when_real, two for a
    real series, as it was before the block sums were digit GEMMs."""
    c = np.array([series.a0, *series.coeffs], dtype=complex)
    parts = np.stack([c.real, c.imag])
    real = two_when_real and not parts[1].any()
    frac, exp = np.frexp(parts)
    log2_bound = np.where(parts == 0, -np.inf, exp).max(axis=0) + 0.5
    ms, guard, B = np.arange(len(c)), len(c).bit_length() + 16, 32
    pad = -len(c) % B
    mant = np.pad((frac * 2.0**53).astype(np.int64), ((0, 0), (0, pad))).tolist()
    exp = np.pad(exp - 53, ((0, 0), (0, pad))).tolist()
    blocks = []
    for start in range(0, len(c) + pad, B):
        span = range(start, start + B)
        E = min((exp[k][m] for k in (0, 1) for m in span if mant[k][m]), default=0)
        re, im = ([mant[k][m] << (exp[k][m] - E) if mant[k][m] else 0 for m in span] for k in (0, 1))
        blocks.append((E, [a + b for a, b in zip(re, im)], re, im))

    def evaluate(z):
        z = mp.mpc(z)
        log2_q = -2 * math.pi * float(z.imag) / math.log(2)
        terms = log2_bound + ms * log2_q
        top = float(np.max(terms, initial=-np.inf))
        if top == -np.inf:
            return mp.mpc(0)
        prec = mp.mp.prec
        P = prec + guard + max(0, -math.floor(top))
        Q = P + max(0, math.ceil(-log2_q))
        n = int(np.flatnonzero(terms >= -P - 2 - math.log2(len(c)))[-1]) // B + 1
        Qb = Q + max(0, math.ceil(top)) + max(0, math.ceil(-(B - 1) * log2_q)) + 2 * (n * B).bit_length() + 2
        with mp.workprec(prec + guard):
            q = mp.expjpi(2 * z)
        qr, qi = (int(mp.ldexp(x, Q)) << (Qb - Q) for x in (q.real, q.imag))
        pr, pi = [1 << Qb, qr], [0, qi]
        for _ in range(B - 1):
            r, i = _times(pr[-1], pi[-1], qr, qi, Qb)
            pr.append(r)
            pi.append(i)
        qbr, qbi = pr.pop(), pi.pop()
        diff, total = [b - a for a, b in zip(pr, pi)], [a + b for a, b in zip(pr, pi)]
        re = im = 0
        for E, both, cr, ci in reversed(blocks[:n]):
            re, im = _times(re, im, qbr, qbi, Qb)
            if real:
                sr, si = sum(a * b for a, b in zip(cr, pr)), sum(a * b for a, b in zip(cr, pi))
            else:
                k1 = sum(a * b for a, b in zip(both, pr))
                sr = k1 - sum(a * b for a, b in zip(ci, total))
                si = k1 + sum(a * b for a, b in zip(cr, diff))
            re, im = re + _rounded(sr, Qb - P - E), im + _rounded(si, Qb - P - E)
        return mp.make_mpc((mp.libmp.from_man_exp(re, -P), mp.libmp.from_man_exp(im, -P)))

    return evaluate


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.floats(-300, math.log10(0.99)),
    st.floats(-1, 1),
    st.sampled_from([15, 30, 59]),
    st.sampled_from(["real, a0 = 0", "real a0 != 0", "one imaginary part"]),
)
def test_two_product_path_equals_the_three_product_loop(M, seed, log10_q, x, dps, kind):
    # on a real series the two dot products per block are the integers the
    # three give, so the values agree bit for bit; one nonzero imaginary
    # part, a0's included, keeps the series on the three-product path
    rng = np.random.default_rng(seed)
    coeffs = 10.0 ** rng.uniform(-5, 5, M + 1) * rng.standard_normal(M + 1) + 0j
    coeffs[rng.random(M + 1) < 0.1] = 0
    if kind == "real, a0 = 0":
        coeffs[0] = 0
    elif kind == "one imaginary part":
        coeffs[rng.integers(0, M + 1)] += 1j * 10.0 ** rng.uniform(-5, 5)
    series = CoeffSeries(list(coeffs[1:]), 4, 1, 4.0, "r", a0=complex(coeffs[0]))
    y = -log10_q * math.log(10) / (2 * math.pi)
    with mp.workdps(dps):
        z = mp.mpc(x, y)
        assert series_evaluator(series)(z) == three_product_evaluator(series)(z)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 200),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0, 60, 1000, 2045]),
    st.floats(-0.5, -1e-3),
    st.floats(-6, -1),
    st.sampled_from([15, 59]),
)
def test_gemm_block_sums_equal_the_python_int_dots(M, seed, real, aligned, spread, x, log10_y, dps):
    # 53-bit mantissas, of one sign or mixed, at the top exponent but for
    # about one in 32 at `spread` bits below it (2045: from 2^1022, where
    # |a_m| stays a double, down past the least normal exponent), so a
    # block's integers are up to 2098 bits wide, 132 digits; Re z < 0 and
    # |q| = e^(-2 pi y) near 1, so each power fills its top digit
    rng = np.random.default_rng(seed)
    top = 1022 - int(rng.integers(0, 40)) if spread == 2045 else int(rng.integers(-60, 60))

    def doubles():
        mant = rng.integers(2**52, 2**53, M + 1) * (1 if aligned else rng.choice([-1, 1], M + 1))
        exps = np.where(rng.random(M + 1) < 1 / 32, top - spread, top) - 52
        return np.ldexp(mant.astype(float), exps)

    coeffs = doubles() + (0 if real else 1j * doubles())
    series = CoeffSeries(list(coeffs[1:]), 4, 1, 4.0, "k", a0=complex(coeffs[0]))
    with mp.workdps(dps):
        z = mp.mpc(x, 10.0**log10_y)
        assert series_evaluator(series)(z) == three_product_evaluator(series, two_when_real=True)(z)


def conjugate(value):
    """conj of an mpc with the imaginary mpf negated exactly, not rounded."""
    re, im = value._mpc_
    return mp.make_mpc((re, mp.libmp.mpf_neg(im)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.floats(-300, math.log10(0.99)),
    st.floats(-1, 1),
    st.sampled_from([15, 30, 59, 100]),
)
def test_real_series_evaluate_conjugation_equivariantly(M, seed, log10_q, x, dps):
    # a real series with a0 != 0, zero coefficients and 1e-290 beside
    # ordinary ones: fresh evaluations at z and at -conj z are conjugates,
    # mantissa for mantissa
    rng = np.random.default_rng(seed)
    coeffs = 10.0 ** rng.uniform(-5, 5, M + 1) * rng.standard_normal(M + 1) + 0j
    coeffs[1:][rng.random(M) < 0.1] = 0
    coeffs[rng.random(M + 1) < 0.1] *= 1e-290
    series = CoeffSeries(list(coeffs[1:]), 4, 1, 4.0, "r", a0=complex(coeffs[0]))
    y = -log10_q * math.log(10) / (2 * math.pi)
    with mp.workdps(dps):
        z = mp.mpc(x, y)
        mirror = mp.mpc(-z.real, z.imag)
        value = series_evaluator(series)(z)
        assert series_evaluator(series)(mirror)._mpc_ == conjugate(value)._mpc_


@pytest.fixture
def fresh_calls(monkeypatch):
    """Counts series_evaluator's fresh evaluations: each takes one libmp
    mpc_expjpi of its point (the extraction's roots take mp.expjpi)."""
    calls = []
    expjpi = series.mpc_expjpi

    def counted(z, prec, rnd):
        calls.append(z)
        return expjpi(z, prec, rnd)

    monkeypatch.setattr("weilgap.series.mpc_expjpi", counted)
    return calls


def test_mirror_shortcut_returns_the_fresh_value(fresh_calls):
    series = delta_coeffs(300).copy_with(a0=0.25 + 0j)
    ev = series_evaluator(series)
    with mp.workdps(59):
        z = mp.mpc(mp.mpf(3) / 17, 0.07)
        mirror = mp.mpc(-z.real, z.imag)
        first, second = ev(z), ev(mirror)
        assert len(fresh_calls) == 1  # the mirror was not evaluated afresh
        assert second._mpc_ == series_evaluator(series)(mirror)._mpc_
        assert second._mpc_ == conjugate(first)._mpc_
        # z is the mirror of the previous call in its turn
        assert ev(z)._mpc_ == first._mpc_ and len(fresh_calls) == 2


def test_mirror_shortcut_is_not_taken_off_its_premise(fresh_calls):
    real = delta_coeffs(300)
    coeffs = list(real.coeffs)
    coeffs[40] += 1e-3j
    with mp.workdps(59):
        z = mp.mpc(mp.mpf(3) / 17, 0.07)
        mirror = mp.mpc(-z.real, z.imag)
        # a series with one nonzero imaginary part
        ev = series_evaluator(real.copy_with(coeffs=coeffs))
        ev(z)
        value = ev(mirror)
        assert len(fresh_calls) == 2
        assert value != conjugate(ev(z))
        # a change of precision
        ev = series_evaluator(real)
        ev(z)
        with mp.workprec(mp.mp.prec + 1):
            ev(mirror)
        assert len(fresh_calls) == 5
        # a repeated point that is not its own mirror
        ev(z)
        ev(z)
        assert len(fresh_calls) == 7


def test_extraction_evaluates_each_mirror_pair_once(fresh_calls):
    # the p = 29 pipeline on a short prefix: a real f, whose Fricke images of
    # the nodes x and -x are exact mirrors, is evaluated afresh at N/2 + 1 of
    # the N nodes; the coefficients are the doubles that N fresh evaluations
    # give, and each states at least the rounding of its own double
    p, M, y, count = 29, 500, 0.16, 40
    gens = build_presentation(p)
    chi = DirichletChar(p, 0)
    sol = solve_pretend(pretend_constraints(p, gens, chi, 1, verify_b_dependence=False), chi, gens)
    eis = eisenstein_multiplier_coeffs(p, sol.upsilon, 4, M=M, c_max=4 * p)
    f = multiply(eis, delta_coeffs(M)).copy_with(level=p, sigma=9.0)
    assert not any(c.imag for c in [f.a0, *f.coeffs])

    def periodic(ev):
        slashed = slash_evaluator(ev, 16, FrickeMat(p))
        return lambda z: slashed(mp.mpc(z.real - mp.nint(z.real), z.imag))

    got = coeffs_via_fourier_extraction(periodic(series_evaluator(f)), 16, y, count, growth_c=f.growth_c, growth_sigma=9.0)
    N = max(4 * count, 64)
    assert len(fresh_calls) == N // 2 + 1
    del fresh_calls[:]
    every = coeffs_via_fourier_extraction(
        periodic(lambda w: series_evaluator(f)(w)), 16, y, count, growth_c=f.growth_c, growth_sigma=9.0
    )
    assert len(fresh_calls) == N
    assert got.coeffs == every.coeffs
    assert_states_its_rounding(got)


def assert_states_its_rounding(series):
    rounding = [2.0**-53 * (abs(b.real) + abs(b.imag)) for b in series.coeffs]
    assert all(err >= r for err, r in zip(series.per_coeff_error, rounding))
    assert series.error_bound == max(series.per_coeff_error)


def test_extraction_states_the_rounding_of_each_double(tau200):
    ev = slash_evaluator(series_evaluator(delta_coeffs(400)), 12, T)
    rec = coeffs_via_fourier_extraction(ev, 12, 1.0, 10, growth_c=2.0, growth_sigma=6.0)
    assert_states_its_rounding(rec)
    # tau(10) = -115920 rounds at about 1e-11, far above the alias terms
    assert rec.per_coeff_error[9] >= 115920 * 2.0**-53


@given(st.integers(-(2**200), 2**200), st.integers(-8, 80))
def test_rounded_is_nearest_with_ties_away_from_zero(x, shift):
    exact = Fraction(x, 2**shift) if shift >= 0 else Fraction(x * 2**-shift)
    down = math.floor(abs(exact))
    want = down + (abs(exact) - down >= Fraction(1, 2))
    assert _rounded(x, shift) == (want if x >= 0 else -want)
    assert _rounded(-x, shift) == -_rounded(x, shift)


def test_node_sums_at_four_thousand_nodes_and_100_digits():
    # one m per chunk of gathered root digits, 4,002 folded terms a GEMM
    N, M = 4000, 5
    rng = np.random.default_rng(N)
    with mp.workdps(100):
        scramble = mp.exp(mp.mpf(1) / 7)
        values = [
            mp.mpc(*(mp.ldexp(mp.mpf(float(a)) * scramble, int(e)) for a, e in zip(rng.standard_normal(2), rng.integers(-60, 60, 2))))
            for _ in range(N)
        ]
        values[7] = mp.mpc(0)
        assert _node_sums(values, M) == exact_sums(values, M)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4000).flatmap(lambda bits: st.integers(1 - 2**bits, 2**bits - 1)), max_size=12))
def test_digit_rows_and_limb_ints_round_trip(xs):
    count = _digit_count(xs)
    digits = _digit_rows(xs, count)
    assert digits.shape == (len(xs), count) and digits.dtype == np.float64
    assert np.all(np.abs(digits) <= 2**16 - 1) and np.all(digits == np.trunc(digits))
    assert _limb_ints(digits.astype(np.int64)) == xs
    assert [sum(int(d) << 16 * k for k, d in enumerate(row)) for row in digits] == xs


@pytest.mark.parametrize("count", [1, 2, 5])
def test_digit_rows_hold_exactly_their_range(count):
    lo, hi = -(2 ** (16 * count - 1)), 2 ** (16 * count - 1)
    assert _limb_ints(_digit_rows([lo, hi - 1], count).astype(np.int64)) == [lo, hi - 1]
    for x in (lo - 1, hi):
        with pytest.raises(OverflowError):
            _digit_rows([x], count)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(lambda K: st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=K, max_size=K), max_size=6)))
def test_limb_ints_read_any_int64_limbs(rows):
    K = len(rows[0]) if rows else 1
    limbs = np.array(rows, dtype=np.int64).reshape(len(rows), K)
    assert _limb_ints(limbs) == [sum(l << 16 * k for k, l in enumerate(row)) for row in rows]


def test_a_contraction_past_2_to_53_is_split_and_exact():
    # T (2^16 - 1)^2 passes 2^53 and is odd, so no double holds the sum
    T = _RUN + 1 if _RUN % 2 == 0 else _RUN + 2
    exact = T * (2**16 - 1) ** 2
    assert exact > 2**53 and exact % 2 == 1
    left, right = np.broadcast_to(float(2**16 - 1), (1, T)), np.broadcast_to(float(2**16 - 1), (T, 1))
    assert int((left @ right)[0, 0]) != exact  # the unsplit float64 contraction rounds
    assert _exact_matmul(left, right).tolist() == [[exact]]
    negated = np.broadcast_to(float(1 - 2**16), (T, 2))
    assert _exact_matmul(left, negated).tolist() == [[-exact, -exact]]
    with pytest.raises(ValueError, match="int64"):
        _exact_matmul(np.broadcast_to(0.0, (1, 2**32)), np.broadcast_to(0.0, (2**32, 1)))


def float_digest(xs):
    return hashlib.sha256(b"".join(struct.pack("<d", x) for x in xs)).hexdigest()


def mpc_digest(zs):
    """SHA-256 of each part's (sign, mantissa, exponent, bit count)."""
    return hashlib.sha256("".join(f"{s},{int(man)},{e},{bc};" for z in zs for s, man, e, bc in z._mpc_).encode()).hexdigest()


# criterion 10's extraction (p = 29, M = 2000, c_max = 40p, y = 0.16, 320
# nodes at 59 digits), recorded with the Python-int block sums and node sums
CRITERION_10_DIGESTS = {
    "f": "4920c2ccb31b549b6979b477cd7eabb2322479f2bbb893ebad11bde14ebd9db4",
    "node values": "489ddc001018307bb8563b2db172a125188586380b37cea766ddc24c7239ac14",
    "node sums": "103873ede18de8cf1ddd0113af40d0f19bc09746df09988871fd52b2d440a722",
    "coefficients and errors": "a17be60bcf81281c7b49bd1c70a7625b49446f8ec069ff1f04a5c51480924353",
}


def test_criterion_10_extraction_is_pinned(monkeypatch):
    # the exact kernels give the same node values, node sums, coefficients
    # and per_coeff_error bit for bit; f's coefficients come from float FFTs
    # and convolutions whose last bits a CPU's kernels may change, and the
    # pins below hold for the f they were recorded from
    seen = {}

    def recorded(name, call):
        def wrapper(*args, **kwargs):
            seen[name] = (args, call(*args, **kwargs))
            return seen[name][1]
        return wrapper

    monkeypatch.setattr(acceptance, "series_evaluator", recorded("evaluator", acceptance.series_evaluator))
    monkeypatch.setattr(acceptance, "coeffs_via_fourier_extraction", recorded("extraction", acceptance.coeffs_via_fourier_extraction))
    monkeypatch.setattr(series, "_node_sums", recorded("node sums", series._node_sums))
    report = acceptance._infinite_order_multiplier_experiment()
    f, g = seen["evaluator"][0][0], seen["extraction"][1]
    (values, count), sums = seen["node sums"]
    assert (len(values), count, report["eisenstein_cmax"]) == (320, 80, 40 * 29)
    if float_digest([x for c in [f.a0, *f.coeffs] for x in (c.real, c.imag)]) != CRITERION_10_DIGESTS["f"]:
        pytest.skip("criterion 10's float coefficients of f differ from those the digests were recorded from")
    assert mpc_digest(values) == CRITERION_10_DIGESTS["node values"]
    assert mpc_digest(sums) == CRITERION_10_DIGESTS["node sums"]
    coefficients = [x for b in g.coeffs for x in (b.real, b.imag)] + g.per_coeff_error
    assert float_digest(coefficients) == CRITERION_10_DIGESTS["coefficients and errors"]


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7, 33, 34])
def test_node_sums_fold_any_length(N):
    # odd lengths pair every node but 0; even ones leave N/2 alone as well
    rng = np.random.default_rng(N)
    with mp.workdps(30):
        values = [mp.mpc(*(mp.ldexp(mp.mpf(float(a)), int(e)) for a, e in zip(rng.standard_normal(2), rng.integers(-40, 40, 2))))
                  for _ in range(N)]
        assert _node_sums(values, N) == exact_sums(values, N)


def _kernel_upsilon(p, q_max, index):
    chi = DirichletChar(p, 0)
    gens = build_presentation(p)
    cs = pretend_constraints(p, gens, chi, q_max, verify_b_dependence=False)
    return solve_pretend(cs, chi, gens, kernel_index=index).upsilon


def complex_fft_row(ups, c):
    """Oracle: c times the inverse FFT of the conjugated row values, complex."""
    ds, values = next(ups.rows_values([c]))
    row = np.zeros(c, dtype=complex)
    row[ds] = values.conjugate()
    return c * np.fft.ifft(row)


def test_kloosterman_rows_against_the_complex_fft():
    # a reflection-symmetric upsilon gets the real part of the complex row,
    # as floats, bit for bit; an asymmetric one the complex row itself
    for index, symmetric in ((0, True), (2, False)):
        ups = _kernel_upsilon(29, 1, index)
        assert ups.reflection_symmetric is symmetric
        for c in range(29, 40 * 29 + 1, 29):
            got, want = next(_kloosterman_rows(ups, [c])), complex_fft_row(ups, c)
            if symmetric:
                assert got.dtype == float and got.tobytes() == want.real.tobytes()
            else:
                assert got.tobytes() == want.tobytes()


def test_eisenstein_coefficients_of_a_symmetric_upsilon_are_real():
    # criterion 10's series: every imaginary part is exactly 0, and the real
    # parts are those of the sum over complex rows, bit for bit; an
    # asymmetric upsilon keeps the complex sum, both parts
    p, M, c_max = 29, 2000, 40 * 29
    ms = np.arange(1, M + 1)
    for index, symmetric in ((0, True), (2, False)):
        ups = _kernel_upsilon(p, 1, index)
        sums = np.zeros(M, dtype=complex)
        for c in range(p, c_max + 1, p):
            sums += complex_fft_row(ups, c)[ms % c] * float(c) ** -4
        want = (-2j * np.pi) ** 4 / 6 * np.array([float(m**3) for m in ms]) * sums
        got = eisenstein_multiplier_coeffs(p, ups, 4, M=M, c_max=c_max).as_array()
        if symmetric:
            assert not got.imag.any() and got.real.tobytes() == want.real.tobytes()
        else:
            assert got.tobytes() == want.tobytes()


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
        (lambda lines: lines[:2] + ['{"m": 2, "re": NaN, "im": 0}'] + lines[3:], "m.: 2, .* finite re and im"),
        (lambda lines: lines[:2] + ['{"m": 2, "re": 1, "im": -Infinity}'] + lines[3:], "finite re and im"),
        (lambda lines: lines[:2] + ['{"m": 2, "re": 1e400, "im": 0}'] + lines[3:], "finite re and im"),
        (lambda lines: lines[:2] + ['{"m": 2, "re": 1, "im": 0, "err": NaN}'] + lines[3:], "an err >= 0"),
        (lambda lines: lines[:2] + ['{"m": 2, "re": 1, "im": 0, "err": -1e-9}'] + lines[3:], "an err >= 0"),
        (lambda lines: [lines[0].replace('"sigma": 12.0', '"sigma": NaN')] + lines[1:], "finite sigma.*: nan, 0.0"),
        (lambda lines: [lines[0].replace('"sigma": 12.0', '"sigma": Infinity')] + lines[1:], "finite sigma"),
        (lambda lines: [lines[0].replace('"error_bound": 0.0', '"error_bound": NaN')] + lines[1:], "12.0, nan"),
        (lambda lines: [lines[0].replace('"error_bound": 0.0', '"error_bound": -1')] + lines[1:], "12.0, -1"),
    ],
    ids=["truncated", "missing-key", "duplicate", "out-of-range", "malformed-record", "empty", "re-nan",
         "im-infinite", "re-overflow", "err-nan", "err-negative", "sigma-nan", "sigma-infinite", "bound-nan",
         "bound-negative"],
)
def test_json_lines_rejects_malformed(mutate, message):
    f, _ = delta_delta_p(5, 5)
    text = "\n".join(mutate(_lines(f))) + "\n"
    with pytest.raises(ValueError, match=message):
        CoeffSeries.from_json_lines(text)


def test_json_lines_reads_an_infinite_bound_back():
    # a bound holds or is inf: to_json_lines writes an inf bound as Infinity
    f, _ = delta_delta_p(5, 5)
    f = f.copy_with(error_bound=math.inf, per_coeff_error=[0.0, math.inf, 1e-9, 0.0, 0.0])
    g = CoeffSeries.from_json_lines(f.to_json_lines())
    assert g.error_bound == math.inf and g.per_coeff_error == f.per_coeff_error


def test_json_lines_refuses_a_large_m_without_listing_it():
    # two records against M = 10^7: the count is compared first, so the
    # refusal names a_2 without building a list of the missing m
    text = json.dumps({"label": "x", "weight": 12, "level": 1, "sigma": 6.0, "M": 10**7}) + "\n"
    text += '{"m": 1, "re": "1", "im": "0"}\n'
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="has 1 of the M = 10000000 records; a_2 is missing"):
            CoeffSeries.from_json_lines(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


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


@settings(max_examples=200, deadline=None)
@given(signed_polys, st.integers(0, 90))
def test_kronecker_square_matches_schoolbook(a, size):
    # a square is a plain product, whether b is a or an equal but distinct list
    assert _kronecker_mul(a, a, size) == _kronecker_mul(a, list(a), size) == schoolbook(a, a, size)


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


UNIT_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
                   (Fraction(-4, 5), Fraction(3, 5)), (Fraction(5, 13), Fraction(-12, 13))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_multiply_bounds_cover_factors_within_their_bounds(data):
    # the exact product of any two factors within the stated bounds of the
    # stored ones (a_0 exact) lies within the stated bounds of the float
    # product; a factor without per-coefficient bounds states error_bound
    # for every m >= 1
    parts = st.one_of(st.just(0.0), st.floats(-1e6, 1e6), st.floats(-1, 1))
    errors = st.one_of(st.just(0.0), st.floats(0, 1e-9), st.floats(0, 10.0))

    def factor(weight):
        M = data.draw(st.integers(1, 30))
        coeffs = [complex(data.draw(parts), data.draw(parts)) for _ in range(M)]
        a0 = complex(data.draw(parts), data.draw(parts))
        bound = data.draw(errors)
        per_coeff = data.draw(st.one_of(st.none(), st.lists(errors, min_size=M, max_size=M)))
        series = CoeffSeries(coeffs, weight, 1, float(weight), "x", a0=a0, error_bound=bound,
                             per_coeff_error=per_coeff)
        stated = per_coeff if per_coeff is not None else [bound] * M
        true = [(Fraction(a0.real), Fraction(a0.imag))]
        for c, e in zip(coeffs, stated):
            (x, y), t = data.draw(st.sampled_from(UNIT_DIRECTIONS)), Fraction(data.draw(st.integers(0, 8)), 8)
            true.append((Fraction(c.real) + t * x * Fraction(e), Fraction(c.imag) + t * y * Fraction(e)))
        return series, true

    (f, f_true), (g, g_true) = factor(4), factor(6)
    prod = multiply(f, g)
    assert prod.error_bound == max(prod.per_coeff_error)
    for m in range(1, prod.M + 1):
        re = sum(f_true[i][0] * g_true[m - i][0] - f_true[i][1] * g_true[m - i][1] for i in range(m + 1))
        im = sum(f_true[i][0] * g_true[m - i][1] + f_true[i][1] * g_true[m - i][0] for i in range(m + 1))
        c = prod.a(m)
        gap2 = (Fraction(c.real) - re) ** 2 + (Fraction(c.imag) - im) ** 2
        assert gap2 <= Fraction(prod.per_coeff_error[m - 1]) ** 2


def test_multiply_bounds_cover_underflow():
    # a_0 = 0.5 against an error bound of 5e-324: the float product of the
    # two rounds to 0, but the true a_1 may be 2.5e-324 off
    f = CoeffSeries([0j, 0j], 4, 1, 4.0, "f", a0=0.5 + 0j)
    g = CoeffSeries([0j, 0j], 6, 1, 6.0, "g", a0=1 + 0j, error_bound=5e-324)
    prod = multiply(f, g)
    assert all(Fraction(e) >= Fraction(0.5) * Fraction(5e-324) for e in prod.per_coeff_error)


def test_multiply_bounds_cover_a_subnormal_factor():
    # gamma |b_0| flushes to 0 for the subnormal b_0, but a_1 b_0 is a
    # normal number whose rounding, 7e-323, the bound must cover
    f = CoeffSeries([41157j, 0j, 0j, 0j, 0j], 4, 1, 4.0, "f")
    g = CoeffSeries([0j], 6, 1, 6.0, "g", a0=2.225073858507e-311j)
    prod = multiply(f, g)
    value, true = prod.a(1), -41157 * Fraction(2.225073858507e-311)
    assert value.imag == 0
    assert abs(Fraction(value.real) - true) <= Fraction(prod.per_coeff_error[0])


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 150))
def test_eta_product_matches_schoolbook_at_every_length(M):
    eta3 = [0] * M
    for k in range(20):
        if k * (k + 1) // 2 < M:
            eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    eta24 = eta3
    for _ in range(3):
        eta24 = schoolbook(eta24, eta24, M)
    assert eta_product_coeffs(M) == eta24


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 29, 97, 211]), st.integers(1, 160))
def test_delta_delta_p_matches_direct_convolution(p, M):
    # c_m = sum_{j >= 1, i = m - p j >= 1} tau(i) tau(j), also for M < p
    tau = delta_coeffs(M).exact
    c = [sum(tau[m - p * j - 1] * tau[j - 1] for j in range(1, (m - 1) // p + 1)) for m in range(1, M + 1)]
    assert delta_delta_p(p, M)[0].exact == c


@pytest.mark.parametrize("p", [2, 5, 11])
def test_delta_delta_p_matches_convolution_oracle(p):
    M = 150
    tau = delta_coeffs(M).exact
    c = [0] * M
    for j in range(1, M // p + 1):
        for i in range(1, M - p * j + 1):
            c[p * j + i - 1] += tau[i - 1] * tau[j - 1]
    assert delta_delta_p(p, M)[0].exact == c


def eta_product_oracle(M):
    """Oracle: prod (1 - q^n)^24 up to q^{M-1} as Jacobi's eta^3 squared
    pair by pair, then squared twice by Kronecker substitution."""
    eta3 = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(math.isqrt(2 * M) + 2) if k * (k + 1) // 2 < M]
    eta6 = [0] * M
    for i, (ei, ci) in enumerate(eta3):
        for ej, cj in eta3[i:]:
            if ei + ej < M:
                eta6[ei + ej] += ci * cj if ej == ei else 2 * ci * cj
    eta12 = _kronecker_mul(eta6, eta6, M)
    return _kronecker_mul(eta12, eta12, M)


def delta_delta_p_oracle(p, M):
    """Oracle: c_m = sum_{i + p j = m} tau(i) tau(j) as one Kronecker
    product per residue r of m mod p, m = r + p v and i = r + p u."""
    tau = [0, *eta_product_oracle(M)]
    c = [0] * (M + 1)
    for r in range(p):
        c[r::p] = _kronecker_mul(tau[r::p], tau[: M // p + 1], len(tau[r::p]))
    return c[1:]


PRIMES_BELOW_300 = [n for n in range(2, 300) if all(n % d for d in range(2, math.isqrt(n) + 1))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, *PRIMES_BELOW_300]), st.integers(0, 4000))
@example(11, 3000)
@example(5, 2000)
def test_jacobi_kernel_matches_kronecker_oracles(p, M):
    assert eta_product_coeffs(M) == eta_product_oracle(M)
    if M >= 1:
        f, _ = delta_delta_p(p, M)
        assert f.exact == delta_delta_p_oracle(p, M)
        assert f.coeffs == [complex(x) for x in f.exact]


def test_tau_at_three_limbs_matches_oracle_with_every_limb_carried(monkeypatch):
    carried, widths = series._carried, []

    def checked(limbs):
        out = carried(limbs)
        assert out.dtype == np.int64 and np.all(out >= -(2**30)) and np.all(out < 2**30)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(series, "_carried", checked)
    assert eta_product_coeffs(20000) == eta_product_oracle(20000)
    assert len(widths) == 8 and widths[-1] >= 3
    widths.clear()
    assert delta_delta_p(7, 1500)[0].exact == delta_delta_p_oracle(7, 1500)
    assert len(widths) == 16


@pytest.mark.parametrize("p", [0, -3])
def test_delta_delta_p_refuses_p_below_one(p):
    with pytest.raises(ValueError, match="p >= 1"):
        delta_delta_p(p, 10)
    with pytest.raises(ValueError, match="dilations >= 1"):
        series._eta_power_product(10, (1, p))


def test_jacobi_kernel_refuses_a_negative_length_and_one_past_the_int64_limb_bound():
    with pytest.raises(ValueError, match="M >= 0"):
        eta_product_coeffs(-1)
    # 65536 Jacobi terms once M passes 65535 * 65536 / 2; the check comes
    # before any limb is allocated
    with pytest.raises(ValueError, match="M = 2147450881"):
        series._eta_power_product(65535 * 65536 // 2 + 1, (1,))


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


def test_fixed_point_evaluator_follows_the_scale():
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


def random_series(M, seed, real, a0):
    """M complex (or, if real, real) coefficients over ten decades, and a
    constant term a0 that is 0 or of normal size."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-5, 5, M)
    coeffs = scale * (rng.standard_normal(M) + (0 if real else 1j) * rng.standard_normal(M))
    return CoeffSeries(list(coeffs), 12, 1, 6.0, "random", a0=complex(rng.standard_normal(), rng.standard_normal()) if a0 else 0j)


def one_live_block_height(M):
    """A height just past the one where (q^B)^1 falls below 2^-1100, so that
    only the first block of a point there is live."""
    return 1101 / (2 * math.pi * max(1, math.isqrt(M)) * math.log2(math.e))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 200, 3000]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.lists(st.tuples(st.floats(-1, 1), st.floats(1e-4, 3)), min_size=1, max_size=12),
)
def test_eval_many_is_the_full_contraction_bit_for_bit(M, seed, real, a0, points):
    # the live-block cut gives the full contraction's doubles, each point
    # alone gives its value in the batch, and a point may have one live block
    cs = random_series(M, seed, real, a0)
    y1 = one_live_block_height(M)
    zs = np.array([complex(x, y) for x, y in points] + [0.3 + 1j * y1, 1j * y1])
    J = len(cs._blocks)
    assert _giant_reach(np.exp(2j * np.pi * zs[-1:] * max(1, math.isqrt(M))), J).tolist() == [min(J, 1)]
    values = cs.eval_many(zs)
    assert values.tobytes() == eval_many_padded_per_call(cs, zs).tobytes()
    assert all(cs.eval_many(zs[i : i + 1]).tobytes() == values[i : i + 1].tobytes() for i in range(len(zs)))


def test_eval_many_contracts_a_block_that_could_overflow():
    # B = J = 200 and |q| = 2^-0.05: blocks from j = 111 on have a giant
    # power of 0, and those from j = 150 on, of coefficients 1e307, sum to
    # inf, so the full contraction is inf * 0 = NaN there; so is a NaN
    # coefficient times 0.  The cut must not turn either into a number.
    zs = np.array([0.05 * math.log(2) / (2 * math.pi) * 1j, 0.1 + 1j * one_live_block_height(40000)])
    huge = CoeffSeries([1.0] * 30000 + [1e307] * 10000, 12, 1, 6.0, "huge")
    with_nan = CoeffSeries([1.0] * 39999 + [math.nan], 12, 1, 6.0, "nan")
    assert not huge._skippable and not with_nan._skippable
    assert CoeffSeries([1.0] * 40000, 12, 1, 6.0, "ones")._skippable
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(huge.eval_many(zs[:1])).all() and np.isnan(with_nan.eval_many(zs)).all()
        for cs in (huge, with_nan):
            assert cs.eval_many(zs).tobytes() == eval_many_padded_per_call(cs, zs).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.floats(0.5, 1300), st.floats(0, 1))
def test_giant_powers_past_the_reach_are_exactly_zero(J, bits, turn):
    # (q^B)^j with |q^B| = 2^(-bits/J) .. 2^-1300: numpy's power gives
    # exactly 0 at every j the cut skips, by binary powers below j = 100 and
    # by exp(j log q) above
    log2_qb = -max(bits / J, 1e-3)
    qb = np.array([2.0**log2_qb * cmath.exp(2j * math.pi * turn)])
    reach = int(_giant_reach(qb, J)[0])
    assert 1 <= reach <= J and (reach == J or (reach - 1) * log2_qb >= -1100 - 1e-6)
    assert not np.any(qb[0] ** np.arange(reach, J))


def test_coefficient_array_is_built_once_and_read_only(tau200):
    array = tau200.as_array()
    assert array.tolist() == tau200.coeffs
    assert np.shares_memory(array, tau200.as_array())
    with pytest.raises(ValueError):
        array[0] = 5
    assert tau200.as_array()[0] == 1


def test_copy_with_evaluates_its_own_coefficients(tau200):
    # the copy builds its own array, even after the original has built one
    zs = 0.1 + 1j * np.geomspace(1e-2, 1, 5)
    before = tau200.eval_many(zs).tolist()
    for coeffs in ([2 * c for c in tau200.coeffs], tau200.coeffs[:50]):
        copy = tau200.copy_with(coeffs=coeffs, exact=None)
        assert copy.as_array().tolist() == coeffs
        assert copy.eval_many(zs).tolist() == CoeffSeries(coeffs, 12, 1, 6.0, "fresh").eval_many(zs).tolist()
    assert tau200.eval_many(zs).tolist() == before


def counting_einsum(monkeypatch):
    """Count the einsum calls of eval_many's contraction."""
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(series.np, "einsum", counting)
    return calls


def test_eval_many_contracts_an_array_once(monkeypatch):
    # the same points again give the same doubles from the memo, without a
    # contraction; new points, or the same ones in another order, contract
    f = delta_coeffs(300)
    zs = 0.2 + 1j * np.geomspace(1e-3, 2, 40)
    calls = counting_einsum(monkeypatch)
    first = f.eval_many(zs)
    contracted = len(calls)
    assert contracted >= 1
    again = f.eval_many(zs.copy())
    assert again.tobytes() == first.tobytes() and len(calls) == contracted
    assert again is not first and f.eval_truncated(zs[3]) == first[3]
    assert f.eval_many(zs[::-1]).tobytes() == first[::-1].tobytes() and len(calls) > contracted
    monkeypatch.undo()
    assert first.tobytes() == eval_many_padded_per_call(f, zs).tobytes()


def test_eval_many_memo_follows_the_coefficients(monkeypatch):
    # copies that keep the coefficients share the memo, each adding its own
    # a0; a copy with new coefficients starts its own
    f = delta_coeffs(300)
    zs = -0.1 + 1j * np.geomspace(1e-2, 1, 25)
    sums = f.eval_many(zs)
    shifted, wider = f.copy_with(a0=2.5 - 1j), f.copy_with(sigma=13.0)
    assert shifted._memo is f._memo and wider._memo is f._memo
    calls = counting_einsum(monkeypatch)
    assert shifted.eval_many(zs).tobytes() == ((2.5 - 1j) + sums).tobytes()
    assert wider.eval_many(zs).tobytes() == sums.tobytes() and not calls
    doubled = f.copy_with(coeffs=[2 * c for c in f.coeffs], exact=None)
    assert doubled._memo is not f._memo
    assert doubled.eval_many(zs).tobytes() == (2 * sums).tobytes() and calls


def test_eval_many_memo_is_bounded(monkeypatch):
    # past _MEMO_POINTS points the least recently used arrays go; an array
    # larger than the bound is evaluated and not kept
    f = delta_coeffs(100)
    monkeypatch.setattr(series, "_MEMO_POINTS", 30)
    arrays = [k * 0.01 + 1j * np.geomspace(1e-2, 1, 10) for k in range(4)]
    for zs in arrays[:3]:
        f.eval_many(zs)
    f.eval_many(arrays[0])  # arrays[1] is now the least recently used
    f.eval_many(arrays[3])
    assert list(f._memo) == [zs.tobytes() for zs in (arrays[2], arrays[0], arrays[3])]
    f.eval_many(1j * np.geomspace(1e-2, 1, 31))
    assert len(f._memo) == 3 and sum(map(len, f._memo.values())) == 30


@pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 1.0), math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_growth_constant_is_inf_with_a_coefficient_that_is_not_finite(bad, at):
    # max() over the ratios used to pass over a NaN that was not first, and
    # the tail bound came out finite
    coeffs = [1, 2, 3]
    coeffs[at] = bad
    series = CoeffSeries(coeffs, 12, 1, 6.0, "x")
    assert series.growth_c == math.inf
    assert series.tail_bound(0.1) == math.inf
    assert series.tail_bound(np.array([0.1, 1e3])).tolist() == [math.inf, math.inf]


@pytest.mark.parametrize("at", [0, 1, 2])
def test_growth_constant_is_inf_with_a_finite_coefficient_of_overflowing_modulus(at):
    # both parts are finite, but abs() of the coefficient raised OverflowError
    big = 1.6791459998451628e308 + 1.7637646895201292e308j
    assert CoeffSeries([big], 4, 1, 4.0, "k").growth_c == math.inf
    coeffs = [1, 2, 3]
    coeffs[at] = big
    series = CoeffSeries(coeffs, 12, 1, 6.0, "x")
    assert series.growth_c == math.inf
    assert series.tail_bound(0.1) == math.inf


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


@pytest.mark.parametrize("ys", [0.05, np.array([]), np.geomspace(2e-4, 20, 17)])
def test_tail_bounds_are_the_separate_calls_bit_for_bit(monkeypatch, ys):
    # mixed sigma (12 as an int and as a float) and M, growth constants 0
    # and inf, a scalar y and an empty array: each pair is the old one-series
    # bound, and one incomplete-gamma call serves each distinct sigma
    pairs = [
        (CoeffSeries([1.0] * 3000, 12, 1, 12.0, "ones"), ys),
        (CoeffSeries([2.0] * 300, 12, 1, 12, "twos"), ys),
        (CoeffSeries([1.0] * 10, 12, 1, 6.0, "short"), ys / 3),
        (CoeffSeries([0.0] * 40, 12, 1, 6.0, "zero"), ys),
        (CoeffSeries([1.0, math.nan], 12, 1, 6.0, "nan"), ys),
        (delta_coeffs(200), 2 * ys),
    ]
    assert [cs.growth_c for cs, _ in pairs][3:5] == [0.0, math.inf]
    calls = []
    gamma = series.upper_incomplete_gamma

    def counting(s, x):
        calls.append(s)
        return gamma(s, x)

    monkeypatch.setattr(series, "upper_incomplete_gamma", counting)
    alone = [tail_bound_alone(cs, y) for cs, y in pairs]
    separate = list(calls)
    calls.clear()
    together = tail_bounds(pairs)
    assert sorted(calls) == sorted(set(separate))
    if np.size(ys) > 1:
        assert len(calls) < len(separate)

    def bits(bound):
        return type(bound), np.asarray(bound).tobytes()

    for (cs, y), one, both in zip(pairs, alone, together):
        assert bits(cs.tail_bound(y)) == bits(one) == bits(both)


def test_tail_bound_edges():
    d = delta_coeffs(50)
    assert isinstance(d.tail_bound(0.1), float)
    assert d.tail_bound(np.array([0.1, 1e3])).tolist() == [d.tail_bound(0.1), 0.0]
    assert one_series(20).tail_bound(0.01) == 0.0
    with pytest.raises(ValueError):
        d.tail_bound(0.0)
