import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilgap.matrices import (
    ST_MATRICES,
    IDENTITY,
    FrickeMat,
    Mat2,
    S,
    STWord,
    T,
    decompose_sl2,
    euclid_quotients,
    evaluate_word,
    lift_bottom_row,
    slash_evaluator,
)
from weilgap.presentation import v_matrix
from weilgap.series import delta_coeffs, delta_delta_p


def rand_sl2(rng, bound=10**6):
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if c == 0:
            if abs(d) != 1:
                continue
            return Mat2(d, rng.randint(-bound, bound), 0, d)
        if math.gcd(c, d) != 1:
            continue
        g, x, y = _egcd(d, -c)
        return Mat2(x, y, c, d)


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_mat_mul_st():
    assert (S * T).entries() == (1, -1, 1, 0)


def test_mat_mul_inverse_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        m = rand_sl2(rng, 10**3)
        assert m * m.inv() == IDENTITY


def test_pow_matches_repeated_product():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_sl2(rng, 10**4)
        for n in range(-6, 7):
            expected = Mat2(1, 0, 0, 1)
            for _ in range(abs(n)):
                expected = expected * (m if n > 0 else m.inv())
            assert m**n == expected


def test_pow_of_plus_minus_one_makes_no_product(monkeypatch):
    m = rand_sl2(random.Random(4))
    products = []
    mul = Mat2.__mul__
    monkeypatch.setattr(Mat2, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert m**1 == m and m**-1 == m.inv() and m**0 == Mat2(1, 0, 0, 1)
    assert not products
    m**6
    assert len(products) == 3


def test_v_matrix_product_det():
    prod = v_matrix(13, 4) * v_matrix(13, 3)
    assert prod.det() == 1


def test_sl2_constructor_rejects_bad_det():
    with pytest.raises(ValueError):
        Mat2.sl2(1, 0, 0, 2)
    # unchecked constructor accepts intermediates
    assert Mat2(1, 0, 0, 2).det() == 2


def moebius(gamma, z):
    """gamma z, read off the weight-0 slash of the identity function."""
    return slash_evaluator(lambda w: w, 0, gamma)(z)


def test_mobius_fixed_points():
    assert abs(moebius(T, 1j) - 1j) < 1e-15
    z = 0.37 + 1.9j
    assert abs(moebius(S, z) - (z + 1)) < 1e-15
    for p in (5, 13):
        zfix = 1j / cmath.sqrt(p)
        assert abs(moebius(FrickeMat(p), zfix) - zfix) < 1e-14


def test_mobius_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        moebius(S, 0.3 - 1j)
    with pytest.raises(ValueError):
        moebius(FrickeMat(5), 0.5 + 0j)
    with pytest.raises(ValueError):
        slash_evaluator(lambda w: w, 12, FrickeMat(5))(mp.mpc(0.5, -1))


def test_slash_rejects_odd_weight():
    with pytest.raises(ValueError):
        slash_evaluator(lambda w: w, 3, S)


def test_fricke_squares_to_identity_action():
    w = FrickeMat(7)
    z = 0.2 + 0.8j
    assert abs(moebius(w, moebius(w, z)) - z) < 1e-14
    # the cocycle power (p z^2)^{-k/2} is j(W_p, z)^{-k} with j = p^{1/2} z
    for k in (2, 12, 16):
        assert abs(slash_evaluator(lambda _: 1.0, k, w)(z) / (cmath.sqrt(7) * z) ** -k - 1) < 1e-13


def test_decompose_powers_of_s():
    word = decompose_sl2(S**5)
    assert word.tokens == [("S", 5)] and word.sign == 1


def test_decompose_t():
    word = decompose_sl2(T)
    assert word.tokens == [("T", 1)] and word.sign == 1


def test_decompose_small_matrix():
    m = Mat2(2, 1, 1, 1)
    word = decompose_sl2(m)
    value = evaluate_word(word.tokens, ST_MATRICES)
    assert value == m or value == -m
    assert word.sign == (1 if value == m else -1)


def test_decompose_thousand_random_exact():
    rng = random.Random(99)
    for _ in range(1000):
        m = rand_sl2(rng)
        word = decompose_sl2(m)
        value = evaluate_word(word.tokens, ST_MATRICES)
        if word.sign == 1:
            assert value == m
        else:
            assert value == -m


def test_mobius_is_group_action():
    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_sl2(rng, 50), rand_sl2(rng, 50)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        assert abs(moebius(x * y, z) - moebius(x, moebius(y, z))) < 1e-12


def test_slash_is_right_action():
    # f|(xy) = (f|x)|y at even weight, for a holomorphic test function
    rng = random.Random(5)
    f = lambda w: cmath.exp(1j * w) + w * w
    for _ in range(50):
        x, y = rand_sl2(rng, 6), rand_sl2(rng, 6)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        lhs = slash_evaluator(f, 4, x * y)(z)
        rhs = slash_evaluator(slash_evaluator(f, 4, x), 4, y)(z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_cocycle_relation_exact():
    # j(xy, z) = j(x, yz) j(y, z) as an identity over Gaussian rationals
    rng = random.Random(4)

    def jfrac(m, zre, zim):
        return (m.c * zre + m.d, m.c * zim)

    def cmul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    for _ in range(50):
        x, y = rand_sl2(rng, 30), rand_sl2(rng, 30)
        zre, zim = Fraction(rng.randint(-5, 5), 7), Fraction(rng.randint(1, 9), 4)
        # yz over exact complex fractions
        den = jfrac(y, zre, zim)
        num = (y.a * zre + y.b, y.a * zim)
        den_norm = den[0] ** 2 + den[1] ** 2
        yz = (
            (num[0] * den[0] + num[1] * den[1]) / den_norm,
            (num[1] * den[0] - num[0] * den[1]) / den_norm,
        )
        lhs = jfrac(x * y, zre, zim)
        rhs = cmul(jfrac(x, *yz), jfrac(y, zre, zim))
        assert lhs == rhs


def test_slash_action_constant_function():
    assert slash_evaluator(lambda z: 1.0, 0, S)(1j) == 1.0


def test_slash_action_delta_t_modularity():
    d = delta_coeffs(60)
    z = 1j
    lhs = slash_evaluator(d.eval_truncated, 12, T)(z)
    assert abs(lhs - d.eval_truncated(z)) < 1e-9


def test_slash_action_fricke_eigenvalue():
    p = 5
    f, _ = delta_delta_p(p, 80)
    z = 1j / math.sqrt(p)
    lhs = slash_evaluator(f.eval_truncated, 24, FrickeMat(p))(z)
    assert abs(lhs - f.eval_truncated(z)) < 1e-8


def test_slash_computes_in_the_number_type_of_z():
    # a complex z gives a complex value; an mpmath z one at working precision
    g = lambda w: w**3 + 2
    for gamma in (Mat2(2, 1, 5, 3), FrickeMat(11)):
        slashed = slash_evaluator(g, 6, gamma)
        assert type(slashed(0.1 + 0.7j)) is complex
        with mp.workdps(50):
            z = mp.mpc("0.1", "0.7")
            value = slashed(z)
            assert isinstance(value, mp.mpc)
            if isinstance(gamma, FrickeMat):
                want = (mp.sqrt(11) * z) ** -6 * g(-1 / (11 * z))
            else:
                want = (5 * z + 3) ** -6 * g((2 * z + 1) / (5 * z + 3))
            assert abs(value - want) < mp.mpf(10) ** -45 * abs(want)


def test_serialization_roundtrip():
    m = Mat2(2, 1, 1, 1)
    assert Mat2.from_json(m.to_json()) == m
    word = decompose_sl2(m)
    again = STWord.from_json(word.to_json(), word.sign)
    assert again.tokens == word.tokens


def test_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        STWord([("T", 2)])
    with pytest.raises(ValueError):
        STWord([("X", 1)])


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**30), 10**30).filter(bool), st.integers(-(10**30), 10**30))
@example(10**30, -1)
@example(-(2**99), 2**98 + 1)
@example(2, 1)
def test_euclid_quotients_take_logarithmic_steps(c, d):
    # nearest-integer quotients at least halve |c| per step
    assert len(euclid_quotients(c, d)) <= math.log2(abs(c)) + 2


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30))
@example(0, 1)
@example(0, -1)
@example(1, 0)
@example(-1, 0)
@example(-7, -3)
@example(0, 0)
@example(0, 2)
@example(-6, 4)
def test_lift_bottom_row_any_row(c, d):
    if math.gcd(c, d) != 1:
        with pytest.raises(ValueError):
            lift_bottom_row(c, d)
        return
    m = lift_bottom_row(c, d)
    assert m.a * m.d - m.b * m.c == 1
    assert (m.c, m.d) == (c, d)


WORD_MATRICES = {"S": S, "T": T, "V": v_matrix(13, 4), "W": Mat2(2, 1, 7, 4)}


def _fold(tokens, matrices):
    """Oracle: the left-to-right product through Mat2.__mul__ and **."""
    result = IDENTITY
    for label, exp in tokens:
        result = result * matrices[label] ** exp
    return result


# S and T powers stay small under binary powering at any exponent; the
# hyperbolic V and W keep small exponents
word_tokens = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["S", "T"]), st.integers(-(10**12), 10**12)),
        st.tuples(st.sampled_from(sorted(WORD_MATRICES)), st.integers(-3, 3)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(word_tokens)
@example([])
@example([("S", 0), ("T", 0)])
@example([("S", 10**12), ("T", 1), ("S", -(10**12)), ("T", -1)])
@example([("V", 1), ("V", -1), ("W", 2), ("V", 1), ("W", -1)])
def test_evaluate_word_is_the_left_to_right_fold(tokens):
    assert evaluate_word(tokens, WORD_MATRICES) == _fold(tokens, WORD_MATRICES)
    powers = {}
    evaluate_word(tokens, WORD_MATRICES, powers)  # a shared cache gives the same product
    assert evaluate_word(tokens, WORD_MATRICES, powers) == _fold(tokens, WORD_MATRICES)


def test_evaluate_word_negative_power_needs_determinant_one():
    matrices = {"S": S, "D": Mat2(1, 0, 0, 2)}
    assert evaluate_word([("D", 2), ("S", 1)], matrices) == Mat2(1, 0, 0, 4) * S
    for tokens in ([("D", -1)], [("S", 1), ("D", -3)]):
        with pytest.raises(ValueError, match="determinant"):
            evaluate_word(tokens, matrices)


def _token_by_token(tokens, matrices):
    """Oracle: the product one token at a time, each power written out as
    |exp| factors of the matrix or of its adjugate, in plain ints."""
    a, b, c, d = 1, 0, 0, 1
    for label, exp in tokens:
        x, y, z, w = matrices[label].entries()
        if exp < 0:
            x, y, z, w = w, -y, -z, x
        for _ in range(abs(exp)):
            a, b, c, d = a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w
    return Mat2(a, b, c, d)


@st.composite
def sl2_words(draw):
    """A word of 0-200 tokens with exponents in [-5, 5] over 1-6 random
    SL2(Z) matrices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    matrices = {f"A{i}": rand_sl2(rng, 20) for i in range(draw(st.integers(1, 6)))}
    token = st.tuples(st.sampled_from(sorted(matrices)), st.integers(-5, 5))
    return draw(st.lists(token, max_size=200)), matrices


@settings(max_examples=150, deadline=None)
@given(sl2_words())
@example(([("A0", 1)] * 31, {"A0": S}))
@example(([("A0", 1), ("A1", -2)] * 16 + [("A0", 5)] * 3, {"A0": S, "A1": T}))
def test_evaluate_word_memo_is_the_token_by_token_product(case):
    tokens, matrices = case
    expected = _token_by_token(tokens, matrices)
    assert evaluate_word(tokens, matrices) == expected  # a fresh table
    shared = {}
    assert evaluate_word(tokens[1:], matrices, shared) == _token_by_token(tokens[1:], matrices)
    assert evaluate_word(tokens, matrices, shared) == expected  # a table shared with an offset word
    # a memo seeded with unit powers is read, never rewritten
    seeded = {(lbl, e): (m**e).entries() for lbl, m in matrices.items() for e in (1, -1)}
    before = dict(seeded)
    assert evaluate_word(tokens, matrices, seeded) == expected
    assert {key: seeded[key] for key in before} == before


def test_evaluate_word_negative_power_raises_at_any_position():
    matrices = {"S": S, "D": Mat2(1, 0, 0, 2)}
    word = [("S", 1), ("D", 1)] * 16 + [("S", 2)]
    assert evaluate_word(word, matrices) == _token_by_token(word, matrices)
    for i in (0, 1, 5, 31, len(word) - 1):  # the first, inner and last tokens
        corrupted = word[:i] + [("D", -1)] + word[i + 1:]
        with pytest.raises(ValueError, match="determinant"):
            evaluate_word(corrupted, matrices)
