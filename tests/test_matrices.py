import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weilgap.matrices import (
    FrickeMat,
    Mat2,
    ProjMat2,
    S,
    STWord,
    T,
    decompose_sl2,
    lift_bottom_row,
    mobius,
    slash_action,
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
        assert (m * m.inv()).is_identity()


def test_v_matrix_product_det():
    prod = v_matrix(13, 4) * v_matrix(13, 3)
    assert prod.det() == 1


def test_sl2_constructor_rejects_bad_det():
    with pytest.raises(ValueError):
        Mat2.sl2(1, 0, 0, 2)
    # unchecked constructor accepts intermediates
    assert Mat2(1, 0, 0, 2).det() == 2


def test_mobius_fixed_points():
    assert abs(mobius(T, 1j) - 1j) < 1e-15
    z = 0.37 + 1.9j
    assert abs(mobius(S, z) - (z + 1)) < 1e-15
    for p in (5, 13):
        w = FrickeMat(p)
        zfix = 1j / cmath.sqrt(p)
        assert abs(w.mobius(zfix) - zfix) < 1e-14


def test_mobius_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mobius(S, 0.3 - 1j)
    with pytest.raises(ValueError):
        FrickeMat(5).mobius(0.5 + 0j)


def test_fricke_squares_to_identity_action():
    w = FrickeMat(7)
    z = 0.2 + 0.8j
    assert abs(w.mobius(w.mobius(z)) - z) < 1e-14
    assert abs(w.jfactor(z) - cmath.sqrt(7) * z) < 1e-14


def test_decompose_powers_of_s():
    word = decompose_sl2(S**5)
    assert word.tokens == [("S", 5)] and word.sign == 1


def test_decompose_t():
    word = decompose_sl2(T)
    assert word.tokens == [("T", 1)] and word.sign == 1


def test_decompose_small_matrix():
    m = Mat2(2, 1, 1, 1)
    word = decompose_sl2(m)
    value = word.evaluate()
    assert value == m or value == -m
    assert word.sign == (1 if value == m else -1)


def test_decompose_thousand_random_exact():
    rng = random.Random(99)
    for _ in range(1000):
        m = rand_sl2(rng)
        word = decompose_sl2(m)
        value = word.evaluate()
        if word.sign == 1:
            assert value == m
        else:
            assert value == -m


def test_mobius_is_group_action():
    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_sl2(rng, 50), rand_sl2(rng, 50)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        assert abs(mobius(x * y, z) - mobius(x, mobius(y, z))) < 1e-12


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
    assert slash_action(lambda z: 1.0, 0, S, 1j) == 1.0


def test_slash_action_delta_t_modularity():
    d = delta_coeffs(60)
    z = 1j
    lhs = slash_action(d.eval_truncated, 12, T, z)
    assert abs(lhs - d.eval_truncated(z)) < 1e-9


def test_slash_action_fricke_eigenvalue():
    p = 5
    f, _ = delta_delta_p(p, 80)
    z = 1j / math.sqrt(p)
    lhs = slash_action(f.eval_truncated, 24, FrickeMat(p), z)
    assert abs(lhs - f.eval_truncated(z)) < 1e-8


def test_proj_normalization_identifies_signs():
    rng = random.Random(5)
    for _ in range(50):
        m = rand_sl2(rng, 100)
        assert ProjMat2(m) == ProjMat2(-m)


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
