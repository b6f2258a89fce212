import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilgap.matrices import IDENTITY, Mat2, S, T
from weilgap.presentation import (
    CosetTable,
    GammaWord,
    abelianize,
    build_presentation,
    compute_Q,
    constraint_matrix,
    decompose_gamma0,
    is_prime,
    rademacher_signature,
    random_gamma0_element,
    v_matrix,
)


@pytest.fixture(scope="module")
def gens13():
    return build_presentation(13)


@pytest.fixture(scope="module")
def gens5():
    return build_presentation(5)


def test_signature_13(gens13):
    assert gens13.signature == (5, 1, 1)


def test_signature_11():
    assert build_presentation(11).signature == (3, 0, 0)


def test_signature_5(gens5):
    assert gens5.signature == (3, 1, 0)
    # cross-check: exactly two q in [2, 3] with q^2 = -1 mod 5
    elliptic = [q for q in (2, 3) if (q * q + 1) % 5 == 0]
    assert elliptic == [2, 3]
    assert len(gens5.order2_labels) == 2


def test_rejects_bad_levels():
    for p in (2, 3, 4, 12, 91):
        with pytest.raises(ValueError):
            build_presentation(p)


def test_v_matrix_examples():
    assert v_matrix(13, 4).entries() == (-3, -1, 13, 4)
    assert v_matrix(13, 10).entries() == (-9, -1, 91, 10)
    v52 = v_matrix(5, 2)
    assert v52.entries() == (-2, -1, 5, 2)
    assert v52.trace() == 0
    assert (v52 * v52).entries() == (-1, 0, 0, -1)


def test_v_matrix_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        v_matrix(13, 26)


def test_coset_table_invariants():
    p = 13
    table = CosetTable(p)
    assert len(table.representatives) == p + 1
    rng = random.Random(11)
    for _ in range(50):
        gamma = random_gamma0_element(p, rng, bound=10**4) * (T * S**rng.randint(0, p - 1))
        coset = table.coset_of(gamma)
        rep = table.rep(coset)
        assert (gamma * rep.inv()).c % p == 0


def test_decompose_s_is_generator(gens13):
    word = decompose_gamma0(gens13, S)
    assert word.tokens == [("S", 1)] and word.sign == 1


def test_decompose_parabolic_roundtrip(gens13):
    gamma = Mat2(1, 0, -13, 1)
    word = decompose_gamma0(gens13, gamma)
    value = word.evaluate(gens13)
    assert value == gamma if word.sign == 1 else value == -gamma


def test_decompose_rejects_outsiders(gens13):
    with pytest.raises(ValueError):
        decompose_gamma0(gens13, T)
    with pytest.raises(ValueError):
        decompose_gamma0(gens13, Mat2(1, 1, 0, 2))


def test_p13_parabolic_identity_left_to_right():
    # T S^13 T^-1 = V_10^-2 V_8^-1 V_5^-1 V_4^-2 S^-1, multiplying left to
    # right; the right-to-left reading does not match even up to sign.
    target = T * S**13 * T.inv()
    factors = [
        v_matrix(13, 10) ** -2,
        v_matrix(13, 8) ** -1,
        v_matrix(13, 5) ** -1,
        v_matrix(13, 4) ** -2,
        S ** -1,
    ]
    l2r = IDENTITY
    for m in factors:
        l2r = l2r * m
    assert l2r == target
    r2l = IDENTITY
    for m in factors:
        r2l = m * r2l
    assert r2l != target and r2l != -target


def test_abelianize_power_of_s(gens13):
    vec = abelianize(GammaWord([("S", 3)]), gens13)
    s_idx = gens13.free_labels.index("S")
    assert vec.free[s_idx] == 3
    assert not any(vec.tor2) and not any(vec.tor3)


def test_abelianize_torsion_relators(gens13):
    # the defining relators of the free-product presentation map to zero
    for lbl in gens13.order2_labels:
        assert abelianize(GammaWord([(lbl, 2)]), gens13).is_zero()
    for lbl in gens13.order3_labels:
        assert abelianize(GammaWord([(lbl, 3)]), gens13).is_zero()


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29])
def test_pairing_abelianization(p):
    # abelianize(V_q) + abelianize(V_{q*}) = 0 from V_{q*} = -V_q^{-1}
    gens = build_presentation(p)
    for q in range(1, p - 1):
        qs = (-pow(q, -1, p)) % p
        if qs == q or qs in (0,):
            continue
        vec_q = abelianize(decompose_gamma0(gens, v_matrix(p, q)), gens)
        vec_qs = abelianize(decompose_gamma0(gens, v_matrix(p, qs)), gens)
        assert (vec_q + vec_qs).is_zero()
        # exact matrix identity backing it
        assert v_matrix(p, qs) == -(v_matrix(p, q).inv())


def test_compute_Q_sizes():
    assert len(compute_Q(13)) == 5 and 1 in compute_Q(13)
    assert len(compute_Q(11)) == 3 and 1 in compute_Q(11)
    assert len(compute_Q(29)) == 7 and 1 in compute_Q(29)


def test_Q_elements_in_range():
    for p in (5, 7, 11, 13, 29):
        for q in compute_Q(p):
            assert 1 <= q <= p - 2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29, 101])
def test_roundtrip_both_sampling_modes(p):
    rng = random.Random(p)
    gens = build_presentation(p)
    mats = [m for _, m in gens.generators]
    for i in range(30):
        if i % 2 == 0:
            gamma = random_gamma0_element(p, rng)
        else:
            gamma = IDENTITY
            for _ in range(rng.randint(1, 8)):
                g = rng.choice(mats)
                gamma = gamma * (g if rng.random() < 0.5 else g.inv())
        word = decompose_gamma0(gens, gamma)
        value = word.evaluate(gens)
        assert (value == gamma and word.sign == 1) or (value == -gamma and word.sign == -1)


def test_signatures_against_formula_sample():
    for p in (37, 61, 97, 139, 181, 193, 199):
        assert build_presentation(p).signature == rademacher_signature(p)


def test_generator_orders_match_traces(gens13):
    for lbl, mat in gens13.generators:
        t = abs(mat.trace())
        order = gens13.orders[lbl]
        if order == 2:
            assert t == 0
        elif order == 3:
            assert t == 1
        else:
            assert t >= 2


def test_generator_count_matches_Q(gens13):
    l, a, b = gens13.signature
    assert len(compute_Q(13, gens13)) == l
    assert len(gens13.order2_labels) == 2 * a
    assert len(gens13.order3_labels) == 2 * b


def test_v_shape_of_generators(gens13):
    p = 13
    for lbl, mat in gens13.generators:
        if not lbl.startswith("V_"):
            continue
        q = int(lbl[2:])
        qs = -mat.a
        assert 1 <= qs <= p
        assert (q * qs + 1) % p == 0
        assert mat.entries() == (-qs, -1, q * qs + 1, q)


def test_is_prime_helper():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


PRIMES = [n for n in range(5, 500) if all(n % f for f in range(2, n))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 80), st.integers(-10**6, 10**6), st.integers(-5, 5))
def test_constraint_matrix_is_the_twist_matrix(p, q, a, t):
    assume(q % p != 0 and math.gcd(a, q) == 1)
    m, B, D = constraint_matrix(p, a, q)
    assert m.entries() == (D, a, -p * B, q)
    assert m.det() == 1 and m.c % p == 0
    # the smallest positive solution of q D + a p B = 1, by brute force
    assert B == next(b for b in range(1, q + 1) if (1 - a * p * b) % q == 0)
    shifted, B2, D2 = constraint_matrix(p, a, q, B + t * q)
    assert B2 == B + t * q and q * D2 + a * p * B2 == 1
    assert shifted.entries() == (D2, a, -p * B2, q)
    if q > 1:
        with pytest.raises(ValueError):
            constraint_matrix(p, a, q, B + 1)


def test_constraint_matrix_rejects_bad_moduli():
    with pytest.raises(ValueError, match="q = 10 is divisible by p = 5"):
        constraint_matrix(5, 1, 10)
    with pytest.raises(ValueError, match="invalid"):
        constraint_matrix(13, 2, 4)
    with pytest.raises(ValueError, match="invalid"):
        constraint_matrix(13, 1, 0)
