import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weilgap.characters import DirichletChar
from weilgap.matrices import IDENTITY, Mat2, S, T, euclid_quotients
from weilgap.multiplier import (
    Angle,
    ConstraintSystem,
    MultiplierSystem,
    char_multiplier,
    constraint_matrix,
    in_kappa_subgroup,
    pretend_constraints,
    sixth_root_check,
    solve_pretend,
    trivial_multiplier,
)
from weilgap.presentation import (
    COSET_INF,
    ExpVector,
    _schreier_walk,
    abelianize,
    build_presentation,
    decompose_gamma0,
    is_prime,
    random_gamma0_element,
)
from weilgap.series import lift_bottom_row

from oracles import (
    angle_of_vector_dense, cusp_parameter, cusp_width, in_kappa_subgroup_by_scaling, symbol_num_by_classes,
)
from test_characters import quadratic_char
from test_linalg import nullspace_by_back_substitution
from weilgap.linalg import Echelon, bareiss_echelon, rank


@pytest.fixture(scope="module")
def gens5():
    return build_presentation(5)


@pytest.fixture(scope="module")
def gens13():
    return build_presentation(13)


@pytest.fixture(scope="module")
def gens29():
    return build_presentation(29)


def test_angle_arithmetic():
    a = Angle(Fraction(1, 3), Fraction(1, 2))
    b = Angle(Fraction(5, 6), Fraction(-1, 2))
    total = (a + b).mod1()
    assert total.r == Fraction(1, 6) and total.s == 0
    assert a.s != 0  # a has infinite order
    assert a.scale(6).s == 3


def test_angle_converts_its_input_and_mod1_keeps_its_value():
    for r, s in ((2, -3), ("1/3", "-5/7"), (0.25, -1.5), (Fraction(7, 3), Fraction(-1, 2))):
        angle = Angle(r, s)
        assert type(angle.r) is Fraction and type(angle.s) is Fraction
        assert (angle.r, angle.s) == (Fraction(r), Fraction(s))
        canonical = angle.mod1()
        assert canonical == Angle(Fraction(r) % 1, Fraction(s)) and 0 <= canonical.r < 1
        assert canonical.mod1() is canonical and (canonical + Angle(1)).mod1() == canonical
        assert (angle + Angle(-3)).mod1() == canonical


def test_angle_value_on_circle():
    a = Angle(Fraction(1, 4))
    assert abs(a.value() - 1j) < 1e-14


def test_trivial_multiplier_angles(gens5):
    ups = trivial_multiplier(gens5)
    assert all(angle.is_zero_mod1() for angle in ups.angles.values())
    assert ups.evaluate(IDENTITY).is_zero_mod1()


def test_char_multiplier_quadratic_mod5(gens5):
    chi = quadratic_char(5)
    ups = char_multiplier(chi, gens5)
    assert ups.angles["V_2"] == Angle(Fraction(1, 2))
    assert ups.angles["S"].is_zero_mod1()  # chi(1) = 1


def test_char_multiplier_rejects_odd(gens13):
    with pytest.raises(ValueError):
        char_multiplier(DirichletChar(13, 1), gens13)


def test_evaluate_matches_chi_of_d(gens13):
    rng = random.Random(6)
    for t in (0, 2, 4):
        chi = DirichletChar(13, t)
        if not chi.is_even():
            continue
        ups = char_multiplier(chi, gens13)
        for _ in range(50):
            gamma = random_gamma0_element(13, rng, bound=10**4)
            assert ups.evaluate(gamma) == Angle(chi.angle(gamma.d)).mod1()


def test_evaluate_is_homomorphism(gens13):
    rng = random.Random(7)
    chi = DirichletChar(13, 2)
    ups = char_multiplier(chi, gens13)
    for _ in range(20):
        g1 = random_gamma0_element(13, rng, bound=10**3)
        g2 = random_gamma0_element(13, rng, bound=10**3)
        assert ups.evaluate(g1 * g2) == (ups.evaluate(g1) + ups.evaluate(g2)).mod1()


def test_cusp_width_examples():
    assert cusp_width(13, IDENTITY) == 1
    assert cusp_width(13, T) == 13
    assert cusp_width(13, T * S**3) == 13


def test_cusp_parameter_trivial(gens13):
    ups = trivial_multiplier(gens13)
    for tau in (IDENTITY, T, T * S**2):
        assert cusp_parameter(ups, tau).is_zero_mod1()


def test_cusp_parameter_kappa_i(gens13):
    chi = DirichletChar(13, 2)
    ups = char_multiplier(chi, gens13)
    assert cusp_parameter(ups, IDENTITY) == ups.angles["S"].mod1()


def test_torsion_consistency_rejected(gens5):
    from weilgap.multiplier import MultiplierSystem

    angles = {lbl: Angle() for lbl in gens5.labels}
    angles[gens5.order2_labels[0]] = Angle(Fraction(1, 4))
    with pytest.raises(ValueError):
        MultiplierSystem(gens5, angles)


def test_constraint_matrix_determinant():
    for (a, q) in ((0, 1), (1, 2), (1, 3), (2, 3), (3, 4)):
        m, B, D = constraint_matrix(13, a, q)
        assert m.det() == 1
        assert m.c % 13 == 0
        assert m.d == q


def test_pretend_constraints_qmax1_rows(gens29):
    chi = DirichletChar(29, 0)
    cs = pretend_constraints(29, gens29, chi, 1)
    assert cs.row_count() == 3  # kappa_I, kappa_T, and the q=1 family
    tags = [row.tag for row in cs.rows]
    assert tags[0] == "kappa_I" and tags[1] == "kappa_T"


def test_pretend_constraints_reject_a_negative_qmax(gens29):
    chi = DirichletChar(29, 0)
    assert [row.tag for row in pretend_constraints(29, gens29, chi, 0).rows] == ["kappa_I", "kappa_T"]
    for q_max in (-1, -3):
        with pytest.raises(ValueError, match=f"q_max must be >= 0, got {q_max}"):
            pretend_constraints(29, gens29, chi, q_max)


def test_q1_row_in_kappa_span(gens29):
    chi = DirichletChar(29, 0)
    cs = pretend_constraints(29, gens29, chi, 1)
    kappa_rows = [list(r.vector.free) for r in cs.rows[:2]]
    all_rows = [list(r.vector.free) for r in cs.rows]
    assert rank(kappa_rows) == rank(all_rows)


def test_row_count_bound_p101():
    gens = build_presentation(101)
    chi = DirichletChar(101, 2)
    cs = pretend_constraints(101, gens, chi, 5)
    phi_sum = sum(len([a for a in range(q) if math.gcd(a, q) == 1]) for q in range(1, 6))
    assert cs.row_count() <= 2 + phi_sum == 12
    assert cs.row_count() <= cs.majorized_row_bound() == 17


@pytest.mark.parametrize("p", [29, 37, 101])
def test_majorized_row_bound_holds(p):
    """2 + Q(Q+1)/2 bounds the row count for every Q <= 40 (2 + Q^2/2 falls
    below it at Q = 1)."""
    cs = pretend_constraints(p, _gens(p), DirichletChar(p, 0), 40, verify_b_dependence=False)
    for q_max in range(41):
        prefix = ConstraintSystem(p, [row for row in cs.rows if (row.q or 0) <= q_max], q_max)
        assert prefix.row_count() <= prefix.majorized_row_bound()


def test_majorization_never_contradicts_the_kernel():
    """Where the bound predicts a kernel of dimension >= 5 on the free
    coordinates, the kernel has it: every prime 5 <= p < 200, q_max <= 10."""
    predicted = 0
    for p in PRIMES:
        _, n_free, ranks, _, _ = _threshold_pass(p, 10)
        for q_max in range(11):
            bound = ConstraintSystem(p, [], q_max).majorized_row_bound()
            if bound + 5 <= n_free:
                predicted += 1
                assert n_free - ranks[q_max] >= 5, (p, q_max)
    assert predicted > 0


def test_solve_pretend_trivial_chi_self_solution(gens29):
    chi = DirichletChar(29, 0)
    cs = pretend_constraints(29, gens29, chi, 1)
    sol = solve_pretend(cs, chi, gens29)
    ups_chi = sol.upsilon_chi
    for row in cs.rows:
        assert ups_chi.angle_of_vector(row.vector) == row.target.mod1()


def test_solve_pretend_p101_kernel():
    gens = build_presentation(101)
    chi = DirichletChar(101, 2)
    cs = pretend_constraints(101, gens, chi, 5)
    sol = solve_pretend(cs, chi, gens)
    assert sol.kernel_dim >= 5
    assert sol.kernel_dim == 8  # exact computed dimension, frozen
    assert sol.upsilon.has_infinite_order()
    # torsion coordinates stay rational
    for lbl in gens.order2_labels + gens.order3_labels:
        assert sol.upsilon.angles[lbl].s == 0
    # every constraint satisfied exactly
    for row in cs.rows:
        assert sol.upsilon.angle_of_vector(row.vector) == row.target.mod1()
    # cusp parameters vanish
    assert cusp_parameter(sol.upsilon, IDENTITY).is_zero_mod1()
    assert cusp_parameter(sol.upsilon, T).is_zero_mod1()


def test_solve_pretend_kernel_index(gens29):
    chi = DirichletChar(29, 0)
    cs = pretend_constraints(29, gens29, chi, 1)
    sol0 = solve_pretend(cs, chi, gens29, kernel_index=0)
    sol1 = solve_pretend(cs, chi, gens29, kernel_index=1)
    assert sol0.upsilon.angles != sol1.upsilon.angles
    with pytest.raises(ValueError):
        solve_pretend(cs, chi, gens29, kernel_index=sol0.kernel_dim)


def test_pretend_constraints_reject_another_level(gens29):
    # the cusp rows of a level-13 request came back with the class [P] of level 29
    with pytest.raises(ValueError, match="^p = 13 differs from the level 29 of the GenSet$"):
        pretend_constraints(13, gens29, DirichletChar(29, 0), 0)


def test_pretend_constraints_reject_a_character_of_another_level(gens29):
    # the rows took their targets from the angles of the character mod 13
    with pytest.raises(ValueError, match="^p = 29 differs from the level 13 of the DirichletChar$"):
        pretend_constraints(29, gens29, DirichletChar(13, 2), 3)


def test_multiplier_of_another_level_is_refused(gens13, gens29):
    # a serialized multiplier and a character are held to the level of the
    # generating set by the same check
    with pytest.raises(ValueError, match="^p = 29 differs from the level 13 of the GenSet$"):
        MultiplierSystem.from_json(gens13, trivial_multiplier(gens29).to_json())
    with pytest.raises(ValueError, match="^p = 13 differs from the level 29 of the GenSet$"):
        char_multiplier(DirichletChar(13, 0), gens29)


def test_sixth_root_check_rejects_another_level(gens29):
    # it reported p = 13, p_mod_12 = 1 for the data of level 29
    with pytest.raises(ValueError, match="^p = 13 differs from the level 29 of the GenSet$"):
        sixth_root_check(13, gens29)
    assert sixth_root_check(29, gens29)["p_mod_12"] == 5


def test_sixth_root_examples(gens13):
    rep11 = sixth_root_check(11, build_presentation(11))
    assert rep11["free_ok"] and rep11["torsion_zero"]
    rep23 = sixth_root_check(23, build_presentation(23))
    assert rep23["free_ok"] and rep23["torsion_zero"]
    rep13 = sixth_root_check(13, gens13)
    assert rep13["free_ok"] and not rep13["torsion_zero"]
    assert rep13["torsion_order"] in (2, 3, 6) and 6 % rep13["torsion_order"] == 0
    # frozen deterministic component for our generating set
    assert rep13["tor2"] == [1, 1] and rep13["tor3"] == [2, 2]
    assert rep13["s_coefficient"] == -1


def test_kappa_subgroup_rejects_outsiders(gens13, gens29):
    from weilgap.presentation import ExpVector

    # p = 13: torsion (1, 0) is not a multiple of the parabolic's (1, 1)
    vec = ExpVector((0,), (1, 0), (0, 0))
    assert not in_kappa_subgroup(gens13, vec)
    # p = 29: a non-S free direction cannot be reached from [S] and [P]
    gens = gens29
    idx = next(i for i, lbl in enumerate(gens.free_labels) if lbl != "S")
    free = tuple(1 if i == idx else 0 for i in range(len(gens.free_labels)))
    vec = ExpVector(free, (0,) * len(gens.order2_labels), (0,) * len(gens.order3_labels))
    assert not in_kappa_subgroup(gens, vec)
    # while [P] itself is inside
    from weilgap.matrices import S as Smat, T as Tmat

    p_vec = abelianize(decompose_gamma0(gens, Tmat * Smat**29 * Tmat.inv()), gens)
    assert in_kappa_subgroup(gens, p_vec)


def test_b_independence_small(gens13):
    rng = random.Random(8)
    for _ in range(10):
        q = rng.choice([1, 2, 3, 4, 5])
        a = 0 if q == 1 else rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])
        m1, B, _ = constraint_matrix(13, a, q)
        m2, _, _ = constraint_matrix(13, a, q, B + q * rng.randint(1, 4))
        vec1 = abelianize(decompose_gamma0(gens13, m1), gens13)
        vec2 = abelianize(decompose_gamma0(gens13, m2), gens13)
        assert in_kappa_subgroup(gens13, vec2 + (-vec1))


def test_multiplier_json_roundtrip(gens5):
    from weilgap.multiplier import MultiplierSystem

    chi = quadratic_char(5)
    ups = char_multiplier(chi, gens5)
    again = MultiplierSystem.from_json(gens5, ups.to_json())
    assert again.angles == ups.angles


# ---------------------------------------------------------------------------
# The bottom-row cocycle against the word path

PRIMES = [p for p in range(5, 200) if is_prime(p)]
# from p = 17 on, the q_max = 1 pretend system has a nonzero kernel
PRETEND_PRIMES = [p for p in PRIMES if p >= 17]


@lru_cache(maxsize=None)
def _gens(p):
    return build_presentation(p)


@lru_cache(maxsize=None)
def _pretend(p):
    chi = DirichletChar(p, 0)
    cs = pretend_constraints(p, _gens(p), chi, 1, verify_b_dependence=False)
    return solve_pretend(cs, chi, _gens(p)).upsilon


def _random_multiplier(gens, data):
    """upsilon(S) = 0, random exact angles elsewhere, irrational parts on free generators."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    angles = {}
    for lbl in gens.labels:
        order = gens.orders[lbl]
        if lbl == "S":
            angles[lbl] = Angle()
        elif order == "inf":
            angles[lbl] = Angle(data.draw(small), data.draw(small))
        else:
            angles[lbl] = Angle(Fraction(data.draw(st.integers(0, order - 1)), order))
    return MultiplierSystem(gens, angles)


def angle_on_word_path(ups, c, d):
    """Oracle: the angle of the abelianized decompose_gamma0 word of a lift."""
    word = decompose_gamma0(ups.gens, lift_bottom_row(c, d))
    return ups.angle_of_vector(abelianize(word, ups.gens))


# |c| stays below 300 p, the reach kept for the word-path oracle: its
# rewriting writes out one wrap word per crossing of the p - 1 -> 0
# boundary.  d may be far larger, since its quotient is taken at the
# identity coset.
bottom_rows = st.tuples(st.integers(-300, 300), st.integers(-10**30, 10**30))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRETEND_PRIMES), row=bottom_rows)
def test_bottom_row_angle_matches_word_path_pretend(p, row):
    k, d = row
    c = p * k
    assume(math.gcd(c, d) == 1)
    ups = _pretend(p)
    assert ups.bottom_row_angle(c, d) == angle_on_word_path(ups, c, d)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), row=bottom_rows, data=st.data())
def test_bottom_row_angle_matches_word_path_random(p, row, data):
    k, d = row
    c = p * k
    assume(math.gcd(c, d) == 1)
    ups = _random_multiplier(_gens(p), data)
    assert ups.bottom_row_angle(c, d) == angle_on_word_path(ups, c, d)


def test_bottom_row_angle_small_rows_exhaustive(gens29):
    ups = _pretend(29)
    for c in (29, -58, 87, 290):
        for d in range(-2 * abs(c), 2 * abs(c) + 1):
            if math.gcd(c, d) == 1:
                assert ups.bottom_row_angle(c, d) == angle_on_word_path(ups, c, d)
    assert ups.bottom_row_angle(0, 1).is_zero_mod1()
    assert ups.bottom_row_angle(0, -1).is_zero_mod1()


def test_bottom_row_angle_rejects(gens13):
    angles = {lbl: Angle() for lbl in gens13.labels}
    trivial = trivial_multiplier(gens13)
    angles["S"] = Angle(Fraction(1, 5))
    with pytest.raises(ValueError, match="upsilon\\(S\\) = 1"):
        MultiplierSystem(gens13, angles).bottom_row_angle(13, 1)
    angles["S"] = Angle(0, Fraction(1, 3))
    with pytest.raises(ValueError, match="upsilon\\(S\\) = 1"):
        MultiplierSystem(gens13, angles).bottom_row_angle(13, 1)
    with pytest.raises(ValueError):
        trivial.bottom_row_angle(14, 1)  # not in Gamma0(13)
    with pytest.raises(ValueError):
        trivial.bottom_row_angle(26, 4)  # not unimodular


def test_evaluate_needs_no_condition_on_upsilon_s(gens13):
    angles = {lbl: Angle() for lbl in gens13.labels}
    angles["S"] = Angle(Fraction(1, 5), Fraction(1, 3))
    ups = MultiplierSystem(gens13, angles)
    assert ups.evaluate(S**3) == Angle(Fraction(3, 5), 1)
    with pytest.raises(ValueError, match="not in Gamma0"):
        ups.evaluate(Mat2(1, 0, 14, 1))


@pytest.mark.parametrize(
    "gamma", [Mat2(1, 1, 0, 2), Mat2(0, 1, 1, 0), Mat2(1, 0, 14, 1), T], ids=["det-2", "det-minus-1", "c-14", "T"]
)
def test_gamma0_checks_are_written_once(gens13, gamma):
    # class_of, decompose_gamma0 and evaluate refuse with the one message of GenSet._walk
    calls = (gens13.class_of, lambda g: decompose_gamma0(gens13, g), trivial_multiplier(gens13).evaluate)
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(gamma)
        messages.add(str(info.value))
    expected = "gamma must have determinant 1" if gamma.det() != 1 else f"matrix {gamma} is not in Gamma0(13)"
    assert messages == {expected}


@lru_cache(maxsize=None)
def _walk_multipliers(p):
    """upsilon_chi for chi = DirichletChar(p, 2), whose torsion angles are
    all nonzero at these p, and the solved q_max = 1 upsilon, of infinite
    order.  At p = 13 S is the only free generator and the kernel is
    trivial, so the second multiplier is upsilon_chi with sqrt(2)/3 on S."""
    gens, chi = _gens(p), DirichletChar(p, 2)
    sol = solve_pretend(pretend_constraints(p, gens, chi, 1, verify_b_dependence=False), chi, gens)
    upsilon = sol.upsilon
    if not sol.kernel_dim:
        upsilon = MultiplierSystem(gens, {**sol.upsilon_chi.angles, "S": Angle(0, Fraction(1, 3))})
    torsion = (*gens.order2_labels, *gens.order3_labels)
    assert torsion and all(not sol.upsilon_chi.angles[lbl].is_zero_mod1() for lbl in torsion)
    assert upsilon.has_infinite_order()
    return sol.upsilon_chi, upsilon


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([13, 37, 61, 101]), row=bottom_rows, n=st.integers(-10**6, 10**6), solved=st.booleans())
def test_evaluate_is_the_class_angle_and_the_word_angle(p, row, n, solved):
    # the one walk of evaluate against the class of class_of and against
    # the class of the written-out decompose_gamma0 word
    k, d = row
    assume(math.gcd(p * k, d) == 1)
    ups = _walk_multipliers(p)[solved]
    gens, gamma = ups.gens, S**n * lift_bottom_row(p * k, d)
    angle = ups.evaluate(gamma)
    assert angle == ups.angle_of_vector(gens.class_of(gamma))
    assert angle == ups.angle_of_vector(abelianize(decompose_gamma0(gens, gamma), gens))


def dense_walk_tables(gens, *weights):
    """Oracle: the tables of the row walk from one T-step walk and one
    dense class per coset, each dotted with each integer weight vector (one
    weight per coordinate): per weight and coset, with the identity coset
    at index p, the weight of the symbols its T step emits; per coset the
    index of the coset that step reaches; and per weight the weight of P.
    Quadratic in p."""
    p = gens.p
    steps, targets = [[0] * (p + 1) for _ in weights], [0] * (p + 1)
    for coset in (COSET_INF, *range(p)):
        raw, target = _schreier_walk(gens._steps, [("T", 1)], coset)
        coords = gens._coords(raw)
        for table, w in zip(steps, weights):
            table[coset % (p + 1)] = sum(map(operator.mul, w, coords))  # COSET_INF -> p
        targets[coset % (p + 1)] = target % (p + 1)
    wrap = gens._coords([("P", 1)])
    return steps, targets, [sum(map(operator.mul, w, wrap)) for w in weights]


@pytest.mark.parametrize("p", [5, 13, 29, 101, 1009])
def test_walk_tables_match_the_dense_walk(p):
    # seeded exact angles on every generator, S included
    gens, rng = _gens(p), random.Random(p)
    angles = {}
    for lbl in gens.labels:
        order = gens.orders[lbl]
        if order == "inf":
            angles[lbl] = Angle(Fraction(rng.randint(1, 99), rng.randint(2, 60)), Fraction(rng.randint(-99, 99), 7))
        else:
            angles[lbl] = Angle(Fraction(rng.randint(1, order - 1), order))
    ups = MultiplierSystem(gens, angles)
    coordinates = (*gens.free_labels, *gens.order2_labels, *gens.order3_labels)
    weights = [[int(getattr(ups.angles[lbl], part) * ups._den) for lbl in coordinates] for part in "rs"]
    (step_r, step_s), targets, wrap = ups._walk_tables
    assert ([step_r, step_s], targets, list(wrap)) == dense_walk_tables(gens, *weights)
    # at p = 5 and 13 S is the only free generator and no T step's class
    # holds it, so only there step_s is all zero
    assert any(step_r) and all(wrap) and any(step_s) == (p > 13)


# ---------------------------------------------------------------------------
# The integer-numerator angle table against Fraction sums of Angle.scale


def angle_by_fraction_sum(ups, vec):
    """Reference angle_of_vector: a Fraction sum of Angle.scale per coordinate."""
    gens, total = ups.gens, Angle()
    for labels, coords in (
        (gens.free_labels, vec.free),
        (gens.order2_labels, vec.tor2),
        (gens.order3_labels, vec.tor3),
    ):
        for lbl, n in zip(labels, coords):
            total = total + ups.angles[lbl].scale(n)
    return total.mod1()


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([p for p in range(5, 500) if is_prime(p)]), data=st.data())
def test_angle_of_vector_matches_fraction_sum(p, data):
    gens = _gens(p)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=60)
    angles = {}
    for lbl in gens.labels:
        order = gens.orders[lbl]
        if order == "inf":
            angles[lbl] = Angle(data.draw(small), data.draw(small))
        else:
            angles[lbl] = Angle(Fraction(data.draw(st.integers(0, order - 1)), order))
    ups = MultiplierSystem(gens, angles)
    big = st.integers(-(10**12), 10**12)
    vec = ExpVector(
        tuple(data.draw(big) for _ in gens.free_labels),
        tuple(data.draw(st.integers(0, 1)) for _ in gens.order2_labels),
        tuple(data.draw(st.integers(0, 2)) for _ in gens.order3_labels),
    )
    assert ups.angle_of_vector(vec) == angle_by_fraction_sum(ups, vec)
    assert ups.angle_of_vector(vec) == angle_of_vector_dense(ups, vec)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(PRETEND_PRIMES), seed=st.integers(0, 2**32 - 1))
def test_pretend_upsilon_is_homomorphism(p, seed):
    rng = random.Random(seed)
    ups = _pretend(p)
    assert ups.has_infinite_order()
    g1 = random_gamma0_element(p, rng, bound=10**4)
    g2 = random_gamma0_element(p, rng, bound=10**4)
    assert ups.evaluate(g1 * g2) == (ups.evaluate(g1) + ups.evaluate(g2)).mod1()


def test_solve_pretend_matches_fraction_oracles():
    """kernel_basis and upsilon, rebuilt from per-vector Fraction
    back-substitution and Fraction sums of Angle.scale, are bit-identical."""
    solved = 0
    for p in PRIMES:
        gens = _gens(p)
        n_free = len(gens.free_labels)
        for t in (0, 2):
            chi = DirichletChar(p, t)
            ups_chi = char_multiplier(chi, gens)
            for q_max in (1, 3, 6):
                cs = pretend_constraints(p, gens, chi, q_max, verify_b_dependence=False)
                free_rows = [list(row.vector.free) for row in cs.rows]
                basis = nullspace_by_back_substitution(free_rows, n_free)
                sol = solve_pretend(cs, chi, gens)
                assert (sol.kernel_dim, sol.rank) == (len(basis), rank(free_rows))
                if not basis:
                    # a trivial kernel solves to upsilon_chi, of finite order
                    assert sol.kernel_basis == []
                    assert sol.upsilon.to_json() == ups_chi.to_json()
                    assert not sol.upsilon.has_infinite_order()
                    continue
                angles = {
                    lbl: Angle(ups_chi.angles[lbl].r, basis[0][gens.free_labels.index(lbl)])
                    if lbl in gens.free_labels
                    else ups_chi.angles[lbl]
                    for lbl in gens.labels
                }
                upsilon = MultiplierSystem(gens, angles)
                for row in cs.rows:
                    assert angle_by_fraction_sum(upsilon, row.vector) == row.target.mod1()
                assert sol.kernel_basis == basis
                assert sol.upsilon.to_json() == upsilon.to_json()
                solved += 1
    assert solved == 220


def _threshold_pass(p, q_max):
    """One incremental pass over the free parts of the trivial-chi pretend
    rows up to q_max, in pretend_constraints order.  Returns the system, the
    free count, the rank after each modulus q (q = 0: the cusp rows alone),
    q*, the least q at which the rank is full (None if it is not full by
    q_max), and the
    first row of a modulus q >= 2 that adds nothing, as (q, relation) with
    the relation keyed by row tag and signed so that row has coefficient 1
    (None if every such row is independent)."""
    cs = pretend_constraints(p, _gens(p), DirichletChar(p, 0), q_max, verify_b_dependence=False)
    n_free = len(_gens(p).free_labels)
    echelon, ranks, first_dependent = Echelon(n_free), {}, None
    for i, row in enumerate(cs.rows):
        relation = echelon.add(row.vector.free)
        ranks[row.q or 0] = len(echelon.pivots)
        if relation is not None and first_dependent is None and (row.q or 0) >= 2:
            sign = 1 if relation[i] > 0 else -1
            first_dependent = (row.q, {cs.rows[r].tag: sign * c for r, c in relation.items()})
    q_star = next((q for q in sorted(ranks) if ranks[q] == n_free), None)
    return cs, n_free, ranks, q_star, first_dependent


@pytest.mark.parametrize("p, q_star", [(199, 13), (401, 18), (601, 22), (809, 27), (1009, 29)])
def test_sharpness_threshold_pins(p, q_star):
    """q*(p), the least q_max at which the free parts of the pretend rows
    have full rank, read from one incremental pass: the rank falls short of
    the free count at q* - 1 and reaches it at q*."""
    _, n_free, ranks, found, _ = _threshold_pass(p, q_star)
    assert found == q_star
    assert ranks[q_star - 1] < ranks[q_star] == n_free


# q*(p) for every prime 5 <= p < 200; at the genus-0 primes 5, 7 and 13 the
# free part is [S] alone and the cusp rows have full rank at q_max = 0
Q_STAR = {5: 0, 7: 0, 13: 0, 11: 3, 17: 3, 19: 4, 23: 4}
Q_STAR |= {p: 5 for p in (29, 31, 37, 43)} | {p: 6 for p in (41, 47, 53)}
Q_STAR |= {p: 7 for p in (59, 61, 67, 73, 83)} | {p: 8 for p in (71, 79, 103)}
Q_STAR |= {p: 9 for p in (89, 97, 101, 107, 113)} | {p: 10 for p in (109, 127, 137)}
Q_STAR |= {p: 11 for p in (131, 139, 149, 151, 157, 163, 173, 197)} | {p: 12 for p in (167, 179)}
Q_STAR |= {p: 13 for p in (181, 191, 193, 199)}


def test_threshold_pins_below_200():
    """q*(p) from one incremental pass at every prime 5 <= p < 200, with the
    ranks at q* - 1 and q* checked against the Bareiss oracle."""
    assert sorted(Q_STAR) == PRIMES
    for p, q_star in Q_STAR.items():
        cs, _, ranks, found, _ = _threshold_pass(p, q_star)
        assert found == q_star, p
        for q in {max(q_star - 1, 0), q_star}:
            prefix = [row.vector.free for row in cs.rows if (row.q or 0) <= q]
            assert ranks[q] == bareiss_echelon(prefix)[0], (p, q)


@pytest.mark.parametrize(
    "p, q_dep, relation",
    [
        (29, 4, {(1, 4): 1, (1, 2): 1, (1, 3): -1, (2, 3): -1}),
        (101, 5, {(4, 5): 1, (1, 4): 1, (3, 4): -1, (1, 5): -1}),
        (281, 8, {(7, 8): 1, (1, 7): 1, (6, 7): -1, (1, 8): -1}),
    ],
)
def test_first_dependent_row(p, q_dep, relation):
    """q_dep(p), the first modulus q >= 2 with a row that adds nothing to the
    rank, and that row's relation to the earlier rows."""
    _, _, _, _, (q, found) = _threshold_pass(p, q_dep)
    assert q == q_dep
    assert found == {f"pretend({a},{m})": c for (a, m), c in relation.items()}


def test_first_dependent_row_p1009():
    """At p = 1009 every modulus q <= 17 adds phi(q) independent rows; the
    first relation, at q_dep = 18, has 16 rows, all with coefficients +-1."""
    cs, n_free, ranks, _, (q, relation) = _threshold_pass(1009, 18)
    assert q == 18
    assert all(ranks[m] - ranks[m - 1] == sum(math.gcd(a, m) == 1 for a in range(m)) for m in range(2, 18))
    assert len(relation) == 16 and set(relation.values()) == {1, -1}
    free = {row.tag: row.vector.free for row in cs.rows}
    assert not any(sum(c * free[tag][j] for tag, c in relation.items()) for j in range(n_free))


def in_kappa_subgroup_by_solving(gens, vec):
    """Oracle: membership in <[S], [P]> by solving vec = alpha [S] + beta [P],
    with a branch for a [P] whose free part is not a multiple of [S]."""
    p_vec = gens.class_of(T * S**gens.p * T.inv())
    s_idx = gens.s_index
    pinned = [(i, px) for i, px in enumerate(p_vec.free) if i != s_idx and px != 0]
    if pinned:
        i0, px = pinned[0]
        if vec.free[i0] % px != 0:
            return False
        betas = [vec.free[i0] // px]
    else:
        if any(x != 0 for i, x in enumerate(vec.free) if i != s_idx):
            return False
        betas = list(range(6))
    for beta in betas:
        if any(vec.free[i] != beta * px for i, px in pinned):
            continue
        alpha = vec.free[s_idx] - beta * p_vec.free[s_idx]
        combo = p_vec.scale(beta) + ExpVector(
            tuple(alpha if i == s_idx else 0 for i in range(len(vec.free))),
            (0,) * len(vec.tor2),
            (0,) * len(vec.tor3),
        )
        if combo == vec:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([13, 29, 101, 199]), data=st.data())
def test_in_kappa_subgroup_matches_solving(p, data):
    # alpha [S] + beta [P] plus a perturbation that is often zero, so that
    # both answers occur: one free coordinate (possibly [S]'s own) and a
    # torsion part
    gens = _gens(p)
    p_vec = gens.class_of(T * S**p * T.inv())
    s_vec = gens.class_of(S)
    free = [0] * len(gens.free_labels)
    if data.draw(st.booleans()):
        free[data.draw(st.integers(0, len(free) - 1))] = data.draw(st.sampled_from([-1, 1]))
    tor2, tor3 = [0] * len(gens.order2_labels), [0] * len(gens.order3_labels)
    if data.draw(st.booleans()):
        tor2 = data.draw(st.lists(st.integers(0, 1), min_size=len(tor2), max_size=len(tor2)))
        tor3 = data.draw(st.lists(st.integers(0, 2), min_size=len(tor3), max_size=len(tor3)))
    noise = ExpVector(tuple(free), tuple(tor2), tuple(tor3))
    vec = s_vec.scale(data.draw(st.integers(-2, 2))) + p_vec.scale(data.draw(st.integers(-7, 7))) + noise
    assert in_kappa_subgroup(gens, vec) == in_kappa_subgroup_by_solving(gens, vec)
    assert in_kappa_subgroup(gens, vec) == in_kappa_subgroup_by_scaling(gens, vec)
    assert in_kappa_subgroup(gens, vec + (-noise))


# The angle table from the rules and the sparse pretend checks, against the
# formulas they replace


def test_symbol_num_matches_the_class_sum():
    for p in [*PRIMES, 1009]:
        gens, chi = _gens(p), DirichletChar(p, 2)
        cs = pretend_constraints(p, gens, chi, 10 if p == 1009 else 6, verify_b_dependence=False)
        for ups in (char_multiplier(chi, gens), solve_pretend(cs, chi, gens).upsilon):
            assert ups._symbol_num == symbol_num_by_classes(ups)


def _rule_closure(gens, symbols):
    """The symbols and every symbol their rules read, transitively."""
    closure, stack = set(), list(symbols)
    while stack:
        symbol = stack.pop()
        if symbol not in closure:
            closure.add(symbol)
            stack += [label for label, _ in gens._rules.get(symbol, ())]
    return closure


def test_classes_are_summed_only_where_a_walk_reads_them():
    p = 1009
    gens, chi = build_presentation(p), DirichletChar(p, 2)
    labels = set(gens.labels)
    assert set(gens._classes) == labels | _rule_closure(gens, ["P"])
    cs = pretend_constraints(p, gens, chi, 10)
    lifts = [S]
    for row in cs.rows[2:]:
        m, B, _ = constraint_matrix(p, row.a, row.q)
        lifts += [m, constraint_matrix(p, row.a, row.q, B + row.q)[0]]
    walked = {symbol for gamma in lifts for symbol, _ in gens._walk(gamma)}
    assert set(gens._classes) == labels | _rule_closure(gens, walked | {"P"})
    assert len(gens._classes) < len(gens._raw_words)


def test_pretend_checks_match_their_dense_formulas():
    # every row of every prime 5 <= p < 200 with q_max = 6, and the class
    # that separates each row's two lifts, which lies in <[S], [P]>
    inside = outside = 0
    for p in PRIMES:
        gens, chi = _gens(p), DirichletChar(p, 2)
        cs = pretend_constraints(p, gens, chi, 6)
        sol = solve_pretend(cs, chi, gens)
        for row in cs.rows:
            vecs = [row.vector]
            if row.a is not None:
                _, B, _ = constraint_matrix(p, row.a, row.q)
                vecs.append(gens.class_of(constraint_matrix(p, row.a, row.q, B + row.q)[0]) + (-row.vector))
            for vec in vecs:
                member = in_kappa_subgroup(gens, vec)
                assert member == in_kappa_subgroup_by_scaling(gens, vec)
                inside, outside = inside + member, outside + (not member)
                for ups in (sol.upsilon_chi, sol.upsilon):
                    assert ups.angle_of_vector(vec) == angle_of_vector_dense(ups, vec)
    assert inside and outside


# The array walk of rows_angles against the scalar bottom_row_angle


def _row_oracle(ups, c):
    """Oracle: bottom_row_angle(c, d) for every unit d of (0, c), one walk each."""
    return [(d, ups.bottom_row_angle(c, d)) for d in range(1, c) if math.gcd(c, d) == 1]


def _row_angle_list(ups, c):
    ds, r, s = next(ups.rows_angles([c]))
    den = ups._den
    return [(int(d), Angle(Fraction(int(x), den), Fraction(int(y), den))) for d, x, y in zip(ds, r, s)]


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), t=st.integers(1, 12), kind=st.sampled_from(["trivial", "solved", "random"]),
       data=st.data())
def test_row_angles_match_bottom_row_angle(p, t, kind, data):
    # every d of c = p t; the solved multiplier has finite order below
    # p = 17, where the q_max = 1 kernel is trivial
    gens = _gens(p)
    ups = {"trivial": lambda: trivial_multiplier(gens), "solved": lambda: _pretend(p),
           "random": lambda: _random_multiplier(gens, data)}[kind]()
    c = p * t
    assert _row_angle_list(ups, c) == _row_oracle(ups, c)


def test_row_angles_fall_back_past_the_int64_bound(gens29):
    # an s numerator of 2^60 puts the walk's bound past ROW_WALK_LIMIT, so
    # the rows are walked in Python integers, with the same angles
    ups = _pretend(29)
    angles = dict(ups.angles)
    label = next(lbl for lbl in gens29.free_labels if lbl != "S")
    angles[label] = Angle(angles[label].r, Fraction(2**60 + 1, 3))
    big = MultiplierSystem(gens29, angles)
    for c in (29, 58, 29 * 37):
        ds, r, s = next(big.rows_angles([c]))
        assert r.dtype == object and max(abs(x) for x in s) >= 2**53
        assert _row_angle_list(big, c) == _row_oracle(big, c)
        assert next(ups.rows_angles([c]))[1].dtype == np.int64


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(PRIMES), t=st.integers(1, 40), solved=st.booleans(), data=st.data())
def test_row_values_are_the_bottom_row_values(p, t, solved, data):
    # the same float parts of the exponent as the Angle's, each correctly
    # rounded; numpy's complex exp then gives the same doubles as cmath's
    ups = _pretend(p) if solved else _random_multiplier(_gens(p), data)
    c = p * t
    ds, values = next(ups.rows_values([c]))
    assert [complex(v) for v in values] == [ups.bottom_row_angle(c, int(d)).value() for d in ds]


def test_row_angles_reject(gens13):
    angles = {lbl: Angle() for lbl in gens13.labels}
    angles["S"] = Angle(Fraction(1, 5))
    with pytest.raises(ValueError, match="upsilon\\(S\\) = 1"):
        next(MultiplierSystem(gens13, angles).rows_angles([13]))
    for c in (0, -13, 14):
        with pytest.raises(ValueError, match="positive multiple"):
            next(trivial_multiplier(gens13).rows_angles([c]))


# Reflection symmetry: upsilon(eps gamma eps) = conj upsilon(gamma), eps = diag(1, -1)


def _reflected(gamma):
    return Mat2(gamma.a, -gamma.b, -gamma.c, gamma.d)


@lru_cache(maxsize=None)
def _kernel_multipliers(p, q_max, t=0):
    """The solved upsilon at every kernel index of the pretend system for
    chi = DirichletChar(p, t)."""
    gens, chi = _gens(p), DirichletChar(p, t)
    cs = pretend_constraints(p, gens, chi, q_max, verify_b_dependence=False)
    dim = solve_pretend(cs, chi, gens).kernel_dim
    return tuple(solve_pretend(cs, chi, gens, kernel_index=i).upsilon for i in range(dim))


@settings(max_examples=15, deadline=None)
@given(p=st.sampled_from(PRETEND_PRIMES), data=st.data())
def test_reflection_symmetric_directions_are_anti_invariant(p, data):
    # q_max below the paper's bound sqrt((p - 24)/3), or 1 from p = 17 on,
    # leaves a nonzero kernel; every direction the exact check calls
    # symmetric has upsilon(eps gamma eps) + upsilon(gamma) = 0 mod 1
    q_max = data.draw(st.integers(1, max(1, math.isqrt(max(p - 24, 0) // 3))))
    multipliers = _kernel_multipliers(p, q_max)
    assert multipliers
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for ups in multipliers:
        if ups.reflection_symmetric:
            for gamma in (random_gamma0_element(p, rng) for _ in range(10)):
                assert (ups.evaluate(_reflected(gamma)) + ups.evaluate(gamma)).is_zero_mod1()


@pytest.mark.parametrize("p, dim, symmetric", [(29, 4, [0, 1]), (101, 16, [2, 14])])
def test_reflection_symmetric_kernel_indices(p, dim, symmetric):
    multipliers = _kernel_multipliers(p, 1)
    assert len(multipliers) == dim
    assert [i for i, ups in enumerate(multipliers) if ups.reflection_symmetric] == symmetric


def test_reflection_symmetry_of_character_multipliers(gens13):
    # the rational part of a solved upsilon is upsilon_chi's, so a complex
    # chi leaves every direction asymmetric; real characters are symmetric
    p, chi = 1009, DirichletChar(1009, 2)
    cs = pretend_constraints(p, _gens(p), chi, 1, verify_b_dependence=False)
    sol = solve_pretend(cs, chi, _gens(p))
    assert not sol.upsilon_chi.reflection_symmetric
    for index in (0, 1, sol.kernel_dim - 1):
        assert not solve_pretend(cs, chi, _gens(p), kernel_index=index).upsilon.reflection_symmetric
    assert trivial_multiplier(gens13).reflection_symmetric
    assert char_multiplier(quadratic_char(13), gens13).reflection_symmetric


def test_reflection_symmetry_needs_trivial_upsilon_s(gens13):
    # eps S eps = S^-1, so any upsilon(S) passes the generator check on S;
    # the row mirror needs upsilon(S) = 1 as well
    angles = {lbl: Angle() for lbl in gens13.labels}
    angles["S"] = Angle(0, Fraction(1, 5))
    ups = MultiplierSystem(gens13, angles)
    assert (ups.evaluate(_reflected(S)) + ups.evaluate(S)).is_zero_mod1()
    assert not ups.reflection_symmetric


def _full_walk(ups):
    """The same multiplier with the half walk turned off: its rows_angles
    walks every d of the row."""
    full = MultiplierSystem(ups.gens, ups.angles)
    full.__dict__["reflection_symmetric"] = False
    return full


@pytest.mark.parametrize("p, q_max, index", [(29, 1, 0), (29, 1, 1), (53, 5, 0), (101, 1, 2), (101, 1, 14)])
def test_half_walk_equals_the_full_walk(p, q_max, index):
    ups = _kernel_multipliers(p, q_max)[index]
    assert ups.reflection_symmetric
    full = _full_walk(ups)
    for c in range(p, 40 * p + 1, p):
        half, whole = next(ups.rows_angles([c])), next(full.rows_angles([c]))
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(half, whole))


def test_half_walk_on_object_lanes(gens29):
    # scaling the irrational parts keeps the direction anti-invariant and
    # puts the walk's bound past ROW_WALK_LIMIT
    ups = _kernel_multipliers(29, 1)[0]
    big = MultiplierSystem(gens29, {lbl: Angle(a.r, a.s * (2**60 + 1)) for lbl, a in ups.angles.items()})
    assert big.reflection_symmetric
    for c in (29, 58, 29 * 37):
        ds, r, s = next(big.rows_angles([c]))
        assert r.dtype == object and max(abs(x) for x in s) >= 2**53
        assert all(np.array_equal(a, b) for a, b in zip((ds, r, s), next(_full_walk(big).rows_angles([c]))))
        assert _row_angle_list(big, c) == _row_oracle(big, c)


# The lane walk across moduli: rows_angles


def _units(c):
    return [d for d in range(1, c) if math.gcd(c, d) == 1]


def _lane_bound(ups, c):
    """Oracle: the walk's bound on a lane of modulus c, from c alone: a row
    with 0 < d < c has at most bitlen(c) quotients, whose |t| sum to at
    most c + 1 + bitlen(c)/2."""
    (step_r, step_s), _, (wrap_r, wrap_s) = ups._walk_tables
    largest = max(map(abs, (*step_r, *step_s, wrap_r, wrap_s)))
    steps = c.bit_length()
    return largest * (2 * steps + (c + 1 + steps // 2) // ups.p + 1)


def _lane_walk(ups, c, d):
    """Oracle: a scalar copy, in Python integers, of the lane walk of (c, d)
    forward along gamma^-1: the numerators (r, s) of upsilon(gamma), r not
    yet reduced, and the largest |numerator| the lane holds or adds."""
    (step_r, step_s), target, (wrap_r, wrap_s) = ups._walk_tables
    p = coset = ups.p
    r = s = top = 0
    for t in euclid_quotients(c, d):
        wraps = 0
        if coset != p:
            wraps, coset = divmod(coset - t, p)
        add_r, add_s = wraps * wrap_r + step_r[coset], wraps * wrap_s + step_s[coset]
        r, s = r - add_r, s - add_s
        top = max(top, abs(wraps * wrap_r), abs(wraps * wrap_s), abs(add_r), abs(add_s), abs(r), abs(s))
        coset = target[coset]
    assert coset == p
    return r, s, top


@settings(max_examples=300, deadline=None)
@given(row=st.integers(2, 2**62 - 1).flatmap(lambda c: st.tuples(st.just(c), st.integers(1, c - 1))))
@example(row=(317811, 196418))  # consecutive Fibonacci numbers
@example(row=(2**62 - 1, 1))
def test_euclid_quotients_within_the_lane_bound(row):
    # the premise of the walk's bound: a row with 0 < d < c has at most
    # bitlen(c) quotients, and sum |t| <= c + 1 + bitlen(c)/2
    c, d = row
    quotients = euclid_quotients(c, d)
    assert len(quotients) <= c.bit_length()
    assert 2 * sum(map(abs, quotients)) <= 2 * (c + 1) + c.bit_length()


def _same_rows(got, want):
    return len(got) == len(want) and all(
        np.array_equal(a, b) for row, other in zip(got, want) for a, b in zip(row, other)
    )


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(PRIMES), ts=st.lists(st.integers(1, 8), max_size=4),
       kind=st.sampled_from(["trivial", "solved", "random"]), data=st.data())
def test_rows_angles_match_bottom_row_angle(p, ts, kind, data):
    # moduli in any order, repeats among them; one walk for all of them
    gens = _gens(p)
    ups = {"trivial": lambda: trivial_multiplier(gens), "solved": lambda: _pretend(p),
           "random": lambda: _random_multiplier(gens, data)}[kind]()
    moduli = [p * t for t in ts]
    rows = list(ups.rows_angles(moduli))
    assert len(rows) == len(moduli)
    den = ups._den
    for c, (ds, r, s) in zip(moduli, rows):
        got = [(int(d), Angle(Fraction(int(x), den), Fraction(int(y), den))) for d, x, y in zip(ds, r, s)]
        assert got == _row_oracle(ups, c)


@pytest.mark.parametrize("cap, batches", [(1, [1, 1, 1, 1]), (27, [1, 1, 1, 1]), (28, [2, 1, 1]),
                                          (56, [3, 1]), (84, [4]), (1 << 15, [4])])
def test_rows_angles_batch_at_the_lane_cap(monkeypatch, cap, batches):
    # the solved upsilon at p = 29 walks 14, 14, 28 and 28 lanes of these rows
    ups, moduli = _pretend(29), [29, 58, 87, 116]
    want = [next(ups.rows_angles([c])) for c in moduli]
    monkeypatch.setattr("weilgap.multiplier._WALK_LANES", cap)
    assert [len(batch) for batch in ups._batches(moduli)] == batches
    assert _same_rows(list(ups.rows_angles(moduli)), want)


def test_rows_angles_pick_lanes_per_batch(monkeypatch):
    # a limit between the two batches' bounds, each from its largest c:
    # int64 lanes for the first, Python integers for the second, with the
    # same angles; in one batch the largest c puts every row in Python integers
    ups, moduli = _pretend(29), [29, 58, 29 * 40]
    want = [next(ups.rows_angles([c])) for c in moduli]
    first, second = _lane_bound(ups, 58), _lane_bound(ups, 29 * 40)
    assert max(first, ups._den) < second
    monkeypatch.setattr("weilgap.multiplier._WALK_LANES", 28)
    monkeypatch.setattr("weilgap.multiplier.ROW_WALK_LIMIT", second)
    rows = list(ups.rows_angles(moduli))
    assert [r.dtype for _, r, _ in rows] == [np.int64, np.int64, object]
    assert _same_rows(rows, want)
    monkeypatch.setattr("weilgap.multiplier._WALK_LANES", 1 << 15)
    rows = list(ups.rows_angles(moduli))
    assert [r.dtype for _, r, _ in rows] == [object] * 3
    assert _same_rows(rows, want)


@pytest.mark.parametrize("p, q_max, index", [(29, 1, 0), (29, 1, 1), (53, 5, 0)])
def test_walked_half_bound_covers_every_value_it_computes(monkeypatch, p, q_max, index):
    # a symmetric upsilon walks half of each row; every value the scalar
    # copy of the walk holds, on every d of the row, is within the bound
    # from c, and its angles are the row's, the mirrored half included
    ups = _kernel_multipliers(p, q_max)[index]
    assert ups.reflection_symmetric
    den = ups._den
    for c in (p, 2 * p, 7 * p, 40 * p):
        ds = _units(c)
        bound = _lane_bound(ups, c)
        lanes = [_lane_walk(ups, c, d) for d in ds]
        assert max(top for _, _, top in lanes) <= bound
        # at a limit just past the bound the lanes stay int64 and agree
        # with the walk in Python integers
        with monkeypatch.context() as patch:
            patch.setattr("weilgap.multiplier.ROW_WALK_LIMIT", max(bound, den) + 1)
            on_int64 = next(ups.rows_angles([c]))
            patch.setattr("weilgap.multiplier.ROW_WALK_LIMIT", 0)
            on_objects = next(ups.rows_angles([c]))
        assert on_int64[1].dtype == np.int64 and on_objects[1].dtype == object
        assert _same_rows([on_int64], [on_objects])
        assert on_int64[0].tolist() == ds
        assert [(r % den, s) for r, s, _ in lanes] == list(zip(on_int64[1].tolist(), on_int64[2].tolist()))


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_rows_angles_batch_short_and_long_lanes(data):
    # one batch of the moduli F_7 = 13, F_14 = 377 and F_21 = 10946 at
    # p = 13: lanes of two Euclid steps, d = 1 with its quotient -c among
    # them, beside the long consecutive-Fibonacci rows (F_{n+1}, F_n)
    ups, moduli = _random_multiplier(_gens(13), data), [13, 377, 10946]
    assert len(list(ups._batches(moduli))) == 1
    assert euclid_quotients(10946, 1) == [0, -10946] and len(euclid_quotients(10946, 6765)) == 11
    den = ups._den
    for c, (ds, r, s) in zip(moduli, ups.rows_angles(moduli)):
        got = {int(d): Angle(Fraction(int(x), den), Fraction(int(y), den)) for d, x, y in zip(ds, r, s)}
        assert got == dict(_row_oracle(ups, c))


def test_rows_angles_check_every_modulus_first(gens13):
    ups = trivial_multiplier(gens13)
    assert list(ups.rows_angles([])) == []
    with pytest.raises(ValueError, match="c = 14 must be a positive multiple"):
        ups.rows_angles([13, 26, 14])  # raised on the call, before any row is walked
