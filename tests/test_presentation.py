import contextlib
import dataclasses
import hashlib
import json
import math
import random
import sys
from collections import Counter
from functools import lru_cache
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilgap import presentation
from weilgap.matrices import (
    IDENTITY, Mat2, S, T, euclid_quotients, evaluate_word, leading_s_power, lift_bottom_row, reduce_word, sign_against,
)
from weilgap.presentation import (
    COSET_INF,
    GammaWord,
    _cyclic_reduce,
    _pair_eliminations,
    _schreier_relators,
    _splice,
    _spliced_product,
    _substitute,
    _t_steps,
    _tietze,
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


def _word(text):
    return [(lbl, int(e)) for lbl, e in (tok.split("^") for tok in text.split())]


@pytest.mark.parametrize(
    "p, gamma, sign, tokens",
    [
        (13, Mat2(4, 1, 91, 23), -1, "S^1 V_3^1 V_5^1 V_8^1 V_9^1 S^1 V_3^1 V_5^1 V_8^1 V_9^1 V_3^1"),
        (13, Mat2(-7, 4, 26, -15), 1, "V_3^-1 V_5^-1 V_3^-1 S^-1"),
        (13, S**10**20 * Mat2(-7, 4, 26, -15), 1, f"S^{10**20} V_3^-1 V_5^-1 V_3^-1 S^-1"),
        (29, Mat2(1, 0, 29, 1), 1, "S^1 V_5^1 V_22^-1 V_5^-1 V_8^1 V_22^1 V_15^-1 V_17^1 V_8^-1 V_12^1 V_15^1"),
        (
            29,
            Mat2(12, -1, 145, -12),
            1,
            "S^1 V_5^1 V_22^-1 V_5^-1 V_8^1 V_22^1 V_15^-1 V_17^1 V_8^-1 V_12^1 V_15^1 V_17^1 V_15^-1 V_12^-1"
            " V_8^1 V_17^-1 V_15^1 V_22^-1 V_8^-1 V_5^1 V_22^1 V_5^-1 S^-1",
        ),
    ],
    ids=["p13-c91", "p13-c26", "p13-c26-far-S", "p29-c29", "p29-c145"],
)
def test_decompose_gamma0_pinned_words(p, gamma, sign, tokens):
    # the exact words `weilgap word` prints, so a change of walk cannot alter them silently
    word = decompose_gamma0(gens_of(p), gamma)
    assert (word.tokens, word.sign) == (_word(tokens), sign)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([13, 29, 101]), seed=st.integers(0, 2**32 - 1))
def test_decompose_gamma0_words_are_reduced(p, seed):
    # the rewriting is reduced once, in _substitute; the word keeps it as is
    gens = gens_of(p)
    word = decompose_gamma0(gens, random_gamma0_element(p, random.Random(seed), 10**8))
    assert GammaWord(word.tokens).tokens == word.tokens
    assert all(exp for _, exp in word.tokens)


def _conjugate_walk_relators(p):
    """Oracle: each conjugate T S^j w S^-j T^-1 of a defining relator w
    walked letter by letter from the identity coset (None), one unit step at a time."""

    def walk(letters):
        coset, out = None, []
        for gen, exp in letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if gen == "S":
                    if coset is None:
                        out.append(("S", step))
                    elif step == 1 and coset == p - 1:
                        out += [("V_1", -1), ("S", -1)]
                        coset = 0
                    elif step == -1 and coset == 0:
                        out += [("S", 1), ("V_1", 1)]
                        coset = p - 1
                    else:
                        coset += step
                elif coset is None:
                    coset = 0
                elif coset == 0:
                    coset = None
                else:
                    target = (-pow(coset, -1, p)) % p
                    out.append((f"V_{coset}", 1) if step == 1 else (f"V_{target}", -1))
                    coset = target
        assert coset is None
        return out

    relators = []
    for w in ([("T", 2)], [("T", 1), ("S", 1)] * 3):
        for j in (None, *range(p)):
            rep = [] if j is None else [("T", 1), ("S", j)]
            word = _cyclic_reduce(reduce_word(walk(rep + w + [(g, -e) for g, e in reversed(rep)])))
            if word:
                relators.append(word)
    return relators


def _rotation_class(rel):
    """The least token rotation of a relator, shared by its cyclic rotations."""
    return min(tuple(rel[i:] + rel[:i]) for i in range(len(rel)))


def _first_of_each_rotation_class(relators):
    seen, first = set(), []
    for rel in relators:
        if (key := _rotation_class(rel)) not in seen:
            seen.add(key)
            first.append(rel)
    return first


def test_relators_walked_from_their_coset_match_conjugate_walk():
    # one walk per cycle: the all-coset list with each later rotation dropped
    for p in filter(is_prime, range(5, 200)):
        matrices = {"S": S, **{f"V_{j}": v_matrix(p, j) for j in range(1, p)}}
        kept, oracle = _schreier_relators(_t_steps(p), matrices), _conjugate_walk_relators(p)
        assert kept == _first_of_each_rotation_class(oracle)
        kept_classes = {_rotation_class(rel) for rel in kept}
        assert len(kept_classes) == len(kept) < len(oracle)
        assert all(_rotation_class(rel) in kept_classes for rel in oracle)


def test_tietze_of_one_relator_per_cycle_matches_all_cosets():
    # the dropped rotations change neither the elimination log nor the survivors
    for p in [*filter(is_prime, range(5, 200)), 409, 1009]:
        matrices = {"S": S, **{f"V_{j}": v_matrix(p, j) for j in range(1, p)}}
        kept = _schreier_relators(_t_steps(p), matrices)
        assert _tietze(kept, matrices) == _tietze(_conjugate_walk_relators(p), matrices)


# SHA-256 of json.dumps(list(gens.rewriting_log.items())), in log order,
# computed with every relator walked from every coset
PINNED_REWRITING_LOGS = {
    101: "dfd2610fc3954761e907536b306a04d6d1138cfd4aa7e10f6e3a2273543806e2",
    1009: "ef023888290f3efa5e5943ddfec31e33e64b76541915d51169d385f6b203d68d",
}


@pytest.mark.parametrize("p", sorted(PINNED_REWRITING_LOGS))
def test_rewriting_log_is_pinned(p):
    text = json.dumps(list(gens_of(p).rewriting_log.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REWRITING_LOGS[p]


def _rescanning_tietze(relators, matrices):
    """Oracle: Tietze elimination that rebuilds and cyclically reduces every
    relator after each elimination, with phase 1 rescanning the relator list
    from the start after each pair.  Returns (relators entering phase 2,
    phase-1 log, surviving relators, full log)."""
    relators, log, live = list(relators), [], dict(matrices)

    def eliminate(label, replacement):
        nonlocal relators
        log.append((label, reduce_word(replacement)))
        new_relators = []
        for rel in relators:
            out = []
            for gen, exp in rel:
                if gen == label:
                    out.extend(replacement * exp if exp > 0 else [(g, -e) for g, e in reversed(replacement)] * -exp)
                else:
                    out.append((gen, exp))
            reduced = _cyclic_reduce(reduce_word(out))
            if reduced:
                new_relators.append(reduced)
        relators = new_relators
        del live[label]

    def key(label):
        return (0, 0) if label == "S" else (1, int(label[2:]))

    changed = True
    while changed:
        changed = False
        for rel in list(relators):
            if len(rel) == 2 and rel[0][0] != rel[1][0] and abs(rel[0][1]) == 1 and abs(rel[1][1]) == 1:
                (x, e1), (y, e2) = rel
                if key(y) < key(x):
                    x, e1, y, e2 = y, e2, x, e1
                eliminate(y, [(x, -e1 * e2)])
                changed = True
                break
    phase1 = (list(relators), list(log))

    def find_candidate():
        for rel in sorted(relators, key=len):
            counts = {}
            for gen, exp in rel:
                counts[gen] = counts.get(gen, 0) + abs(exp)
            for idx, (gen, exp) in enumerate(rel):
                if counts[gen] == 1 and abs(exp) == 1 and abs(live[gen].trace()) > 1:
                    return rel, gen, idx
        return None

    while (found := find_candidate()) is not None:
        rel, gen, idx = found
        rotated = rel[idx:] + rel[:idx]
        rest = rotated[1:]
        replacement = [(g, -e) for g, e in reversed(rest)] if rotated[0][1] == 1 else list(rest)
        relators.remove(rel)
        eliminate(gen, replacement)
    return (*phase1, relators, log)


def test_tietze_matches_rescanning_elimination():
    for p in [*filter(is_prime, range(5, 200)), 409, 1009]:
        matrices = {"S": S, **{f"V_{j}": v_matrix(p, j) for j in range(1, p)}}
        relators = _schreier_relators(_t_steps(p), matrices)
        phase1_relators, phase1_log, final_relators, full_log = _rescanning_tietze(relators, matrices)
        assert _pair_eliminations(relators) == (phase1_relators, phase1_log)
        assert _tietze(relators, matrices) == (final_relators, full_log)


def _list_rewrite(relators, words):
    """The list-scanning rewrite the occurrence index replaced: every relator
    is tested for the labels of words."""
    out = []
    for rel in relators:
        if any(label in words for label, _ in rel):
            rel = _cyclic_reduce(_substitute(rel, words))
        if rel:
            out.append(rel)
    return out


def _sorting_tietze(relators, matrices):
    """The elimination the worklist replaced: phase 2 sorts every relator by
    length and scans for a candidate at each step."""
    relators, log = _pair_eliminations(relators)
    while True:
        for rel in sorted(relators, key=len):
            counts = Counter(gen for gen, _ in rel)
            eligible = (
                i for i, (gen, exp) in enumerate(rel)
                if counts[gen] == 1 and abs(exp) == 1 and abs(matrices[gen].trace()) > 1
            )
            idx = next(eligible, None)
            if idx is not None:
                break
        else:
            return relators, log
        gen, exp = rel[idx]
        rest = rel[idx + 1:] + rel[:idx]
        replacement = [(g, -e) for g, e in reversed(rest)] if exp == 1 else rest
        relators.remove(rel)
        log.append((gen, replacement))
        relators = _list_rewrite(relators, {gen: replacement})


def test_words_match_the_sorting_build(monkeypatch):
    p = 1009
    gens = build_presentation(p)
    monkeypatch.setattr(presentation, "_tietze", _sorting_tietze)
    old = build_presentation(p)
    assert old.rewriting_log == gens.rewriting_log and old.labels == gens.labels
    rng = random.Random(1009)
    for _ in range(20):
        gamma = random_gamma0_element(p, rng)
        word, old_word = decompose_gamma0(gens, gamma), decompose_gamma0(old, gamma)
        assert (word.tokens, word.sign) == (old_word.tokens, old_word.sign)


def p_crossings(raw):
    """The crossings of coset p - 1 -> 0 a raw walk word makes: the
    exponents of P, summed in absolute value, as decompose_gamma0 counts them."""
    return sum(abs(n) for symbol, n in raw if symbol == "P")


def test_crossings_count_the_wraps_without_a_word(gens13):
    # the row (13 k, 1) crosses coset 12 -> 0 once per unit of k, in one P token
    for k in (1, 2, 7, 10**6, 10**12):
        raw = gens13._walk(Mat2(1, 0, 13 * k, 1))
        assert p_crossings(raw) == k and sum(symbol == "P" for symbol, _ in raw) == 1
    with pytest.raises(ValueError, match="1000001 times"):
        decompose_gamma0(gens13, Mat2(1, 0, 13 * (10**6 + 1), 1))


def test_word_guard_counts_the_tokens_it_would_write(monkeypatch):
    # at p = 1009 the wrap word has 337 tokens, so 15,000 crossings of coset
    # 1008 -> 0 would write 5,055,000 tokens: refused before any expansion
    gens = gens_of(1009)
    assert len(gens._raw_words["P"]) == 337

    def no_expansion(tokens, words):
        raise AssertionError("the word was expanded")

    monkeypatch.setattr(presentation, "_substitute", no_expansion)
    with pytest.raises(ValueError, match="15000 times and would hold 5055000 tokens"):
        decompose_gamma0(gens, Mat2(1, 0, 1009 * 15000, 1))


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


def is_zero(vec) -> bool:
    return not any(vec.free) and not any(vec.tor2) and not any(vec.tor3)


def test_abelianize_torsion_relators(gens13):
    # the defining relators of the free-product presentation map to zero
    for lbl in gens13.order2_labels:
        assert is_zero(abelianize(GammaWord([(lbl, 2)]), gens13))
    for lbl in gens13.order3_labels:
        assert is_zero(abelianize(GammaWord([(lbl, 3)]), gens13))


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
        assert is_zero(vec_q + vec_qs)
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


def _trial_division(n):
    """Oracle: odd trial division up to sqrt(n)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def test_is_prime_is_trial_division():
    assert [n for n in range(-3, 10**4) if is_prime(n)] == [n for n in range(-3, 10**4) if _trial_division(n)]


def test_level_messages():
    # a composite level is named as such; 2 and 3 are primes below the range
    for p, message in ((9, "9 is not prime"), (1, "1 is not prime"), (3, "level must be a prime > 3, got 3")):
        for call in (build_presentation, rademacher_signature):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(p)


def test_compute_q_rejects_a_presentation_of_another_level():
    # it returned the Q of level 29 for p = 13
    with pytest.raises(ValueError, match="^p = 13 differs from the level 29 of the GenSet$"):
        compute_Q(13, gens_of(29))
    assert compute_Q(29, gens_of(29)) == gens_of(29).q_set()


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


# ---------------------------------------------------------------------------
# The class walk against the word path


@lru_cache(maxsize=None)
def gens_of(p):
    return build_presentation(p)


@st.composite
def gamma0_elements(draw):
    """(p, gamma) with p < 500 prime and |c| <= 300 p, the reach kept for the
    word-path oracle: its rewriting writes out one wrap word per crossing of
    the p - 1 -> 0 boundary.  d and the top row may be far larger."""
    p = draw(st.sampled_from([p for p in range(5, 500) if is_prime(p)]))
    c, d = p * draw(st.integers(-300, 300)), draw(st.integers(-(10**30), 10**30))
    assume(math.gcd(c, d) == 1)
    lift, n = lift_bottom_row(c, d), draw(st.integers(-(10**6), 10**6))
    return p, Mat2(lift.a + n * c, lift.b + n * d, c, d)


@settings(max_examples=30, deadline=None)
@given(gamma0_elements())
def test_word_remultiplies_at_random_levels(element):
    p, gamma = element
    word = decompose_gamma0(gens_of(p), gamma)
    assert word.evaluate(gens_of(p)) == (gamma if word.sign == 1 else -gamma)


def _runs_of(gens, gamma):
    """The rewritten word of gamma and the runs its splice records."""
    runs = []
    tokens = _substitute(gens._walk(gamma), gens._raw_words, dict(gens._inverses), runs)
    return tokens, runs


def test_a_changed_token_in_a_wrap_run_fails_the_certificate():
    gens = gens_of(1009)
    wraps = (gens._raw_words["P"], gens._inverses["P"])
    rng = random.Random(1009)
    for _ in range(50):
        gamma = random_gamma0_element(1009, rng)
        tokens, runs = _runs_of(gens, gamma)
        intact = [(start, end) for start, end, piece, _ in runs
                  if end - start == len(piece) and any(piece is wrap for wrap in wraps)]
        if intact:
            break
    sign_against(_spliced_product(tokens, runs, gens._matrices, {}), gamma, "Gamma0(p) decomposition")
    start, end = intact[0]
    # the first, a middle and the last token of an intact copy of P or P^-1, whose product is P's
    for k in (start, (start + end) // 2, end - 1):
        label, exp = tokens[k]
        other = next(lbl for lbl in gens.labels if lbl != label)
        # V^-1 = -V for an elliptic V of order 2: the exponent is doubled, not negated
        for token in ((label, 2 * exp), (other, exp)):
            corrupted = tokens[:k] + [token] + tokens[k + 1:]
            with pytest.raises(AssertionError, match="certified piece"):
                _spliced_product(corrupted, runs, gens._matrices, {})
            with pytest.raises(AssertionError, match="does not evaluate"):
                sign_against(GammaWord(corrupted).evaluate(gens), gamma, "Gamma0(p) decomposition")


def test_runs_that_do_not_tile_the_word_are_refused():
    gens = gens_of(1009)
    rng = random.Random(1010)
    while True:
        tokens, runs = _runs_of(gens, random_gamma0_element(1009, rng))
        if len(runs) >= 2:
            break
    first, second = runs[0], runs[1]
    start, end, piece, lo = first
    cases = {
        "a run entered twice": [first, *runs],
        "runs out of order": [second, first, *runs[2:]],
        "a run past the end": [*runs, (len(tokens), len(tokens) + 1, piece, lo)],
        "an empty run": [(start, start, piece, lo), *runs],
    }
    for name, bad in cases.items():
        with pytest.raises(AssertionError, match="do not tile"):
            _spliced_product(tokens, bad, gens._matrices, {})


@pytest.mark.parametrize("p", [101, 1009])
def test_decompositions_leave_the_certified_words_as_built(p):
    gens = build_presentation(p)
    built = {symbol: (word, tuple(word), word.product) for symbol, word in gens._raw_words.items()}
    inverse = gens._inverses["P"]
    assert gens._inverses == {"P": tuple(_inverse(gens._raw_words["P"]))}
    assert inverse.product == gens._raw_words["P"].product.inv()
    rng = random.Random(p)
    for _ in range(500):
        decompose_gamma0(gens, random_gamma0_element(p, rng))
    # a raw word that inverts another long word builds that inverse for itself
    symbol = next(s for s, word in gens._raw_words.items() if len(word) > 1 and s != "P")
    raw = [(symbol, -2), ("P", -1)]
    tokens, product = gens.rewrite_st_word(raw)
    assert tokens == _literal_substitute(raw, gens._raw_words)
    assert product == evaluate_word(tokens, gens._matrices)
    assert gens._raw_words.keys() == built.keys()
    for symbol, (word, tokens, product) in built.items():
        assert gens._raw_words[symbol] is word and word == tokens and word.product == product
    assert gens._inverses == {"P": inverse} and gens._inverses["P"] is inverse
    assert inverse == tuple(_inverse(gens._raw_words["P"])) and inverse.product == gens._raw_words["P"].product.inv()


def test_decompositions_take_only_the_powers_the_unit_table_lacks(monkeypatch):
    # at p = 1009 a decomposition takes Mat2.__pow__ of a generator only at
    # tokens whose exponent is not +-1, each distinct one once; the words,
    # signs and products are those of an empty table, and the table stays
    # as built and read-only
    gens = gens_of(1009)
    table = dict(gens._unit_powers)
    assert table.keys() == {(label, e) for label in gens.labels for e in (1, -1)}
    with pytest.raises(TypeError):
        gens._unit_powers[("S", 2)] = (1, 0, 0, 1)
    rng = random.Random(1009)
    elements = [random_gamma0_element(1009, rng) for _ in range(200)]
    generators, calls, power = {id(m) for m in gens._matrices.values()}, [], Mat2.__pow__

    def counted(self, n):
        if id(self) in generators:
            calls.append((id(self), n))
        return power(self, n)

    monkeypatch.setattr(Mat2, "__pow__", counted)
    results = []
    for gamma in elements:
        del calls[:]
        word = decompose_gamma0(gens, gamma)
        assert all(abs(n) != 1 for _, n in calls)
        assert len(calls) == len(set(calls)) <= len({token for token in word.tokens if abs(token[1]) != 1})
        results.append((word.tokens, word.sign, gens.rewrite_st_word(gens._walk(gamma))))
    assert dict(gens._unit_powers) == table
    monkeypatch.setattr(gens, "_unit_powers", MappingProxyType({}))
    for gamma, (tokens, sign, rewritten) in zip(elements, results):
        word = decompose_gamma0(gens, gamma)
        assert (word.tokens, word.sign, gens.rewrite_st_word(gens._walk(gamma))) == (tokens, sign, rewritten)


@pytest.mark.parametrize("change", ["in place", "rebound"])
def test_a_rewriting_log_word_changed_after_the_build_passes_no_decomposition(change):
    # a decomposition through the changed word either raises or writes the
    # word of the log as built
    p = 101
    gens = build_presentation(p)
    words = {symbol: list(word) for symbol, word in gens._raw_words.items()}
    rng, elements = random.Random(p), []
    while len(elements) < 7:
        gamma = random_gamma0_element(p, rng)
        long = [symbol for symbol, _ in gens._walk(gamma) if symbol != "P" and len(words[symbol]) > 2]
        if long:
            elements.append((gamma, long[0]))
    for gamma, symbol in elements:
        raw = gens._walk(gamma)
        word = gens._raw_words[symbol]
        k = len(word) // 2
        label, exp = word[k]
        token = (next(lbl for lbl in gens.labels if lbl not in (label, word[k - 1][0], word[k + 1][0])), exp)
        if change == "in place":
            with contextlib.suppress(TypeError):  # an immutable word cannot be changed
                word[k] = token
        else:
            changed = [*word[:k], token, *word[k + 1:]]
            gens.rewriting_log[symbol] = gens._raw_words[symbol] = changed
        try:
            decomposed = decompose_gamma0(gens, gamma)
        except AssertionError:
            continue
        assert decomposed.tokens == _literal_substitute(raw, words)
        assert decomposed.evaluate(gens) == (gamma if decomposed.sign == 1 else -gamma)


def test_negative_crossings_read_the_inverse_wrap_word():
    p = 1009
    gens = gens_of(p)
    rng, found = random.Random(p), 0
    while found < 10:
        gamma = random_gamma0_element(p, rng)
        raw = gens._walk(gamma)
        if not any(symbol == "P" and n < 0 for symbol, n in raw):
            continue
        found += 1
        word = decompose_gamma0(gens, gamma)
        assert word.tokens == _literal_substitute(raw, gens._raw_words)
        assert word.evaluate(gens) == (gamma if word.sign == 1 else -gamma)


@settings(max_examples=30, deadline=None)
@given(gamma0_elements())
def test_class_of_matches_word_path(element):
    p, gamma = element
    gens = gens_of(p)
    assert gens.class_of(gamma) == abelianize(decompose_gamma0(gens, gamma), gens)


def test_class_of_far_rows_take_few_steps():
    # under nonnegative remainders the row (c, -1) took |c| steps
    gens = gens_of(29)
    for k in range(31):
        c = 29 * 10**k
        assert len(euclid_quotients(c, -1)) <= math.log2(c) + 2
        vec = gens.class_of(lift_bottom_row(c, -1))
        if k <= 1:
            assert vec == abelianize(decompose_gamma0(gens, lift_bottom_row(c, -1)), gens)


far_elements = st.builds(
    lambda k, sign, n: S**n * lift_bottom_row(sign * 29 * 10**k, -1),
    st.integers(5, 30),
    st.sampled_from([1, -1]),
    st.integers(-(10**9), 10**9),
)


@settings(max_examples=50, deadline=None)
@given(far_elements, far_elements)
def test_class_of_is_homomorphism_beyond_the_oracle(g1, g2):
    gens = gens_of(29)
    assert gens.class_of(g1 * g2) == gens.class_of(g1) + gens.class_of(g2)
    assert gens.class_of(g1.inv()) == -gens.class_of(g1)


# A class walk and a crossing count written apart from _schreier_walk, each
# with its own T step and wrap class: oracles for the class path and the
# crossing guard at rows the word path cannot reach.


def _t_target(p, coset):
    if coset == COSET_INF:
        return 0
    if coset == 0:
        return COSET_INF
    return (-pow(coset, -1, p)) % p


def walk_coords(gens, quotients):
    """Unreduced class coordinates of T S^{t_k} T ... T S^{t_1}: a T step
    from coset r > 0 adds the class of V_r, an S^t at the identity coset adds
    t[S], and an S^t elsewhere adds one wrap class per crossing."""
    p = gens.p
    wrap = gens._coords(_substitute([("V_1", -1), ("S", -1)], gens.rewriting_log))
    coords = [0] * len(wrap)
    coset = COSET_INF
    for t in reversed(quotients):
        if coset > 0:
            coords = [x + y for x, y in zip(coords, gens._coords(gens.rewriting_log[f"V_{coset}"]))]
        coset = _t_target(p, coset)
        if coset == COSET_INF:
            coords[gens.s_index] += t
        else:
            wraps, coset = divmod(coset + t, p)
            coords = [x + wraps * y for x, y in zip(coords, wrap)]
    assert coset == COSET_INF
    return coords


def crossings(p, quotients):
    """The number of p - 1 <-> 0 crossings in the walk of walk_coords."""
    count, coset = 0, COSET_INF
    for t in reversed(quotients):
        coset = _t_target(p, coset)
        if coset != COSET_INF:
            wraps, coset = divmod(coset + t, p)
            count += abs(wraps)
    return count


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([p for p in range(5, 200) if is_prime(p)]),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**32), 10**32),
    st.integers(-(10**9), 10**9),
)
def test_class_of_and_crossings_match_a_separate_walk(p, k, d, n):
    c = p * k
    assume(math.gcd(c, d) == 1)
    gens = gens_of(p)
    gamma = S**n * lift_bottom_row(c, d)
    quotients = euclid_quotients(c, d)
    coords = walk_coords(gens, quotients)
    coords[gens.s_index] += leading_s_power(gamma, quotients)
    assert gens.class_of(gamma) == gens._vector(coords)
    assert p_crossings(gens._walk(gamma)) == crossings(p, quotients)


def test_class_of_rejects(gens13):
    with pytest.raises(ValueError, match="not in Gamma0"):
        gens13.class_of(T)
    with pytest.raises(ValueError, match="determinant"):
        gens13.class_of(Mat2(1, 1, 0, 2))


def test_parabolic_class_is_one_wrap():
    # the tabulated wrap class is the class of T S^p T^-1
    for p in (n for n in PRIMES if n < 200):
        gens = gens_of(p)
        assert gens.parabolic_class == gens.class_of(T * S**p * T.inv())


# ---------------------------------------------------------------------------
# The word layer against its literal forms


def _literal_substitute(tokens, words):
    """Oracle: every token written out, words[label]^e as |e| copies of the
    word or of its inverse (a one-token word as one token), then one
    reduce_word over the whole output."""
    out = []
    for label, exp in tokens:
        word = words.get(label)
        if word is None:
            out.append((label, exp))
        elif len(word) == 1:
            (gen, e), = word
            out.append((gen, e * exp))
        else:
            out.extend((word if exp > 0 else [(g, -e) for g, e in reversed(word)]) * abs(exp))
    return reduce_word(out)


def _literal_cyclic_reduce(tokens):
    """Oracle: reduce, then trim matching ends and reduce again until the ends differ."""
    tokens = reduce_word(tokens)
    while len(tokens) >= 2 and tokens[0][0] == tokens[-1][0]:
        merged = tokens[0][1] + tokens[-1][1]
        middle = tokens[1:-1]
        if merged:
            return reduce_word([(tokens[0][0], merged)] + middle)
        tokens = reduce_word(middle)
    return tokens


def _inverse(word):
    return [(g, -e) for g, e in reversed(word)]


LETTERS = "abcdef"
raw_words = st.lists(st.tuples(st.sampled_from(LETTERS), st.integers(-3, 3)), max_size=10)
reduced_words = raw_words.map(reduce_word)


@st.composite
def substitution_maps(draw):
    """Reduced words for a random subset of the letters: random words, one
    tokens with large exponents, conjugates u v u^-1 whose powers cancel at
    their own seams, and inverses of earlier words followed by more letters,
    whose cancellation reaches back through earlier pieces."""
    words = {}
    for label in draw(st.lists(st.sampled_from(LETTERS), unique=True)):
        kind = draw(st.sampled_from(["word", "one", "conjugate", "inverse"]))
        if kind == "one":
            words[label] = [(draw(st.sampled_from(LETTERS)), draw(st.integers(-(10**12), 10**12).filter(bool)))]
        elif kind == "conjugate":
            u, v = draw(reduced_words), draw(reduced_words)
            words[label] = reduce_word(u + v + _inverse(u))
        elif kind == "inverse" and words:
            earlier = draw(st.sampled_from(sorted(words)))
            words[label] = reduce_word(_inverse(words[earlier]) + draw(reduced_words))
        else:
            words[label] = draw(reduced_words)
    return words


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(reduced_words, raw_words), min_size=1, max_size=3), substitution_maps())
def test_substitute_matches_the_literal_expansion(token_lists, words):
    # raw input words hold zero exponents and unmerged neighbours; the calls
    # with a shared inverse table read what the earlier ones entered
    inverses = {}
    for tokens in token_lists:
        out = _substitute(tokens, words)
        assert out == _literal_substitute(tokens, words)
        assert reduce_word(out) == out
        assert _substitute(tokens, words, inverses) == out
    long_words = {label for label, word in words.items() if len(word) > 1}
    inverted = {label for tokens in token_lists for label, e in tokens if e < 0 and label in long_words}
    assert inverses == {label: _inverse(words[label]) for label in inverted}


def test_substitute_cancels_through_pieces_and_keeps_one_tokens():
    words = {"x": [("a", 1), ("b", 2), ("c", 1)], "y": [("c", -1), ("b", -2), ("a", -1), ("d", 1)], "z": [("a", 10**12)]}
    assert _substitute([("x", 1), ("y", 1)], words) == [("d", 1)]
    assert _substitute([("e", 1), ("x", 2), ("x", -2), ("e", -1)], words) == []
    conjugate = {"w": [("a", 1), ("b", 1), ("a", -1)]}
    assert _substitute([("w", 3)], conjugate) == [("a", 1), ("b", 3), ("a", -1)]
    assert _substitute([("z", 7), ("a", 0), ("w", 0)], {**words, **conjugate}) == [("a", 7 * 10**12)]


# parabolic and elliptic matrices for the letters: any power of one has small entries
LETTER_MATRICES = dict(zip(LETTERS, (S, T, Mat2(1, 0, 1, 1), Mat2(1, -1, 1, 0), Mat2(0, -1, 1, 1), Mat2(2, -1, 1, 0))))


def _fold(tokens, matrices):
    """Oracle: the product of matrices[label] ** exp, one token at a time."""
    value = IDENTITY
    for label, exp in tokens:
        value = value * matrices[label] ** exp
    return value


def _certified(words):
    return {label: presentation.CertifiedWord(word, _fold(word, LETTER_MATRICES)) for label, word in words.items()}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(reduced_words, raw_words), min_size=1, max_size=3), substitution_maps())
def test_splice_matches_the_literal_product(token_lists, words):
    # the words of substitution_maps cancel at their own seams and through earlier pieces
    certified, inverses = _certified(words), {}
    for tokens in token_lists:
        out, product = _splice(tokens, certified, inverses, LETTER_MATRICES, {})
        assert out == _literal_substitute(tokens, words)
        assert product == _fold(out, LETTER_MATRICES)
    for label, inverse in inverses.items():
        assert inverse.product == _fold(inverse, LETTER_MATRICES)


SPLICE_CASES = {
    # x^-2: two copies of the inverse, which the det-1 adjugate certifies
    "negative exponent": ([("e", 1), ("x", -2), ("e", 1)], "intact"),
    # y opens with x's tail inverted: the seam cancels back into x
    "seam cancels into the previous piece": ([("x", 1), ("y", 1)], "trimmed"),
    # x ends in c and z opens with c^2: the two merge into c^3
    "seam merge": ([("x", 1), ("z", 1)], "trimmed"),
    # the one-token word a^5, to the power 3, merges with x's leading a
    "one-token piece with exponent": ([("w", 3), ("x", 1)], "trimmed"),
    # x's ends differ, so x^3 is one run of three copies, which y cuts back
    "power cut back by the next piece": ([("x", 3), ("y", 1)], "trimmed"),
    # the copies of the conjugate u = a b a^-1 cancel and merge at each seam: u^3 = a b^3 a^-1
    "power reduced at its own seams": ([("u", 3)], "trimmed"),
}
SPLICE_WORDS = {
    "x": [("a", 1), ("b", 2), ("c", 1), ("d", -1), ("c", 1)],
    "y": [("c", -1), ("d", 1), ("c", -1), ("e", 2)],
    "z": [("c", 2), ("f", 1), ("a", -1)],
    "w": [("a", 5)],
    "u": [("a", 1), ("b", 1), ("a", -1)],
}


@pytest.mark.parametrize("tokens, kind", SPLICE_CASES.values(), ids=SPLICE_CASES)
def test_splice_cases(tokens, kind):
    certified = _certified(SPLICE_WORDS)
    runs = []
    out = _substitute(tokens, certified, {}, runs)
    assert out == _literal_substitute(tokens, SPLICE_WORDS)
    assert _spliced_product(out, runs, LETTER_MATRICES, {}) == _fold(out, LETTER_MATRICES)
    trimmed = [(start, end) for start, end, piece, lo in runs if lo or (end - start) % len(piece)]
    assert bool(trimmed) == (kind == "trimmed") and runs


@settings(max_examples=30, deadline=None)
@given(gamma0_elements())
def test_rewrite_st_word_product_is_the_literal_product(element):
    p, gamma = element
    gens = gens_of(p)
    raw = gens._walk(gamma)
    tokens, product = gens.rewrite_st_word(raw)
    assert tokens == _literal_substitute(raw, gens._raw_words)
    assert product == evaluate_word(tokens, gens._matrices)


@pytest.mark.parametrize("k", [1000, -1000])
def test_a_power_of_the_wrap_word_is_one_run(k):
    # the copies of P meet at seams that do not reduce, so P^k is written and certified at once
    gens = gens_of(13)
    wrap = gens._raw_words["P"]
    assert wrap[0][0] != wrap[-1][0]
    gamma = Mat2(1, 0, 13 * k, 1)
    tokens, runs = _runs_of(gens, gamma)
    assert gens._walk(gamma) == [("P", -k)]
    assert tokens == _literal_substitute([("P", -k)], gens._raw_words)
    assert [(start, end, lo) for start, end, _, lo in runs] == [(0, 1000 * len(wrap), 0)]
    sign_against(_spliced_product(tokens, runs, gens._matrices, {}), gamma, "Gamma0(p) decomposition")
    # a changed token in the first, a middle or the last copy fails the run's compare
    for k in (1, 500 * len(wrap) + 2, len(tokens) - 1):
        label, exp = tokens[k]
        corrupted = tokens[:k] + [(label, 2 * exp)] + tokens[k + 1:]
        with pytest.raises(AssertionError, match="certified piece"):
            _spliced_product(corrupted, runs, gens._matrices, {})


@pytest.mark.parametrize("p", [101, 1009])
def test_every_certified_word_holds_its_literal_product(p):
    gens = gens_of(p)
    for symbol, word in [*gens._raw_words.items(), ("P^-1", gens._inverses["P"])]:
        assert word.product == evaluate_word(word, gens._matrices), symbol


@settings(max_examples=300, deadline=None)
@given(reduced_words, reduced_words)
def test_cyclic_reduce_matches_the_literal_trim(u, v):
    for word in (v, reduce_word(u + v + _inverse(u)), reduce_word(u + v + u)):
        assert _cyclic_reduce(word) == _literal_cyclic_reduce(word)


def _dense_classes(gens):
    """Oracle: the class of every raw symbol's word as the dense coordinate
    sum of its tokens, filtered to its nonzero coordinates."""
    classes = {}
    for symbol, word in gens._raw_words.items():
        coords = [0] * len(gens._index)
        for label, n in word:
            coords[gens._index[label]] += n
        classes[symbol] = [(i, e) for i, e in enumerate(coords) if e]
    return classes


def _token_classes(gens):
    """Oracle: the class of every raw symbol as the exponent sums of every
    token of its word, summed per label and sorted by coordinate."""
    classes = {lbl: [(i, 1)] for lbl, i in gens._index.items()}
    for symbol, word in gens._raw_words.items():
        sums = {}
        for lbl, e in word:
            sums[lbl] = sums.get(lbl, 0) + e
        classes[symbol] = sorted([(gens._index[lbl], e) for lbl, e in sums.items() if e])
    return classes


def _every_class(gens):
    """The class of every raw symbol, final labels among them, read through
    the on-demand path (GenSet._class)."""
    return {symbol: gens._class(symbol) for symbol in gens._raw_words}


def test_classes_from_the_log_match_the_token_pass():
    # each eliminated label's class is summed from its Tietze replacement,
    # and P's from WRAP, not from the tokens of their words
    for p in [*filter(is_prime, range(5, 200)), 1009, 2003]:
        gens = gens_of(p)
        assert _every_class(gens) == _token_classes(gens)


def test_sparse_classes_match_the_dense_sum():
    for p in [*filter(is_prime, range(5, 200)), 1009]:
        gens = gens_of(p)
        assert _every_class(gens) == _dense_classes(gens)


def test_a_class_is_summed_without_recursion():
    # a chain of rules far deeper than the recursion limit, x_k = S^2 x_{k+1}
    # and x_depth = S^-1, each rule after the rules it reads
    gens, depth = build_presentation(13), 20 * sys.getrecursionlimit()
    chain = {f"x_{k}": [("S", 2), (f"x_{k + 1}", 1)] for k in range(depth)}
    gens._rules = {f"x_{depth}": [("S", -1)], **dict(reversed(chain.items()))}
    assert gens._class("x_0") == [(gens.s_index, 2 * depth - 1)]
    assert all(f"x_{k}" in gens._classes for k in range(depth + 1))


# SHA-256 of the canonical JSON of each prime's exact outputs, computed with
# whole-word reduction, per-letter T steps and dense classes. They are
# compared by value, not by pickle bytes, whose memo layout follows how
# token tuples are shared.
PINNED_EXACT_OUTPUTS = {
    5: "5ef979f1d4930692aa4c80a767b1e18b35d594750638412211efb0d5e66f71a4",
    7: "1c5c6a8c37a915307867558f3bd7bb360966baf588cfc16ff667d7b507d62a39",
    11: "a3395e8137653a2976fd0f7c708969e3d8fc8b711233f8da24878e3ec9733c8b",
    13: "14b976d7b2e52aaf940b4dadb6232db82ab1389130102a11cafab6febd742942",
    17: "60a76a1b266ffa218798ddf65391ac615aa16c318e42b2dd1f95fafbd846bbb4",
    19: "63f4294a4dfbda82727b24a0e7f003946fb5c973aee2ace487240990b4df7ac3",
    23: "272004c0fd8e083587e61557683728f45a282693e515edc199514bfade98df90",
    29: "9eb62f6a82597f04080427457eaee362886b08b3a47857d257bf4762781a3104",
    31: "fe40dfbf4672b6954049c4cca354523591f4b5a7f6aba4bbfccf7f4ab527d257",
    37: "d16167b36f7403c20d89920731e3b10a166c179d49da876a0a855ab1f49e7ba9",
    41: "ffd3a55de1492da0b0bcc02f9edce2c4ab6f114037879ab1fbc4e1b52861d203",
    43: "b44ae5488c728dd45b1685a95cafcfda2942d71bb79d89aeb36aee04bf0e1e63",
    47: "4f7be620b59535e31a4939fc03792e296f709811d3df68c63a830f07e3a28570",
    53: "4546c8ed0c9b3b172d9470b067997aac778baaa8e7677abf090763055ebee6d2",
    59: "766844ba6b14da87afd05a9f096254ab07192df0a8688063fdd9ae011beb8ecb",
    61: "f824ba74b114cf6b7aae85fbf2da5e44b8a084fd0b265a0f7e1432840a4e6c6f",
    67: "9e6527478363012a21ded003bdb6ede87e6b4a529c6f30d2294f26c687984632",
    71: "111f0d449845f161ec7295f64f01ea4a28913699d30e1ad985494600fd3bbfb6",
    73: "de53da466b7fbf12fd780a59e4ed0a53a9c1f4ab73ab305dbd1be0876b1a1787",
    79: "98794333e40f98ab8c43cb8f65add1022c1f85fe1ab1f5af738b8652ee0043bd",
    83: "681fd2b26833288eac51838829178849c8474642bbde928bf2c182e3a02a3c65",
    89: "1854069c84f571917c83e36b273f59a9171c3da37a4e1d7444bfabf6a6ffb06e",
    97: "35f802f0fd4f67fd0373cec6cade5cf644b58704460a6813661a68ec986117be",
    101: "c4e6db5ad686f9f99a9f56fba0e504c35049fcf43642161c1c7109729f6768b1",
    103: "30fbfc001b18973221bbce7ee7afd2ce980f4fa135024ebe6f3d631db3757918",
    107: "84eadec0dcbef94d583192c5ffa7ffd1fa2a17ca9b222232893ef4903fc79d9d",
    109: "5a3f36b3fd6fbe91e46070f0002fc1557480a1adfba86daa85cf4fcd6963337a",
    113: "f2549428437f83142b32fff069e3126626216660421d321dd8f7f5b29f08f185",
    127: "9c526ff34d951656858eb0b24c82ce6bd83aced935dddb5b8b0176ad94bb0cab",
    131: "c47e9844460b5a8f35826a8ba8eb89c0356de72b05146bfc67e8e78ec2b62be4",
    137: "abe3358ebb262451f266fa171179bbf4940a39f2628877c5c2278738b1577e89",
    139: "5a4baf9b69434e383af1fb94257c45c721ced6d4c9766cb1bc01800a82d07b73",
    149: "b0a31f5b6638c83a4c7d2cf90aeabed58d4c8469f2a6b963fd287c4fcf2b8a1c",
    151: "5e8f353605b16a241fafa41190ba6568f181874f742c9305ff6fe0c3347fc31d",
    157: "a553fa3843bdb186c5081d61797de285c5b0e5ccdbe18cf23923e5c651dc8372",
    163: "efe4ff9debc952aadfea44632c8873f446069ca2bbeae56fc0da674eb4993c5b",
    167: "509515cdb13b6fa1218bf4aee34ab6ad9ab3d5390fe9f5d04b62c9f120f1b9c5",
    173: "fc7c74a7fda50bb04a9c75762b85d075ad4d952ce857ef728078aaac13318c48",
    179: "065cb14a6c7a3aaa72af4b3b6024a83fa560f90718caed36a5faf8d14e7281db",
    181: "601e240d1a153e6732de26ef2b27ae90348090998328fa6e637202c5fc59d4bd",
    191: "3a8ffaf77db6a577da433cd32eaa4c301f159faa11f7712509abe4629cb1ad9b",
    193: "80b4df12b6a5438cbc0e799a253e1e0b751585bef4f6ca409bd1584cb2eef5b3",
    197: "37bff7aa8cdcef0755e8e7abe8d5e13ed805c1caa75d8aee19232f9ddd0ccceb",
    199: "7ce407ace93cdf4b0df34a7ac83a3198630fbaa61f68e83a55d1a9dd3bb70c23",
    1009: "f9cb23246e23bdd4951427464b41b26ee69fadb692c12d8f47cab4d897f4f55e",
}


def exact_outputs_digest(gens):
    p = gens.p
    rng = random.Random(p)
    elements = [random_gamma0_element(p, rng) for _ in range(20)]
    value = {
        "gens": gens.to_json(),
        "rewriting_log": gens.rewriting_log,
        "classes": _every_class(gens),
        "parabolic_class": dataclasses.asdict(gens.parabolic_class),
        "words": [decompose_gamma0(gens, g).to_json() for g in elements],
        "class_of": [dataclasses.asdict(gens.class_of(g)) for g in elements],
    }
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_exact_outputs_are_pinned_by_value():
    assert sorted(PINNED_EXACT_OUTPUTS) == [*filter(is_prime, range(5, 200)), 1009]
    changed = [p for p, digest in PINNED_EXACT_OUTPUTS.items() if exact_outputs_digest(gens_of(p)) != digest]
    assert changed == []
