import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgap.linalg import Echelon, bareiss_echelon, nullspace, rank


def in_row_span(rows, vector):
    """Whether an integer vector lies in the rational row span of the rows."""
    return rank(rows + [vector]) == rank(rows)


def nullspace_by_back_substitution(rows, n_cols):
    """Reference nullspace: back-substitute each basis vector over Fraction
    from the Bareiss echelon form, one free column at a time."""
    if not rows:
        rows = [[0] * n_cols]
    rk, pivots, ech = bareiss_echelon(rows)
    basis = []
    for free in [c for c in range(n_cols) if c not in pivots]:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i in range(rk - 1, -1, -1):
            piv = pivots[i]
            total = sum((Fraction(ech[i][j]) * vec[j] for j in range(piv + 1, n_cols)), Fraction(0))
            vec[piv] = -total / ech[i][piv]
        basis.append(vec)
    return basis


def test_rank_known():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


def test_nullspace_known():
    basis = nullspace([[1, 2, 3]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0


def test_nullspace_reduced_echelon_determinism():
    basis = nullspace([[1, 0, 2, 0], [0, 1, 0, 3]])
    # free columns are 2 and 3: the basis vectors carry a unit there
    assert basis[0][2] == 1 and basis[0][3] == 0
    assert basis[1][2] == 0 and basis[1][3] == 1
    assert basis[0][0] == Fraction(-2) and basis[1][1] == Fraction(-3)


def test_nullspace_random_consistency():
    rng = random.Random(17)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(rng.randint(1, 5))]
        basis = nullspace(rows, 6)
        rk, _, _ = bareiss_echelon(rows)
        assert len(basis) == 6 - rk
        for vec in basis:
            for row in rows:
                assert sum(Fraction(r) * v for r, v in zip(row, vec)) == 0


def test_in_row_span():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert in_row_span(rows, [2, 3, 5])
    assert not in_row_span(rows, [0, 0, 1])


def test_bareiss_stays_integral():
    rows = [[2, 4, 6], [3, 5, 7], [1, 1, 1]]
    _, _, ech = bareiss_echelon(rows)
    for row in ech:
        for entry in row:
            assert isinstance(entry, int)


@st.composite
def integer_matrices(draw):
    """Integer matrices of any shape up to 8 x 9, with entries up to 2^40,
    zero rows and zero columns, and rank deficiency from integer
    combinations of a few base rows."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(1, 9))
    entries = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(2**40), 2**40)]))
    base = [[draw(entries) for _ in range(n_cols)] for _ in range(draw(st.integers(1, 4)))]
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["zero", "free", "combination"]))
        if kind == "zero":
            row = [0] * n_cols
        elif kind == "free":
            row = [draw(entries) for _ in range(n_cols)]
        else:
            coeffs = [draw(st.integers(-2, 2)) for _ in base]
            row = [sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(n_cols)]
        rows.append([0 if j in zero_cols else x for j, x in enumerate(row)])
    return rows, n_cols


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_nullspace_properties(matrix):
    rows, n_cols = matrix
    basis = nullspace(rows, n_cols)
    rk = rank(rows) if rows else 0
    assert len(basis) == n_cols - rk
    for vec in basis:
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    # column j is free iff it adds nothing to the rank of the columns before it
    prefix_ranks = [rank([row[:j] for row in rows]) if rows else 0 for j in range(n_cols + 1)]
    free_cols = [j for j in range(n_cols) if prefix_ranks[j + 1] == prefix_ranks[j]]
    assert len(free_cols) == len(basis)
    for i, vec in enumerate(basis):
        assert [vec[f] for f in free_cols] == [int(k == i) for k in range(len(free_cols))]
    assert basis == nullspace_by_back_substitution(rows, n_cols)


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_rank_matches_bareiss(matrix):
    rows, _ = matrix
    assert rank(rows) == bareiss_echelon(rows)[0]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_echelon_relations_and_prefix_ranks(matrix):
    """Each added row either raises the rank or returns a relation of
    content 1 that sums to zero over the rows added so far and involves the
    row just added; the rank after each row is Bareiss's rank of the prefix."""
    rows, n_cols = matrix
    echelon = Echelon(n_cols)
    for i, row in enumerate(rows):
        before = len(echelon.pivots)
        relation = echelon.add(row)
        assert len(echelon.pivots) == bareiss_echelon(rows[: i + 1])[0] == before + (relation is None)
        if relation is None:
            continue
        assert relation.get(i, 0) != 0 and set(relation) <= set(range(i + 1))
        assert all(relation.values()) and math.gcd(*relation.values()) == 1
        for j in range(n_cols):
            assert sum(c * rows[r][j] for r, c in relation.items()) == 0
    with pytest.raises(ValueError, match=rf"^row {len(rows)} has {n_cols + 1} entries, expected {n_cols}$"):
        echelon.add([1] * (n_cols + 1))
    assert echelon.n_rows == len(rows)


@pytest.mark.parametrize(
    "call",
    [
        lambda: nullspace([[1, 2], [1]]),
        lambda: nullspace([[1, 2]], 3),
        lambda: nullspace([[1, 2, 3]], 2),
        lambda: rank([[1, 2], [3]]),
        lambda: Echelon(2).add([1, 2, 3]),
    ],
    ids=["ragged-nullspace", "narrow-row", "wide-row", "ragged-rank", "echelon-row"],
)
def test_row_width_mismatch_raises(call):
    with pytest.raises(ValueError, match=r"^row \d+ has \d+ entries, expected \d+$"):
        call()
