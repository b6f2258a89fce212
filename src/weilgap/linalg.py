"""Exact rational linear algebra: sparse integer elimination, rank, nullspace.

Kernel dimensions here are correctness claims, so no floating point is
involved anywhere.  Rows are {column: int} dicts of their nonzero entries.
Each is reduced against the pivot row of its leading column by gcd-scaled
integer combinations, divided by content, until it is zero or leads a new
column; a fraction-free back pass then clears every pivot column above its
pivot, and each basis entry is one quotient of two integers of that reduced
form.  ``bareiss_echelon``, dense Bareiss elimination (Bareiss, Math. Comp.
22, 1968), is the oracle the tests hold the sparse path to.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count


def bareiss_echelon(rows: list[list[int]]) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free Gaussian elimination on an integer matrix.

    Returns (rank, pivot_columns, echelon_matrix); the echelon matrix has
    integer entries (Bareiss one-step division keeps them exact).
    """
    m = [list(map(int, row)) for row in rows]
    if not m:
        return 0, [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return len(pivots), pivots, m


def _echelon(rows, n_cols: int) -> dict[int, dict[int, int]]:
    """An echelon basis of the row space of integer rows of width n_cols,
    as sparse rows keyed by their leading column; a row of another width
    raises ValueError."""
    pivots: dict[int, dict[int, int]] = {}
    for i, dense in enumerate(rows):
        if len(dense) != n_cols:
            raise ValueError(f"row {i} has {len(dense)} entries, expected {n_cols}")
        row = {j: int(dense[j]) for j in compress(count(), dense)}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            _eliminate(row, pivots[lead], lead)
    return pivots


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> None:
    """Replace row, in place, by a row - b pivot over its content, with
    a > 0 and b the least integers that clear column col."""
    g = math.gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in pivot.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            del row[j]
    content = math.gcd(*row.values())
    if content > 1:
        for j in row:
            row[j] //= content


def rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix given by its rows."""
    return len(_echelon(rows, len(rows[0]) if rows else 0))


def nullspace(rows: list[list[int]], n_cols: int | None = None) -> list[list[Fraction]]:
    """Reduced-echelon basis of {x : A x = 0} over the rationals.

    The basis vectors are indexed by the free columns in increasing order:
    basis vector i has a 1 in the i-th free column and 0 in the others,
    which makes the output deterministic.  Every row must have n_cols
    entries (by default, as many as the first row).
    """
    if n_cols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns from an empty system")
        n_cols = len(rows[0])
    pivots = _echelon(rows, n_cols)
    # backward pass, last pivot first: a pivot row's entries in later pivot
    # columns are cleared by those columns' rows, which are already clear in
    # every pivot column but their own, so the clearings do not interact
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for col in [j for j in row if j != lead and j in pivots]:
            _eliminate(row, pivots[col], col)
    free = {c: i for i, c in enumerate(c for c in range(n_cols) if c not in pivots)}
    basis = [[Fraction(0)] * n_cols for _ in free]
    for c, i in free.items():
        basis[i][c] = Fraction(1)
    # basis entry (pivot column, free column f) is -R[f] / R[pivot]
    for lead, row in pivots.items():
        for col, x in row.items():
            if col != lead:
                basis[free[col]][lead] = Fraction(-x, row[lead])
    return basis
