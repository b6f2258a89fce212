"""Exact rational linear algebra: fraction-free elimination, rank, nullspace.

Kernel dimensions here are correctness claims, so no floating point is
involved anywhere: the forward pass is Bareiss fraction-free elimination
over the integers, the backward pass clears each pivot column with
gcd-scaled integer row combinations, and each basis entry is one quotient
of two integers of that reduced echelon form.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def rank(rows: list[list[int]]) -> int:
    return bareiss_echelon(rows)[0]


def nullspace(rows: list[list[int]], n_cols: int | None = None) -> list[list[Fraction]]:
    """Reduced-echelon basis of {x : A x = 0} over the rationals.

    The basis vectors are indexed by the free columns in increasing order:
    basis vector i has a 1 in the i-th free column and 0 in the others,
    which makes the output deterministic.
    """
    if n_cols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns from an empty system")
        n_cols = len(rows[0])
    if not rows:
        rows = [[0] * n_cols]
    rk, pivots, ech = bareiss_echelon(rows)
    red = ech[:rk]
    # backward pass: when pivot i is reached, row i is already clear in
    # every later pivot column, so the combinations keep those columns clear
    for i in range(rk - 1, -1, -1):
        piv, row_i = pivots[i], red[i]
        for h in range(i):
            x = red[h][piv]
            if x:
                g = math.gcd(row_i[piv], x)
                a, b = row_i[piv] // g, x // g
                row_h = [a * u - b * v for u, v in zip(red[h], row_i)]
                content = math.gcd(*row_h)
                red[h] = [u // content for u in row_h]
    basis: list[list[Fraction]] = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, piv in zip(red, pivots):
            vec[piv] = Fraction(-row[free], row[piv])
        basis.append(vec)
    return basis
