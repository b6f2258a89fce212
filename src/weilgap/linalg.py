"""Exact rational linear algebra: one incremental integer elimination.

Kernel dimensions here are correctness claims, so no floating point is
involved anywhere.  Rows are {column: int} dicts of their nonzero entries.
``Echelon`` reduces each added row, together with its record of origin,
by gcd-scaled integer combinations with its pivot rows; ``rank`` is the
pivot count and ``nullspace`` the relations among the columns.
``bareiss_echelon``, dense Bareiss elimination (Bareiss, Math. Comp. 22,
1968), is the oracle the tests hold the sparse path to.
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


class Echelon:
    """An echelon basis of the span of integer rows of width n_cols, added
    one at a time.  Row i enters with a unit in the extra column n_cols + i,
    its record of origin, and is reduced against the pivot row of its
    leading column, row and record divided by their content together, until
    it leads a new column or only its record is left."""

    def __init__(self, n_cols: int):
        self.n_cols, self.n_rows = n_cols, 0
        self.pivots: dict[int, dict[int, int]] = {}  # keyed by leading column; the rank is their count

    def add(self, row) -> dict[int, int] | None:
        """Add a row of n_cols integers.  None if it raises the rank;
        otherwise its relation {i: c_i}, of content 1 and with c_i nonzero
        for this row, such that sum_i c_i row_i = 0 over the rows added so
        far.  A row of another width raises ValueError."""
        return self._add(_sparse(row, self.n_rows, self.n_cols))

    def _add(self, row: dict[int, int]) -> dict[int, int] | None:
        row[self.n_cols + self.n_rows] = 1
        self.n_rows += 1
        # the record columns all lie past n_cols, so a row led by one has
        # cancelled in every real column and what is left is its relation
        while (lead := min(row)) < self.n_cols:
            if lead not in self.pivots:
                self.pivots[lead] = row
                return None
            _eliminate(row, self.pivots[lead], lead)
        return {j - self.n_cols: c for j, c in row.items()}


def _sparse(row, i: int, n_cols: int) -> dict[int, int]:
    """Row i as {column: int} of its nonzero entries; a row whose width is
    not n_cols raises ValueError."""
    if len(row) != n_cols:
        raise ValueError(f"row {i} has {len(row)} entries, expected {n_cols}")
    return {j: int(row[j]) for j in compress(count(), row)}


def rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix given by its rows."""
    echelon = Echelon(len(rows[0]) if rows else 0)
    return sum(echelon.add(row) is None for row in rows)


def nullspace(rows: list[list[int]], n_cols: int | None = None) -> list[list[Fraction]]:
    """Reduced-echelon basis of {x : A x = 0} over the rationals.

    The basis vectors are indexed by the free columns in increasing order:
    basis vector i has a 1 in the i-th free column and 0 in the others,
    which makes the output deterministic.  Every row must have n_cols
    entries (by default, as many as the first row).

    The kernel is the relations among the columns, added in order to one
    :class:`Echelon`.  A free column is one that adds nothing to the rank,
    and a column that does becomes a pivot, so a free column's relation
    involves only itself and pivot columns before it; divided by its own
    coefficient, it is the unique reduced-echelon basis vector.
    """
    if n_cols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns from an empty system")
        n_cols = len(rows[0])
    columns: list[dict[int, int]] = [{} for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j, x in _sparse(row, i, n_cols).items():
            columns[j][i] = x
    echelon, basis, zero = Echelon(len(rows)), [], Fraction(0)
    for free, column in enumerate(columns):
        if (relation := echelon._add(column)) is not None:
            vector = [zero] * n_cols
            for j, c in relation.items():
                vector[j] = Fraction(c, relation[free])
            basis.append(vector)
    return basis
