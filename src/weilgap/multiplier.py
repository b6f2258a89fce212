"""Multiplier systems on Gamma0(p)/{+-I} as exact angle assignments.

A multiplier system of even weight is a homomorphism from the quotient
Gamma0(p)/{+-[Gamma0(p), Gamma0(p)]} to the circle, hence determined by one
angle per generator of the Rademacher generating set.  Angles live in
Q + Q*sqrt(2): the value e(r + s*sqrt(2)) has finite order exactly when
s = 0, which makes "infinite order" a decidable property.

The key construction is solve_pretend: impose

    upsilon([[D, a], [-pB, q]]) = chi(q)   for 1 <= q <= Q_max, gcd(a, q) = 1,

together with the cusp conditions upsilon(S) = upsilon(T S^p T^{-1}) = 1,
solve exactly (the Dirichlet character chi itself is a particular
solution), and push one rational kernel direction into the sqrt(2) slot to
obtain an infinite-order multiplier that imitates chi on all small-modulus
matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .characters import DirichletChar, _factorize, _units
from .linalg import nullspace
from .matrices import Mat2, S, lift_bottom_row
from .presentation import ExpVector, GenSet, _require_level, constraint_matrix

SQRT2 = math.sqrt(2)


# the array walk of MultiplierSystem.rows_angles keeps its numerators, and the
# denominator, below this, so int64 cannot wrap and each float of them is exact
ROW_WALK_LIMIT = 2**53
# the most walked lanes in one batch of that walk, which bounds the memory of
# its dozen or so arrays of one entry per lane
_WALK_LANES = 1 << 15


def circle_value(r, s):
    """e(r + s*sqrt(2)) from the two parts of the exponent, each a float, or
    elementwise over float arrays by numpy's complex exp of the same sum."""
    if np.ndim(r) or np.ndim(s):
        return np.exp(2j * np.pi * (r + s * SQRT2))
    return cmath.exp(2j * cmath.pi * (r + s * SQRT2))


@dataclass(frozen=True)
class Angle:
    """Exact exponent r + s*alpha with alpha = sqrt(2); represents e(r + s*alpha)."""

    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.r, Fraction):
            object.__setattr__(self, "r", Fraction(self.r))
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", Fraction(self.s))

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.r + other.r, self.s + other.s)

    def scale(self, n) -> "Angle":
        return Angle(self.r * Fraction(n), self.s * Fraction(n))

    def mod1(self) -> "Angle":
        """Canonical representative with rational part in [0, 1).

        Two exponents give the same circle value iff they differ by an
        integer, which can only move the rational part.  An angle already
        in that range is its own representative: it is frozen.
        """
        return self if 0 <= self.r < 1 else Angle(self.r % 1, self.s)

    def is_zero_mod1(self) -> bool:
        return self.s == 0 and self.r % 1 == 0

    def value(self) -> complex:
        """The unit-circle value e(r + s*sqrt(2))."""
        return circle_value(float(self.r), float(self.s))

    def to_json(self) -> dict:
        return {
            "rational": f"{self.r.numerator}/{self.r.denominator}",
            "irrational": f"{self.s.numerator}/{self.s.denominator}",
        }

    @classmethod
    def from_json(cls, data: dict) -> "Angle":
        return cls(Fraction(data["rational"]), Fraction(data["irrational"]))


ZERO_ANGLE = Angle()


class MultiplierSystem:
    """An exact angle per generator; extends to Gamma0(p) through the angles
    of the raw Schreier symbols of an element's walk (:meth:`GenSet._walk`)."""

    def __init__(self, gens: GenSet, angles: dict[str, Angle]):
        self.gens = gens
        self.p = gens.p
        if set(angles) != set(gens.labels):
            raise ValueError("angles must be given for exactly the generators")
        for lbl in (*gens.order2_labels, *gens.order3_labels):
            a, order = angles[lbl], gens.orders[lbl]
            if a.s != 0 or (a.r * order) % 1 != 0:
                raise ValueError(f"angle on order-{order} generator {lbl} must be a multiple of 1/{order}")
        self.angles = {lbl: angles[lbl].mod1() for lbl in gens.labels}
        self._den = math.lcm(*(x.denominator for a in self.angles.values() for x in (a.r, a.s)))

    @cached_property
    def _label_num(self) -> list[tuple[int, int]]:
        """The angle of every generator as integer numerators (r, s) over
        ``_den``, in class coordinate order (GenSet._index)."""
        den = self._den
        return [(int(a.r * den), int(a.s * den)) for a in map(self.angles.get, self.gens._index)]

    @cached_property
    def _symbol_num(self) -> dict[str, tuple[int, int]]:
        """The angle of every raw Schreier symbol, final labels among them,
        as integer numerators (r, s) over ``_den``: a label's own, and an
        eliminated label's or P's n times each of its rule's token
        numerators, summed in rule order (GenSet._rules), as its class is."""
        nums = dict(zip(self.gens._index, self._label_num))
        for symbol, rule in self.gens._rules.items():
            nums[symbol] = _num_sum(nums, rule)
        return nums

    def _angle(self, table, tokens) -> Angle:
        """The angle of (key, n) pairs: n times each table[key], summed."""
        (r, s), den = _num_sum(table, tokens), self._den
        return Angle(Fraction(r % den, den), Fraction(s, den))

    def angle_of_vector(self, vec: ExpVector) -> Angle:
        """The angle of a class: each generator's angle times its coordinate."""
        coords = enumerate((*vec.free, *vec.tor2, *vec.tor3))
        return self._angle(self._label_num, [(i, n) for i, n in coords if n])

    def evaluate(self, gamma: Mat2) -> Angle:
        """Exact angle of upsilon(gamma) for gamma in Gamma0(p): the angles of
        the raw symbols of its walk (:meth:`GenSet._walk`), summed."""
        return self._angle(self._symbol_num, self.gens._walk(gamma))

    def value(self, gamma: Mat2) -> complex:
        return self.evaluate(gamma).value()

    def bottom_row_angle(self, c: int, d: int) -> Angle:
        """Exact angle of upsilon(gamma) for every gamma in Gamma0(p) with
        bottom row (c, d); requires upsilon(S) = 1.

        Two such gamma differ by a power of S on the left, so upsilon(S) = 1
        makes the angle a function of (c, d): the angle of any lift.  This is
        the scalar reference for :meth:`rows_angles`.
        """
        self._require_trivial_s()
        return self.evaluate(lift_bottom_row(c, d))

    def _require_trivial_s(self) -> None:
        if not self.angles["S"].is_zero_mod1():
            raise ValueError("the bottom-row angle requires upsilon(S) = 1")

    def rows_angles(self, moduli) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """bottom_row_angle(c, d) for every d in (0, c) prime to c, for each
        positive multiple c of p in moduli in turn: the d, and the angle
        numerators r (mod the denominator) and s over ``_den``, in three
        arrays, from one lane walk per batch of moduli.  Every modulus is
        checked before any is walked.

        The walk of :meth:`GenSet._walk` runs on every lane of a batch at
        once, forward along gamma^-1 = S^-t_1 T S^-t_2 T ... S^-t_k T S^-e
        (T^-1 = T in PSL2(Z)): each step takes the next nearest-integer
        Euclid quotient t of the lane's (c, d) and, as upsilon(gamma) =
        -upsilon(gamma^-1), subtracts wraps times the numerators of P for
        S^-t (nothing at the identity coset, as upsilon(S) = 1) and those of
        the symbol the T step emits; the wraps and next coset come from one
        ``np.divmod`` on int64.  A lane leaves the walk at remainder 0,
        where it must be at the identity coset.  When upsilon is
        :attr:`reflection_symmetric`, a row walks only its d < c/2 and
        mirrors the rest exactly: r(c - d) = -r(d) mod the denominator and
        s(c - d) = -s(d).

        A lane gains at most the largest table entry per step plus that
        times |t|/p + 1 per quotient t.  As 0 < d < c, there are at most
        bitlen(c) quotients (|c| at least halves) and sum |t| <=
        c + 1 + bitlen(c)/2 (|t_{i+1}| <= |c_{i-1}/c_i| + 1/2, and those
        ratios, each at least 2, multiply to c).  The numerator lanes of a
        batch are int64 while that bound at its largest c and the
        denominator stay below ROW_WALK_LIMIT, and Python integers in object
        arrays otherwise.  Consecutive moduli share a batch while it holds
        at most _WALK_LANES walked lanes, or one modulus with more.
        """
        p = self.p
        self._require_trivial_s()
        moduli = list(moduli)
        for c in moduli:
            if c <= 0 or c % p != 0:
                raise ValueError(f"modulus c = {c} must be a positive multiple of p = {p}")
        return chain.from_iterable(map(self._walk_batch, self._batches(moduli)))

    def _batches(self, moduli: list[int]) -> Iterator[list[tuple[int, np.ndarray, int]]]:
        """Consecutive moduli as (c, units of c, walked count) in batches of
        at most _WALK_LANES walked lanes, or one modulus."""
        batch, lanes = [], 0
        for c in moduli:
            units = np.ones(c, dtype=bool)
            for q, _ in _factorize(c):
                units[::q] = False  # 0 goes too: c > 1
            ds = np.flatnonzero(units)
            # the units pair off as d and c - d; ds[:walked] holds one of each pair
            walked = (len(ds) + 1) // 2 if self.reflection_symmetric else len(ds)
            if batch and lanes + walked > _WALK_LANES:
                yield batch
                batch, lanes = [], 0
            batch.append((c, ds, walked))
            lanes += walked
        if batch:
            yield batch

    def _walk_batch(self, batch: list[tuple[int, np.ndarray, int]]):
        """The rows of a batch of :meth:`_batches`, from one lane walk."""
        p, den = self.p, self._den
        counts = [walked for _, _, walked in batch]
        (step_r, step_s), target, (wrap_r, wrap_s) = self._walk_tables
        largest = max(map(abs, (*step_r, *step_s, wrap_r, wrap_s)))
        c_max = max(c for c, _, _ in batch)
        steps = c_max.bit_length()
        reach = largest * (2 * steps + (c_max + 1 + steps // 2) // p + 1)
        lane = np.int64 if max(reach, den) < ROW_WALK_LIMIT else object
        step_r, step_s, target = np.array(step_r, dtype=lane), np.array(step_s, dtype=lane), np.array(target)
        c_ = np.repeat(np.array([c for c, _, _ in batch], dtype=np.int64), counts)
        d_ = np.concatenate([ds[:walked] for _, ds, walked in batch])
        live = np.arange(len(d_))
        coset = np.full(len(d_), p)  # p indexes the identity coset
        r, s = np.zeros(len(d_), dtype=lane), np.zeros(len(d_), dtype=lane)
        out_r, out_s = r.copy(), s.copy()
        while live.size:
            t, rest = np.divmod(d_, c_)  # rest has the sign of c, as in euclid_quotients
            far = 2 * np.abs(rest) > np.abs(c_)
            t, rest = t + far, rest - far * c_
            # S^-t, nothing at the identity coset, then T
            home = coset == p
            wraps, coset = np.divmod(coset - t, p)
            wraps = np.where(home, 0, wraps).astype(lane, copy=False)
            coset[home] = p
            r -= wraps * wrap_r + step_r[coset]
            s -= wraps * wrap_s + step_s[coset]
            coset = target[coset]
            done = rest == 0
            if np.any(coset[done] != p):
                raise AssertionError("walk of a Gamma0(p) bottom row did not return to the identity coset")
            out_r[live[done]], out_s[live[done]] = r[done], s[done]
            keep = ~done
            live, coset, r, s, c_, d_ = live[keep], coset[keep], r[keep], s[keep], rest[keep], -c_[keep]
        cuts = np.cumsum(counts)[:-1]
        for (c, ds, walked), r, s in zip(batch, np.split(out_r, cuts), np.split(out_s, cuts)):
            mirrored = len(ds) - walked  # ds[-1 - i] = c - ds[i]
            r, s = np.concatenate([r, -r[:mirrored][::-1]]), np.concatenate([s, -s[:mirrored][::-1]])
            yield ds, r % den, s

    def rows_values(self, moduli) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The d of each row of :meth:`rows_angles` and upsilon(gamma_{c,d})
        for each: each part of the exponent is one int / int division,
        correctly rounded as the float of a Fraction is, so the values equal
        those of ``bottom_row_angle(c, d).value()`` bit for bit."""
        den = self._den
        return (
            (ds, circle_value((r / den).astype(float), (s / den).astype(float)))
            for ds, r, s in self.rows_angles(moduli)
        )

    @cached_property
    def reflection_symmetric(self) -> bool:
        """Whether upsilon(eps gamma eps) = conj upsilon(gamma) on all of
        Gamma0(p), eps = diag(1, -1), and upsilon(S) = 1; checked exactly.

        Conjugation by eps maps Gamma0(p) to itself, so both sides are
        characters of Gamma0(p), and their agreeing on every generator is a
        proof.  With upsilon(S) = 1 it gives bottom_row_angle(c, c - d) =
        -bottom_row_angle(c, d), so every S_ups(m, c) is real.  Computed on
        first use, one walk per generator; a trivial or real character multiplier
        has it, a complex character's does not.
        """
        return self.angles["S"].is_zero_mod1() and all(
            (self.evaluate(Mat2(m.a, -m.b, -m.c, m.d)) + self.angles[lbl]).is_zero_mod1()
            for lbl, m in self.gens.generators
        )

    @cached_property
    def _walk_tables(self) -> tuple[tuple[list[int], list[int]], list[int], tuple[int, int]]:
        """The tables of :meth:`rows_angles`, from ``_symbol_num`` and
        GenSet._steps: per coset (the identity coset at index p) the r and s
        of the symbol its T step emits and the coset it reaches; P's (r, s)."""
        table, p = self._symbol_num, self.p
        nums = [table[token[0]] if token else (0, 0) for token, _ in self.gens._steps]
        targets = [target % (p + 1) for _, target in self.gens._steps]  # COSET_INF -> p
        return ([r for r, _ in nums], [s for _, s in nums]), targets, table["P"]

    def is_trivial(self) -> bool:
        return all(a.is_zero_mod1() for a in self.angles.values())

    def has_infinite_order(self) -> bool:
        return any(a.s != 0 for a in self.angles.values())

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "angles": [
                {"label": lbl, **self.angles[lbl].to_json()} for lbl in self.gens.labels
            ],
        }

    @classmethod
    def from_json(cls, gens: GenSet, data: dict) -> "MultiplierSystem":
        """Parse ``to_json`` output; a malformed document raises ValueError."""
        try:
            p = data["p"]
            angles = {entry["label"]: Angle.from_json(entry) for entry in data["angles"]}
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed multiplier document: {type(exc).__name__} {exc}") from exc
        _require_level(p, gens)
        return cls(gens, angles)


def _num_sum(table, tokens) -> tuple[int, int]:
    """The numerators (r, s) of table[key] times n, summed over the (key, n) tokens."""
    r = s = 0
    for key, n in tokens:
        x, y = table[key]
        r += n * x
        s += n * y
    return r, s


def trivial_multiplier(gens: GenSet) -> MultiplierSystem:
    return MultiplierSystem(gens, {lbl: ZERO_ANGLE for lbl in gens.labels})


def char_multiplier(chi: DirichletChar, gens: GenSet) -> MultiplierSystem:
    """upsilon_chi(gamma) = chi(d): the classical character multiplier.

    Only even characters descend to the projective group.
    """
    _require_level(chi.p, gens)
    if not chi.is_even():
        raise ValueError("upsilon_chi requires an even character")
    angles = {}
    for lbl, mat in gens.generators:
        angles[lbl] = Angle(chi.angle(mat.d))
    return MultiplierSystem(gens, angles)


# ---------------------------------------------------------------------------
# The pretend-constraint system


@dataclass
class ConstraintRow:
    vector: ExpVector
    target: Angle
    tag: str
    a: Optional[int] = None
    q: Optional[int] = None


@dataclass
class ConstraintSystem:
    p: int
    rows: list[ConstraintRow]
    q_max: int = 0

    def row_count(self) -> int:
        return len(self.rows)

    def majorized_row_bound(self) -> int:
        """The majorization 2 + Q(Q+1)/2 on the number of rows: the two cusp
        rows and at most phi(q) <= q rows for each modulus q <= Q."""
        return 2 + self.q_max * (self.q_max + 1) // 2


def pretend_constraints(
    p: int,
    gens: GenSet,
    chi: DirichletChar,
    q_max: int,
    verify_b_dependence: bool = True,
) -> ConstraintSystem:
    """Rows demanding upsilon([[D, a], [-pB, q]]) = chi(q) for q <= q_max,
    plus the cusp rows upsilon(S) = 1 and upsilon(T S^p T^{-1}) = 1.

    One row per (a mod q, q); that the constraint only depends on B mod q is
    re-verified on a second lift of each row rather than assumed.  q_max = 0
    gives the cusp rows only; a negative q_max, or a gens or chi of a level
    other than p, raises ValueError.
    """
    _require_level(p, gens)
    _require_level(p, chi)
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    if not chi.is_even():
        raise ValueError("pretend constraints require an even character")
    rows = [
        ConstraintRow(gens.class_of(S), ZERO_ANGLE, "kappa_I"),
        ConstraintRow(gens.parabolic_class, ZERO_ANGLE, "kappa_T"),
    ]
    for q in range(1, q_max + 1):
        if q % p == 0:
            continue
        for a in _units(q):
            m, B, D = constraint_matrix(p, a, q)
            vec = gens.class_of(m)
            if verify_b_dependence:
                m2, _, _ = constraint_matrix(p, a, q, B + q)
                if not in_kappa_subgroup(gens, gens.class_of(m2) + (-vec)):
                    raise AssertionError(
                        f"constraint for (a, q) = ({a}, {q}) depends on more than B mod q"
                    )
            rows.append(ConstraintRow(vec, Angle(chi.angle(q)), f"pretend({a},{q})", a=a, q=q))
    return ConstraintSystem(p, rows, q_max)


def in_kappa_subgroup(gens: GenSet, vec: ExpVector) -> bool:
    """Whether a class is killed by every multiplier with kappa_I = kappa_T = 0.

    Characters of a finitely generated abelian group separate points, so
    vanishing under every solution of the two cusp rows is equivalent to
    membership in the subgroup generated by [S] and [P], P = T S^p T^-1.
    The free part of [P] is a multiple of [S] (asserted; sixth_root_check
    reports it), so vec lies there exactly when its free part has no
    coordinate off [S] and its torsion is that of beta [P] for some beta
    mod 6.
    """
    p_vec = gens.parabolic_class
    off_s = [i for i in range(len(vec.free)) if i != gens.s_index]
    if any(p_vec.free[i] for i in off_s):
        raise AssertionError(f"[T S^p T^-1] has a free part off [S] at p = {gens.p}")
    if any(vec.free[i] for i in off_s):
        return False
    # only the torsion of beta [P] is compared: the free part is settled above
    return any(
        tuple(beta * x % 2 for x in p_vec.tor2) == vec.tor2 and tuple(beta * x % 3 for x in p_vec.tor3) == vec.tor3
        for beta in range(6)
    )


@dataclass
class PretendSolution:
    upsilon: MultiplierSystem
    upsilon_chi: MultiplierSystem
    kernel_dim: int
    kernel_basis: list[list[Fraction]]
    rank: int


def solve_pretend(
    cs: ConstraintSystem,
    chi: DirichletChar,
    gens: GenSet,
    kernel_index: int = 0,
) -> PretendSolution:
    """Solve the pretend system exactly and build upsilon = upsilon' * upsilon_chi.

    upsilon_chi is a particular solution (asserted, not assumed); the
    homogeneous kernel is computed on the free coordinates by exact sparse
    integer elimination (:func:`~weilgap.linalg.nullspace`), torsion
    coordinates stay pinned to the upsilon_chi values, and upsilon' places
    the chosen reduced-echelon kernel vector in the sqrt(2) slot, so
    upsilon has infinite order whenever the kernel is nonzero.  On a
    trivial kernel upsilon is upsilon_chi, of finite order, and
    kernel_index is not used.
    """
    ups_chi = char_multiplier(chi, gens)
    for row in cs.rows:
        got = ups_chi.angle_of_vector(row.vector)
        if got != row.target.mod1():
            raise AssertionError(
                f"upsilon_chi fails constraint {row.tag}: {got} != {row.target.mod1()}"
            )

    n_free = len(gens.free_labels)
    basis = nullspace([row.vector.free for row in cs.rows], n_free)
    kernel_dim = len(basis)

    upsilon = ups_chi
    if kernel_dim:
        if not 0 <= kernel_index < kernel_dim:
            raise ValueError(f"kernel index out of range [0, {kernel_dim})")
        angles = dict(ups_chi.angles)
        for lbl, s in zip(gens.free_labels, basis[kernel_index]):
            angles[lbl] = Angle(angles[lbl].r, s)
        upsilon = MultiplierSystem(gens, angles)
        assert upsilon.has_infinite_order()

    for row in cs.rows:
        got = upsilon.angle_of_vector(row.vector)
        if got != row.target.mod1():
            raise AssertionError(f"solved upsilon fails constraint {row.tag}")

    return PretendSolution(upsilon, ups_chi, kernel_dim, basis, n_free - kernel_dim)


def sixth_root_check(p: int, gens: GenSet) -> dict:
    """Structure of upsilon(T S^p T^{-1}) under kappa_I = 0.

    Verifies that the abelianized image of T S^p T^{-1} has free part an
    integer multiple of the free part of S (so upsilon(S) = 1 pushes the
    value into the torsion subgroup, a 6th root of unity), and reports the
    torsion component; it must vanish exactly when p = 11 (mod 12).
    """
    _require_level(p, gens)
    vec = gens.parabolic_class
    s_idx = gens.s_index
    free_ok = all(x == 0 for i, x in enumerate(vec.free) if i != s_idx)
    torsion_zero = not any(vec.tor2) and not any(vec.tor3)
    order = 1
    if any(vec.tor2):
        order *= 2
    if any(x != 0 for x in vec.tor3):
        order *= 3
    return {
        "p": p,
        "free_ok": free_ok,
        "s_coefficient": vec.free[s_idx],
        "tor2": list(vec.tor2),
        "tor3": list(vec.tor3),
        "torsion_zero": torsion_zero,
        "torsion_order": order,
        "p_mod_12": p % 12,
    }
