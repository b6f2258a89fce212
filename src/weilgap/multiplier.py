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
from typing import Optional

from .characters import DirichletChar
from .linalg import bareiss_echelon, nullspace
from .matrices import Mat2, S, T, euclid_quotients
from .presentation import (
    COSET_INF,
    ExpVector,
    GenSet,
    Word,
    abelianize,
    constraint_matrix,
    decompose_gamma0,
)

SQRT2 = math.sqrt(2)


@dataclass(frozen=True)
class Angle:
    """Exact exponent r + s*alpha with alpha = sqrt(2); represents e(r + s*alpha)."""

    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "s", Fraction(self.s))

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.r + other.r, self.s + other.s)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.r - other.r, self.s - other.s)

    def __neg__(self) -> "Angle":
        return Angle(-self.r, -self.s)

    def scale(self, n) -> "Angle":
        return Angle(self.r * Fraction(n), self.s * Fraction(n))

    def mod1(self) -> "Angle":
        """Canonical representative with rational part in [0, 1).

        Two exponents give the same circle value iff they differ by an
        integer, which can only move the rational part.
        """
        return Angle(self.r % 1, self.s)

    def is_zero_mod1(self) -> bool:
        return self.s == 0 and self.r % 1 == 0

    def has_finite_order(self) -> bool:
        return self.s == 0

    def to_float(self) -> float:
        return float(self.r) + float(self.s) * SQRT2

    def value(self) -> complex:
        """The unit-circle value e(r + s*sqrt(2))."""
        return cmath.exp(2j * cmath.pi * self.to_float())

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
    """An exact angle per generator; extends to Gamma0(p) by word decomposition.

    :meth:`evaluate` is the verified word path.  When upsilon(S) = 1,
    :meth:`bottom_row_angle` computes the same angle from the bottom row
    alone, without building a word.
    """

    def __init__(self, gens: GenSet, angles: dict[str, Angle]):
        self.gens = gens
        self.p = gens.p
        if set(angles) != set(gens.labels):
            raise ValueError("angles must be given for exactly the generators")
        for lbl in gens.order2_labels:
            a = angles[lbl]
            if a.s != 0 or (a.r * 2) % 1 != 0:
                raise ValueError(f"angle on order-2 generator {lbl} must be a multiple of 1/2")
        for lbl in gens.order3_labels:
            a = angles[lbl]
            if a.s != 0 or (a.r * 3) % 1 != 0:
                raise ValueError(f"angle on order-3 generator {lbl} must be a multiple of 1/3")
        self.angles = {lbl: angles[lbl].mod1() for lbl in gens.labels}
        self._cocycle: Optional[tuple] = None  # bottom-row step tables, built on first use

    def angle_of_vector(self, vec: ExpVector) -> Angle:
        total = ZERO_ANGLE
        for lbl, n in zip(self.gens.free_labels, vec.free):
            total = total + self.angles[lbl].scale(n)
        for lbl, n in zip(self.gens.order2_labels, vec.tor2):
            total = total + self.angles[lbl].scale(n)
        for lbl, n in zip(self.gens.order3_labels, vec.tor3):
            total = total + self.angles[lbl].scale(n)
        return total.mod1()

    def evaluate(self, gamma: Mat2) -> Angle:
        """Exact angle of upsilon(gamma) for gamma in Gamma0(p)."""
        word = decompose_gamma0(self.gens, gamma)
        return self.angle_of_vector(abelianize(word, self.gens))

    def value(self, gamma: Mat2) -> complex:
        return self.evaluate(gamma).value()

    def bottom_row_angle(self, c: int, d: int) -> Angle:
        """Exact angle of upsilon(gamma) for every gamma in Gamma0(p) with
        bottom row (c, d); requires upsilon(S) = 1.

        Two such gamma differ by a power of S on the left, so upsilon(S) = 1
        makes the angle a function of (c, d).  It is the sum, along the
        Euclidean walk of decompose_sl2, of the Schreier rewriting of each
        letter from its coset: a T step from coset r contributes the angle
        of the raw generator V_r, and an S^t step contributes one angle of
        T S^p T^{-1} per crossing of the p-1 -> 0 boundary.  These step
        angles are tabulated once as integer numerators over a common
        denominator, so each call does integer additions only.  Agrees
        exactly with ``evaluate`` on any lift of (c, d); ``evaluate`` stays
        the verified path.
        """
        p = self.p
        if c % p != 0:
            raise ValueError(f"bottom row ({c}, {d}) is not in Gamma0({p})")
        if math.gcd(c, d) != 1:
            raise ValueError(f"bottom row ({c}, {d}) is not unimodular")
        if self._cocycle is None:
            self._cocycle = self._bottom_row_tables()
        den, steps, wrap_r, wrap_s = self._cocycle
        # decompose_sl2 gives S^e T S^{t_k} T ... T S^{t_1}; the leading S^e
        # sits at the identity coset, where S is a generator of angle 0
        coset, r, s = COSET_INF, 0, 0
        for t in reversed(euclid_quotients(c, d)):
            dr, ds, coset = steps[coset]
            r += dr
            s += ds
            if coset != COSET_INF:
                wraps, coset = divmod(coset + t, p)
                r += wraps * wrap_r
                s += wraps * wrap_s
        if coset != COSET_INF:
            raise AssertionError(f"walk of ({c}, {d}) did not return to the identity coset")
        return Angle(Fraction(r % den, den), Fraction(s, den))

    def _bottom_row_tables(self) -> tuple:
        """(den, coset -> (r, s, target) of the T step, r and s of one wrap)."""
        if not self.angles["S"].is_zero_mod1():
            raise ValueError("the bottom-row cocycle requires upsilon(S) = 1")
        gens = self.gens
        den = math.lcm(*(x.denominator for a in self.angles.values() for x in (a.r, a.s)))
        num = {lbl: (int(a.r * den), int(a.s * den)) for lbl, a in self.angles.items()}

        def numerators(word: Word) -> tuple[int, int]:
            return (sum(num[lbl][0] * e for lbl, e in word), sum(num[lbl][1] * e for lbl, e in word))

        steps = {}
        for coset in [COSET_INF, *range(self.p)]:
            word, target = gens._step(coset, "T", 1)
            steps[coset] = (*numerators(word), target)
        wrap_word, _ = gens._s_bulk(self.p - 1, 1)
        return (den, steps, *numerators(wrap_word))

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
        if data["p"] != gens.p:
            raise ValueError("level mismatch between generators and serialized multiplier")
        angles = {entry["label"]: Angle.from_json(entry) for entry in data["angles"]}
        return cls(gens, angles)


def trivial_multiplier(gens: GenSet) -> MultiplierSystem:
    return MultiplierSystem(gens, {lbl: ZERO_ANGLE for lbl in gens.labels})


def char_multiplier(chi: DirichletChar, gens: GenSet) -> MultiplierSystem:
    """upsilon_chi(gamma) = chi(d): the classical character multiplier.

    Only even characters descend to the projective group.
    """
    if chi.p != gens.p:
        raise ValueError("character modulus must equal the level")
    if not chi.is_even():
        raise ValueError("upsilon_chi requires an even character")
    angles = {}
    for lbl, mat in gens.generators:
        angles[lbl] = Angle(chi.angle(mat.d))
    return MultiplierSystem(gens, angles)


def cusp_width(p: int, tau: Mat2) -> int:
    """Smallest n >= 1 with tau S^n tau^{-1} in Gamma0(p) (1 or p here)."""
    if tau.det() != 1:
        raise ValueError("tau must lie in SL2(Z)")
    tau_inv = tau.inv()
    for n in range(1, p + 1):
        if (tau * S**n * tau_inv).c % p == 0:
            return n
    raise AssertionError("cusp width exceeded p, impossible for Gamma0(p)")


def cusp_parameter(upsilon: MultiplierSystem, tau: Mat2) -> Angle:
    """kappa_tau in [0, 1): e(kappa_tau) = upsilon(tau S^{n_tau} tau^{-1})."""
    n = cusp_width(upsilon.p, tau)
    return upsilon.evaluate(tau * S**n * tau.inv()).mod1()


# ---------------------------------------------------------------------------
# The pretend-constraint system


@dataclass
class ConstraintRow:
    vector: ExpVector
    target: Angle
    tag: str
    matrix: Mat2
    a: Optional[int] = None
    q: Optional[int] = None


@dataclass
class ConstraintSystem:
    p: int
    rows: list[ConstraintRow]
    q_max: int = 0

    def row_count(self) -> int:
        return len(self.rows)

    def majorized_row_bound(self) -> float:
        """The crude majorization 2 + Q^2/2 on the number of equations."""
        return 2 + self.q_max**2 / 2


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
    re-verified on a second lift of each row rather than assumed.
    """
    if not chi.is_even():
        raise ValueError("pretend constraints require an even character")
    rows: list[ConstraintRow] = []

    s_word = decompose_gamma0(gens, S)
    rows.append(ConstraintRow(abelianize(s_word, gens), ZERO_ANGLE, "kappa_I", S))
    parabolic = T * S**p * T.inv()
    rows.append(
        ConstraintRow(abelianize(decompose_gamma0(gens, parabolic), gens), ZERO_ANGLE, "kappa_T", parabolic)
    )

    for q in range(1, q_max + 1):
        if q % p == 0:
            continue
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            m, B, D = constraint_matrix(p, a, q)
            vec = abelianize(decompose_gamma0(gens, m), gens)
            if verify_b_dependence:
                m2, _, _ = constraint_matrix(p, a, q, B + q)
                vec2 = abelianize(decompose_gamma0(gens, m2), gens)
                if not in_kappa_subgroup(gens, vec2 + (-vec)):
                    raise AssertionError(
                        f"constraint for (a, q) = ({a}, {q}) depends on more than B mod q"
                    )
            rows.append(ConstraintRow(vec, Angle(chi.angle(q)), f"pretend({a},{q})", m, a=a, q=q))
    return ConstraintSystem(p, rows, q_max)


def in_kappa_subgroup(gens: GenSet, vec: ExpVector) -> bool:
    """Whether a class is killed by every multiplier with kappa_I = kappa_T = 0.

    Characters of a finitely generated abelian group separate points, so
    vanishing under every solution of the two cusp rows is equivalent to
    membership in the subgroup generated by [S] and [P], P = T S^p T^{-1}:
    solve vec = alpha*[S] + beta*[P] over the integers.
    """
    p_vec = abelianize(decompose_gamma0(gens, T * S**gens.p * T.inv()), gens)
    s_idx = gens.free_labels.index("S")

    # candidate betas from the non-S free coordinates
    pinned = [(i, px) for i, px in enumerate(p_vec.free) if i != s_idx and px != 0]
    if pinned:
        i0, px = pinned[0]
        if vec.free[i0] % px != 0:
            return False
        betas = [vec.free[i0] // px]
    else:
        if any(x != 0 for i, x in enumerate(vec.free) if i != s_idx):
            return False
        betas = list(range(6))  # only beta mod 6 matters through the torsion part

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
    homogeneous kernel is computed on the free coordinates by exact
    fraction-free elimination, torsion coordinates stay pinned to the
    upsilon_chi values, and upsilon' places the chosen reduced-echelon
    kernel vector in the sqrt(2) slot, so upsilon has infinite order
    whenever the kernel is nonzero.
    """
    ups_chi = char_multiplier(chi, gens)
    for row in cs.rows:
        got = ups_chi.angle_of_vector(row.vector)
        if got != row.target.mod1():
            raise AssertionError(
                f"upsilon_chi fails constraint {row.tag}: {got} != {row.target.mod1()}"
            )

    free_rows = [list(row.vector.free) for row in cs.rows]
    n_free = len(gens.free_labels)
    rk, _, _ = bareiss_echelon(free_rows)
    basis = nullspace(free_rows, n_free)
    kernel_dim = len(basis)
    assert kernel_dim == n_free - rk

    if kernel_dim == 0:
        raise ValueError("pretend system has trivial kernel; no infinite-order solution")
    if not 0 <= kernel_index < kernel_dim:
        raise ValueError(f"kernel index out of range [0, {kernel_dim})")
    direction = basis[kernel_index]

    angles: dict[str, Angle] = {}
    for lbl in gens.labels:
        base = ups_chi.angles[lbl]
        if lbl in gens.free_labels:
            idx = gens.free_labels.index(lbl)
            angles[lbl] = Angle(base.r, direction[idx])
        else:
            angles[lbl] = base
    upsilon = MultiplierSystem(gens, angles)

    for row in cs.rows:
        got = upsilon.angle_of_vector(row.vector)
        if got != row.target.mod1():
            raise AssertionError(f"solved upsilon fails constraint {row.tag}")
    assert upsilon.has_infinite_order()

    return PretendSolution(upsilon, ups_chi, kernel_dim, basis, rk)


def sixth_root_check(p: int, gens: GenSet) -> dict:
    """Structure of upsilon(T S^p T^{-1}) under kappa_I = 0.

    Verifies that the abelianized image of T S^p T^{-1} has free part an
    integer multiple of the free part of S (so upsilon(S) = 1 pushes the
    value into the torsion subgroup, a 6th root of unity), and reports the
    torsion component; it must vanish exactly when p = 11 (mod 12).
    """
    parabolic = T * S**p * T.inv()
    vec = abelianize(decompose_gamma0(gens, parabolic), gens)
    s_idx = gens.free_labels.index("S")
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
