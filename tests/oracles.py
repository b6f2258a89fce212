"""Helpers that only the tests call: closed-form fixtures and slow oracles
that the package's own paths are checked against.

The tests import this module as ``oracles``; ``tests/`` has no
``__init__.py``, so pytest puts the directory on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from weilgap.analytic import AdditiveTwist, LambdaValue, _gauss_average, lambda_additive
from weilgap.characters import ResidueChar, _units
from weilgap.matrices import Mat2, S
from weilgap.multiplier import Angle, MultiplierSystem, _num_sum
from weilgap.presentation import Class, GenSet, Word
from weilgap.series import CoeffSeries


def sigma_coeffs(k: int, M: int) -> list[int]:
    """sigma_k(1..M), exact, by sieving over divisors."""
    out = [0] * (M + 1)
    for d in range(1, M + 1):
        dk = d**k
        for n in range(d, M + 1, d):
            out[n] += dk
    return out[1:]


_EISENSTEIN_LEVEL1_FACTOR = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def eisenstein_level1(k: int, M: int) -> CoeffSeries:
    """The classical series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for
    the weights with integer normalization (k in {4, 6, 8, 10, 14})."""
    if k not in _EISENSTEIN_LEVEL1_FACTOR:
        raise ValueError(f"integer-normalized E_k only for k in {sorted(_EISENSTEIN_LEVEL1_FACTOR)}")
    factor = _EISENSTEIN_LEVEL1_FACTOR[k]
    coeffs = [factor * s for s in sigma_coeffs(k - 1, M)]
    return CoeffSeries(
        coeffs,
        weight=k,
        level=1,
        sigma=float(k),
        label=f"E{k}",
        a0=1 + 0j,
        exact=coeffs,
    )


def lambda_multiplicative(f: CoeffSeries, psi: ResidueChar, s: complex) -> LambdaValue:
    """Lambda(f, psi, s) = (1/tau(conj psi)) sum'_a conj(psi)(a) Lambda(f, a/q, s),
    for q prime to the level of f."""
    q = psi.q
    if math.gcd(q, max(f.level, 1)) != 1:
        raise ValueError("gcd(q, p) must be 1")
    if not psi.is_primitive():
        raise ValueError("psi must be primitive")
    twisted = {a: lambda_additive(f, AdditiveTwist(a, q), s) for a in _units(q)}
    value = _gauss_average(psi.conj(), ((a, lv.value) for a, lv in twisted.items()))
    return LambdaValue(value, sum(lv.error for lv in twisted.values()) / math.sqrt(q), f.M)


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


def symbol_num_by_classes(upsilon: MultiplierSystem) -> dict[str, tuple[int, int]]:
    """MultiplierSystem._symbol_num as the generators' numerators summed over
    each raw symbol's sparse class (GenSet._class)."""
    gens = upsilon.gens
    return {symbol: _num_sum(upsilon._label_num, gens._class(symbol)) for symbol in gens._raw_words}


@dataclass
class DenseClass:
    """The dense view of a class: every coordinate, zeros included, in three
    tuples aligned with GenSet.free_labels, order2_labels and order3_labels,
    with the class arithmetic (sum, negation, multiple) that the package's
    sparse :data:`~weilgap.presentation.Class` does not need."""

    free: tuple[int, ...]
    tor2: tuple[int, ...]
    tor3: tuple[int, ...]

    @classmethod
    def of(cls, gens: GenSet, coords: list[int]) -> "DenseClass":
        """The view of dense coordinates in GenSet._index order, torsion reduced."""
        n1 = len(gens.free_labels)
        n2 = n1 + len(gens.order2_labels)
        return cls(tuple(coords[:n1]), tuple(x % 2 for x in coords[n1:n2]), tuple(x % 3 for x in coords[n2:]))

    def sparse(self) -> Class:
        """The package's format of the same class."""
        return {i: n for i, n in enumerate((*self.free, *self.tor2, *self.tor3)) if n}

    def __add__(self, other: "DenseClass") -> "DenseClass":
        return DenseClass(
            tuple(x + y for x, y in zip(self.free, other.free)),
            tuple((x + y) % 2 for x, y in zip(self.tor2, other.tor2)),
            tuple((x + y) % 3 for x, y in zip(self.tor3, other.tor3)),
        )

    def __neg__(self) -> "DenseClass":
        return self.scale(-1)

    def scale(self, n: int) -> "DenseClass":
        return DenseClass(
            tuple(n * x for x in self.free),
            tuple((n * x) % 2 for x in self.tor2),
            tuple((n * x) % 3 for x in self.tor3),
        )


def dense(gens: GenSet, vec: Class) -> DenseClass:
    """The dense view of a class of gens."""
    return DenseClass.of(gens, [vec.get(i, 0) for i in range(len(gens._index))])


def raw_coords(gens: GenSet, raw: Word) -> list[int]:
    """The dense class coordinates of a word of raw Schreier symbols, torsion
    unreduced: n times each symbol's sparse class (GenSet._class), summed."""
    coords = [0] * len(gens._index)
    for symbol, n in raw:
        for i, e in gens._class(symbol):
            coords[i] += n * e
    return coords


def angle_of_vector_dense(upsilon: MultiplierSystem, vec: Class) -> Angle:
    """MultiplierSystem.angle_of_vector over every coordinate of the dense
    view, zeros included."""
    view = dense(upsilon.gens, vec)
    return upsilon._angle(upsilon._label_num, enumerate((*view.free, *view.tor2, *view.tor3)))


def in_kappa_subgroup_by_scaling(gens: GenSet, vec: Class) -> bool:
    """multiplier.in_kappa_subgroup on the dense views, with each beta [P],
    beta mod 6, built whole by DenseClass.scale, its free part too, and
    compared on its torsion."""
    p_vec, vec = dense(gens, gens.parabolic_class), dense(gens, vec)
    off_s = [i for i in range(len(vec.free)) if i != gens.s_index]
    if any(p_vec.free[i] for i in off_s):
        raise AssertionError(f"[T S^p T^-1] has a free part off [S] at p = {gens.p}")
    if any(vec.free[i] for i in off_s):
        return False
    multiples = (p_vec.scale(beta) for beta in range(6))
    return any((m.tor2, m.tor3) == (vec.tor2, vec.tor3) for m in multiples)
