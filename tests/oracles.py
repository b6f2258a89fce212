"""Helpers that only the tests call: closed-form fixtures and slow oracles
that the package's own paths are checked against.

The tests import this module as ``oracles``; ``tests/`` has no
``__init__.py``, so pytest puts the directory on ``sys.path``.
"""

from __future__ import annotations

import math

from weilgap.analytic import AdditiveTwist, LambdaValue, _gauss_average, lambda_additive
from weilgap.characters import ResidueChar, _units
from weilgap.matrices import Mat2, S
from weilgap.multiplier import Angle, MultiplierSystem, _num_sum
from weilgap.presentation import ExpVector, GenSet
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


def angle_of_vector_dense(upsilon: MultiplierSystem, vec: ExpVector) -> Angle:
    """MultiplierSystem.angle_of_vector over every coordinate, zeros included."""
    return upsilon._angle(upsilon._label_num, enumerate((*vec.free, *vec.tor2, *vec.tor3)))


def in_kappa_subgroup_by_scaling(gens: GenSet, vec: ExpVector) -> bool:
    """multiplier.in_kappa_subgroup with each beta [P], beta mod 6, built
    whole by ExpVector.scale, its free part too, and compared on its torsion."""
    p_vec = gens.parabolic_class
    off_s = [i for i in range(len(vec.free)) if i != gens.s_index]
    if any(p_vec.free[i] for i in off_s):
        raise AssertionError(f"[T S^p T^-1] has a free part off [S] at p = {gens.p}")
    if any(vec.free[i] for i in off_s):
        return False
    multiples = (p_vec.scale(beta) for beta in range(6))
    return any((m.tor2, m.tor3) == (vec.tor2, vec.tor3) for m in multiples)
