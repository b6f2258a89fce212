"""Completed twisted L-series and functional-equation verification.

For coefficients (a_m) define L(f, a/q, s) = sum a_m e(a m / q) m^{-s} and
Lambda(f, a/q, s) = (2 pi)^{-s} Gamma(s) L(f, a/q, s).  The functional
equation

    Lambda(f, a/q, s) = i^k phi (p q^2)^{k/2 - s} Lambda(g, -B/q, k - s),
    phi = upsilon([[D, a], [-pB, q]]),   q D + a p B = 1,

is equivalent (Bochner) to the pointwise modular relation

    f(a/q + iy) = i^k phi (p q^2)^{-k/2} y^{-k} g(-B/q + i/(p q^2 y)),

so the checks here are built on the pointwise defect

    delta(y) = f(a/q + iy) - ghat(y)

of the truncated series, which both sides compute with exponentially
controlled truncation error on a window around the balance height
y = 1/(q sqrt(p)).  Per-sample functional-equation residuals are the
Mellin integrals int delta(y) y^{s-1} dy over the window: zero for a
modular pair, and sensitive to any corrupted coefficient whose index the
window resolves.  One-sided truncated Lambda values (lambda_additive,
Gamma(s) times the truncated Dirichlet sum) are exact for the truncated
object but carry honest, possibly infinite, error estimates against the
true completed series; they are never the gating check below the abscissa
of absolute convergence.  A multiplicative twist psi mod q is checked
through the Gauss combination (1/tau(conj psi)) sum'_a conj psi(a) of the
additive defect integrals at the twists a/q, so it too reads f and g at
every node.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .characters import ResidueChar, _units, e_of
from .matrices import Mat2, S, T
from .presentation import GenSet, compute_Q, constraint_matrix, v_matrix
# upper_incomplete_gamma is not called here; benchmark/tracing.py looks it up
# as analytic.upper_incomplete_gamma, so it stays importable from this module
from .series import CoeffSeries, cgamma, tail_bounds, upper_incomplete_gamma  # noqa: F401


# ---------------------------------------------------------------------------
# Twists and functional-equation statements


@dataclass(frozen=True)
class AdditiveTwist:
    """The twist e(a m / q) with gcd(a, q) = 1; a is stored mod q."""

    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        object.__setattr__(self, "a", self.a % self.q)
        if math.gcd(self.a, self.q) != 1 and self.q > 1:
            raise ValueError(f"twist {self.a}/{self.q} is not reduced")

    def phases(self, M: int) -> np.ndarray:
        ms = np.arange(1, M + 1)
        return np.exp(2j * np.pi * self.a * (ms % self.q) / self.q)

    def __str__(self) -> str:
        return f"{self.a}/{self.q}"


@dataclass
class FEStatement:
    """Data of one twisted functional equation.

    ``gamma`` = [[D, a], [-pB, q]] lies in Gamma0(p), with determinant
    q D + a p B = 1 and q >= 1 (so p does not divide q); a, q, B and D are
    read off it.  ``phase`` is the multiplier value on gamma, regarded as a
    fixed modulus-1 constant.  The twist is a/q and the dual twist -B/q.
    """

    p: int
    k: int
    gamma: Mat2
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if self.gamma.det() != 1 or self.gamma.c % self.p != 0:
            raise ValueError(f"matrix {self.gamma} is not in Gamma0({self.p})")
        if self.q < 1:
            raise ValueError(f"invalid modulus q = {self.q} at level {self.p}")
        self.phase = complex(self.phase)
        if abs(abs(self.phase) - 1.0) > 1e-12:
            raise ValueError("phase must have modulus 1")

    @property
    def a(self) -> int:
        return self.gamma.b

    @property
    def q(self) -> int:
        return self.gamma.d

    @property
    def B(self) -> int:
        return -self.gamma.c // self.p

    @property
    def D(self) -> int:
        return self.gamma.a

    def twist(self) -> AdditiveTwist:
        return AdditiveTwist(self.a, self.q)

    def dual_twist(self) -> AdditiveTwist:
        return AdditiveTwist(-self.B, self.q)

    @property
    def balance_height(self) -> float:
        """1/(q sqrt p): iy and -1/(p q^2 iy) have the same height there."""
        return 1.0 / (self.q * math.sqrt(self.p))

    def factor(self, s: complex) -> complex:
        """i^k phase (p q^2)^{k/2 - s}, the factor in
        Lambda(f, a/q, s) = factor(s) Lambda(g, -B/q, k - s)."""
        return (1j**self.k) * self.phase * (self.p * self.q * self.q) ** (self.k / 2 - s)

    def dual(self) -> "FEStatement":
        """The statement with the roles of f and g swapped.

        (a', B', D') = (-B, -a, D) keeps the determinant, and the phase
        inverts: the swap test check_modular_relation relies on this.
        """
        dual = Mat2(self.D, -self.B, self.p * self.a, self.q)
        return FEStatement(self.p, self.k, dual, 1.0 / self.phase)


def fe_for_q(p: int, k: int, q: int, phase: complex = 1.0 + 0j) -> FEStatement:
    """The statement attached to a modulus q: twist -1/q against
    ((q q* + 1)/p)/q, realized by the generator matrix V_q itself (see
    :func:`~weilgap.presentation.v_matrix`); at level 1, by T S for q = 1
    and else by the a = -1 matrix of :func:`~weilgap.presentation.constraint_matrix`.
    """
    gamma = v_matrix(p, q) if p > 1 else T * S if q == 1 else constraint_matrix(1, -1, q)[0]
    return FEStatement(p, k, gamma, phase)


@dataclass
class LambdaValue:
    """A computed completed-L value with its error estimate.

    ``error`` bounds |value - Lambda(f_true, twist, s)| under the recorded
    growth model of the dropped coefficients; it is infinite below the
    abscissa of absolute convergence, where a one-sided truncated sum
    carries no information about the true value.
    """

    value: complex
    error: float
    M: int


# ---------------------------------------------------------------------------
# One-sided truncated Lambda


def lambda_additive(f: CoeffSeries, twist: AdditiveTwist, s: complex) -> LambdaValue:
    """Lambda of the truncated series,

        value = Gamma(s) sum_{m <= M} a_m e(a m / q) (2 pi m)^{-s},

    with the constant term left out (Lambda starts at m = 1).  The error
    estimate is the dropped m > M tail of the true series
    (:func:`_dirichlet_tail`), finite only for Re s > sigma + 1, plus the
    rounding |Gamma(s)| sum_m gamma_{n_m} |t_m| of the float terms t_m,
    gamma_n = n u/(1 - n u), u = 2^-53 (Higham, 2nd ed., (4.4)): summed from
    m = M down, t_m sees m additions, its exponent -s log(2 pi m) is off by
    at most 4|s| (1 + log 2 pi m) u, and 40 covers the rest, so
    n_m = m + 40 + 4|s| (1 + log 2 pi m) and the bound stays put as M grows.
    """
    if f.M < 1:
        raise ValueError("insufficient coefficients: empty prefix")
    s = complex(s)
    gamma_s = cgamma(s)
    ms = np.arange(1, f.M + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        terms = (f.as_array() * twist.phases(f.M) * np.exp(-s * np.log(2 * np.pi * ms)))[::-1]
    value = gamma_s * complex(np.cumsum(terms)[-1])
    if not cmath.isfinite(value):
        bad = next((m for m, a in enumerate(f.coeffs, start=1) if not cmath.isfinite(a)), None)
        if bad is not None:
            raise ValueError(f"Lambda at s = {s} is {value}: coefficient a_{bad} = {f.coeffs[bad - 1]} is not finite")
        raise OverflowError(f"Lambda at s = {s} overflows double precision")
    ms = ms[::-1]
    n_u = (ms + 40 + 4 * abs(s) * (1 + np.log(2 * np.pi * ms))) * 2.0**-53
    rounding = float(np.sum(n_u / (1 - n_u) * np.abs(terms)))
    return LambdaValue(value, _dirichlet_tail(f, s.real, abs(gamma_s)) + abs(gamma_s) * rounding, f.M)


def _dirichlet_tail(f: CoeffSeries, re_s: float, gamma_abs: float) -> float:
    """Bound |Gamma(s)| C (2 pi)^{-Re s} sum_{m > M} m^{sigma - Re s} on the
    dropped Dirichlet tail; infinite at or below Re s = sigma + 1."""
    exponent = f.sigma - re_s
    if exponent >= -1:
        return math.inf
    m0 = f.M + 1
    # integral comparison: sum_{m >= m0} m^e <= m0^e + int_{m0}^inf t^e dt
    tail = m0**exponent + m0 ** (exponent + 1) / (-exponent - 1)
    return f.growth_c * (2 * math.pi) ** (-re_s) * gamma_abs * tail


# ---------------------------------------------------------------------------
# Pointwise modular relation and windowed defect integrals


def _relation(
    f: CoeffSeries, g: CoeffSeries, fe: FEStatement, zs: np.ndarray, bounded: slice | np.ndarray = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the twisted modular relation at each z of an array in H,

        lhs = f(a/q + z),
        rhs = (-1)^k phase (p q^2)^{-k/2} z^{-k} g(-B/q + w),   w = -1/(p q^2 z),

    and the bound f.tail_bound(Im z) + |(p q^2)^{-k/2} z^{-k}| g.tail_bound(Im w)
    on what the truncation of both series costs lhs - rhs, at the points
    zs[bounded] only (all of them by default), both tails from one
    :func:`~weilgap.series.tail_bounds` call.  A bound is elementwise, so
    it does not depend on which other points are bounded.
    """
    zs = np.asarray(zs, dtype=complex)
    pq2 = fe.p * fe.q * fe.q
    ws = -1.0 / (pq2 * zs)
    jacobian = pq2 ** (-fe.k / 2) * zs ** (-fe.k)
    lhs = f.eval_many(fe.twist().a / fe.q + zs)
    rhs = (-1) ** fe.k * fe.phase * jacobian * g.eval_many(fe.dual_twist().a / fe.q + ws)
    f_tail, g_tail = tail_bounds([(f, zs.imag[bounded]), (g, ws.imag[bounded])])
    truncation = f_tail + np.abs(jacobian[bounded]) * g_tail
    return lhs, rhs, truncation


def _require_statement_level(p: int, k: int, fe: FEStatement) -> None:
    if (p, k) != (fe.p, fe.k):
        raise ValueError(f"(p, k) = ({p}, {k}) differs from the statement's ({fe.p}, {fe.k})")


def _passes(defect: float, error: float, scale: float, tolerance: float) -> bool:
    """The one pass rule: the relative defect is within the tolerance, or
    within ten times the relative error estimate."""
    return bool(defect / scale <= max(tolerance, 10 * error / scale))


@dataclass
class ModularRelationResult:
    z: complex
    lhs: complex
    rhs: complex
    residual: float           # relative to max(|lhs|, |rhs|)
    absolute: float
    truncation: float         # bound on the truncation error of both sides
    fitted_phase: complex
    passed: bool


def check_modular_relation(
    f: CoeffSeries,
    g: CoeffSeries,
    p: int,
    k: int,
    fe: FEStatement,
    z: complex,
    tolerance: float = 1e-6,
) -> ModularRelationResult:
    """The modular relation of (f, g, fe) at one z (see :func:`_relation`);
    (p, k) must be the statement's own.

    The reported residual is relative to the larger side and passes when
    it is within the tolerance; the truncation field bounds the dropped
    tails of both series at this z.  The fitted
    phase is the constant phase * lhs / rhs that would make the relation
    exact at z; for a modular pair it reproduces the declared phase.
    """
    _require_statement_level(p, k, fe)
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must be in the upper half-plane")
    return _modular_points(fe, [z], _relation(f, g, fe, np.array([z])), tolerance, gate_truncation=False)[0]


def _modular_points(
    fe: FEStatement, zs: list[complex], relation: tuple, tolerance: float, gate_truncation: bool
) -> list[ModularRelationResult]:
    """The relation at each z of zs from its (lhs, rhs, truncation) arrays
    out of :func:`_relation`, gated with the truncation as error or with 0.
    Both sides 0 at every z (an all-zero prefix, whose truncation bounds
    are 0 too) would pass 0 <= 0 and tell nothing: that raises the
    "insufficient coefficients" ValueError."""
    lhs, rhs, trunc = relation
    if not (np.any(lhs) or np.any(rhs)):
        raise ValueError("insufficient coefficients: both truncated sides are 0 at every point")
    points = []
    for z, l, r, t in zip(zs, lhs.tolist(), rhs.tolist(), trunc.tolist()):
        scale, absolute = max(abs(l), abs(r), 1e-300), abs(l - r)
        fitted = fe.phase * l / r if r != 0 else complex("nan")
        passed = _passes(absolute, t if gate_truncation else 0.0, scale, tolerance)
        points.append(ModularRelationResult(z, l, r, absolute / scale, absolute, t, fitted, passed))
    return points


_WINDOW_ROUND = 20  # ladder rungs a side that one _auto_window round probes


def _auto_window(
    f: CoeffSeries, g: CoeffSeries, fe: FEStatement, cut: float = 1e-8
) -> tuple[float, float]:
    """Largest [y_lo, y_hi] around the balance height on which both
    truncated sides are pointwise reliable.

    Reliability at y means trust(y) <= cut * signal(y), with trust the
    truncation bound of the relation at iy and signal the sum of magnitudes
    of its sides; this keeps the Mellin weights from amplifying edge noise
    of the truncated series into the defect integrals.  The ends are rungs
    of the ladder y_bal 1.25^{+-j} inside (y_bal / 4096, 4096 y_bal).  The
    ladder is probed outwards from y_bal in rounds of ``_WINDOW_ROUND``
    rungs a side, both sides of a round in one :func:`_relation` call, and
    a side takes another round only while every rung it probed was
    reliable.  A value does not depend on the other points of its call, so
    the window is the one that probing every rung at once would give.
    Where y_bal, or every rung beside it, is unreliable, or both sides are 0
    at y_bal (an all-zero prefix, whose tail bounds are 0 too), the prefix
    is too short for any window, and an "insufficient coefficients"
    ValueError says so.
    """
    y_bal = fe.balance_height
    steps = np.r_[y_bal, np.full(40, 1.25)]  # 1.25^40 > 4096
    down, up = np.divide.accumulate(steps), np.multiply.accumulate(steps)
    down, up = down[down > y_bal / 4096], up[up < y_bal * 4096]
    sides, runs, start = (down, up[1:]), [0, 0], 0  # y_bal is down[0]; runs count reliable rungs from it
    while any(run == start < len(side) for side, run in zip(sides, runs)):
        probes = [side[start : start + _WINDOW_ROUND] if run == start else side[:0] for side, run in zip(sides, runs)]
        lhs, rhs, trust = _relation(f, g, fe, 1j * np.r_[probes[0], probes[1]])
        signal = np.abs(lhs) + np.abs(rhs)
        reliable = trust <= cut * signal
        if start == 0 and not signal[0] > 0:  # a zero bound of zero sides passes 0 <= 0 and tells nothing
            raise ValueError("insufficient coefficients: both truncated sides are 0 at the balance height")
        if start == 0 and not reliable[0]:
            raise ValueError(
                "insufficient coefficients: truncated sides are unreliable at the balance height"
            )
        for i, part in enumerate(np.split(reliable, [len(probes[0])])):
            runs[i] += int(np.logical_and.accumulate(part).sum())
        start += _WINDOW_ROUND
    if runs == [1, 0]:  # a window of y_bal alone has no Mellin integral to read
        raise ValueError(
            "insufficient coefficients: truncated sides are unreliable at every rung beside the balance height"
        )
    return float(down[runs[0] - 1]), float(up[runs[1]])


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], ascending, once per n, as
    read-only arrays.  Swarztrauber (SIAM J. Sci. Comput. 24 (2002) 945):
    P_n(cos t) = sum_k c_k c_{n-k} cos((n - 2k) t), c_k = binom(2k, k)/4^k,
    folded; three Newton steps in t on the roots in (0, pi/2) from Tricomi's
    start, w = 2/(dP_n/dt)^2, then mirrored (odd n adds 0).  Nodes within
    4.3e-16 and weights 1.6e-13 relative of 30-digit rules for n <= 321."""
    c = np.cumprod(np.r_[1.0, 1 - 0.5 / np.arange(1, n + 1)])  # c_k = c_{k-1} (2k - 1)/(2k)
    half, freqs = n // 2, n - 2.0 * np.arange(n - n // 2)
    coeffs, const = 2 * c[: n - half] * c[n:half:-1], c[half] ** 2 * (1 - n % 2)
    t = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    t += 1 / (8 * n * n * np.tan(t))
    for _ in range(3):
        angles = np.outer(t, freqs)
        t += (np.cos(angles) @ coeffs + const) / (np.sin(angles) @ (freqs * coeffs))
    t = np.r_[t, [np.pi / 2] * (n % 2)]
    x, w = np.cos(t), 2 / (np.sin(np.outer(t, freqs)) @ (freqs * coeffs)) ** 2
    x[half:] = 0.0
    x, w = np.r_[-x[:half], x[::-1]], np.r_[w[:half], w[::-1]]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_log_nodes(y_lo: float, y_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    t_lo, t_hi = math.log(y_lo), math.log(y_hi)
    ts = 0.5 * (t_hi - t_lo) * x + 0.5 * (t_hi + t_lo)
    ws = 0.5 * (t_hi - t_lo) * w
    return ts, ws


@dataclass
class DefectSample:
    s: complex
    defect_integral: complex
    relative: float
    scale: float
    window_error: float
    quadrature_error: float
    passed: bool = True


@dataclass
class FEReport:
    fe: FEStatement
    window: tuple[float, float]
    samples: list[DefectSample]
    modular_points: list[ModularRelationResult]
    tolerance: float
    verdict: bool

    def max_relative_defect(self) -> float:
        return max((s.relative for s in self.samples), default=0.0)

    def to_json(self) -> dict:
        return {
            "p": self.fe.p,
            "k": self.fe.k,
            "twist": str(self.fe.twist()),
            "dual_twist": str(self.fe.dual_twist()),
            "window": list(self.window),
            "tolerance": self.tolerance,
            "samples": [
                {
                    "s": [s.s.real, s.s.imag],
                    "defect": [s.defect_integral.real, s.defect_integral.imag],
                    "relative": s.relative,
                    "window_error": s.window_error,
                    "quadrature_error": s.quadrature_error,
                    "scale": s.scale,
                    "pass": s.passed,
                }
                for s in self.samples
            ],
            "modular_points": [
                {
                    "z": [m.z.real, m.z.imag],
                    "residual": m.residual,
                    "truncation": m.truncation,
                    "pass": m.passed,
                }
                for m in self.modular_points
            ],
            "verdict": self.verdict,
        }


def _require_gamma_factors(k: int, s: complex) -> None:
    """A pole or overflow of Gamma(s) or Gamma(k - s) at the sample s is
    invalid input; the message names s, and k - s where that is the factor."""
    for name, x in (("s", s), ("k - s", k - s)):
        at = f"s = {_show(s)}" + ("" if name == "s" else f" ({name} = {_show(x)})")
        try:
            cgamma(x)
        except ValueError:
            raise ValueError(f"Gamma({name}) has a pole at {at}") from None
        except OverflowError:
            raise OverflowError(f"Gamma({name}) overflows double precision at {at}") from None


def _show(z: complex) -> str:
    """12 for 12+0j, 40.5 for 40.5+0j, 12+1j for 12+1j."""
    return str(z).strip("()") if z.imag else str(int(z.real) if z.real.is_integer() else z.real)


def default_s_grid(k: int, sigma: float) -> list[complex]:
    """{k/2, k/2 + i, k/2 + 3/2, sigma + 2} per the tolerance conventions."""
    return [k / 2 + 0j, k / 2 + 1j, k / 2 + 1.5 + 0j, sigma + 2 + 0j]


def check_fe_additive(
    f: CoeffSeries,
    g: CoeffSeries,
    p: int,
    k: int,
    fe: FEStatement,
    s_samples: Optional[Sequence[complex]] = None,
    tolerance: float = 1e-6,
    with_lambda: bool = True,
) -> FEReport:
    """Verify the twisted functional equation through the Bochner defect.

    (p, k) must be the statement's own.  For each s the windowed Mellin
    integral of delta(y) is computed with Gauss-Legendre quadrature in
    log y; a sample passes by :func:`_passes` with the window plus
    quadrature error as its estimate.  A sample where Gamma(s) or Gamma(k - s)
    has a pole or overflows is invalid input.  The pointwise modular
    relation is checked at three heights around the balance point, in the
    one :func:`_relation` call that also gives both rules' nodes.  With
    with_lambda, the one-sided pair lambda_additive(f, a/q, s),
    lambda_additive(g, -B/q, k - s) also gates a sample where both error
    estimates are finite, which needs Re s > sigma_f + 1 and
    k - Re s > sigma_g + 1; elsewhere it is not computed.  An empty
    s_samples raises ValueError.
    """
    _require_statement_level(p, k, fe)
    if s_samples is None:
        s_samples = default_s_grid(k, f.sigma)
    s_samples = [complex(s) for s in s_samples]
    if not s_samples:
        raise ValueError("s_samples is empty: a verdict needs at least one s")
    for s in s_samples:
        _require_gamma_factors(k, s)
    y_lo, y_hi = _auto_window(f, g, fe, cut=min(1e-8, tolerance * 1e-2))
    nodes = min(384, max(96, int(40 * math.log(y_hi / y_lo))))
    ts, ws = _gl_log_nodes(y_lo, y_hi, nodes)
    ts_half, ws_half = _gl_log_nodes(y_lo, y_hi, nodes // 2)
    y_bal = fe.balance_height
    zs = [complex(re_frac * y_bal, scale_y * y_bal) for scale_y, re_frac in ((0.8, 0.0), (1.0, 0.21), (1.3, -0.13))]

    # one relation call for both rules and the modular points; the half rule's trust is never read
    end = nodes + nodes // 2
    zs_all = np.r_[1j * np.exp(np.r_[ts, ts_half]), zs]
    lhs, rhs, trust = _relation(f, g, fe, zs_all, bounded=np.r_[:nodes, end : end + len(zs)])
    points = _modular_points(fe, zs, [lhs[end:], rhs[end:], trust[nodes:]], tolerance, gate_truncation=True)
    delta, delta_half = np.split(lhs[:end] - rhs[:end], [nodes])
    mag = 0.5 * (np.abs(lhs[:nodes]) + np.abs(rhs[:nodes]))
    trust = trust[:nodes]

    samples: list[DefectSample] = []
    for s in s_samples:
        d_full = complex(np.sum(ws * delta * np.exp(ts * s)))
        d_half = complex(np.sum(ws_half * delta_half * np.exp(ts_half * s)))
        quad_err = abs(d_full - d_half)
        win_err = float(np.sum(ws * trust * np.exp(ts * s.real)))
        scale = float(np.sum(ws * mag * np.exp(ts * s.real))) + 1e-300
        rel = abs(d_full) / scale
        passed = _passes(abs(d_full), win_err + quad_err, scale, tolerance)
        if with_lambda and s.real > f.sigma + 1 and k - s.real > g.sigma + 1:
            lv_l = lambda_additive(f, fe.twist(), s)
            lv_r = lambda_additive(g, fe.dual_twist(), k - s)
            residual = abs(lv_l.value - fe.factor(s) * lv_r.value)
            passed = passed and _passes(residual, lv_l.error + lv_r.error, 1.0, tolerance)
        samples.append(DefectSample(s, d_full, rel, scale, win_err, quad_err, passed))

    verdict = all(s.passed for s in samples) and all(p_.passed for p_ in points)
    return FEReport(fe, (y_lo, y_hi), samples, points, tolerance, verdict)


# ---------------------------------------------------------------------------
# Gauss sums and multiplicative twists


def gauss_sum(psi: ResidueChar) -> complex:
    """tau(psi) = sum_{a mod q} psi(a) e(a/q)."""
    return complex(sum(psi(a) * e_of(Fraction(a, psi.q)) for a in range(psi.q)))


def _gauss_average(char: ResidueChar, values: Iterable[tuple[int, complex]]) -> complex:
    """(1/tau(char)) sum_r char(r) v_r over (residue r, v_r) pairs; errors of
    the v_r add up over |tau(char)| = sqrt q.  For q = 1 the one residue is
    0, char(0) = 1 and tau = 1, so the average is v_0 itself."""
    return sum(char(r) * v for r, v in values) / gauss_sum(char)


def gauss_assembly_residual(psi: ResidueChar, p: int, test_vector: dict[int, complex]) -> float:
    """Residual of the finite reindexing identity behind the multiplicative
    assembly: for any X on the units mod q,

        (1/tau(conj psi)) sum'_a conj(psi)(a) X(-inv(ap))
            = psi(p) (tau(psi)^2 / q) (1/tau(psi)) sum'_b psi(b) X(b).
    """
    q = psi.q
    psi_bar = psi.conj()
    lhs = sum(psi_bar(a) * test_vector[-pow(a * p, -1, q) % q] for a in _units(q)) / gauss_sum(psi_bar)
    rhs = sum(psi(b) * test_vector[b] for b in _units(q)) * (psi(p) * gauss_sum(psi) / q)
    return abs(lhs - rhs)


def additive_statements_for_psi(
    p: int, k: int, q: int, phase: complex = 1.0 + 0j
) -> dict[int, FEStatement]:
    """One FEStatement per residue a mod q with gcd(a, q) = 1, on the
    matrix of :func:`~weilgap.presentation.constraint_matrix`: B =
    inverse(a p) mod q, so the dual twist is -inverse(a p)/q as in the
    multiplicative assembly chain."""
    return {a: FEStatement(p, k, constraint_matrix(p, a, q)[0], phase) for a in _units(q)}


@dataclass
class MultiplicativeReport:
    psi_modulus: int
    constant: complex
    samples: list[dict]
    additive_reports: list[FEReport]
    assembly_residual: float
    verdict: bool


def check_fe_multiplicative(
    f: CoeffSeries,
    g: CoeffSeries,
    p: int,
    k: int,
    chi_value_at_q: complex,
    psi: ResidueChar,
    s_samples: Optional[Sequence[complex]] = None,
    tolerance: float = 1e-6,
) -> MultiplicativeReport:
    """Verify Lambda(f, psi, s) = i^k chi(q) psi(p) (tau(psi)^2/q)
    (p q^2)^{k/2-s} Lambda(g, conj psi, k - s) for a primitive psi mod q,
    gcd(q, p) = 1.

    Lambda(f, psi, s) is the Gauss average (1/tau(conj psi)) sum'_a
    conj psi(a) Lambda(f, a/q, s), and the reindexing that
    gauss_assembly_residual checks takes the g side to the same average
    over the per-residue statements (phase chi(q), dual twist
    -inverse(a p)/q).  So each sample is the Gauss combination of the
    per-residue check_fe_additive reports at that s: the defect
    (1/tau(conj psi)) sum'_a conj psi(a) D_a(s) of their windowed Mellin
    integrals, the scale sum'_a scale_a / sqrt q and the error
    sum'_a (window_a + quadrature_a) / sqrt q, decided by :func:`_passes`.
    As |tau| = sqrt q, its relative defect is at most the largest
    per-residue one; for q = 1 it is the one additive sample.  The verdict
    also needs every per-residue report to pass and the reindexing identity
    to hold on a random test vector.
    """
    q = psi.q
    if math.gcd(q, p) != 1:
        raise ValueError("gcd(q, p) must be 1")
    if not psi.is_primitive():
        raise ValueError("psi must be primitive")

    statements = additive_statements_for_psi(p, k, q, chi_value_at_q)
    reports = [
        check_fe_additive(f, g, p, k, fe, s_samples, tolerance, with_lambda=False)
        for fe in statements.values()
    ]

    rng = random.Random(20260808)
    test_vec = {b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for b in range(q)}
    assembly = gauss_assembly_residual(psi, p, test_vec)

    psi_bar, root_q = psi.conj(), math.sqrt(q)
    samples = []
    for column in zip(*(rep.samples for rep in reports)):  # one DefectSample per residue, at one s
        defect = _gauss_average(psi_bar, zip(statements, (smp.defect_integral for smp in column)))
        scale = sum(smp.scale for smp in column) / root_q
        error = sum(smp.window_error + smp.quadrature_error for smp in column) / root_q
        samples.append(
            {
                "s": column[0].s,
                "defect": defect,
                "scale": scale,
                "error": error,
                "residual": abs(defect) / scale,
                "pass": _passes(abs(defect), error, scale, tolerance),
            }
        )
    verdict = all(smp["pass"] for smp in samples) and all(r.verdict for r in reports) and assembly <= 1e-9
    constant = chi_value_at_q * psi(p) * gauss_sum(psi) ** 2 / q
    return MultiplicativeReport(q, constant, samples, reports, assembly, verdict)


# ---------------------------------------------------------------------------
# The converse-theorem certifier


@dataclass
class GeneratorCheck:
    q: Optional[int]
    label: str
    residual: float
    truncation: float
    passed: bool
    note: str = ""


@dataclass
class ModularityCertificate:
    p: int
    k: int
    Q: list[int]
    checks: list[GeneratorCheck]
    tolerance: float
    verdict: bool
    failing: Optional[str] = None
    chi_label: str = "trivial"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "chi": self.chi_label,
            "Q": self.Q,
            "per_generator": [
                {
                    "q": c.q,
                    "label": c.label,
                    "residual": c.residual,
                    "truncation": c.truncation,
                    "pass": c.passed,
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.checks
            ],
            "verdict": "pass" if self.verdict else f"fail at {self.failing}",
        }


def certify_modularity(
    f: CoeffSeries,
    g: CoeffSeries,
    p: int,
    k: int,
    chi_value_of_q=None,
    tolerance: float = 1e-6,
    gens: Optional[GenSet] = None,
    chi_label: str = "trivial",
) -> ModularityCertificate:
    """Numerically verify the converse-theorem relations for the moduli Q.

    For q = 1 this is the Fricke relation tying f to g; for every other
    q in Q the statement is the modular relation of the generator matrix
    V_q with phase chi(q) (the twists are -1/q against ((q q* + 1)/p)/q).
    S-periodicity is structural: a q-expansion is 1-periodic by definition,
    and is recorded as a free line in the certificate.  The certificate
    lists the worst relative residual per generator and names the first
    generator violating the tolerance.
    """
    if p == 1:
        qs = [1]
    else:
        qs = sorted(compute_Q(p, gens))
    checks: list[GeneratorCheck] = [
        GeneratorCheck(None, "S", 0.0, 0.0, True, note="structural: q-expansions are 1-periodic")
    ]
    failing = None
    for q in qs:
        phase = 1.0 + 0j
        if chi_value_of_q is not None and q > 1:
            phase = complex(chi_value_of_q(q))
        fe = fe_for_q(p, k, q, phase)
        i = np.arange(3)
        zs = fe.balance_height * (0.17 * (i - 1) + 1j * (0.75 + 0.25 * i))
        points = _modular_points(fe, zs.tolist(), _relation(f, g, fe, zs), tolerance, gate_truncation=False)
        # np.max, as max() would skip a NaN that is not first
        worst = float(np.max([pt.residual for pt in points]))
        worst_trunc = float(np.max([pt.truncation for pt in points]))
        passed = all(pt.passed for pt in points)
        label = "W_p" if q == 1 else f"V_{q}"
        if not passed and failing is None:
            failing = label
        checks.append(GeneratorCheck(q, label, worst, worst_trunc, passed))
    verdict = failing is None
    return ModularityCertificate(p, k, qs, checks, tolerance, verdict, failing, chi_label)
