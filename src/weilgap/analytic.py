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
window resolves.  One-sided truncated Lambda values (lambda_additive) are
exact for the truncated object but carry honest, possibly infinite, error
estimates against the true completed series; they are never the gating
check below the abscissa of absolute convergence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .characters import ResidueChar, e_of
from .matrices import Mat2
from .presentation import GenSet, compute_Q, constraint_matrix, v_matrix
from .series import CoeffSeries, cgamma, upper_incomplete_gamma


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

    The matrix [[D, a], [-pB, q]] has determinant q D + a p B = 1 and lies
    in Gamma0(p); ``phase`` is its multiplier value, regarded as a fixed
    modulus-1 constant.  The dual twist is -B/q.
    """

    p: int
    k: int
    a: int
    q: int
    B: int
    D: int
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if self.q < 1 or (self.p > 1 and self.q % self.p == 0):
            raise ValueError(f"invalid modulus q = {self.q} at level {self.p}")
        if self.q * self.D + self.a * self.p * self.B != 1:
            raise ValueError("determinant condition q D + a p B = 1 violated")
        phase = self.phase
        if hasattr(phase, "value"):  # exact Angle from the multiplier module
            phase = phase.value()
        phase = complex(phase)
        if abs(abs(phase) - 1.0) > 1e-12:
            raise ValueError("phase must have modulus 1")
        self.phase = phase

    def matrix(self) -> Mat2:
        return Mat2.sl2(self.D, self.a, -self.p * self.B, self.q)

    def twist(self) -> AdditiveTwist:
        return AdditiveTwist(self.a, self.q)

    def dual_twist(self) -> AdditiveTwist:
        return AdditiveTwist(-self.B, self.q)

    def dual(self) -> "FEStatement":
        """The statement with the roles of f and g swapped.

        (a', B', D') = (-B, -a, D) keeps the determinant, and the phase
        inverts: the swap test check_modular_relation relies on this.
        """
        return FEStatement(self.p, self.k, -self.B, self.q, -self.a, self.D, 1.0 / self.phase)


def fe_for_q(p: int, k: int, q: int, phase: complex = 1.0 + 0j) -> FEStatement:
    """The statement attached to a modulus q: twist -1/q against
    ((q q* + 1)/p)/q, realized by the generator matrix V_q itself.

    (a, q, B, D) = (-1, q, -(q q* + 1)/p, -q*) is read off
    V_q = [[D, a], [-pB, q]] (see :func:`~weilgap.presentation.v_matrix`);
    the tuple printed with a = +1 does not have determinant 1, so the sign
    of a is fixed here.
    """
    if p == 1:
        return FEStatement(1, k, -1, 1, -1, 0, phase)
    v = v_matrix(p, q)
    return FEStatement(p, k, v.b, v.d, -v.c // p, v.a, phase)


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
    s: complex
    twist: Optional[AdditiveTwist]
    y0: float
    M: int

    def agrees_with(self, other: "LambdaValue", slack: float = 1e-12) -> bool:
        gap = abs(self.value - other.value)
        budget = min(self.error, 1e300) + min(other.error, 1e300) + slack * (1 + abs(self.value))
        return gap <= budget


# ---------------------------------------------------------------------------
# One-sided truncated Lambda


def lambda_additive(
    f: CoeffSeries,
    twist: AdditiveTwist,
    s: complex,
    y0: Optional[float] = None,
) -> LambdaValue:
    """Lambda of the truncated series by the incomplete-gamma split at y0.

    value = sum_{m <= M} a_m e(a m / q) (2 pi m)^{-s} Gamma(s, 2 pi m y0)
            + int_0^{y0} f_trunc(a/q + iy) y^{s-1} dy,

    the integral computed termwise through lower incomplete gammas
    Gamma(s) - Gamma(s, 2 pi m y0); both parts are evaluations of the same
    entire function of s, so the value is y0-independent up to rounding.
    The error estimate covers the dropped m > M tail of the true series:
    its incomplete-gamma part is exponentially small, while the lower
    integral part is finite only for Re s > sigma + 1.
    """
    if f.M < 1:
        raise ValueError("insufficient coefficients: empty prefix")
    if y0 is None:
        y0 = 1.0 / (twist.q * math.sqrt(max(f.level, 1)))
    if not y0 > 0:
        raise ValueError("y0 must be positive")
    s = complex(s)
    gamma_s = cgamma(s)
    terms, upper_gammas = _incomplete_terms(f, twist, s, y0)
    head = terms[: len(upper_gammas)]
    upper = complex(head @ upper_gammas)
    # beyond the cut Gamma(s, x) is negligible: the whole term sits in the
    # lower integral
    lower = complex(head @ (gamma_s - upper_gammas)) + gamma_s * complex(np.sum(terms[len(head) :]))
    if f.a0 != 0:
        if s.real <= 0:
            raise ValueError("constant term requires Re s > 0 in the lower integral")
        lower += f.a0 * y0**s / s
    value = upper + lower
    if not cmath.isfinite(value):
        raise OverflowError(f"Lambda at s = {s} overflows double precision")

    # error model against the true series; the cut only moves mass between
    # the two parts and costs nothing
    re_s = s.real
    error = _tail_upper_gamma(f, re_s, y0) + _tail_lower_gamma(f, re_s, abs(gamma_s))
    return LambdaValue(value, error, s, twist, y0, f.M)


def _incomplete_terms(f: CoeffSeries, twist: AdditiveTwist, s: complex, y: float) -> tuple:
    """a_m e(a m / q) (2 pi m)^{-s} for every m <= M, and Gamma(s, 2 pi m y)
    in one kernel call for the m with 2 pi m y <= 46 + 2|s|, past which it
    is negligible beside Gamma(s)."""
    ms = np.arange(1, f.M + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # lambda_additive reports overflow
        terms = f.as_array() * twist.phases(f.M) * np.exp(-s * np.log(2 * np.pi * ms))
    m_cut = min(f.M, int((46 + 2 * abs(s)) / (2 * math.pi * y)))
    return terms, upper_incomplete_gamma(s, 2 * math.pi * y * ms[:m_cut])


def _tail_upper_gamma(f: CoeffSeries, re_s: float, y0: float) -> float:
    """Bound C sum_{m > M} m^sigma (2 pi m)^{-Re s} |Gamma(s, 2 pi m y0)|,
    summed in order until a term falls below 1e-20 of the sum; inf if none
    has by the 100001st term, where the partial sum would under-report.
    The terms go through numpy in blocks of 64, 256, ... (seven in all)."""
    gamma_re = abs(cgamma(re_s)) if re_s > 1 else math.inf
    total, start, size, cap = 0.0, f.M + 1, 64, f.M + 100001
    while start <= cap:
        m = np.arange(start, min(start + size, cap + 1), dtype=float)
        x = 2 * np.pi * m * y0
        # |Gamma(s, x)| <= x^{Re s - 1} e^{-x} for Re s <= 1 (t^{Re s - 1} is
        # nonincreasing); else x^{Re s} e^{-x} / (x - Re s) right of Re s + 1
        # and Gamma(Re s) left of it
        with np.errstate(divide="ignore", invalid="ignore"):
            g = x ** (re_s - 1) * np.exp(-x) if re_s <= 1 else np.where(
                x > re_s + 1, x**re_s * np.exp(-x) / (x - re_s), gamma_re
            )
        terms = f.growth_c * m**f.sigma * (2 * np.pi * m) ** (-re_s) * g
        sums = np.cumsum(np.r_[total, terms])[1:]
        small = np.flatnonzero(terms < 1e-20 * (1 + sums))
        if small.size:
            return float(sums[small[0]])
        total, start, size = float(sums[-1]), start + size, 4 * size
    return math.inf


def _tail_lower_gamma(f: CoeffSeries, re_s: float, gamma_abs: float) -> float:
    """Bound C sum_{m > M} m^{sigma - Re s} (2 pi)^{-Re s} |Gamma(s)| on the
    dropped lower-integral mass; infinite at or below Re s = sigma + 1."""
    exponent = f.sigma - re_s
    if exponent >= -1:
        return math.inf
    m0 = f.M + 1
    # integral comparison: sum_{m >= m0} m^e <= m0^e + int_{m0}^inf t^e dt
    tail = m0**exponent + m0 ** (exponent + 1) / (-exponent - 1)
    return f.growth_c * (2 * math.pi) ** (-re_s) * gamma_abs * tail


# ---------------------------------------------------------------------------
# Pointwise modular relation and windowed defect integrals


def _ghat(g: CoeffSeries, fe: FEStatement, ys: np.ndarray) -> np.ndarray:
    """i^k phase (p q^2) ^{-k/2} y^{-k} g(-B/q + i / (p q^2 y))."""
    pq2 = fe.p * fe.q * fe.q
    vs = 1.0 / (pq2 * ys)
    shift = fe.dual_twist().a / fe.q
    zs = shift + 1j * vs
    values = g.eval_many(zs)
    return (1j**fe.k) * fe.phase * pq2 ** (-fe.k / 2) * ys ** (-float(fe.k)) * values


def _f_side(f: CoeffSeries, fe: FEStatement, ys: np.ndarray) -> np.ndarray:
    shift = fe.twist().a / fe.q
    return f.eval_many(shift + 1j * ys)


def _ghat_trust(g: CoeffSeries, fe: FEStatement, ys: np.ndarray) -> np.ndarray:
    pq2 = fe.p * fe.q * fe.q
    return pq2 ** (-fe.k / 2) * ys ** (-float(fe.k)) * g.tail_bound(1.0 / (pq2 * ys))


@dataclass
class ModularRelationResult:
    z: complex
    lhs: complex
    rhs: complex
    residual: float           # relative to max(|lhs|, |rhs|)
    absolute: float
    truncation: float         # bound on the truncation error of both sides
    fitted_phase: complex
    tolerance: float = 1e-6

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def check_modular_relation(
    f: CoeffSeries,
    g: CoeffSeries,
    p: int,
    k: int,
    fe: FEStatement,
    z: complex,
    tolerance: float = 1e-6,
) -> ModularRelationResult:
    """Residual of sum a_m e(am/q) e(mz) against
    (-1)^k phase p^{-k/2} q^{-k} z^{-k} sum b_m e(-Bm/q) e(-m/(p q^2 z)).

    The reported residual is relative to the larger side; the truncation
    field bounds the dropped tails of both series at this z.  The fitted
    phase is the constant phase * lhs / rhs that would make the relation
    exact at z; for a modular pair it reproduces the declared phase.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must be in the upper half-plane")
    q = fe.q
    lhs = complex(f.eval_many(np.array([fe.twist().a / q + z]))[0])
    pq2 = p * q * q
    w = -1.0 / (pq2 * z)
    g_val = complex(g.eval_many(np.array([fe.dual_twist().a / q + w]))[0])
    rhs = (-1) ** k * fe.phase * p ** (-k / 2) * float(q) ** (-k) * z ** (-k) * g_val
    scale = max(abs(lhs), abs(rhs), 1e-300)
    dual_height = z.imag / (pq2 * abs(z) ** 2)  # Im(-1/(p q^2 z))
    trunc = f.tail_bound(z.imag) + abs(z) ** (-k) * p ** (-k / 2) * float(q) ** (-k) * g.tail_bound(
        dual_height
    )
    fitted = fe.phase * lhs / rhs if rhs != 0 else complex("nan")
    return ModularRelationResult(
        z=z,
        lhs=lhs,
        rhs=rhs,
        residual=abs(lhs - rhs) / scale,
        absolute=abs(lhs - rhs),
        truncation=trunc,
        fitted_phase=fitted,
        tolerance=tolerance,
    )


def _auto_window(
    f: CoeffSeries, g: CoeffSeries, fe: FEStatement, cut: float = 1e-8
) -> tuple[float, float]:
    """Largest [y_lo, y_hi] around the balance height on which both
    truncated sides are pointwise reliable.

    Reliability at y means trust(y) <= cut * signal(y), with trust the sum
    of both truncation-tail bounds and signal the sum of magnitudes; this
    keeps the Mellin weights from amplifying edge noise of the truncated
    series into the defect integrals.  The ends are rungs of the ladder
    y_bal 1.25^{+-j} inside (y_bal / 4096, 4096 y_bal), all probed at once.
    """
    y_bal = 1.0 / (fe.q * math.sqrt(fe.p))
    steps = np.r_[y_bal, np.full(40, 1.25)]  # 1.25^40 > 4096
    down, up = np.divide.accumulate(steps), np.multiply.accumulate(steps)
    down, up = down[down > y_bal / 4096], up[up < y_bal * 4096]
    ys = np.r_[down, up[1:]]
    trust = f.tail_bound(ys) + _ghat_trust(g, fe, ys)
    reliable = trust <= cut * (np.abs(_f_side(f, fe, ys)) + np.abs(_ghat(g, fe, ys)))
    if not reliable[0]:
        raise ValueError(
            "insufficient coefficients: truncated sides are unreliable at the balance height"
        )
    # the reliable run from y_bal outwards ends before the first unreliable rung
    run_down = np.logical_and.accumulate(reliable[: len(down)]).sum()
    run_up = np.logical_and.accumulate(np.r_[True, reliable[len(down) :]]).sum()
    return float(down[run_down - 1]), float(up[run_up - 1])


def _gl_log_nodes(y_lo: float, y_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
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
    lambda_lhs: Optional[LambdaValue] = None
    lambda_rhs: Optional[LambdaValue] = None
    lambda_residual: Optional[float] = None
    passed: bool = True


@dataclass
class FEReport:
    fe: FEStatement
    window: tuple[float, float]
    samples: list[DefectSample]
    modular_points: list[ModularRelationResult]
    y0_consistency: Optional[bool]
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
    nodes: int = 96,
    with_lambda: bool = True,
) -> FEReport:
    """Verify the twisted functional equation through the Bochner defect.

    For each s the windowed Mellin integral of delta(y) is computed with
    Gauss-Legendre quadrature in log y; the pass rule per sample is
    relative defect <= max(tolerance, 10 * combined error estimate).  The
    pointwise modular relation is checked at three heights around the
    balance point, and lambda_additive values at both ends are attached
    where their one-sided error estimates are finite.
    """
    if s_samples is None:
        s_samples = default_s_grid(k, f.sigma)
    y_lo, y_hi = _auto_window(f, g, fe, cut=min(1e-8, tolerance * 1e-2))
    nodes = min(384, max(nodes, int(40 * math.log(y_hi / y_lo))))
    ts, ws = _gl_log_nodes(y_lo, y_hi, nodes)
    ts_half, ws_half = _gl_log_nodes(y_lo, y_hi, nodes // 2)

    ys = np.exp(ts)
    f_vals = _f_side(f, fe, ys)
    g_vals = _ghat(g, fe, ys)
    delta = f_vals - g_vals
    mag = 0.5 * (np.abs(f_vals) + np.abs(g_vals))
    ys_half = np.exp(ts_half)
    delta_half = _f_side(f, fe, ys_half) - _ghat(g, fe, ys_half)
    trust = f.tail_bound(ys) + _ghat_trust(g, fe, ys)

    samples: list[DefectSample] = []
    for s in s_samples:
        s = complex(s)
        weights = np.exp(ts * s)
        d_full = complex(np.sum(ws * delta * weights))
        d_half = complex(np.sum(ws_half * delta_half * np.exp(ts_half * s)))
        quad_err = abs(d_full - d_half)
        win_err = float(np.sum(ws * trust * np.exp(ts * s.real)))
        scale = float(np.sum(ws * mag * np.exp(ts * s.real))) + 1e-300
        rel = abs(d_full) / scale
        entry = DefectSample(
            s=s,
            defect_integral=d_full,
            relative=rel,
            scale=scale,
            window_error=win_err,
            quadrature_error=quad_err,
        )
        if with_lambda:
            lv_l = lambda_additive(f, fe.twist(), s)
            lv_r = lambda_additive(g, fe.dual_twist(), k - s)
            factor = (1j**k) * fe.phase * (p * fe.q**2) ** (k / 2 - s)
            entry.lambda_lhs = lv_l
            entry.lambda_rhs = lv_r
            entry.lambda_residual = abs(lv_l.value - factor * lv_r.value)
        entry.passed = rel <= max(tolerance, 10 * (win_err + quad_err) / scale)
        if with_lambda and entry.lambda_residual is not None:
            lam_budget = max(
                tolerance,
                10 * (min(entry.lambda_lhs.error, 1e300) + min(entry.lambda_rhs.error, 1e300)),
            )
            if math.isfinite(entry.lambda_lhs.error) and math.isfinite(entry.lambda_rhs.error):
                entry.passed = entry.passed and entry.lambda_residual <= lam_budget
        samples.append(entry)

    y_bal = 1.0 / (fe.q * math.sqrt(p))
    points = []
    for scale_y, re_frac in ((0.8, 0.0), (1.0, 0.21), (1.3, -0.13)):
        z = complex(re_frac * y_bal, scale_y * y_bal)
        points.append(check_modular_relation(f, g, p, k, fe, z, tolerance=tolerance))
    for pt in points:
        pt.tolerance = max(tolerance, 10 * pt.truncation / max(abs(pt.lhs), abs(pt.rhs), 1e-300))

    y0_ok: Optional[bool] = None
    if with_lambda:
        s_conv = f.sigma + 2 + 0j
        base = lambda_additive(f, fe.twist(), s_conv, y0=1.0 / (fe.q * math.sqrt(p)))
        y0_ok = True
        for factor in (0.3, 3.0):
            other = lambda_additive(f, fe.twist(), s_conv, y0=factor / (fe.q * math.sqrt(p)))
            if not base.agrees_with(other, slack=1e-9):
                y0_ok = False

    verdict = all(s.passed for s in samples) and all(p_.passed for p_ in points) and y0_ok is not False
    return FEReport((fe), (y_lo, y_hi), samples, points, y0_ok, tolerance, verdict)


# ---------------------------------------------------------------------------
# Gauss sums and multiplicative twists


def gauss_sum(psi: ResidueChar) -> complex:
    """tau(psi) = sum_{a mod q} psi(a) e(a/q)."""
    q = psi.q
    if q == 1:
        return 1.0 + 0j
    return complex(sum(psi(a) * e_of(Fraction(a, q)) for a in range(q)))


def gauss_assembly_residual(psi: ResidueChar, p: int, test_vector: dict[int, complex]) -> float:
    """Residual of the finite reindexing identity behind the multiplicative
    assembly: for any X on the units mod q,

        (1/tau(conj psi)) sum'_a conj(psi)(a) X(-inv(ap))
            = psi(p) (tau(psi)^2 / q) (1/tau(psi)) sum'_b psi(b) X(b).
    """
    q = psi.q
    if q == 1:
        return 0.0
    psi_bar = psi.conj()
    lhs = 0j
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        b = (-pow(a * p % q, -1, q)) % q
        lhs += psi_bar(a) * test_vector[b]
    lhs /= gauss_sum(psi_bar)
    rhs = 0j
    for b in range(1, q):
        if math.gcd(b, q) != 1:
            continue
        rhs += psi(b) * test_vector[b]
    rhs *= psi(p) * gauss_sum(psi) / q
    return abs(lhs - rhs)


def additive_statements_for_psi(
    p: int, k: int, q: int, phase_of_matrix=None
) -> dict[int, FEStatement]:
    """One FEStatement per residue a mod q with gcd(a, q) = 1, with
    B = inverse(a p) mod q, so the dual twist is -inverse(a p)/q as in the
    multiplicative assembly chain."""
    out: dict[int, FEStatement] = {}
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        mat, B, D = constraint_matrix(p, a, q)
        phase = 1.0 + 0j
        if phase_of_matrix is not None:
            phase = complex(phase_of_matrix(mat))
        out[a] = FEStatement(p, k, a, q, B, D, phase)
    return out


def lambda_multiplicative(
    f: CoeffSeries,
    psi: ResidueChar,
    s: complex,
    y0: Optional[float] = None,
    level: Optional[int] = None,
) -> LambdaValue:
    """Lambda(f, psi, s) = (1/tau(conj psi)) sum'_a conj(psi)(a) Lambda(f, a/q, s)."""
    q = psi.q
    p = level if level is not None else max(f.level, 1)
    if q > 1 and math.gcd(q, p) != 1:
        raise ValueError("gcd(q, p) must be 1")
    if not psi.is_primitive():
        raise ValueError("psi must be primitive")
    if q == 1:
        return lambda_additive(f, AdditiveTwist(0, 1), s, y0=y0)
    psi_bar = psi.conj()
    total = 0j
    error = 0.0
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        lv = lambda_additive(f, AdditiveTwist(a, q), s, y0=y0)
        total += psi_bar(a) * lv.value
        error += lv.error
    tau_bar = gauss_sum(psi_bar)
    return LambdaValue(total / tau_bar, error / abs(tau_bar), s, None, y0 or 0.0, f.M)


def lambda_via_pair(
    f: CoeffSeries,
    g: CoeffSeries,
    fe: FEStatement,
    s: complex,
    y_split: Optional[float] = None,
) -> LambdaValue:
    """Two-sided evaluation of Lambda(f, a/q, s), valid when the modular
    relation of (f, g, fe) holds (certified separately):

        sum_m a_m e(am/q) (2 pi m)^{-s} Gamma(s, 2 pi m y)
        + i^k phase (pq^2)^{k/2 - s} sum_m b_m e(-Bm/q) (2 pi m)^{s-k}
              Gamma(k - s, 2 pi m u),   u = 1/(p q^2 y).

    Both tails are exponentially small, so this gives finite error bars at
    every s, conditional on modularity.
    """
    s = complex(s)
    p, q, k = fe.p, fe.q, fe.k
    y = y_split if y_split is not None else 1.0 / (q * math.sqrt(p))
    u = 1.0 / (p * q * q * y)
    terms_f, gammas_f = _incomplete_terms(f, fe.twist(), s, y)
    terms_g, gammas_g = _incomplete_terms(g, fe.dual_twist(), k - s, u)
    part_f = complex(terms_f[: len(gammas_f)] @ gammas_f)
    part_g = complex(terms_g[: len(gammas_g)] @ gammas_g)
    factor = (1j**k) * fe.phase * (p * q * q) ** (k / 2 - s)
    err = _tail_upper_gamma(f, s.real, y) + abs(factor) * _tail_upper_gamma(g, (k - s).real, u)
    return LambdaValue(part_f + factor * part_g, err, s, fe.twist(), y, f.M)


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
    constant_override: Optional[complex] = None,
) -> MultiplicativeReport:
    """Verify Lambda(f, psi, s) = i^k chi(q) psi(p) (tau(psi)^2/q)
    (p q^2)^{k/2-s} Lambda(g, conj psi, k - s).

    Gates: the per-residue additive statements (with phase chi(q)) each
    pass check_fe_additive, the finite Gauss reindexing identity holds on
    a random test vector, and the two-sided assembled values satisfy the
    equation with the declared constant (use constant_override for
    sensitivity experiments).
    """
    q = psi.q
    if q > 1 and math.gcd(q, p) != 1:
        raise ValueError("gcd(q, p) must be 1")
    if not psi.is_primitive():
        raise ValueError("psi must be primitive")
    if s_samples is None:
        s_samples = default_s_grid(k, f.sigma)

    statements = additive_statements_for_psi(p, k, q, phase_of_matrix=lambda m: chi_value_at_q)
    reports = [
        check_fe_additive(f, g, p, k, fe, s_samples, tolerance, with_lambda=False)
        for fe in statements.values()
    ]

    import random as _random

    rng = _random.Random(20260808)
    test_vec = {
        b: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for b in range(q)
    }
    assembly = gauss_assembly_residual(psi, p, test_vec) if q > 1 else 0.0

    tau = gauss_sum(psi)
    constant_base = chi_value_at_q * psi(p) * tau**2 / q
    samples = []
    ok = True
    for s in s_samples:
        s = complex(s)
        lhs = _assemble_multiplicative(f, g, statements, psi.conj(), s, side="f")
        rhs = _assemble_multiplicative(f, g, statements, psi, k - s, side="g")
        declared = (
            (1j**k)
            * (constant_override if constant_override is not None else constant_base)
            * (p * q * q) ** (k / 2 - s)
        )
        resid = abs(lhs.value - declared * rhs.value)
        scale = max(abs(lhs.value), abs(declared * rhs.value), 1e-300)
        budget = max(tolerance, 10 * (lhs.error + abs(declared) * rhs.error) / scale)
        passed = bool(resid / scale <= budget)
        ok = ok and passed
        samples.append(
            {
                "s": s,
                "lhs": lhs.value,
                "rhs": rhs.value,
                "residual": resid / scale,
                "pass": passed,
            }
        )
    verdict = ok and all(r.verdict for r in reports) and assembly <= 1e-9
    return MultiplicativeReport(q, constant_base, samples, reports, assembly, verdict)


def _assemble_multiplicative(
    f: CoeffSeries,
    g: CoeffSeries,
    statements: dict[int, FEStatement],
    weight_char: ResidueChar,
    s: complex,
    side: str,
) -> LambdaValue:
    """(1/tau(weight_char)) sum'_a weight_char(.) Lambda(., ./q, s), each
    Lambda through the two-sided pair formula (valid once the per-residue
    modular relations are certified; the error bars are conditional on
    that)."""
    q = weight_char.q
    if q == 1:
        fe = statements[0]
        if side == "f":
            return lambda_via_pair(f, g, fe, s)
        return lambda_via_pair(g, f, fe.dual(), s)
    total = 0j
    error = 0.0
    for a, fe in statements.items():
        if side == "f":
            lv = lambda_via_pair(f, g, fe, s)
            w = weight_char(a)
        else:
            lv = lambda_via_pair(g, f, fe.dual(), s)
            w = weight_char((-fe.B) % q)
        total += w * lv.value
        error += lv.error
    tau_w = gauss_sum(weight_char)
    return LambdaValue(total / tau_w, error / abs(tau_w), s, None, 0.0, f.M)


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
    points_per_q: int = 3,
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
        y_bal = 1.0 / (q * math.sqrt(p))
        worst = 0.0
        worst_trunc = 0.0
        for i in range(points_per_q):
            height = (0.75 + 0.25 * i) * y_bal
            re = (0.17 * (i - 1)) * y_bal
            res = check_modular_relation(f, g, p, k, fe, complex(re, height), tolerance=tolerance)
            worst = max(worst, res.residual)
            worst_trunc = max(worst_trunc, res.truncation)
        label = "W_p" if q == 1 else f"V_{q}"
        passed = worst <= tolerance
        if not passed and failing is None:
            failing = label
        checks.append(GeneratorCheck(q, label, worst, worst_trunc, passed))
    verdict = failing is None
    return ModularityCertificate(p, k, qs, checks, tolerance, verdict, failing, chi_label)
