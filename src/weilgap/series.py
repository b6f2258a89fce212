"""Fourier coefficient prefixes: Delta, Delta(z)Delta(pz), products, and
Eisenstein series attached to a general multiplier system.

Integral sources (Ramanujan tau and its convolutions) are computed with
exact integer arithmetic.  The Eisenstein coefficients use the expansion
of the infinity-cusp series sum conj(upsilon(gamma)) j(gamma, z)^{-w} over
Gamma_infinity \\ Gamma0(p):

    a_0 = 1,
    a_m = (-2 pi i)^w m^{w-1} / (w-1)! * sum_{p | c, c > 0} c^{-w} S_ups(m, c),

where S_ups(m, c) = sum_{d mod c, (d, c) = 1} conj(upsilon(gamma_{c,d}))
e(m d / c) is a multiplier-twisted Kloosterman-type sum; every coefficient
carries the tail bound of the truncated c-sum.  For each c the multiplier
values come from MultiplierSystem.bottom_row_angle, and one inverse FFT of
length c gives S_ups(m, c) for every residue of m at once.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp
import numpy as np

from .matrices import lift_bottom_row  # kept importable as series.lift_bottom_row
from .multiplier import MultiplierSystem

_EPS = 4 * np.finfo(float).eps
_MAX_TERMS = 2000


# ---------------------------------------------------------------------------
# Gamma kernels (analytic re-exports them; tail_bound below needs them)


def cgamma(s: complex) -> complex:
    """Euler Gamma on the complex plane (poles at nonpositive integers)."""
    s = complex(s)
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        raise ValueError(f"Gamma pole at s = {s}")
    with mp.workdps(30):
        value = complex(mp.gamma(mp.mpc(s)))
    if not cmath.isfinite(value):
        raise OverflowError(f"Gamma({s}) overflows double precision")
    return value


def upper_incomplete_gamma(s: complex, x):
    """Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt, elementwise over x > 0.

    Right of x = max(Re s, 0) + 1, the Legendre continued fraction by
    modified Lentz (Gil, Segura and Temme, *Numerical Methods for Special
    Functions*, SIAM 2007); at or left of it, Gamma(s) minus the series of
    gamma(s, x), with one ``cgamma(s)`` call.  For Re s < 0 the difference
    would cancel at x = |s| + 1 (3e-6 relative at s = -8.6 + 0.2i, x = 9.6).
    A scalar x gives a complex; a value past double range raises
    OverflowError.
    """
    scalar = np.ndim(x) == 0
    s, xs = complex(s), np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    far = xs > max(s.real, 0) + 1
    out = np.empty(xs.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        front = np.exp(s * np.log(xs) - xs)
        out[far] = front[far] * _gamma_fraction(s, xs[far])
        if not far.all():
            out[~far] = cgamma(s) - front[~far] * _gamma_series(s, xs[~far])
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"Gamma({s}, x) overflows double precision")
    return complex(out[0]) if scalar else out


def _gamma_fraction(s: complex, x: np.ndarray) -> np.ndarray:
    """x^{-s} e^x Gamma(s, x) = 1 / (x + 1 - s - 1 (1 - s) / (x + 3 - s - ...))."""
    tiny = 1e-300
    b = x + 1 - s  # |b| >= 2 here
    c = np.full(x.shape, 1 / tiny, dtype=complex)
    h = d = 1 / b
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, _MAX_TERMS):
        if done.all():
            return h
        a = -i * (i - s)
        b = b + 2
        d = a * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + a / c
        c[np.abs(c) < tiny] = tiny
        d = 1 / d
        delta = c * d
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1) < _EPS
    raise ArithmeticError(f"continued fraction for Gamma({s}, x) did not converge")


def _gamma_series(s: complex, x: np.ndarray) -> np.ndarray:
    """sum_{n >= 0} x^n / (s (s + 1) ... (s + n)) = x^{-s} e^x gamma(s, x)."""
    term = np.full(x.shape, 1 / s, dtype=complex)
    total = term
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, _MAX_TERMS):
        if done.all():
            return total
        term = term * x / (s + n)
        total = np.where(done, total, total + term)
        done |= np.abs(term) < _EPS * np.abs(total)
    raise ArithmeticError(f"series for gamma({s}, x) did not converge")


@dataclass
class CoeffSeries:
    """A finite prefix a_1..a_M of a coefficient sequence with growth data.

    ``a0`` is the constant term (nonzero only for Eisenstein-type series).
    ``exact`` holds integer coefficients when the source is integral.
    ``sigma`` is the recorded polynomial growth exponent and ``growth_c``
    the constant max |a_m| / m^sigma over the stored prefix.
    ``per_coeff_error`` holds a per-coefficient error bound when the source
    states one, and ``c_max`` the Kloosterman modulus at which an
    Eisenstein sum was truncated.
    """

    coeffs: list[complex]
    weight: int
    level: int
    sigma: float
    label: str
    a0: complex = 0j
    exact: Optional[list[int]] = None
    error_bound: float = 0.0
    per_coeff_error: Optional[list[float]] = None
    c_max: Optional[int] = None

    def __post_init__(self):
        self.coeffs = [complex(c) for c in self.coeffs]
        self.growth_c = max(
            (abs(c) / m**self.sigma for m, c in enumerate(self.coeffs, start=1)),
            default=0.0,
        )

    @property
    def M(self) -> int:
        return len(self.coeffs)

    def a(self, m: int) -> complex:
        if m == 0:
            return self.a0
        if 1 <= m <= self.M:
            return self.coeffs[m - 1]
        raise IndexError(f"coefficient a_{m} beyond stored prefix M = {self.M}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def tail_bound(self, y):
        """Bound C sum_{m > M} m^sigma e^{-2 pi m y} on the dropped tail,
        elementwise over y > 0 (a scalar y gives a float).

        With h(x) = x^sigma e^{-t x}, t = 2 pi y, m0 = M + 1: the smaller of
        h(m0)/(1 - r) if r = ((m0 + 1)/m0)^sigma e^{-t} < 1 (term ratios fall
        from r) and max h + Gamma(sigma + 1, t m0)/t^(sigma + 1) (h is
        unimodal), times 1 + 1e-12.  The sum is at least h(m0)/(1 - e^{-t}),
        so where that puts the first within 5% the second is not computed.
        """
        scalar = np.ndim(y) == 0
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if self.growth_c == 0:
            return 0.0 if scalar else np.zeros(ys.shape)
        t, m0, sigma = 2 * np.pi * ys, self.M + 1, self.sigma
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf is a bound
            r = (1 + 1 / m0) ** sigma * np.exp(-t)
            bound = np.where(r < 1, np.exp(sigma * math.log(m0) - t * m0) / (1 - r), np.inf)
            loose = -np.expm1(-t) > 1.05 * (1 - r)
            if loose.any():
                tl = t[loose]
                peak = np.maximum(m0, sigma / tl)
                top = np.exp(sigma * np.log(peak) - tl * peak)
                integral = upper_incomplete_gamma(sigma + 1, tl * m0).real / tl ** (sigma + 1)
                bound[loose] = np.minimum(bound[loose], top + integral)
            out = self.growth_c * bound * (1 + 1e-12)
        return float(out[0]) if scalar else out

    def eval_truncated(self, z: complex) -> complex:
        """f(z) = a0 + sum_{m <= M} a_m e(m z), the entire truncation."""
        return complex(self.eval_many(np.array([z]))[0])

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """a0 + sum_{m <= M} a_m q^m, q = e(z), at each z of a 1-d array, as
        sum_j (q^B)^j sum_{i <= B} a_{jB+i} q^i with B = isqrt(M): n (B + M/B)
        complex powers, integer powers below 100 (by repeated squaring) for
        M < 10^4.  einsum's own loop, not BLAS, does the contraction, so a
        value does not depend on the other points in the call.
        """
        qs = np.exp(2j * np.pi * np.asarray(zs, dtype=complex))
        B = max(1, math.isqrt(self.M))
        blocks = -(-self.M // B)
        coeffs = np.pad(self.as_array(), (0, blocks * B - self.M))
        baby = qs[:, None] ** np.arange(1, B + 1)
        giant = baby[:, -1:] ** np.arange(blocks)
        inner = np.einsum("nb,jb->nj", baby, coeffs.reshape(blocks, B))
        return self.a0 + np.sum(inner * giant, axis=1)

    def copy_with(self, **kwargs) -> "CoeffSeries":
        data = dict(
            coeffs=list(self.coeffs),
            weight=self.weight,
            level=self.level,
            sigma=self.sigma,
            label=self.label,
            a0=self.a0,
            exact=None if self.exact is None else list(self.exact),
            error_bound=self.error_bound,
            per_coeff_error=None if self.per_coeff_error is None else list(self.per_coeff_error),
            c_max=self.c_max,
        )
        data.update(kwargs)
        return CoeffSeries(**data)

    # -- JSON lines interface ----------------------------------------------

    def to_json_lines(self) -> str:
        header = {
            "label": self.label,
            "weight": self.weight,
            "level": self.level,
            "sigma": self.sigma,
            "M": self.M,
            "error_bound": self.error_bound,
        }
        if self.c_max is not None:
            header["c_max"] = self.c_max
        lines = [json.dumps(header)]
        if self.a0 != 0:
            lines.append(json.dumps({"m": 0, "re": _num_json(self.a0.real), "im": _num_json(self.a0.imag)}))
        for m, c in enumerate(self.coeffs, start=1):
            if self.exact is not None:
                record = {"m": m, "re": str(self.exact[m - 1]), "im": "0"}
            else:
                record = {"m": m, "re": c.real, "im": c.imag}
            if self.per_coeff_error is not None:
                record["err"] = self.per_coeff_error[m - 1]
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_lines(cls, text: str) -> "CoeffSeries":
        """Parse ``to_json_lines`` output; malformed input raises ValueError.

        The header must carry label, weight, level, sigma and M, and the
        records must give each m in 1..M (and optionally m = 0) exactly once.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("coefficient file is empty")
        header = json.loads(lines[0])
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise ValueError(f"coefficient file header lacks {', '.join(missing)}")
        M = header["M"]
        if not isinstance(M, int) or M < 0:
            raise ValueError(f"coefficient file header has M = {M!r}, not a count")
        records: dict[int, tuple] = {}
        for ln in lines[1:]:
            rec = json.loads(ln)
            try:
                m, re, im = rec["m"], _num_parse(rec["re"]), _num_parse(rec["im"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed coefficient record {ln.strip()!r}") from exc
            if m in records:
                raise ValueError(f"duplicate coefficient record for m = {m}")
            if not 0 <= m <= M:
                raise ValueError(f"coefficient record m = {m} outside 0..M = {M}")
            records[m] = (re, im, rec.get("err"))
        absent = [m for m in range(1, M + 1) if m not in records]
        if absent:
            raise ValueError(
                f"coefficient file has {M - len(absent)} of the M = {M} records; "
                f"a_{absent[0]} is missing"
            )
        ordered = [records[m] for m in range(1, M + 1)]
        integral = all(isinstance(re, int) and im == 0 for re, im, _ in ordered)
        errors = [err for _, _, err in ordered]
        return cls(
            [complex(re, im) for re, im, _ in ordered],
            header["weight"],
            header["level"],
            header["sigma"],
            header["label"],
            a0=complex(*records.get(0, (0, 0))[:2]),
            exact=[re for re, _, _ in ordered] if integral else None,
            error_bound=header.get("error_bound", 0.0),
            per_coeff_error=errors if ordered and None not in errors else None,
            c_max=header.get("c_max"),
        )


_HEADER_KEYS = ("label", "weight", "level", "sigma", "M")


def _num_json(x: float):
    return int(x) if float(x).is_integer() else x


def _num_parse(x):
    if isinstance(x, str):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Integral series


def eta_product_coeffs(M: int) -> list[int]:
    """Coefficients of prod_{n >= 1} (1 - q^n)^24 up to q^{M-1}, exactly.

    Jacobi: (prod (1 - q^n))^3 = sum_{k >= 0} (-1)^k (2k+1) q^{k(k+1)/2},
    then three squarings.
    """
    size = M  # need exponents 0..M-1
    eta3 = [0] * size
    k = 0
    while k * (k + 1) // 2 < size:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    eta6 = _kronecker_mul(eta3, eta3, size)
    eta12 = _kronecker_mul(eta6, eta6, size)
    return _kronecker_mul(eta12, eta12, size)


def _kronecker_mul(a: list[int], b: list[int], size: int) -> list[int]:
    """The first ``size`` coefficients of the product of two integer
    polynomials (constant term first), exactly, by Kronecker substitution
    (Harvey, arXiv:0712.4046): each is packed into one integer with k bytes
    per coefficient and CPython's Karatsuba multiplies them.  The product's
    coefficients are below 2^(8k-1) in absolute value, so a bias of 2^(8k-1)
    per slot lets the bytes be read back in linear time."""
    a, b = a[:size], b[:size]
    if not a or not b:
        return [0] * max(size, 0)
    bound = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + min(len(a), len(b)).bit_length()
    k = bound // 8 + 1
    zero = bytes(k)

    def pack(poly: list[int]) -> int:
        pos = b"".join(c.to_bytes(k, "little") if c > 0 else zero for c in poly)
        neg = b"".join((-c).to_bytes(k, "little") if c < 0 else zero for c in poly)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    half = 1 << (8 * k - 1)
    bias = int.from_bytes((bytes(k - 1) + b"\x80") * size, "little")
    digits = ((pack(a) * pack(b) + bias) & ((1 << (8 * k * size)) - 1)).to_bytes(k * size, "little")
    return [int.from_bytes(digits[i : i + k], "little") - half for i in range(0, k * size, k)]


def delta_coeffs(M: int) -> CoeffSeries:
    """Ramanujan tau(1..M): Delta = q * prod (1 - q^n)^24, exact integers."""
    if M < 1:
        raise ValueError("need M >= 1")
    eta24 = eta_product_coeffs(M)
    tau = eta24[:M]  # tau(m) = coefficient of q^{m-1} in eta24
    return CoeffSeries(
        [complex(t) for t in tau],
        weight=12,
        level=1,
        sigma=6.0,
        label="delta",
        exact=list(tau),
    )


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
        [complex(c) for c in coeffs],
        weight=k,
        level=1,
        sigma=float(k),
        label=f"E{k}",
        a0=1 + 0j,
        exact=coeffs,
    )


def delta_delta_p(p: int, M: int) -> tuple[CoeffSeries, CoeffSeries]:
    """f(z) = Delta(z) Delta(pz) of weight 24 on Gamma0(p); g = f|W_p = f.

    c_m = sum_{i + p j = m, i, j >= 1} tau(i) tau(j).
    """
    tau = delta_coeffs(M).exact
    assert tau is not None
    tau_p = [0] * (M + 1)  # Delta(pz): tau(j) at q^{pj}
    tau_p[p::p] = tau[: M // p]
    c = _kronecker_mul([0, *tau], tau_p, M + 1)[1:]
    f = CoeffSeries(
        [complex(x) for x in c],
        weight=24,
        level=p,
        sigma=12.0,
        label=f"delta_delta_{p}",
        exact=c,
    )
    return f, f.copy_with(label=f"delta_delta_{p}_fricke")


def multiply(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Cauchy product of q-expansions; weight adds, the prefix length is
    min(M_f, M_g) (every needed coefficient of either factor is stored)."""
    M = min(f.M, g.M)
    exact: Optional[list[int]] = None
    if f.exact is not None and g.exact is not None:
        fa0 = int(f.a0.real) if f.a0 == int(f.a0.real) else None
        ga0 = int(g.a0.real) if g.a0 == int(g.a0.real) else None
        if fa0 is not None and ga0 is not None:
            exact = _kronecker_mul([fa0, *f.exact[:M]], [ga0, *g.exact[:M]], M + 1)[1:]
    if exact is not None:
        out = [complex(x) for x in exact]
    else:
        out = np.convolve([f.a0, *f.coeffs[:M]], [g.a0, *g.coeffs[:M]])[1 : M + 1].tolist()
    return CoeffSeries(
        out,
        weight=f.weight + g.weight,
        level=max(f.level, g.level),
        sigma=f.sigma + g.sigma + 1.0,
        label=f"({f.label})*({g.label})",
        a0=f.a0 * g.a0,
        exact=exact,
        error_bound=f.error_bound + g.error_bound,
    )


# ---------------------------------------------------------------------------
# Twisted Kloosterman sums and Eisenstein series


@dataclass
class KloostermanSum:
    """S_ups(m, c) = sum_{d mod c, (d,c)=1} conj(ups(gamma_{c,d})) e(m d / c)."""

    modulus: int
    frequency: int
    value: complex
    is_exact: bool = False
    exact_value: Optional[int] = None
    upsilon: Optional[MultiplierSystem] = None


def _ramanujan_sum(m: int, c: int) -> int:
    """c_c(m) = sum_{d | gcd(m, c)} d * mu(c / d)."""
    def mu(n: int) -> int:
        result = 1
        x = 2
        while x * x <= n:
            if n % x == 0:
                n //= x
                if n % x == 0:
                    return 0
                result = -result
            x += 1
        if n > 1:
            result = -result
        return result

    g = math.gcd(m, c) if m != 0 else c
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            total += d * mu(c // d)
    return total


def _kloosterman_row(upsilon: MultiplierSystem, c: int) -> np.ndarray:
    """S_ups(k, c) for k = 0..c-1 at once, for c > 1.

    v_d = conj(upsilon(gamma_{c,d})) for d coprime to c, else 0.  numpy's
    inverse FFT is (1/c) sum_d v_d e(k d / c), so c times it gives every
    frequency in O(c log c).
    """
    row = np.zeros(c, dtype=complex)
    for d in range(1, c):
        if math.gcd(c, d) == 1:
            row[d] = upsilon.bottom_row_angle(c, d).value().conjugate()
    return c * np.fft.ifft(row)


def twisted_kloosterman(p: int, upsilon: MultiplierSystem, m: int, c: int) -> KloostermanSum:
    """The multiplier-twisted sum S_ups(m, c) for p | c, c > 0.

    Well-defined because upsilon(S) = 1 makes the value independent of the
    choice of lift gamma_{c,d}; this is rejected otherwise.
    """
    if c <= 0 or c % p != 0:
        raise ValueError(f"modulus c = {c} must be a positive multiple of p = {p}")
    value = complex(_kloosterman_row(upsilon, c)[m % c])
    if upsilon.is_trivial():
        exact = _ramanujan_sum(m, c)
        assert abs(value - exact) < 1e-6 * max(1.0, abs(exact)), (m, c, value, exact)
        return KloostermanSum(c, m, complex(exact), True, exact, upsilon)
    return KloostermanSum(c, m, value, False, None, upsilon)


def _eis_tail_sum(p: int, w: int, c_max: int) -> float:
    """Bound on sum_{c > c_max, p | c} c^{1 - w} (triangle inequality uses
    |S_ups(m, c)| <= phi(c) <= c)."""
    t0 = c_max // p + 1
    # sum_{t >= t0} (p t)^{1 - w} <= p^{1-w} * (t0^{1-w} + integral)
    return p ** (1 - w) * (t0 ** (1 - w) + t0 ** (2 - w) / (w - 2))


def eisenstein_multiplier_coeffs(
    p: int,
    upsilon: MultiplierSystem,
    weight: int = 4,
    M: int = 50,
    c_max: Optional[int] = None,
) -> CoeffSeries:
    """Coefficients of the infinity-cusp Eisenstein series of even weight
    w >= 4 with multiplier upsilon on Gamma0(p), a_0 = 1, with per-run tail
    bound from truncating the c-sum at c_max."""
    if weight < 3:
        raise ValueError("the Eisenstein expansion diverges for weight < 3")
    if weight % 2 != 0:
        raise ValueError("even weights only")
    if c_max is None:
        c_max = 200 * p
    ms = np.arange(1, M + 1)
    sums = np.zeros(M, dtype=complex)
    for c in range(p, c_max + 1, p):
        sums += _kloosterman_row(upsilon, c)[ms % c] * float(c) ** (-weight)
    front = (-2j * np.pi) ** weight / math.factorial(weight - 1)
    coeffs = front * ms ** (weight - 1) * sums
    tail = _eis_tail_sum(p, weight, c_max)
    per_coeff_bound = (
        (2 * np.pi) ** weight * ms ** (weight - 1) / math.factorial(weight - 1) * tail
    )
    return CoeffSeries(
        list(coeffs),
        weight=weight,
        level=p,
        sigma=float(weight),
        label=f"eisenstein_p{p}_w{weight}",
        a0=1 + 0j,
        error_bound=float(np.max(per_coeff_bound)),
        per_coeff_error=[float(b) for b in per_coeff_bound],
        c_max=c_max,
    )


def eisenstein_tail_bound(p: int, weight: int, m: int, c_max: int) -> float:
    """The stated per-coefficient bound on the dropped c > c_max tail."""
    return (
        (2 * math.pi) ** weight
        * m ** (weight - 1)
        / math.factorial(weight - 1)
        * _eis_tail_sum(p, weight, c_max)
    )


# ---------------------------------------------------------------------------
# Numerical Fourier extraction


def coeffs_via_fourier_extraction(
    evaluator: Callable,
    k: int,
    y: float,
    M: int,
    label: str = "extracted",
    level: int = 1,
    growth_c: float = 1.0,
    growth_sigma: float = 12.0,
    eval_error: float = 0.0,
    dps: Optional[int] = None,
) -> CoeffSeries:
    """Recover b_m of an evaluator via b_m ~ e^{2 pi m y} int_0^1 F(x + iy) e(-m x) dx.

    Equispaced quadrature with N >= 4M nodes computes the integral exactly
    up to aliasing, so the per-coefficient error estimate is

        sum_{j >= 1} C (m + jN)^sigma e^{-2 pi j N y}  +  e^{2 pi m y} * eval_error,

    with (C, sigma) the supplied growth model of the unknown coefficients.
    The evaluator is called with an mpmath complex argument (wrap plain
    float evaluators as ``lambda z: f(complex(z))`` at the cost of float
    precision); working precision is raised with M*y so the e^{2 pi m y}
    amplification cannot drown the quadrature.  If the estimate exceeds
    10^{-3} the requested M is refused as unreachable at this height.
    """
    N = max(4 * M, 64)
    if dps is None:
        dps = int(2 * math.pi * M * y / math.log(10)) + 25
    errors = []
    for m in range(1, M + 1):
        alias = sum(
            growth_c * (m + j * N) ** growth_sigma * math.exp(-2 * math.pi * (j * N) * y)
            for j in range(1, 4)
        )
        errors.append(alias + math.exp(2 * math.pi * m * y) * eval_error)
    worst = max(errors)
    if not math.isfinite(worst) or worst > 1e-3:
        raise ValueError(
            f"requested M = {M} unreachable at height y = {y}: error estimate {worst:.2e}"
        )
    with mp.workdps(dps):
        nodes = [mp.mpf(n) / N for n in range(N)]
        values = [mp.mpc(evaluator(mp.mpc(x, y))) for x in nodes]
        root = mp.e ** (-2j * mp.pi / N)  # e(-1/N)
        coeffs = []
        for m in range(1, M + 1):
            total = mp.mpc(0)
            phase = mp.mpc(1)
            step = root**m
            for v in values:
                total += v * phase
                phase *= step
            total = total / N * mp.e ** (2 * mp.pi * m * y)
            coeffs.append(complex(total))
    return CoeffSeries(coeffs, k, level, growth_sigma, label, error_bound=worst, per_coeff_error=errors)


def series_evaluator(series: CoeffSeries):
    """An mpmath evaluator for the entire truncation a0 + sum a_m e(m z),
    Im z > 0, by Horner on Python-int fixed-point pairs.

    A call at working precision prec uses the scale 2^P, P = prec + guard +
    max(0, -floor(log2 max_m |a_m||q|^m)) with q = e(z), so the value keeps
    prec bits relative to sum |a_m||q|^m however small |q| is; the guard
    (bit length of M plus 16) covers the rounding of the M + 1 steps, and
    the value is returned unrounded.  The doubles are split exactly by
    frexp once; their scaled integers are cached for the last P only.
    """
    from mpmath.libmp import from_man_exp

    c = np.array([series.a0, *series.coeffs], dtype=complex)
    parts = np.stack([c.real, c.imag])
    if not np.all(np.isfinite(parts)):
        raise ValueError("cannot evaluate a series with non-finite coefficients")
    frac, exp = np.frexp(parts)
    # log2 |a_m| < max(exp_re, exp_im) + 1/2; a zero part counts as -inf
    log2_bound = np.where(parts == 0, -np.inf, exp).max(axis=0) + 0.5
    ms = np.arange(len(c))
    # a_m = (mant_re + i mant_im) 2^(exp - 53) exactly, kept from m = M down to 0
    mant, exp = (frac * 2.0**53).astype(np.int64)[:, ::-1], (exp - 53)[:, ::-1]
    guard = len(c).bit_length() + 16
    cache: dict[int, list[list[int]]] = {}

    def fixed(P: int) -> list[list[int]]:
        if P not in cache:
            cache.clear()
            cache[P] = [
                [x << (e + P) if e + P >= 0 else x >> -(e + P) for x, e in zip(xs.tolist(), es.tolist())]
                for xs, es in zip(mant, exp)
            ]
        return cache[P]

    def evaluate(z):
        z = mp.mpc(z)
        log2_q = -2 * math.pi * float(z.imag) / math.log(2)
        top = float(np.max(log2_bound + ms * log2_q, initial=-np.inf))
        if top == -np.inf:
            return mp.mpc(0)
        prec = mp.mp.prec
        P = prec + guard + max(0, -math.floor(top))
        Q = P + max(0, math.ceil(-log2_q))  # q's own scale: its rounding is relative to |q|
        with mp.workprec(prec + guard):
            q = mp.expjpi(2 * z)
        qr, qi = int(mp.ldexp(q.real, Q)), int(mp.ldexp(q.imag, Q))
        re = im = 0
        for cr, ci in zip(*fixed(P)):
            re, im = ((re * qr - im * qi) >> Q) + cr, ((re * qi + im * qr) >> Q) + ci
        return mp.make_mpc((from_man_exp(re, -P), from_man_exp(im, -P)))

    return evaluate


def slash_evaluator(evaluator, k: int, gamma):
    """An mpmath evaluator for (f|_k gamma) given one for f.

    gamma is a Mat2 or FrickeMat; the cocycle is evaluated in mpmath.
    """
    from .matrices import FrickeMat

    if isinstance(gamma, FrickeMat):
        p = gamma.p

        def evaluate(z):
            z = mp.mpc(z)
            w = -1 / (p * z)
            j = mp.sqrt(p) * z
            return j ** (-k) * evaluator(w)

        return evaluate

    a, b, c, d = gamma.entries()

    def evaluate(z):
        z = mp.mpc(z)
        w = (a * z + b) / (c * z + d)
        j = c * z + d
        return j ** (-k) * evaluator(w)

    return evaluate
