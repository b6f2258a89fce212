"""Fourier coefficient prefixes: Delta, Delta(z)Delta(pz), products, and
Eisenstein series attached to a general multiplier system.

Integral sources are exact: tau and Delta(z)Delta(pz) are eta products,
built by sparse multiplications with Jacobi's series for eta^3 on int64
limbs, and the exact branch of ``multiply`` is one Kronecker-substitution
product of Python integers.  The Eisenstein coefficients use the expansion
of the infinity-cusp series sum conj(upsilon(gamma)) j(gamma, z)^{-w} over
Gamma_infinity \\ Gamma0(p):

    a_0 = 1,
    a_m = (-2 pi i)^w m^{w-1} / (w-1)! * sum_{p | c, c > 0} c^{-w} S_ups(m, c),

where S_ups(m, c) = sum_{d mod c, (d, c) = 1} conj(upsilon(gamma_{c,d}))
e(m d / c) is a multiplier-twisted Kloosterman-type sum; every coefficient
carries the tail bound of the truncated c-sum.  The multiplier values of
every d of every modulus c come from one lane walk across the moduli
(MultiplierSystem.rows_values), and for each c one inverse FFT of length c
gives S_ups(m, c) for every residue of m at once.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from copy import copy
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Optional

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, fzero, mpc_expjpi, mpf_abs, mpf_neg, mpf_pos, mpf_shift, to_float, to_int

from .characters import _divisors, _mobius
from .matrices import lift_bottom_row, slash_evaluator  # kept importable from series
from .multiplier import MultiplierSystem
from .presentation import _require_level

_EPS = 4 * np.finfo(float).eps
_MAX_TERMS = 2000
_BLOCK = 32  # block length of series_evaluator's rectangular splitting
_MEMO_POINTS = 16384  # points eval_many's memo holds per coefficient matrix


# ---------------------------------------------------------------------------
# Gamma kernels (analytic re-exports them; tail_bound below needs them)


def cgamma(s: complex) -> complex:
    """Euler Gamma on the complex plane (poles at nonpositive integers),
    memoized on complex(s) for the last 1024 values; a pole (ValueError) or
    an overflow (OverflowError) raises each time and is not kept."""
    return _cgamma(complex(s))


@lru_cache(maxsize=1024)
def _cgamma(s: complex) -> complex:
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

    A series is not changed after construction: ``growth_c`` and the
    coefficient array behind ``as_array`` and ``eval_many`` are built from
    the coefficients once, and ``copy_with`` makes a new series, which
    shares them, and ``eval_many``'s memo, while it keeps the coefficients.
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
        self._set_growth_c()

    def _set_growth_c(self) -> None:
        try:
            moduli = list(map(abs, self.coeffs))
        except OverflowError:
            # abs raises on a finite coefficient whose modulus passes the
            # double range; hypot gives inf there, which the maximum keeps
            # (elsewhere hypot may round one ulp off abs, so abs comes first)
            moduli = [math.hypot(c.real, c.imag) for c in self.coeffs]
        powers = map(pow, range(1, self.M + 1), repeat(self.sigma))
        ratios = list(map(operator.truediv, moduli, powers))
        # max() passes over a NaN that is not first; a coefficient that is not finite bounds nothing
        self.growth_c = math.inf if any(map(math.isnan, ratios)) else max(ratios, default=0.0)

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
        """a_1..a_M as a read-only complex array, built once per series."""
        return self._blocks.reshape(-1)[: self.M]

    @cached_property
    def _blocks(self) -> np.ndarray:
        """a_1..a_M and zeros after them as a read-only (blocks x B) matrix,
        B = isqrt(M) (at least 1), row j holding a_{jB+1}..a_{jB+B}."""
        B = max(1, math.isqrt(self.M))
        blocks = np.zeros((-(-self.M // B), B), dtype=complex)
        blocks.reshape(-1)[: self.M] = self.coeffs
        blocks.flags.writeable = False
        return blocks

    def tail_bound(self, y):
        """Bound C sum_{m > M} m^sigma e^{-2 pi m y} on the dropped tail,
        elementwise over y > 0 (a scalar y gives a float): the one-pair view
        of :func:`tail_bounds`."""
        return tail_bounds([(self, y)])[0]

    def eval_truncated(self, z: complex) -> complex:
        """f(z) = a0 + sum_{m <= M} a_m e(m z), the entire truncation."""
        return complex(self.eval_many(np.array([z]))[0])

    @cached_property
    def _skippable(self) -> bool:
        """Whether every row of the coefficient matrix has sum |Re a| + |Im a|
        below 2^1000: its contraction with powers of modulus at most 1 is
        then finite, so a giant power of exactly 0 makes its term exactly 0."""
        blocks = self._blocks
        with np.errstate(over="ignore"):  # an inf sum is not below the bound
            return bool(np.all(np.abs(blocks.real).sum(axis=1) + np.abs(blocks.imag).sum(axis=1) < 2.0**1000))

    @cached_property
    def _memo(self) -> dict:
        """eval_many's block sums, a0 left out, keyed by the bytes of the
        point array, least recently used first."""
        return {}

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """a0 + sum_{m <= M} a_m q^m, q = e(z), at each z of a 1-d array, as
        sum_j (q^B)^j sum_{i <= B} a_{jB+i} q^i with B = isqrt(M): n (B + M/B)
        complex powers, integer powers below 100 (by repeated squaring) for
        M < 10^4.  einsum's own loop, not BLAS, contracts the powers with the
        series' (blocks x B) coefficient matrix, built once, so a value does
        not depend on the other points in the call.

        A block whose giant power is exactly 0 adds exactly 0 to the sum
        unless its contraction overflows (``_skippable``), so each point is
        contracted only against the blocks before :func:`_giant_reach`,
        rounded up to a multiple of 8, the points of one cut in one einsum.
        The sum still runs over the whole row, zeros included, so it adds in
        the order of the full contraction.

        The sums of an array are kept in a memo that lives with the
        coefficient matrix, keyed by the array's exact bytes, so an array
        evaluated again (a check that repeats a statement, or another series
        on the same coefficients) is not contracted again.  The sums leave
        a0 out, so copies with another a0 share the memo.  A value depends
        on its own point alone, so a kept sum is the one a new contraction
        would give, bit for bit.  The memo holds at most ``_MEMO_POINTS`` =
        16,384 points (512 KiB), and drops the least recently used arrays
        past that; a larger array is not kept.  The checks read an array
        again after at most 21 calls and 2,256 other points in
        ``reproduce-all`` and the converse-desk benchmark.  A sweep over the
        primitive psi mod q at p = 11, M = 3000 reads each residue's 370-550
        points once per psi: the bound keeps the sweeps through q = 43
        (15,708 points), and at q = 47 (17,204) every psi contracts afresh.
        """
        zs = np.asarray(zs, dtype=complex)
        key, memo = zs.tobytes(), self._memo
        sums = memo.pop(key, None)
        if sums is None:
            sums = self._block_sums(zs)
        if len(sums) <= _MEMO_POINTS:
            memo[key] = sums
            held = sum(map(len, memo.values()))
            while held > _MEMO_POINTS:
                held -= len(memo.pop(next(iter(memo))))
        return self.a0 + sums

    def _block_sums(self, zs: np.ndarray) -> np.ndarray:
        """sum_{m <= M} a_m e(m z) at each z, by eval_many's contraction."""
        qs = np.exp(2j * np.pi * zs)
        blocks = self._blocks
        J = len(blocks)
        baby = qs[:, None] ** np.arange(1, blocks.shape[1] + 1)
        cuts = np.full(len(qs), J)
        if self._skippable:
            cuts = np.minimum(-(-_giant_reach(baby[:, -1], J) // 8) * 8, J)
        terms = np.zeros((len(qs), J), dtype=complex)
        for cut in set(cuts.tolist()):
            rows = cuts == cut
            some = baby[rows]
            inner = np.einsum("nb,jb->nj", some, blocks[:cut])
            inner *= some[:, -1:] ** np.arange(cut)
            terms[rows, :cut] = inner
        return np.sum(terms, axis=1)

    def copy_with(self, **kwargs) -> "CoeffSeries":
        """A copy with the given fields replaced; ``exact`` and ``per_coeff_error`` are shared.

        A copy that keeps the coefficients shares their list and the
        coefficient matrix with its ``_skippable`` flag and ``eval_many``'s
        memo (built here if they were not yet), and ``growth_c`` unless sigma
        is replaced.  One that replaces them is built afresh.
        """
        # new coefficients are built afresh, and replace names an unknown field
        if "coeffs" in kwargs or not kwargs.keys() <= self.__dataclass_fields__.keys():
            return replace(self, **kwargs)
        self._skippable, self._memo
        clone = copy(self)
        vars(clone).update(kwargs)
        if "sigma" in kwargs:
            clone._set_growth_c()
        return clone

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
        Every header value and record field must have its JSON type; re, im
        and sigma must be finite, and err and error_bound at least 0 (inf is
        a bound, NaN is not).
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("coefficient file is empty")
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError("coefficient file header is not a JSON object")
        missing = [key for key in _HEADER_TYPES if key not in header]
        if missing:
            raise ValueError(f"coefficient file header lacks {', '.join(missing)}")
        for key, kind in {**_HEADER_TYPES, **_OPTIONAL_HEADER_TYPES}.items():
            value = header.get(key)
            if (key in _HEADER_TYPES or value is not None) and not _is(value, kind):
                raise ValueError(f"coefficient file header has {key} = {value!r}, of the wrong type")
        M, sigma, bound = header["M"], header["sigma"], header.get("error_bound") or 0.0
        if M < 0:
            raise ValueError(f"coefficient file header has M = {M!r}, not a count")
        if not _finite(sigma) or not bound >= 0:  # an inf bound holds; a NaN or negative one does not
            raise ValueError(f"coefficient file header needs a finite sigma and error_bound >= 0: {sigma!r}, {bound!r}")
        records: dict[int, tuple] = {}
        for ln in lines[1:]:
            rec = json.loads(ln)
            try:
                m, re, im, err = rec["m"], _num_parse(rec["re"]), _num_parse(rec["im"]), rec.get("err")
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed coefficient record {ln.strip()!r}") from exc
            if not (_is(m, int) and _is(re, _NUMBER) and _is(im, _NUMBER) and (err is None or _is(err, _NUMBER))):
                raise ValueError(f"malformed coefficient record {ln.strip()!r}")
            if not (_finite(re) and _finite(im) and (err is None or err >= 0)):
                raise ValueError(f"coefficient record {ln.strip()!r} needs finite re and im and an err >= 0")
            if m in records:
                raise ValueError(f"duplicate coefficient record for m = {m}")
            if not 0 <= m <= M:
                raise ValueError(f"coefficient record m = {m} outside 0..M = {M}")
            records[m] = (re, im, err)
        count = len(records) - (0 in records)
        if count < M:
            absent = next(m for m in range(1, M + 1) if m not in records)
            raise ValueError(f"coefficient file has {count} of the M = {M} records; a_{absent} is missing")
        ordered = [records[m] for m in range(1, M + 1)]
        integral = all(isinstance(re, int) and im == 0 for re, im, _ in ordered)
        errors = [err for _, _, err in ordered]
        return cls(
            [complex(re, im) for re, im, _ in ordered],
            header["weight"],
            header["level"],
            sigma,
            header["label"],
            a0=complex(*records.get(0, (0, 0))[:2]),
            exact=[re for re, _, _ in ordered] if integral else None,
            error_bound=bound,
            per_coeff_error=errors if ordered and None not in errors else None,
            c_max=header.get("c_max"),
        )


def _giant_reach(qb: np.ndarray, J: int) -> np.ndarray:
    """For each q^B of a 1-d array, the least j <= J with
    j log2 |q^B| < -1100, or J: from there on the true (q^B)^j is below
    2^-1100, and numpy's power rounds it to exactly 0 (each factor of its
    binary power is at most |q^B|, and past j = 99 it takes exp of
    j log q).  The tests check this, not assume it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_qb = np.log2(np.abs(qb))
        return np.minimum(np.where(log2_qb < 0, np.floor(-1100 / log2_qb) + 1, J), J).astype(int)


def tail_bounds(pairs) -> list:
    """``CoeffSeries.tail_bound(y)`` of each (series, y) pair, with one
    ``upper_incomplete_gamma`` call per distinct sigma across the pairs.

    The bound on C sum_{m > M} m^sigma e^{-2 pi m y}: with
    h(x) = x^sigma e^{-t x}, t = 2 pi y, m0 = M + 1, the smaller of
    h(m0)/(1 - r) if r = ((m0 + 1)/m0)^sigma e^{-t} < 1 (term ratios fall
    from r) and max h + Gamma(sigma + 1, t m0)/t^(sigma + 1) (h is
    unimodal), times 1 + 1e-12.  The sum is at least h(m0)/(1 - e^{-t}), so
    where that puts the first within 5% the second is not computed.  A
    growth constant of 0 bounds the tail by 0, and of inf by inf.  Every
    step is elementwise, so a bound does not depend on the other pairs.
    """
    bounds, pending = [], {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf is a bound
        for series, y in pairs:
            ys = np.atleast_1d(np.asarray(y, dtype=float))
            if series.growth_c in (0, math.inf):  # C = 0 or inf, whatever the sum
                bounds.append(np.ones(ys.shape))
                continue
            t, m0, sigma = 2 * np.pi * ys, series.M + 1, series.sigma
            r = (1 + 1 / m0) ** sigma * np.exp(-t)
            bound = np.where(r < 1, np.exp(sigma * math.log(m0) - t * m0) / (1 - r), np.inf)
            loose = -np.expm1(-t) > 1.05 * (1 - r)
            if loose.any():
                pending.setdefault(float(sigma), []).append((bound, loose, t[loose], m0))
            bounds.append(bound)
        for sigma, parts in pending.items():
            xs = np.concatenate([tl * m0 for _, _, tl, m0 in parts])
            ends = np.cumsum([len(tl) for _, _, tl, _ in parts])[:-1]
            for (bound, loose, tl, m0), gamma in zip(parts, np.split(upper_incomplete_gamma(sigma + 1, xs).real, ends)):
                peak = np.maximum(m0, sigma / tl)
                top = np.exp(sigma * np.log(peak) - tl * peak)
                bound[loose] = np.minimum(bound[loose], top + gamma / tl ** (sigma + 1))
        out = [series.growth_c * bound * (1 + 1e-12) for (series, _), bound in zip(pairs, bounds)]
    return [float(b[0]) if np.ndim(y) == 0 else b for (_, y), b in zip(pairs, out)]


_NUMBER = (int, float)
# the JSON types of the header keys a file must carry, and of the others
_HEADER_TYPES = {"label": str, "weight": int, "level": int, "sigma": _NUMBER, "M": int}
_OPTIONAL_HEADER_TYPES = {"error_bound": _NUMBER, "c_max": int}


def _is(value, kind) -> bool:
    """isinstance, except that a JSON true or false is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(x) -> bool:
    """Whether a JSON number is finite; json reads NaN, Infinity and 1e400 as floats."""
    return not isinstance(x, float) or math.isfinite(x)


def _num_json(x: float):
    return int(x) if float(x).is_integer() else x


def _num_parse(x):
    if isinstance(x, str):
        return int(x)
    return x


# ---------------------------------------------------------------------------
# Integral series


def eta_product_coeffs(M: int) -> list[int]:
    """Coefficients of prod_{n >= 1} (1 - q^n)^24 up to q^{M-1}, exactly:
    :func:`_eta_power_product` with the one dilation 1."""
    return _eta_power_product(M, (1,))


def _eta_power_product(M: int, dilations: tuple[int, ...]) -> list[int]:
    """Coefficients of prod_{d in dilations} prod_{n >= 1} (1 - q^{dn})^24
    up to q^{M-1}, exactly, in sparse Jacobi steps on int64 limbs.

    Jacobi: prod (1 - q^n)^3 = sum_{k >= 0} (-1)^k (2k+1) q^{k(k+1)/2}, so
    each dilation d is eight multiplications by a series of the K terms
    with d k(k+1)/2 < M.  The running product is signed base-2^31 limbs,
    one int64 column each, carried into [-2^30, 2^30) after every step
    (:func:`_carried`).  The K coefficients sum to K^2 in absolute value,
    so no partial sum of a step reaches 2^62 while K^2 < 2^32.  The limbs
    become Python ints once, at the end, two at a time as int64 digits in
    base 2^62.
    """
    if M < 0 or min(dilations) < 1:
        raise ValueError(f"need M >= 0 and dilations >= 1, got M = {M}, dilations {dilations}")
    jacobi = []
    for d in dilations:
        terms, k = [], 0
        while d * k * (k + 1) // 2 < M:
            terms.append((d * k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
            k += 1
        if len(terms) ** 2 >= 2**32:
            raise ValueError(f"M = {M} needs {len(terms)} Jacobi terms; the int64 limbs allow at most 65535")
        jacobi.append(terms)
    limbs = np.zeros((M, 1), dtype=np.int64)
    limbs[:1] = 1
    for terms in jacobi:
        for _ in range(8):
            step = np.zeros_like(limbs)
            for e, c in terms:
                step[e:] += c * limbs[: M - e]
            limbs = _carried(step)
    # limb pairs as base-2^62 digits, each below 2^61 + 2^30 in absolute value
    limbs = np.pad(limbs, ((0, 0), (0, limbs.shape[1] % 2)))
    digits = limbs[:, 0::2] + (limbs[:, 1::2] << 31)
    out = digits[:, -1].tolist()
    for column in digits.T[-2::-1]:
        out = [(x << 62) + y for x, y in zip(out, column.tolist())]
    return out


def _carried(limbs: np.ndarray) -> np.ndarray:
    """The same integers with every base-2^31 limb in [-2^30, 2^30), limb
    columns added at the top while a carry is left."""
    i = 0
    while i < limbs.shape[1]:
        carry = (limbs[:, i] + (1 << 30)) >> 31
        limbs[:, i] -= carry << 31
        if i + 1 < limbs.shape[1]:
            limbs[:, i + 1] += carry
        elif carry.any():
            limbs = np.column_stack([limbs, carry])
        i += 1
    return limbs


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
    product = pack(a) * pack(b)
    digits = ((product + bias) & ((1 << (8 * k * size)) - 1)).to_bytes(k * size, "little")
    return [int.from_bytes(digits[i : i + k], "little") - half for i in range(0, k * size, k)]


def delta_coeffs(M: int) -> CoeffSeries:
    """Ramanujan tau(1..M): Delta = q * prod (1 - q^n)^24, exact integers."""
    if M < 1:
        raise ValueError("need M >= 1")
    tau = eta_product_coeffs(M)  # tau(m) = coefficient of q^{m-1} in eta^24
    return CoeffSeries(tau, weight=12, level=1, sigma=6.0, label="delta", exact=tau)


def delta_delta_p(p: int, M: int) -> tuple[CoeffSeries, CoeffSeries]:
    """f(z) = Delta(z) Delta(pz) of weight 24 on Gamma0(p); g = f|W_p = f.

    f = q^{1+p} prod (1 - q^n)^24 (1 - q^{pn})^24, so c_m, which is
    sum_{i + p j = m, i, j >= 1} tau(i) tau(j), is coefficient m - 1 - p of
    :func:`_eta_power_product` with the dilations (1, p).
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    c = [0] * min(p, M) + _eta_power_product(max(M - p, 0), (1, p))
    f = CoeffSeries(
        c,
        weight=24,
        level=p,
        sigma=12.0,
        label=f"delta_delta_{p}",
        exact=c,
    )
    return f, f.copy_with(label=f"delta_delta_{p}_fricke")


def multiply(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Cauchy product of q-expansions; weight adds, the prefix length is
    min(M_f, M_g) (every needed coefficient of either factor is stored).

    Two exact factors give an exact product.  Otherwise the product is one
    complex convolution a * b of a = [a_0..a_M] and b = [b_0..b_M]; its
    coefficient m carries the bound (1 + 2 gamma) times
    (|a| * e_b + gamma (|a| * |b|) + e_a * (|b| + e_b))_m, with e the
    factors' bounds (:func:`_coeff_errors`) and
    gamma = (M + 3) u / (1 - (M + 3) u), u = 2^-53.  The e terms cover any
    true factors within their bounds, gamma (|a| * |b|) the rounding of a
    complex inner product of length M + 1 (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., §3.6), 1 + 2 gamma the rounding of
    the bound itself, and (M + 1) 2^-1072 the underflow, at most 2^-1075 a
    product, of the convolutions.  gamma multiplies |a| * |b| after the
    convolution: gamma |b_j| would flush to 0 for a subnormal b_j whose
    product with a large a_i is a normal number.
    """
    M = min(f.M, g.M)
    exact: Optional[list[int]] = None
    if f.exact is not None and g.exact is not None and (f.a0, g.a0) == (int(f.a0.real), int(g.a0.real)):
        exact = _kronecker_mul([int(f.a0.real), *f.exact[:M]], [int(g.a0.real), *g.exact[:M]], M + 1)[1:]
    per_coeff: Optional[list[float]] = None
    if exact is not None:
        out = exact
    else:
        a, b = np.array([f.a0, *f.coeffs[:M]]), np.array([g.a0, *g.coeffs[:M]])
        out = np.convolve(a, b)[1 : M + 1].tolist()
        ea, eb = _coeff_errors(f, M), _coeff_errors(g, M)
        gamma = (M + 3) * 2.0**-53 / (1 - (M + 3) * 2.0**-53)
        bound = np.convolve(abs(a), eb) + gamma * np.convolve(abs(a), abs(b)) + np.convolve(ea, abs(b) + eb)
        per_coeff = ((1 + 2 * gamma) * bound[1 : M + 1] + (M + 1) * 2.0**-1072).tolist()
    return CoeffSeries(
        out,
        weight=f.weight + g.weight,
        level=max(f.level, g.level),
        sigma=f.sigma + g.sigma + 1.0,
        label=f"({f.label})*({g.label})",
        a0=f.a0 * g.a0,
        exact=exact,
        error_bound=max(per_coeff or [0.0]),
        per_coeff_error=per_coeff,
    )


def _coeff_errors(f: CoeffSeries, M: int) -> np.ndarray:
    """Bounds on a_0..a_M: 0 at the exact a_0, then per_coeff_error, or
    error_bound for every m >= 1 when f states no per-coefficient bounds."""
    stated = f.per_coeff_error[:M] if f.per_coeff_error is not None else [f.error_bound] * M
    return np.array([0.0, *stated], dtype=float)


# ---------------------------------------------------------------------------
# Twisted Kloosterman sums and Eisenstein series


@dataclass
class KloostermanSum:
    """S_ups(m, c) = sum_{d mod c, (d,c)=1} conj(ups(gamma_{c,d})) e(m d / c)."""

    value: complex
    is_exact: bool = False
    exact_value: Optional[int] = None


def _ramanujan_sum(m: int, c: int) -> int:
    """c_c(m) = sum_{d | gcd(m, c)} d * mu(c / d)."""
    return sum(d * _mobius(c // d) for d in _divisors(math.gcd(m, c)))


def _kloosterman_rows(upsilon: MultiplierSystem, moduli):
    """S_ups(k, c) for k = 0..c-1 at once, for each c > 1 of moduli in turn.

    v_d = conj(upsilon(gamma_{c,d})) for d coprime to c, else 0, with the
    values of every row from one lane walk across the moduli
    (MultiplierSystem.rows_values).  numpy's inverse FFT is
    (1/c) sum_d v_d e(k d / c), so c times it gives every frequency in
    O(c log c).  A reflection-symmetric upsilon has v_{c-d} = conj v_d, so
    every sum is real: the row is then the real part of the same FFT,
    float, and its imaginary part, FFT rounding, is dropped.  (An ``irfft``
    of half the spectrum would move the real parts themselves, criterion
    10's coefficients by up to 5e-14 relative.)
    """
    moduli = list(moduli)
    for c, (ds, values) in zip(moduli, upsilon.rows_values(moduli)):
        row = np.zeros(c, dtype=complex)
        row[ds] = values.conjugate()
        sums = c * np.fft.ifft(row)
        yield sums.real if upsilon.reflection_symmetric else sums


def twisted_kloosterman(p: int, upsilon: MultiplierSystem, m: int, c: int) -> KloostermanSum:
    """The multiplier-twisted sum S_ups(m, c) for p | c, c > 0.

    Well-defined because upsilon(S) = 1 makes the value independent of the
    choice of lift gamma_{c,d}; this is rejected otherwise, and so are a p
    other than upsilon's level and a c that is not a positive multiple of p
    (MultiplierSystem.rows_angles).
    """
    _require_level(p, upsilon)
    value = complex(next(_kloosterman_rows(upsilon, [c]))[m % c])
    if upsilon.is_trivial():
        exact = _ramanujan_sum(m, c)
        assert abs(value - exact) < 1e-6 * max(1.0, abs(exact)), (m, c, value, exact)
        return KloostermanSum(complex(exact), True, exact)
    return KloostermanSum(value)


def _eis_tail_sum(p: int, w: int, c_max: int) -> float:
    """Bound on sum_{c > c_max, p | c} c^{1 - w} (triangle inequality uses
    |S_ups(m, c)| <= phi(c) <= c)."""
    if c_max < p:
        raise ValueError(f"need c_max >= p = {p}")
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
    bound from truncating the c-sum at c_max.  When upsilon is reflection
    symmetric every Kloosterman row is real, and so is every coefficient:
    its imaginary part is exactly 0."""
    _require_level(p, upsilon)
    if weight < 3:
        raise ValueError("the Eisenstein expansion diverges for weight < 3")
    if weight % 2 != 0:
        raise ValueError("even weights only")
    if M < 1:
        raise ValueError("need M >= 1")
    if c_max is None:
        c_max = 200 * p
    ms = np.arange(1, M + 1)
    per_coeff_bound = eisenstein_tail_bound(p, weight, ms, c_max)  # rejects c_max < p before any walk
    sums = np.zeros(M, dtype=complex)
    moduli = range(p, c_max + 1, p)
    for c, row in zip(moduli, _kloosterman_rows(upsilon, moduli)):
        sums += row[ms % c] * float(c) ** (-weight)
    front = (-2j * np.pi) ** weight / math.factorial(weight - 1)
    coeffs = front * _float_powers(ms, weight - 1) * sums
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


def _float_powers(ms, e: int) -> np.ndarray:
    """m^e for each m, each power taken on exact integers and then rounded
    once to a float, so it neither wraps (as an int64 power would past
    2^63) nor picks up the rounding of a float power."""
    return np.array([float(int(m) ** e) for m in np.ravel(ms)]).reshape(np.shape(ms))


def eisenstein_tail_bound(p: int, weight: int, m, c_max: int):
    """The stated bound on the dropped c > c_max tail of a_m, for an int m
    (a float back) or elementwise over an array of m."""
    bound = (
        (2 * math.pi) ** weight
        * _float_powers(m, weight - 1)
        / math.factorial(weight - 1)
        * _eis_tail_sum(p, weight, c_max)
    )
    return float(bound) if np.ndim(m) == 0 else bound


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
) -> CoeffSeries:
    """Recover b_m of an evaluator via b_m ~ e^{2 pi m y} int_0^1 F(x + iy) e(-m x) dx.

    Equispaced quadrature with N >= 4M nodes computes the integral exactly
    up to aliasing, so the per-coefficient error estimate is

        sum_{j >= 1} C (m + jN)^sigma e^{-2 pi j N y}  +  e^{2 pi m y} * eval_error,

    with (C, sigma) the supplied growth model of the unknown coefficients.
    Each stated error then adds u (|Re b_m| + |Im b_m|), u = 2^-53, the
    rounding of the returned double, and ``error_bound`` is the largest; an
    alias and evaluation estimate above 10^{-3} refuses the requested M as
    unreachable at this height (ValueError).

    F must be exactly 1-periodic.  The nodes are x = n/N for n in
    (-N/2, N/2], taken in mirror pairs 0, 1, -1, ..., N/2 (so that
    ``series_evaluator`` answers the second of a real series' pair by
    conjugation), and the value at x is stored at index n mod N.  A nearly
    periodic F gives an N-dependent answer that the stated errors do not
    cover: criterion 10's f|W_p, its Eisenstein sum cut at c_max = 40p,
    differs by 4.4e-6 relative between x = +-1/2, and its b_80 moves by 13%
    when N = 256 replaces 320, with stated terms below 4e-49 at both.

    The evaluator is called with an mpmath complex argument (wrap plain
    float evaluators as ``lambda z: f(complex(z))`` at the cost of float
    precision); working precision is raised with M*y so the e^{2 pi m y}
    amplification cannot drown the quadrature; the sums over the nodes are
    exact integer sums rounded once (``_node_sums``).  M < 1, a height y
    that is not finite and positive, and a non-finite value (named by its
    node n mod N) raise ValueError.
    """
    if M < 1:
        raise ValueError(f"need M >= 1 coefficients, got M = {M}")
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"need a finite height y > 0, got y = {y}")
    N = max(4 * M, 64)
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
    values = [None] * N
    with mp.workdps(dps):
        # x = n/N for n in (-N/2, N/2] (N is even), each mirror pair in turn
        for n in [0, *(s * n for n in range(1, N // 2) for s in (1, -1)), N // 2]:
            values[n % N] = mp.mpc(evaluator(mp.mpc(mp.mpf(n) / N, y)))
        sums = _node_sums(values, M)
        coeffs = [complex(total / N * mp.e ** (2 * mp.pi * m * y)) for m, total in enumerate(sums, start=1)]
    # each returned double carries its own rounding as well
    errors = [e + 2.0**-53 * (abs(b.real) + abs(b.imag)) for e, b in zip(errors, coeffs)]
    return CoeffSeries(coeffs, k, level, growth_sigma, label, error_bound=max(errors), per_coeff_error=errors)


def _node_sums(values: list, M: int) -> list:
    """sum_n values[n] r_{m n mod N}, N = len(values), for m = 1..M, at the
    working precision, with r_n = e(-n/N) for n <= N/2 and r_{N-n} = conj r_n.

    The values, and the roots, are written as exact integer mantissas over
    one common power of two.  Each sum is folded over the mirror pairs n and
    N - n, since r_{m(N-n)} = conj r_{mn}: with A_n = v_n + v_{N-n} and
    D_n = v_n - v_{N-n}, Re S = sum Re A Re r - sum Im D Im r and
    Im S = sum Im A Re r + sum Re D Im r over n <= N/2.  Each is taken
    exactly and rounded once to nearest: the correctly rounded sum over the
    symmetric root table, which ``mp.fdot`` also gives whenever the exponents
    of its products span under twice the precision.  A non-finite value
    raises ValueError.

    The exact sums are float64 GEMMs of base-2^16 digits (:func:`_exact_matmul`):
    the digits of (Re A, -Im D) and of (Im A, Re D) against those of
    (Re r, Im r) at the nodes m n mod N, contracted over the 2 (N/2 + 1)
    folded terms, so every entry is an integer of magnitude at most
    2 (N/2 + 1) (2^16 - 1)^2, exact below 2^53; past 2,097,216 terms the
    contraction is split.  The digit products are added at their limbs in
    int64, at most min(value digits, root digits) to a limb.  The m range is
    taken in chunks whose gathered root digits hold at most 2^15 floats, or
    one m, so no array grows with M N.
    """
    N = len(values)
    bad = next((n for n, v in enumerate(values) if not mp.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"evaluator gave {values[bad]} at node {bad}/{N}")
    prec, half = mp.mp.prec, N // 2
    vr, vi, ev = _exact_parts(values)
    rr, ri, er = _exact_parts([mp.expjpi(-2 * (mp.mpf(n) / N)) for n in range(half + 1)])
    rr += rr[N - half - 1 : 0 : -1]  # r_{N-n} = conj r_n
    ri += [-x for x in ri[N - half - 1 : 0 : -1]]
    # v_n r + v_{N-n} conj r = A_n Re r + i D_n Im r; a node that is its own
    # mirror (0, and N/2 for even N) takes A = D = v_n, which is v_n r exactly
    def fold(v, sign):
        return [v[n] + sign * v[N - n] if 0 < n < N - n else v[n] for n in range(half + 1)]

    folded = [*fold(vr, 1), *fold(vi, 1), *fold(vr, -1), *fold(vi, -1)]
    vd, rd = _digit_count(folded), _digit_count(rr + ri)
    terms = 2 * (half + 1)
    if terms * min(vd, rd) * _DIGIT**2 >= 2**63:
        raise ValueError(f"{N} nodes of {min(vd, rd)} digits could pass the int64 limbs")
    ar, ai, dr, di = _digit_rows(folded, vd).reshape(4, half + 1, vd)
    # row (part of S, value digit), column (part of r, node)
    by_part = np.stack([[ar, -di], [ai, dr]]).transpose(0, 3, 1, 2).reshape(2 * vd, terms)
    roots = _digit_rows(rr + ri, rd).reshape(2, N, rd)
    nodes, sums = np.arange(half + 1), []
    chunk = max(1, 2**15 // (terms * rd))
    for lo in range(1, M + 1, chunk):
        ms = np.arange(lo, min(lo + chunk, M + 1))
        # column (m, root digit): the root digits at the nodes m n mod N
        turned = roots[:, np.outer(nodes, ms) % N].reshape(terms, len(ms) * rd)
        products = _exact_matmul(by_part, turned).reshape(2, vd, len(ms), rd)
        # a value digit b times a root digit a lands at limb a + b
        limbs = np.zeros((2, len(ms), vd + rd - 1), dtype=np.int64)
        for b in range(vd):
            limbs[:, :, b : b + rd] += products[:, b]
        parts = _limb_ints(limbs.reshape(2 * len(ms), -1))
        for re, im in zip(parts[: len(ms)], parts[len(ms) :]):
            sums.append(mp.make_mpc((from_man_exp(re, ev + er, prec, "n"), from_man_exp(im, ev + er, prec, "n"))))
    return sums


def _exact_parts(zs: list) -> tuple[list[int], list[int], int]:
    """Finite mpc values as exact integers over one common power of two:
    z = (re + i im) 2^e for each z."""
    parts = [x for z in zs for x in z._mpc_]
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    ints = [((-man if sign else man) << (exp - e)) if man else 0 for sign, man, exp, _ in parts]
    return ints[0::2], ints[1::2], e


_DIGIT = 2**16 - 1  # the largest magnitude of a base-2^16 digit of _digit_rows
_RUN = 2**53 // _DIGIT**2  # 2,097,216 digit products sum to an integer below 2^53


def _digit_count(xs: list[int]) -> int:
    """The number of base-2^16 digits :func:`_digit_rows` needs for every x
    of xs: the least count with |x| < 2^(16 count - 1), at least 1."""
    return max(map(int.bit_length, xs), default=0) // 16 + 1


def _digit_rows(xs: list[int], count: int) -> np.ndarray:
    """Each signed integer x of xs as a float64 row of ``count`` base-2^16
    digits d_k, least significant first, with x = sum_k d_k 2^(16 k): its
    two's complement digits, each in [0, 2^16) but the top one, in
    [-2^15, 2^15), read as the digits of x + 2^(16 count - 1) with 2^15 taken
    off the top one.  An x outside [-2^(16 count - 1), 2^(16 count - 1))
    raises OverflowError."""
    half = 1 << (16 * count - 1)
    data = b"".join(map(int.to_bytes, [x + half for x in xs], repeat(2 * count), repeat("little")))
    digits = np.frombuffer(data, dtype="<u2").reshape(len(xs), count).astype(float)
    digits[:, -1] -= 2.0**15
    return digits


def _exact_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right as int64, exactly, for float64 matrices of integers of
    magnitude at most 2^16 - 1 (base-2^16 digits, :func:`_digit_rows`).

    Each float64 GEMM contracts at most _RUN terms, whose sum is an integer
    below 2^53 in magnitude in any order of addition, so it is exact (Ozaki,
    Ogita, Oishi and Rump, Numer. Algorithms 59, 2012); a longer contraction
    is split there and its parts added in int64.  A contraction that could
    pass 2^63 raises ValueError.
    """
    T = left.shape[1]
    if T * _DIGIT**2 >= 2**63:
        raise ValueError(f"a contraction of {T} digit products could pass the int64 range")
    out = (left[:, :_RUN] @ right[:_RUN]).astype(np.int64)
    for i in range(_RUN, T, _RUN):
        out += (left[:, i : i + _RUN] @ right[i : i + _RUN]).astype(np.int64)
    return out


def _limb_ints(limbs: np.ndarray) -> list[int]:
    """sum_k limbs[r, k] 2^(16 k) for each row r of an int64 matrix, exactly.

    Each limb is biased by 2^63 into [0, 2^64), and limbs k = 4t + s, for
    s = 0..3, lie 64 bits apart: the biased limbs of stream s of every row
    are the 64-bit words of one integer, row r at word r T, with T words a
    row, enough that a row's biased sum stays below 2^(64 T).  Four
    ``from_bytes`` reads and three shifts add the streams into one integer,
    which holds each row's biased sum in its own 64 T bits; each row is then
    read out and its bias taken off."""
    R, K = limbs.shape
    T = (16 * K + 112) // 64  # the biased sum of a row is below 2^(16 K + 49)
    words = np.zeros((R, 4 * T), dtype=np.uint64)
    words[:, :K] = limbs.view(np.uint64) ^ np.uint64(2**63)  # l + 2^63 for every int64 l
    data = words.reshape(R, T, 4).transpose(2, 0, 1).astype("<u8").tobytes()
    size = 8 * T * R
    total = sum(int.from_bytes(data[s * size : (s + 1) * size], "little") << 16 * s for s in range(4))
    data, step = total.to_bytes(size, "little"), 8 * T
    bias = 2**63 * ((1 << 16 * K) - 1) // _DIGIT  # 2^63 sum_{k < K} 2^(16 k)
    return [int.from_bytes(data[o : o + step], "little") - bias for o in range(0, size, step)]


def series_evaluator(series: CoeffSeries):
    """An mpmath evaluator for the entire truncation a0 + sum a_m e(m z),
    Im z > 0, in Python-int fixed point by rectangular splitting (Paterson
    and Stockmeyer, SIAM J. Comput. 2, 1973).

    A call at working precision prec uses the scale 2^P, P = prec + guard +
    max(0, -floor(top)), top = log2 max_m |a_m||q|^m with q = e(z), so the
    value keeps prec bits relative to sum |a_m||q|^m however small |q| is;
    the guard is the bit length of M plus 16, and the value is returned
    unrounded.  Only the terms up to the last m whose bound on
    log2 |a_m||q|^m is at least -P - 1 - log2(M + 1), less one bit for the
    float log2 |q|, are summed: the rest add up to under half a unit at
    2^-P.  Those K terms are taken in blocks of B = 32, whole blocks, so
    K' <= K + B - 1 terms.  Each block's doubles are held once as exact
    integers over the least binary exponent in the block.  Per point, q is
    rounded to the scale Q = P + max(0, ceil(-log2 |q|)) and its powers
    q^0..q^B are taken at the finer scale Qb = Q + max(0, ceil(top)) +
    ceil(-(B - 1) log2 |q|) + 2 bitlen(K') + 2.

    Each block sum is exact.  The n = K'/B block sums of a point come from
    one float64 GEMM of base-2^16 digits (:func:`_exact_matmul`): the
    series' coefficient-digit matrix, built once, whose row j holds the d
    digits of each of block j's integers, the Re a_m and, unless a0 and
    every a_m have imaginary part exactly 0, the Im a_m; against the digits
    of Re q^i and Im q^i for i < B (and of -Im q^i and Re q^i, the parts of
    i q^i, for the Im a_m), moved up by each coefficient digit's place, so
    that the GEMM adds every digit product at its 16-bit limb.  Every part
    of a power is below 2^(Qb + 1) (the rounded q has |q| <= 1, and each of
    the B - 1 products adds under one unit), every digit has magnitude at
    most 2^16 - 1, and an entry sums at most 2B d digit products (d <= 132
    for doubles), so each is an integer below 2^53 and exact.  The limbs
    give the block sums as Python integers (:func:`_limb_ints`): the
    integers of a Gauss three-product block sum, so the value does not
    depend on the GEMM.  Each is rounded once to 2^-P, and an outer Horner
    in q^B joins the blocks.
    Rounding to nearest at those two places costs at most sqrt(2)/2 units
    at 2^-P each, and the rounded powers at most one unit in all, so the
    value is within sqrt(2) K'/B + 3/2 units at 2^-P of the sum over the
    rounded q.

    q is taken as e(|Re z| + i Im z) by libmp's ``mpc_expjpi``, conjugated
    when Re z < 0, and every rounding to nearest breaks ties away from zero
    (``_rounded``).  Each step is then odd in the imaginary parts, so for a
    real series (a0 and every a_m of imaginary part exactly 0) the value at
    -conj z is the conjugate of the value at z, bit for bit.  The evaluator
    keeps the previous call of a real series: when the next point is its
    exact mirror at the same precision, it returns that value with the
    imaginary mpf negated exactly.  (``mp.conj`` would round the unrounded
    value to the working precision.)  A complex series is always evaluated
    afresh.
    """
    c = np.array([series.a0, *series.coeffs], dtype=complex)
    parts = np.stack([c.real, c.imag])
    if not np.all(np.isfinite(parts)):
        raise ValueError("cannot evaluate a series with non-finite coefficients")
    frac, exp = np.frexp(parts)
    # log2 |a_m| < max(exp_re, exp_im) + 1/2; a zero part counts as -inf
    log2_bound = np.where(parts == 0, -np.inf, exp).max(axis=0) + 0.5
    real = not parts[1].any()
    ms = np.arange(len(c))
    guard = len(c).bit_length() + 16
    # each dropped term below 2^(-P - 1) / (M + 1), one bit spared for log2 |q|
    drop_below = 2 + math.log2(len(c))
    B = _BLOCK
    pad = -len(c) % B
    # a_m = (mant_re + i mant_im) 2^(exp - 53) exactly; zeros pad the last block
    mant = np.pad((frac * 2.0**53).astype(np.int64), ((0, 0), (0, pad))).tolist()
    exp = np.pad(exp - 53, ((0, 0), (0, pad))).tolist()
    block_exps, ints = [], []  # per block: its exponent E, and its integers over 2^E, Re then Im
    for start in range(0, len(c) + pad, B):
        span = range(start, start + B)
        E = min((exp[k][m] for k in (0, 1) for m in span if mant[k][m]), default=0)
        block_exps.append(E)
        for k in (0,) if real else (0, 1):  # the Im parts of a real series are all 0
            ints += [mant[k][m] << (exp[k][m] - E) if mant[k][m] else 0 for m in span]
    per_block, digits = len(ints) // len(block_exps), _digit_count(ints)
    # row block, column (term, digit)
    coeff_digits = _digit_rows(ints, digits).reshape(len(block_exps), per_block * digits)

    mirror = None  # a real series: (Re, Im, prec) of the previous call's mirror point, and its value

    def evaluate(z):
        nonlocal mirror
        (x, y), prec = mp.mpc(z)._mpc_, mp.mp.prec
        if mirror is not None and mirror[0] == (x, y, prec):
            re, im = mirror[1]
            value = (re, mpf_neg(im))  # exact: mp.conj would round the unrounded value
        else:
            value = fresh(x, y, prec)
        if real:
            mirror = ((mpf_neg(x), y, prec), value)
        return mp.make_mpc(value)

    def fresh(x, y, prec):
        log2_q = -2 * math.pi * to_float(y, rnd="n") / math.log(2)
        terms = log2_bound + ms * log2_q
        top = float(np.max(terms, initial=-np.inf))
        if top == -np.inf:
            return fzero, fzero
        P = prec + guard + max(0, -math.floor(top))
        Q = P + max(0, math.ceil(-log2_q))  # q's own scale: its rounding is relative to |q|
        # top >= -P + prec + guard, so the kept range is never empty
        n = int(np.flatnonzero(terms >= -P - drop_below)[-1]) // B + 1
        # powers at a scale where their roundings cost under one unit at 2^-P in all
        Qb = Q + max(0, math.ceil(top)) + max(0, math.ceil(-(B - 1) * log2_q)) + 2 * (n * B).bit_length() + 2
        # e(|Re z| + i Im z) as mp.expjpi gives it at prec + guard bits: q at -conj z is exactly conj q
        wp = prec + guard
        arg = (mpf_shift(mpf_abs(x, wp, "n"), 1), mpf_shift(mpf_pos(y, wp, "n"), 1))
        qr, qi = (to_int(mpf_shift(part, Q)) << (Qb - Q) for part in mpc_expjpi(arg, wp, "n"))
        if x[0]:  # Re z < 0
            qi = -qi
        pr, pi = [1 << Qb, qr], [0, qi]  # q^0..q^B at 2^-Qb
        for _ in range(B - 1):
            r, i = _times(pr[-1], pi[-1], qr, qi, Qb)
            pr.append(r)
            pi.append(i)
        qbr, qbi = pr.pop(), pi.pop()
        count = (Qb + 1) // 16 + 1  # digits of a part of a power, below 2^(Qb + 1)
        pre, pim = _digit_rows(pr + pi, count).reshape(2, B, count)
        parts = np.stack([pre, pim], axis=1)  # row i: Re and Im of q^i
        if not real:  # row B + i: Re and Im of i q^i
            parts = np.concatenate([parts, np.stack([-pim, pre], axis=1)])
        # row (term, coefficient digit a), column (part, limb): the power digits
        # moved up a limbs, so that the GEMM adds each digit product at its limb
        shifted = np.zeros((per_block, digits, 2, digits + count - 1))
        for a in range(digits):
            shifted[:, a, :, a : a + count] = parts
        limbs = _exact_matmul(coeff_digits[:n], shifted.reshape(per_block * digits, -1))
        sums = _limb_ints(limbs.reshape(2 * n, -1))  # Re and Im of each block sum
        re = im = 0
        for j in reversed(range(n)):
            re, im = _times(re, im, qbr, qbi, Qb)
            shift = Qb - P - block_exps[j]
            re, im = re + _rounded(sums[2 * j], shift), im + _rounded(sums[2 * j + 1], shift)
        return from_man_exp(re, -P), from_man_exp(im, -P)

    return evaluate


def _times(ar: int, ai: int, br: int, bi: int, scale: int) -> tuple[int, int]:
    """(ar + i ai)(br + i bi) / 2^scale in fixed point, scale >= 1, each part
    rounded to nearest with ties away from zero as by :func:`_rounded`, by
    Gauss's three multiplications."""
    k1 = br * (ar + ai)
    re, im = k1 - ai * (br + bi), k1 + ar * (bi - br)
    half = 1 << (scale - 1)
    return (
        (re + half) >> scale if re >= 0 else -((half - re) >> scale),
        (im + half) >> scale if im >= 0 else -((half - im) >> scale),
    )


def _rounded(x: int, shift: int) -> int:
    """x / 2^shift rounded to nearest, ties away from zero, so that
    _rounded(-x) = -_rounded(x); exact for shift <= 0."""
    if shift <= 0:
        return x << -shift
    half = 1 << (shift - 1)
    return (x + half) >> shift if x >= 0 else -((half - x) >> shift)
