"""Exact 2x2 integer matrix algebra, Moebius actions and S/T word decomposition.

Conventions used throughout the package:

* ``S = [[1, 1], [0, 1]]`` acts as ``z -> z + 1``,
* ``T = [[0, -1], [1, 0]]`` acts as ``z -> -1/z``,
* words multiply left to right: ``[t1, t2, ...]`` evaluates to ``t1*t2*...``.

All entries are Python integers, so group computations never overflow.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable, Union


@dataclass(frozen=True)
class Mat2:
    """A 2x2 integer matrix [[a, b], [c, d]].

    The bare constructor is unchecked (intermediates may have any
    determinant); use :meth:`sl2` for group elements, which enforces
    ``det = 1``.
    """

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def sl2(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        m = cls(a, b, c, d)
        if m.det() != 1:
            raise ValueError(f"matrix {m.entries()} has determinant {m.det()}, expected 1")
        return m

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "Mat2":
        if self.det() != 1:
            raise ValueError("inverse implemented only for determinant-1 matrices")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inv() ** (-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def is_proj_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1) or self.entries() == (-1, 0, 0, -1)

    def mobius(self, z: complex) -> complex:
        return mobius(self, z)

    def jfactor(self, z: complex) -> complex:
        """Automorphy cocycle j(gamma, z) = c*z + d."""
        return self.c * z + self.d

    def to_json(self) -> list[int]:
        """Row-major [a, b, c, d]."""
        return [self.a, self.b, self.c, self.d]

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "Mat2":
        a, b, c, d = (int(x) for x in data)
        return cls(a, b, c, d)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(1, 1, 0, 1)
T = Mat2(0, -1, 1, 0)


@dataclass(frozen=True)
class ProjMat2:
    """Sign-normalized matrix modelling elements of SL2(Z)/{+-I}.

    The representative is chosen so that the first nonzero entry of
    (c, d, a, b), in that order, is positive.
    """

    rep: Mat2

    def __init__(self, m: Mat2):
        for entry in (m.c, m.d, m.a, m.b):
            if entry != 0:
                if entry < 0:
                    m = -m
                break
        object.__setattr__(self, "rep", m)

    def __mul__(self, other: "ProjMat2") -> "ProjMat2":
        return ProjMat2(self.rep * other.rep)

    def inv(self) -> "ProjMat2":
        return ProjMat2(self.rep.inv())

    def __repr__(self) -> str:
        return f"+-{self.rep!r}"


@dataclass(frozen=True)
class FrickeMat:
    """The Fricke involution W_p = [[0, -p^{-1/2}], [p^{1/2}, 0]].

    Stored as the integer matrix [[0, -1], [p, 0]] together with the
    implicit scale p^{-1/2}; as a Moebius map it sends z to -1/(pz),
    and j(W_p, z) = p^{1/2} z.
    """

    p: int

    def mobius(self, z: complex) -> complex:
        _require_upper_half(z)
        return -1.0 / (self.p * z)

    def jfactor(self, z: complex) -> complex:
        return cmath.sqrt(self.p) * z


def _require_upper_half(z: complex) -> None:
    if not (complex(z).imag > 0):
        raise ValueError(f"point {z} is not in the upper half-plane")


def mobius(gamma: Union[Mat2, FrickeMat], z: complex) -> complex:
    """Apply the Moebius action gamma z = (az + b)/(cz + d)."""
    if isinstance(gamma, FrickeMat):
        return gamma.mobius(z)
    _require_upper_half(z)
    z = complex(z)
    return (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)


def slash_action(
    f: Callable[[complex], complex],
    k: int,
    gamma: Union[Mat2, FrickeMat],
    z: complex,
) -> complex:
    """(f|_k gamma)(z) = j(gamma, z)^{-k} f(gamma z) for even weight k."""
    if k % 2 != 0:
        raise ValueError("only even integral weights are supported")
    w = mobius(gamma, z)
    return gamma.jfactor(complex(z)) ** (-k) * f(w)


# ---------------------------------------------------------------------------
# Words in S and T


@dataclass
class STWord:
    """A word in S and T, multiplying left to right.

    Tokens are pairs (letter, exponent) with letter in {"S", "T"}; the
    T-exponents are restricted to +-1 and no two adjacent tokens share a
    letter.  ``sign`` records whether the word evaluates to +m or -m for
    the matrix m it was derived from.
    """

    tokens: list[tuple[str, int]]
    sign: int = 1

    def __post_init__(self):
        self.tokens = reduce_word(self.tokens)
        for gen, exp in self.tokens:
            if gen not in ("S", "T"):
                raise ValueError(f"unknown generator {gen!r}")
            if gen == "T" and exp not in (1, -1):
                raise ValueError("T exponents must be +-1")

    def evaluate(self) -> Mat2:
        result = IDENTITY
        for gen, exp in self.tokens:
            base = S if gen == "S" else T
            result = result * base**exp
        return result

    def to_json(self) -> list[dict]:
        return [{"gen": g, "exp": e} for g, e in self.tokens]

    @classmethod
    def from_json(cls, data: list[dict], sign: int = 1) -> "STWord":
        return cls([(tok["gen"], int(tok["exp"])) for tok in data], sign)


def reduce_word(tokens: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Merge adjacent same-letter tokens and drop zero exponents."""
    out: list[tuple[str, int]] = []
    for gen, exp in tokens:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return out


def euclid_quotients(c: int, d: int) -> list[int]:
    """The quotients t_1, t_2, ... of the Euclidean walk on a bottom row.

    Each step right-multiplies by S^{-t} T, which sends the bottom row
    (c, d) to (d - t*c, -c) with d - t*c in [0, |c|); the walk stops at
    c = 0.  The quotients depend on the bottom row alone.
    """
    quotients = []
    while c != 0:
        r = d % abs(c)
        quotients.append((d - r) // c)
        c, d = r, -c
    return quotients


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lift_bottom_row(c: int, d: int) -> Mat2:
    """Some gamma in SL2(Z) with bottom row (c, d); requires gcd(c, d) = 1."""
    g, x, y = _egcd(d, -c)
    if g != 1:
        raise ValueError(f"bottom row ({c}, {d}) is not unimodular")
    return Mat2.sl2(x, y, c, d)


def decompose_sl2(gamma: Mat2) -> STWord:
    """Write a determinant-1 integer matrix as a word in S and T.

    Euclidean reduction on the bottom row (see :func:`euclid_quotients`):
    while c != 0, right-multiply by S^{-t} T where t is chosen so the
    remainder d - t*c lies in [0, |c|).  The word is short for typical
    rows, but with nonnegative remainders its length can reach |c| (the
    row (c, -1) takes |c| steps).  Evaluating the word reproduces +-gamma;
    the recovered sign is stored on the result.
    """
    if gamma.det() != 1:
        raise ValueError("decompose_sl2 requires determinant 1")
    m = gamma
    applied: list[tuple[str, int]] = []  # right-multipliers, in application order
    for t in euclid_quotients(gamma.c, gamma.d):
        # m * S^{-t}: bottom row (c, d - t*c)
        m = Mat2(m.a, m.b - t * m.a, m.c, m.d - t * m.c)
        applied.append(("S", t))
        # m * T: bottom row (d - t*c, -c)
        m = Mat2(m.b, -m.a, m.d, -m.c)
        applied.append(("T", 1))
    # now m = eps * S^(eps*b); T^{-1} = -T lets every T carry exponent +1,
    # the final sign comparison absorbs the flips
    eps = m.a
    tokens: list[tuple[str, int]] = [("S", eps * m.b)]
    for gen, exp in reversed(applied):
        if gen == "T":
            tokens.append(("T", 1))
        else:
            tokens.append(("S", exp))
    word = STWord(tokens)
    value = word.evaluate()
    if value == gamma:
        word.sign = 1
    elif value == -gamma:
        word.sign = -1
    else:
        raise AssertionError("S/T decomposition failed to reproduce +-gamma")
    return word
