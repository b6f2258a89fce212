"""Exact 2x2 integer matrix algebra, the slash action and S/T word decomposition.

Conventions used throughout the package:

* ``S = [[1, 1], [0, 1]]`` acts as ``z -> z + 1``,
* ``T = [[0, -1], [1, 0]]`` acts as ``z -> -1/z``,
* words multiply left to right: ``[t1, t2, ...]`` evaluates to ``t1*t2*...``.

All entries are Python integers, so group computations never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union


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
        """Binary powering: a power of +-1 makes no product."""
        if n < 0:
            return self.inv() ** -n
        if n <= 1:
            return self if n else IDENTITY
        half = (self * self) ** (n >> 1)
        return half * self if n & 1 else half

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
class FrickeMat:
    """The Fricke involution W_p = [[0, -p^{-1/2}], [p^{1/2}, 0]]: as a
    Moebius map z -> -1/(pz), with j(W_p, z) = p^{1/2} z."""

    p: int


def slash_evaluator(f: Callable, k: int, gamma: Union[Mat2, FrickeMat]) -> Callable:
    """An evaluator of f|_k gamma: z -> j(gamma, z)^{-k} f(gamma z), for even k.

    gamma is a Mat2, acting by z -> (az + b)/(cz + d) with j = cz + d, or a
    FrickeMat, whose cocycle power is written (p z^2)^{-k/2} so that no
    square root is taken.  The value is computed in the number type of z:
    a complex z gives a complex value, an mpmath z a value at the working
    precision.  A z off the upper half-plane raises ValueError.
    """
    if k % 2 != 0:
        raise ValueError("only even integral weights are supported")

    def evaluate(z):
        if not z.imag > 0:
            raise ValueError(f"point {z} is not in the upper half-plane")
        if isinstance(gamma, FrickeMat):
            pz = gamma.p * z
            return (pz * z) ** (-k // 2) * f(-1 / pz)
        a, b, c, d = gamma.entries()
        return (c * z + d) ** -k * f((a * z + b) / (c * z + d))

    return evaluate


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


ST_MATRICES = {"S": S, "T": T}

Entries = tuple[int, int, int, int]


def evaluate_word(
    tokens: Sequence[tuple[str, int]],
    matrices: Mapping[str, Mat2],
    powers: Optional[dict[tuple[str, int], Entries]] = None,
) -> Mat2:
    """The product, left to right, of matrices[label] ** exp over the tokens.

    The product runs on four local ints and builds one Mat2 at the end.
    Each distinct power is taken once, through Mat2.__pow__, so a matrix of
    determinant other than 1 under a negative exponent still raises.  The
    entries of the powers are kept in ``powers``, keyed by the token;
    callers that evaluate many words over the same matrices may share one
    dict.
    """
    return Mat2(*_product(tokens, matrices, {} if powers is None else powers))


def _product(tokens: Iterable[tuple[str, int]], matrices: Mapping[str, Mat2], powers: dict) -> Entries:
    """The entries of the product of the tokens' powers, each read from
    powers and entered there on a miss."""
    a, b, c, d = 1, 0, 0, 1
    for token in tokens:
        m = powers.get(token)
        if m is None:
            label, exp = token
            m = powers[token] = (matrices[label] ** exp).entries()
        x, y, z, w = m
        a, b, c, d = a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w
    return a, b, c, d


def _fold(factors: Iterable[Entries]) -> Entries:
    """The entries of the product, left to right, of the entries of factors."""
    a, b, c, d = 1, 0, 0, 1
    for x, y, z, w in factors:
        a, b, c, d = a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w
    return a, b, c, d


def sign_against(value: Mat2, gamma: Mat2, what: str) -> int:
    """The sign e with value = e * gamma; raises unless value = +-gamma.
    Compares entries, so -gamma is never built."""
    entries = value.entries()
    a, b, c, d = gamma.entries()
    if entries == (a, b, c, d):
        return 1
    if entries == (-a, -b, -c, -d):
        return -1
    raise AssertionError(f"{what} does not evaluate to +-{gamma!r}")


def euclid_quotients(c: int, d: int) -> list[int]:
    """The quotients t_1, t_2, ... of the Euclidean walk on a bottom row.

    Each step right-multiplies by S^{-t} T, which sends the bottom row
    (c, d) to (d - t*c, -c), with t the integer nearest to d / c so that
    |d - t*c| <= |c| / 2; the walk stops at c = 0.  |c| at least halves at
    every step, so there are at most log2|c| + 1 quotients.  They depend
    on the bottom row alone, and only t_1 can be 0.
    """
    quotients = []
    while c != 0:
        t, r = divmod(d, c)  # r has the sign of c
        if 2 * abs(r) > abs(c):
            t, r = t + 1, r - c
        quotients.append(t)
        c, d = r, -c
    return quotients


def leading_s_power(gamma: Mat2, quotients: list[int]) -> int:
    """The e with gamma S^{-t_1} T S^{-t_2} T ... S^{-t_k} T = +-S^e.

    Reduces the whole matrix along the quotients of its bottom row and
    raises unless the result is +-S^e, which certifies the quotients
    against gamma.
    """
    a, b, c, d = gamma.entries()
    for t in quotients:
        b, d = b - t * a, d - t * c
        a, b, c, d = b, -a, d, -c
    if c != 0 or a != d or a * a != 1:
        raise AssertionError(f"reduction of {gamma} along its quotients is not +-S^e")
    return a * b


def st_letters(gamma: Mat2) -> list[tuple[str, int]]:
    """The letters S^e T S^{t_k} T ... T S^{t_1}, with the quotients of
    :func:`euclid_quotients` and the S power e of :func:`leading_s_power`:
    +-gamma, unreduced and unchecked against gamma's sign."""
    quotients = euclid_quotients(gamma.c, gamma.d)
    letters = [("S", leading_s_power(gamma, quotients))]
    for t in reversed(quotients):
        letters += [("T", 1), ("S", t)]
    return letters


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

    The word is that of :func:`st_letters`, of length O(log |c|).
    T^{-1} = -T lets every T carry exponent +1; the
    flips land in the sign, recovered by evaluating the word against gamma
    and stored on the result.
    """
    if gamma.det() != 1:
        raise ValueError("decompose_sl2 requires determinant 1")
    word = STWord(st_letters(gamma))
    word.sign = sign_against(evaluate_word(word.tokens, ST_MATRICES), gamma, "S/T decomposition")
    return word
