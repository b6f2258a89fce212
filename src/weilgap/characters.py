"""Dirichlet characters with exact rational angles.

:class:`ResidueChar` is a character of arbitrary modulus q (used for the
multiplicative twists psi), built from the unit-group decomposition of
(Z/qZ)*.  :class:`DirichletChar` is a ResidueChar at a prime modulus p,
where (Z/pZ)* is cyclic: it is parametrized by the single exponent t, the
exact angle t/(p-1) at the smallest primitive root.  These are the
characters chi that multiplier systems imitate.

Character values are exact angles (Fractions mod 1); complex values are
derived views.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo q (q = 1, 2, 4, p^k or 2p^k)."""
    if q in (1, 2):
        return 1
    phi = euler_phi(q)
    prime_factors = [f for f, _ in _factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in prime_factors):
            return g
    raise ValueError(f"no primitive root modulo {q}")


def euler_phi(n: int) -> int:
    result = n
    for f, _ in _factorize(n):
        result = result // f * (f - 1)
    return result


def e_of(angle: Fraction) -> complex:
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(2j * cmath.pi * float(angle))


class ResidueChar:
    """Dirichlet character of arbitrary modulus q, as exact angles on (Z/qZ)*.

    (Z/qZ)* decomposes over the prime powers dividing q: odd prime powers and
    4 are cyclic with a primitive root, 2^k with k >= 3 splits as
    <-1> x <3>.  A character is a choice of exponent against each cyclic
    factor.
    """

    def __init__(self, q: int, exponents: tuple[int, ...]):
        self.q = q
        self._gens, self._orders = _unit_group(q)
        if len(exponents) != len(self._orders):
            raise ValueError("wrong number of exponents for the unit group of q")
        self.exponents = tuple(e % o for e, o in zip(exponents, self._orders))
        self._angles = self._value_table()

    def _value_table(self) -> dict[int, Fraction]:
        # enumerate the group as products of generator powers
        values = {1: Fraction(0)}
        elements = [1]
        for g, order, exp in zip(self._gens, self._orders, self.exponents):
            new_elements = []
            step = Fraction(exp, order)
            for x in elements:
                acc = x
                ang = values[x]
                for _ in range(1, order):
                    acc = (acc * g) % self.q
                    ang = (ang + step) % 1
                    values[acc] = ang
                    new_elements.append(acc)
            elements.extend(new_elements)
        return values

    def angle(self, x: int) -> Fraction:
        x %= self.q
        if self.q == 1:
            return Fraction(0)
        if gcd(x, self.q) != 1:
            raise ZeroDivisionError(f"psi({x}) = 0 has no angle")
        return self._angles[x]

    def __call__(self, x: int) -> complex:
        if self.q == 1:
            return 1 + 0j
        if gcd(x, self.q) != 1:
            return 0j
        return e_of(self._angles[x % self.q])

    def is_even(self) -> bool:
        return self.q <= 2 or self._angles[self.q - 1] == 0

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def conj(self) -> "ResidueChar":
        return ResidueChar(self.q, tuple(-e for e in self.exponents))

    def conductor(self) -> int:
        """Smallest modulus f | q through which the character factors."""
        if self.q == 1:
            return 1
        for f in sorted(_divisors(self.q)):
            if self._factors_through(f):
                return f
        return self.q

    def _factors_through(self, f: int) -> bool:
        # chi factors through f iff chi is trivial on the kernel of
        # (Z/q)* -> (Z/f)*
        for x in range(1, self.q):
            if gcd(x, self.q) == 1 and x % f == 1 % f:
                if self._angles[x] != 0:
                    return False
        return True

    def is_primitive(self) -> bool:
        return self.conductor() == self.q

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidueChar) and self.q == other.q and self._angles == other._angles

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q}, exponents={self.exponents})"


class DirichletChar(ResidueChar):
    """Character mod a prime p with chi(g) = e(t/(p-1)) at the smallest
    primitive root g: the ResidueChar of modulus p with exponent t."""

    def __init__(self, p: int, t: int):
        super().__init__(p, (t,))
        self.p = p
        self.t = self.exponents[0]

    # an entry of this class's own dict, not an inherited one, because
    # benchmark/tracing.py wraps it through DirichletChar.__dict__["angle"]
    def angle(self, x: int) -> Fraction:
        """Exact angle of chi(x); raises on x = 0 mod p."""
        return super().angle(x)

    def conj(self) -> "DirichletChar":
        return DirichletChar(self.p, -self.t)


def quadratic_char(p: int) -> DirichletChar:
    """The Legendre symbol character mod p."""
    return DirichletChar(p, (p - 1) // 2)


def _unit_group(q: int) -> tuple[list[int], list[int]]:
    """Generators and orders of the cyclic factors of (Z/qZ)*."""
    gens: list[int] = []
    orders: list[int] = []
    factors = _factorize(q)
    for prime, k in factors:
        pk = prime**k
        rest = q // pk
        if prime == 2:
            if k == 1:
                continue
            if k == 2:
                local = [3]
                local_orders = [2]
            else:
                local = [pk - 1, 3]
                local_orders = [2, pk // 4]
        else:
            local = [primitive_root(pk)]
            local_orders = [euler_phi(pk)]
        for g, o in zip(local, local_orders):
            # lift to a generator that is 1 modulo the complementary part
            lifted = _crt(g, pk, 1, rest)
            gens.append(lifted)
            orders.append(o)
    return gens, orders


def _crt(a: int, m: int, b: int, n: int) -> int:
    if n == 1:
        return a % m
    inv = pow(m, -1, n)
    return (a + m * ((b - a) * inv % n)) % (m * n)


def _divisors(n: int) -> list[int]:
    out = [1]
    for f, e in _factorize(n):
        out = [d * f**i for d in out for i in range(e + 1)]
    return sorted(out)


def all_characters(q: int) -> list[ResidueChar]:
    """Every Dirichlet character modulo q, in a deterministic order."""
    _, orders = _unit_group(q)
    chars: list[ResidueChar] = []
    combos = [()]
    for o in orders:
        combos = [c + (e,) for c in combos for e in range(o)]
    for combo in combos:
        chars.append(ResidueChar(q, combo))
    return chars


def primitive_characters(q: int) -> list[ResidueChar]:
    return [chi for chi in all_characters(q) if chi.is_primitive()]
