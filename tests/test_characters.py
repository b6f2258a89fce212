import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgap.characters import (
    DirichletChar,
    _divisors,
    _unit_group,
    all_characters,
    e_of,
    euler_phi,
    primitive_characters,
)


def quadratic_char(p: int) -> DirichletChar:
    """The Legendre symbol character mod p."""
    return DirichletChar(p, (p - 1) // 2)


def test_character_counts():
    for q in range(1, 16):
        assert len(all_characters(q)) == euler_phi(q)


def test_primitive_counts_small():
    # number of primitive characters mod q for small q
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 3, 6: 0, 7: 5, 8: 2}
    for q, n in expected.items():
        assert len(primitive_characters(q)) == n


@pytest.mark.parametrize("q", [3, 5, 7, 8, 9, 12])
def test_complete_multiplicativity(q):
    for chi in all_characters(q):
        for x in range(1, q + 1):
            for y in range(1, q + 1):
                assert abs(chi(x * y) - chi(x) * chi(y)) < 1e-12


def test_parity():
    chi5 = quadratic_char(5)
    assert chi5.is_even()
    chi13_odd = DirichletChar(13, 1)
    assert not chi13_odd.is_even()


def test_prime_char_values():
    chi = quadratic_char(5)
    # 2, 3 are non-residues mod 5; 1, 4 residues
    assert abs(chi(2) + 1) < 1e-12
    assert abs(chi(3) + 1) < 1e-12
    assert abs(chi(4) - 1) < 1e-12
    assert chi(5) == 0


def test_conjugate_inverts_values():
    for chi in all_characters(7):
        for x in range(1, 7):
            assert abs(chi.conj()(x) - chi(x).conjugate()) < 1e-12


def test_conductor_of_lifted_character():
    # the character mod 9 factoring through mod 3 has conductor 3
    chars9 = all_characters(9)
    conductors = sorted(chi.conductor() for chi in chars9)
    assert conductors == [1, 3, 9, 9, 9, 9]


def test_residue_char_mod_8():
    chars = all_characters(8)
    prim = [c for c in chars if c.is_primitive()]
    assert len(prim) == 2
    for psi in prim:
        tau = sum(psi(a) * cmath.exp(2j * cmath.pi * a / 8) for a in range(8))
        assert abs(abs(tau) ** 2 - 8) < 1e-10


@pytest.mark.parametrize("p", [5, 11, 29, 1009])
def test_angle_against_bruteforce_log(p, monkeypatch):
    import weilgap.characters as characters
    from fractions import Fraction

    # the smallest g of multiplicative order p - 1, by brute force
    g = next(x for x in range(2, p) if len({pow(x, i, p) for i in range(p - 1)}) == p - 1)
    calls = []
    original = characters.primitive_root
    monkeypatch.setattr(characters, "primitive_root", lambda q: calls.append(q) or original(q))
    for t in (1, (p - 1) // 2):
        chi = DirichletChar(p, t)
        x = 1
        for i in range(p - 1):
            assert chi.angle(x) == Fraction(t * i, p - 1) % 1
            x = x * g % p
        with pytest.raises(ZeroDivisionError):
            chi.angle(p)
    # the primitive root and the log table are built once per character
    assert calls == [p, p]


PRIMES = [n for n in range(5, 500) if all(n % f for f in range(2, n))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(-(10**6), 10**6))
def test_dirichlet_char_is_exponent_t_at_the_primitive_root(p, t):
    # the smallest g of multiplicative order p - 1, by brute force
    g = next(x for x in range(2, p) if len({pow(x, i, p) for i in range(p - 1)}) == p - 1)
    chi = DirichletChar(p, t)
    assert (chi.p, chi.t) == (p, t % (p - 1))
    x = 1
    for i in range(p - 1):
        assert chi.angle(x) == Fraction(t * i, p - 1) % 1
        assert abs(chi(x) - cmath.exp(2j * cmath.pi * (t * i % (p - 1)) / (p - 1))) < 1e-12
        x = x * g % p
    assert chi(p) == 0
    conj = chi.conj()
    assert type(conj) is DirichletChar and conj.t == (-t) % (p - 1)
    # chi(-1) = e(t / 2)
    assert chi.is_even() == (t % 2 == 0)
    assert chi.is_trivial() == (t % (p - 1) == 0)


def fraction_value_table(chi) -> dict[int, Fraction]:
    """Oracle: the angle of every unit mod chi.q, from a walk of the group as
    products of generator powers in Fraction arithmetic mod 1."""
    gens, orders = _unit_group(chi.q)
    values, elements = {1: Fraction(0)}, [1]
    for g, order, exp in zip(gens, orders, chi.exponents):
        new_elements, step = [], Fraction(exp, order)
        for x in elements:
            acc, ang = x, values[x]
            for _ in range(1, order):
                acc = (acc * g) % chi.q
                ang = (ang + step) % 1
                values[acc] = ang
                new_elements.append(acc)
        elements.extend(new_elements)
    return values


def conductor_by_fraction_table(q: int, table: dict[int, Fraction]) -> int:
    """Oracle: the least f | q with every angle zero on units that are 1 mod f."""
    return next(
        f for f in _divisors(q) if all(table[x] == 0 for x in table if x % f == 1 % f)
    )


@pytest.mark.parametrize("q", [8, 15, 16, 24, 35])
def test_integer_table_matches_the_fraction_walk(q):
    chars = all_characters(q)
    tables = [fraction_value_table(chi) for chi in chars]
    for chi, table in zip(chars, tables):
        for x in range(-q, 2 * q):
            if x % q in table:
                assert chi.angle(x) == table[x % q]
                assert type(chi.angle(x)) is Fraction
                assert chi(x) == e_of(table[x % q])
            else:
                assert chi(x) == 0
                with pytest.raises(ZeroDivisionError):
                    chi.angle(x)
        assert chi.is_even() == (table[q - 1] == 0)
        assert chi.conductor() == conductor_by_fraction_table(q, table)
    for chi, table in zip(chars, tables):
        for other, other_table in zip(chars, tables):
            assert (chi == other) == (table == other_table)
