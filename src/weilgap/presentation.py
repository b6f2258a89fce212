"""Rademacher-style generating sets and presentations of Gamma0(p)/{+-I}.

The projective modular group is PSL2(Z) = <T, TS | T^2, (TS)^3>.  For a
prime p > 3 the congruence subgroup Gamma0(p) has index p + 1, with coset
transversal {I} u {T S^j : 0 <= j < p}: the coset of a matrix with bottom
row (c, d) is the identity coset iff p | c, and otherwise T S^m with
m = d c^{-1} (mod p).

Running Reidemeister-Schreier rewriting over this transversal produces
Schreier generators that are exactly +-S and the matrices

    V_q = [[-q*, -1], [q q* + 1, q]],   q q* = -1 (mod p),  1 <= q* <= p,

and the rewritten relators pair V_{q*} = -V_q^{-1}, force V_q^2 = -I when
q^2 = -1 (mod p), and tie triples of V's along the 3-cycles of TS on the
cosets.  Tietze elimination then reduces the generating set to S together
with V_q for q in a computed set Q' of size 2*floor(p/12) + 2, realizing
the free-product decomposition

    F_{l-2a-2b} * (Z/2 * Z/2)^a * (Z/3 * Z/3)^b,   l = 2*floor(p/12) + 3.

Every symbolic step is verified by exact matrix arithmetic: each relator
must evaluate to +-I and each elimination is checked against the matrix it
replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .matrices import IDENTITY, Mat2, S, T, STWord, decompose_sl2, lift_bottom_row, reduce_word

COSET_INF = -1  # label for the identity coset (the cusp at infinity)

Token = tuple[str, int]
Word = list[Token]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_level(p: int) -> None:
    if not is_prime(p) or p <= 3:
        raise ValueError(f"level must be a prime > 3, got {p}")


def v_matrix(p: int, q: int) -> Mat2:
    """The Rademacher matrix V_q = [[-q*, -1], [q q* + 1, q]].

    q* is the unique solution of q q* = -1 (mod p) with 1 <= q* <= p.
    """
    if q % p == 0:
        raise ValueError(f"q = {q} is divisible by p = {p}")
    qs = (-pow(q, -1, p)) % p
    if qs == 0:
        qs = p
    m = Mat2(-qs, -1, q * qs + 1, q)
    assert m.det() == 1
    return m


def constraint_matrix(p: int, a: int, q: int, B: Optional[int] = None) -> tuple[Mat2, int, int]:
    """The twist matrix [[D, a], [-pB, q]] in Gamma0(p), with q D + a p B = 1.

    Returns (matrix, B, D).  B is the smallest positive solution of its
    residue class mod q unless given explicitly; D is then determined.
    Requires q >= 1, gcd(a, q) = 1 and, at a prime level p, p not dividing q.
    """
    if q <= 0 or math.gcd(a, q) != 1:
        raise ValueError(f"invalid (a, q) = ({a}, {q}) for level {p}")
    if p > 1 and q % p == 0:
        raise ValueError(f"q = {q} is divisible by p = {p}")
    if B is None:
        # a p is a unit mod q; its inverse is 0 only for q = 1, where B = 1
        B = pow(a * p, -1, q) or q
    if (1 - a * p * B) % q != 0:
        raise ValueError(f"B = {B} is not in the admissible residue class mod {q}")
    D = (1 - a * p * B) // q
    return Mat2.sl2(D, a, -p * B, q), B, D


def _invert_word(tokens: Word) -> Word:
    return [(gen, -exp) for gen, exp in reversed(tokens)]


def _word_pow(tokens: Word, n: int) -> Word:
    if n == 0:
        return []
    base = tokens if n > 0 else _invert_word(tokens)
    return reduce_word(base * abs(n))


def _cyclic_reduce(tokens: Word) -> Word:
    tokens = reduce_word(tokens)
    while len(tokens) >= 2 and tokens[0][0] == tokens[-1][0]:
        gen = tokens[0][0]
        e0, e1 = tokens[0][1], tokens[-1][1]
        merged = e0 + e1
        middle = tokens[1:-1]
        if merged:
            tokens = reduce_word([(gen, merged)] + middle)
            break
        tokens = reduce_word(middle)
    return tokens


@dataclass
class CosetTable:
    """Transversal {I} u {T S^j} for Gamma0(p)\\SL2(Z), with coset lookup."""

    p: int
    representatives: dict[int, Mat2] = field(default_factory=dict)

    def __post_init__(self):
        _check_level(self.p)
        if not self.representatives:
            reps = {COSET_INF: IDENTITY}
            for j in range(self.p):
                reps[j] = T * S**j
            self.representatives = reps

    def coset_of(self, gamma: Mat2) -> int:
        return self.coset_of_bottom_row(gamma.c, gamma.d)

    def coset_of_bottom_row(self, c: int, d: int) -> int:
        p = self.p
        if c % p == 0:
            return COSET_INF
        return (d * pow(c, -1, p)) % p

    def rep(self, coset: int) -> Mat2:
        return self.representatives[coset]


class GammaWord:
    """A word over the generators of a GenSet, with a sign flag.

    ``tokens`` is a list of (label, exponent) with no two adjacent tokens
    sharing a label; the element equals sign * (product left to right).
    """

    def __init__(self, tokens: Word, sign: int = 1):
        self.tokens = reduce_word(tokens)
        self.sign = sign

    def evaluate(self, gens: "GenSet") -> Mat2:
        result = IDENTITY
        for label, exp in self.tokens:
            result = result * gens.matrix(label) ** exp
        return result

    def inv(self) -> "GammaWord":
        return GammaWord(_invert_word(self.tokens), self.sign)

    def to_json(self) -> dict:
        return {"word": [{"gen": g, "exp": e} for g, e in self.tokens], "sign": self.sign}

    def __repr__(self) -> str:
        if not self.tokens:
            return f"GammaWord(1, sign={self.sign})"
        body = "*".join(f"{g}^{e}" if e != 1 else g for g, e in self.tokens)
        return f"GammaWord({body}, sign={self.sign})"


@dataclass
class ExpVector:
    """Image of a word in the abelianization Z^{l-2a-2b} x (Z/2)^{2a} x (Z/3)^{2b}.

    Coordinates are aligned with GenSet.free_labels / order2_labels /
    order3_labels.
    """

    free: tuple[int, ...]
    tor2: tuple[int, ...]
    tor3: tuple[int, ...]

    def __add__(self, other: "ExpVector") -> "ExpVector":
        return ExpVector(
            tuple(x + y for x, y in zip(self.free, other.free)),
            tuple((x + y) % 2 for x, y in zip(self.tor2, other.tor2)),
            tuple((x + y) % 3 for x, y in zip(self.tor3, other.tor3)),
        )

    def __neg__(self) -> "ExpVector":
        return ExpVector(
            tuple(-x for x in self.free),
            tuple((-x) % 2 for x in self.tor2),
            tuple((-x) % 3 for x in self.tor3),
        )

    def scale(self, n: int) -> "ExpVector":
        return ExpVector(
            tuple(n * x for x in self.free),
            tuple((n * x) % 2 for x in self.tor2),
            tuple((n * x) % 3 for x in self.tor3),
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.tor2) and not any(self.tor3)


class GenSet:
    """Generating set {S} u {V_q : q in Q'} of Gamma0(p)/{+-I} with orders,
    free-product signature, and the rewriting log of the Tietze eliminations."""

    def __init__(
        self,
        p: int,
        labels: list[str],
        matrices: dict[str, Mat2],
        orders: dict[str, object],
        rewriting_log: dict[str, Word],
        coset_table: CosetTable,
    ):
        self.p = p
        self.labels = labels
        self._matrices = matrices
        self.orders = orders
        self.rewriting_log = rewriting_log  # raw Schreier symbol -> word over final labels
        self.coset_table = coset_table

        self.free_labels = [lbl for lbl in labels if orders[lbl] == "inf"]
        self.order2_labels = [lbl for lbl in labels if orders[lbl] == 2]
        self.order3_labels = [lbl for lbl in labels if orders[lbl] == 3]
        l = len(labels)
        a2, b3 = len(self.order2_labels), len(self.order3_labels)
        assert a2 % 2 == 0 and b3 % 2 == 0
        self.signature = (l, a2 // 2, b3 // 2)
        self._free_index = {lbl: i for i, lbl in enumerate(self.free_labels)}
        self._tor2_index = {lbl: i for i, lbl in enumerate(self.order2_labels)}
        self._tor3_index = {lbl: i for i, lbl in enumerate(self.order3_labels)}
        self._step_cache: dict[tuple[int, str, int], tuple[Word, int]] = {}

    def matrix(self, label: str) -> Mat2:
        return self._matrices[label]

    @property
    def generators(self) -> list[tuple[str, Mat2]]:
        return [(lbl, self._matrices[lbl]) for lbl in self.labels]

    def q_set(self) -> set[int]:
        """The set Q = {1} u {q : V_q in the generating set}."""
        qs = {1}
        for lbl in self.labels:
            if lbl.startswith("V_"):
                qs.add(int(lbl[2:]))
        return qs

    # -- rewriting machinery ------------------------------------------------

    def final_word(self, raw_symbol: str) -> Word:
        """Express a raw Schreier symbol (S or any V_j) over the final labels."""
        return self.rewriting_log[raw_symbol]

    def _step(self, coset: int, letter: str, exp: int) -> tuple[Word, int]:
        """Word (over final labels) and target coset for one S/T letter."""
        key = (coset, letter, exp)
        cached = self._step_cache.get(key)
        if cached is not None:
            return cached
        if letter != "T":
            raise ValueError(f"unknown letter {letter}")
        p = self.p
        if coset == COSET_INF:
            result: tuple[Word, int] = ([], 0)
        elif coset == 0:
            result = ([], COSET_INF)
        elif exp == 1:
            target = (-pow(coset, -1, p)) % p
            result = (list(self.final_word(f"V_{coset}")), target)
        else:
            # T^{-1} from coset r is the inverse of the T step from the target
            target = (-pow(coset, -1, p)) % p
            result = (_invert_word(self.final_word(f"V_{target}")), target)
        self._step_cache[key] = result
        return result

    def _s_bulk(self, coset: int, e: int) -> tuple[Word, int]:
        """Word and target coset for the letter S^e from a coset, in bulk."""
        if e == 0:
            return [], coset
        if coset == COSET_INF:
            return [("S", e)], COSET_INF
        p = self.p
        wraps = (coset + e) // p  # signed crossings of the p-1 -> 0 boundary
        target = (coset + e) % p
        if wraps == 0:
            return [], target
        # each forward crossing contributes T S^p T^{-1} = V_1^{-1} S^{-1}
        wrap_word = reduce_word(
            _invert_word(self.final_word("V_1")) + [("S", -1)]
        )
        return _word_pow(wrap_word, wraps), target

    def rewrite_st_word(self, word: STWord) -> Word:
        """Schreier-rewrite an S/T word of an element of Gamma0(p)."""
        coset = COSET_INF
        out: Word = []
        for gen, exp in word.tokens:
            if gen == "S":
                piece, coset = self._s_bulk(coset, exp)
                out.extend(piece)
            else:
                step = 1 if exp > 0 else -1
                for _ in range(abs(exp)):
                    piece, coset = self._step(coset, "T", step)
                    out.extend(piece)
        if coset != COSET_INF:
            raise AssertionError("rewriting of a Gamma0(p) element did not return to the identity coset")
        return reduce_word(out)

    # -- abelianization -----------------------------------------------------

    def abelianize_word(self, word: GammaWord) -> ExpVector:
        free = [0] * len(self.free_labels)
        tor2 = [0] * len(self.order2_labels)
        tor3 = [0] * len(self.order3_labels)
        for label, exp in word.tokens:
            if label in self._free_index:
                free[self._free_index[label]] += exp
            elif label in self._tor2_index:
                tor2[self._tor2_index[label]] = (tor2[self._tor2_index[label]] + exp) % 2
            elif label in self._tor3_index:
                tor3[self._tor3_index[label]] = (tor3[self._tor3_index[label]] + exp) % 3
            else:
                raise KeyError(f"unknown generator label {label!r}")
        return ExpVector(tuple(free), tuple(tor2), tuple(tor3))

    def to_json(self) -> dict:
        l, a, b = self.signature
        return {
            "p": self.p,
            "l": l,
            "a": a,
            "b": b,
            "Q": sorted(self.q_set()),
            "generators": [
                {
                    "label": lbl,
                    "matrix": self._matrices[lbl].to_json(),
                    "order": self.orders[lbl] if self.orders[lbl] != "inf" else "inf",
                }
                for lbl in self.labels
            ],
        }


# ---------------------------------------------------------------------------
# Reidemeister-Schreier + Tietze


def _walk_letters(p: int, letters: Word, start: int) -> tuple[Word, int]:
    """Walk a letter word through the coset table, emitting raw Schreier symbols.

    Raw symbols are "S" (the Schreier element at the identity coset) and
    "V_j" for 1 <= j <= p-1.  Contributions that are +-I are dropped; the
    lost signs are irrelevant in the projective group.
    """
    coset = start
    out: Word = []
    for gen, exp in letters:
        if gen == "S":
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if coset == COSET_INF:
                    out.append(("S", step))
                else:
                    if step == 1:
                        if coset == p - 1:
                            out.extend([("V_1", -1), ("S", -1)])
                            coset = 0
                        else:
                            coset += 1
                    else:
                        if coset == 0:
                            out.extend([("S", 1), ("V_1", 1)])
                            coset = p - 1
                        else:
                            coset -= 1
        elif gen == "T":
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                if coset == COSET_INF:
                    coset = 0
                elif coset == 0:
                    coset = COSET_INF
                else:
                    target = (-pow(coset, -1, p)) % p
                    if step == 1:
                        out.append((f"V_{coset}", 1))
                    else:
                        out.append((f"V_{target}", -1))
                    coset = target
        else:
            raise ValueError(f"unknown letter {gen}")
    return reduce_word(out), coset


def _evaluate_raw(p: int, word: Word, matrices: dict[str, Mat2]) -> Mat2:
    result = IDENTITY
    for label, exp in word:
        result = result * matrices[label] ** exp
    return result


@dataclass
class _Presentation:
    matrices: dict[str, Mat2]
    relators: list[Word]
    log: list[tuple[str, Word]] = field(default_factory=list)

    def eliminate(self, label: str, replacement: Word) -> None:
        self.log.append((label, reduce_word(replacement)))
        new_relators = []
        for rel in self.relators:
            out: Word = []
            for gen, exp in rel:
                if gen == label:
                    out.extend(_word_pow(replacement, exp))
                else:
                    out.append((gen, exp))
            reduced = _cyclic_reduce(out)
            if reduced:
                new_relators.append(reduced)
        self.relators = new_relators
        del self.matrices[label]


def _order_of(matrix: Mat2):
    t = abs(matrix.trace())
    if t == 0:
        return 2
    if t == 1:
        return 3
    return "inf"


def _label_sort_key(label: str) -> tuple[int, int]:
    if label == "S":
        return (0, 0)
    return (1, int(label[2:]))


def build_presentation(p: int) -> GenSet:
    """Compute the Rademacher generating set and presentation of Gamma0(p)/{+-I}.

    Reidemeister-Schreier over PSL2(Z) = <T, TS | T^2, (TS)^3> with the
    {I, T S^j} transversal, followed by Tietze elimination:

    1. pair relators V_q V_{q*} eliminate V_{q*} in favor of V_q (q < q*),
    2. generators occurring exactly once with exponent +-1 in some relator
       are greedily eliminated, elliptic generators excepted,

    until only the power relators of the elliptic generators remain.  All
    relators and eliminations are validated by exact matrix arithmetic.
    """
    _check_level(p)
    table = CosetTable(p)

    matrices: dict[str, Mat2] = {"S": S}
    for j in range(1, p):
        matrices[f"V_{j}"] = v_matrix(p, j)

    # Conjugated defining relators r w r^{-1}, rewritten through the table.
    relators: list[Word] = []
    rep_letters: dict[int, Word] = {COSET_INF: []}
    for j in range(p):
        rep_letters[j] = [("T", 1), ("S", j)]
    for w_letters in ([("T", 2)], [("T", 1), ("S", 1)] * 3):
        for coset in [COSET_INF] + list(range(p)):
            letters = rep_letters[coset] + w_letters + _invert_word(rep_letters[coset])
            word, end = _walk_letters(p, letters, COSET_INF)
            if end != COSET_INF:
                raise AssertionError("relator walk did not close up")
            if not _evaluate_raw(p, word, matrices).is_proj_identity():
                raise AssertionError("rewritten relator does not evaluate to +-I")
            word = _cyclic_reduce(word)
            if word:
                relators.append(word)

    pres = _Presentation(dict(matrices), relators)

    # Phase 1: pair eliminations V_{q*} = -V_q^{-1} from length-2 relators.
    changed = True
    while changed:
        changed = False
        for rel in list(pres.relators):
            if len(rel) == 2 and rel[0][0] != rel[1][0] and abs(rel[0][1]) == 1 and abs(rel[1][1]) == 1:
                (x, e1), (y, e2) = rel
                # eliminate the larger-q symbol
                if _label_sort_key(y) < _label_sort_key(x):
                    x, e1, y, e2 = y, e2, x, e1
                pres.eliminate(y, [(x, -e1 * e2)])
                changed = True
                break

    # Phase 2: greedy elimination of non-elliptic generators occurring once.
    def find_candidate() -> Optional[tuple[Word, str, int]]:
        for rel in sorted(pres.relators, key=len):
            counts: dict[str, int] = {}
            for gen, exp in rel:
                counts[gen] = counts.get(gen, 0) + abs(exp)
            for idx, (gen, exp) in enumerate(rel):
                if counts[gen] == 1 and abs(exp) == 1 and _order_of(pres.matrices[gen]) == "inf":
                    return rel, gen, idx
        return None

    while True:
        found = find_candidate()
        if found is None:
            break
        rel, gen, idx = found
        rotated = rel[idx:] + rel[:idx]
        e = rotated[0][1]
        rest = rotated[1:]
        replacement = _invert_word(rest) if e == 1 else list(rest)
        pres.relators.remove(rel)
        pres.eliminate(gen, replacement)

    # The surviving relators must be the elliptic power relators.
    power_of: dict[str, int] = {}
    for rel in pres.relators:
        if len(rel) != 1:
            raise AssertionError(f"non-power relator survived Tietze elimination: {rel}")
        gen, exp = rel[0]
        order = abs(exp)
        if order not in (2, 3) or _order_of(pres.matrices[gen]) != order:
            raise AssertionError(f"unexpected power relator {rel}")
        if power_of.setdefault(gen, order) != order:
            raise AssertionError(f"conflicting power relators for {gen}")

    labels = sorted(pres.matrices, key=_label_sort_key)
    orders = {lbl: _order_of(pres.matrices[lbl]) for lbl in labels}
    for lbl, order in orders.items():
        if order != "inf" and power_of.get(lbl) != order:
            raise AssertionError(f"elliptic generator {lbl} lacks its power relator")

    # Expand the elimination log into final words for every raw symbol.
    final_words: dict[str, Word] = {lbl: [(lbl, 1)] for lbl in labels}
    for label, replacement in reversed(pres.log):
        expanded: Word = []
        for gen, exp in replacement:
            expanded.extend(_word_pow(final_words[gen], exp))
        final_words[label] = reduce_word(expanded)

    gens = GenSet(p, labels, {lbl: matrices[lbl] for lbl in labels}, orders, final_words, table)

    # Certificate: every raw Schreier generator is reproduced, up to sign,
    # by its final word.
    for raw, word in final_words.items():
        value = _evaluate_raw(p, word, matrices)
        if value != matrices[raw] and value != -matrices[raw]:
            raise AssertionError(f"rewriting log fails to reproduce {raw}")

    return gens


def compute_Q(p: int, gens: Optional[GenSet] = None) -> set[int]:
    """The additive-twist moduli Q = {1} u {q : V_q in the generating set}."""
    if gens is None:
        gens = build_presentation(p)
    return gens.q_set()


def decompose_gamma0(gens: GenSet, gamma: Mat2) -> GammaWord:
    """Decompose an element of Gamma0(p) into a word over the generating set.

    Pipeline: decompose_sl2 -> Schreier rewriting through the coset table ->
    rewriting-log substitutions.  The result evaluates to +-gamma; the sign
    is recovered by exact re-multiplication.
    """
    p = gens.p
    if gamma.det() != 1:
        raise ValueError("gamma must have determinant 1")
    if gamma.c % p != 0:
        raise ValueError(f"matrix {gamma} is not in Gamma0({p})")
    st_word = decompose_sl2(gamma)
    tokens = gens.rewrite_st_word(st_word)
    word = GammaWord(tokens)
    value = word.evaluate(gens)
    if value == gamma:
        word.sign = 1
    elif value == -gamma:
        word.sign = -1
    else:
        raise AssertionError("Gamma0(p) decomposition failed to reproduce +-gamma")
    return word


def abelianize(word: GammaWord, gens: GenSet) -> ExpVector:
    """Exponent sums of a word: free part over Z, torsion parts mod 2 and 3."""
    return gens.abelianize_word(word)


def rademacher_signature(p: int) -> tuple[int, int, int]:
    """(l, a, b) = (2*floor(p/12) + 3, [p = 1 mod 4], [p = 1 mod 3])."""
    _check_level(p)
    return (2 * (p // 12) + 3, 1 if p % 4 == 1 else 0, 1 if p % 3 == 1 else 0)


def random_gamma0_element(p: int, rng, bound: int = 10**6) -> Mat2:
    """A random element of Gamma0(p): sample a bottom row (c, d) with p | c
    and gcd(c, d) = 1, entries bounded, and lift it with
    :func:`~weilgap.matrices.lift_bottom_row`."""
    while True:
        c = p * rng.randint(-(bound // p), bound // p)
        d = rng.randint(-bound, bound)
        if c == 0:
            if abs(d) != 1:
                continue
            b = rng.randint(-bound, bound)
            return Mat2(d, b, 0, d)
        if math.gcd(c, d) != 1:
            continue
        lift = lift_bottom_row(c, d)
        # shift the top row by a random multiple of (c, d)
        t = rng.randint(-3, 3)
        return Mat2(lift.a + t * c, lift.b + t * d, c, d)
