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

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

from .matrices import (
    IDENTITY, Mat2, S, STWord, decompose_sl2, euclid_quotients, evaluate_word, leading_s_power, lift_bottom_row,
    reduce_word, sign_against,
)

COSET_INF = -1  # label for the identity coset (the cusp at infinity)
# T S^p T^{-1} = V_1^{-1} S^{-1}: the raw Schreier symbols of one crossing of
# an S power from coset p - 1 to coset 0
WRAP = [("V_1", -1), ("S", -1)]
# the most crossings of coset p - 1 -> 0 a decompose_gamma0 word may make
MAX_WORD_CROSSINGS = 10**6
# PSL2(Z) = <T, TS | T^2, (TS)^3>, in the T^{+1} and S^t letters of the walk
DEFINING_RELATORS = ([("T", 1), ("T", 1)], [("T", 1), ("S", 1)] * 3)

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
    """tokens^n, unreduced; a one-token word stays one token however large n is."""
    if len(tokens) == 1:
        (gen, exp), = tokens
        return [(gen, exp * n)]
    return tokens * n if n >= 0 else _invert_word(tokens) * -n


def _substitute(tokens: Word, words: dict[str, Word]) -> Word:
    """The reduced word with each token (label, e) replaced by words[label]^e;
    labels not in words stay as they are."""
    out: Word = []
    for label, exp in tokens:
        if label in words:
            out.extend(_word_pow(words[label], exp))
        else:
            out.append((label, exp))
    return reduce_word(out)


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


def _t_target(p: int, coset: int) -> int:
    """The coset reached by a T step: I <-> T, and T S^r -> T S^{-1/r mod p}."""
    if coset == COSET_INF:
        return 0
    if coset == 0:
        return COSET_INF
    return (-pow(coset, -1, p)) % p


def _schreier_walk(p: int, letters: Word, coset: int = COSET_INF) -> tuple[Word, int]:
    """Walk T^{+1} and S^t letters through the transversal {I} u {T S^j}.

    Starts at the given coset and returns the reduced word of raw Schreier
    symbols and the coset the walk ends at.  The raw symbols are "S", the
    Schreier element of S at the identity coset, and "V_r", emitted by a T
    step from coset 0 < r < p; T steps between I and T emit nothing.  An S
    power stays one token at the identity coset; elsewhere it moves by
    divmod and emits WRAP once per crossing from p - 1 to 0 (its inverse per
    crossing back).  Symbols that are +-I are dropped; the lost signs are
    irrelevant in the projective group.
    """
    out: Word = []
    for gen, exp in letters:
        if gen == "T":
            if exp != 1:
                raise ValueError("the Schreier walk takes T^+1 letters only")
            if coset > 0:
                out.append((f"V_{coset}", 1))
            coset = _t_target(p, coset)
        elif gen != "S":
            raise ValueError(f"unknown letter {gen}")
        elif coset == COSET_INF:
            out.append(("S", exp))
        else:
            wraps, coset = divmod(coset + exp, p)
            out.extend(_word_pow(WRAP, wraps))
    return reduce_word(out), coset


def _schreier_relators(p: int, matrices: dict[str, Mat2]) -> list[Word]:
    """The Reidemeister-Schreier relators of Gamma0(p)/{+-I}, cyclically reduced.

    Each defining relator w is walked from its own coset, I first and then
    T S^0, ..., T S^{p-1}.  The transversal is a Schreier transversal, and
    S^j from coset 0 never crosses p - 1 -> 0, so the conjugating prefix
    T S^j and suffix S^{-j} T^{-1} of T S^j w S^{-j} T^{-1} emit no symbol:
    the walk of w alone is the rewritten conjugate.  Each walk must return
    to its coset, and each relator must evaluate to +-I.
    """
    relators: list[Word] = []
    powers: dict = {}
    for w in DEFINING_RELATORS:
        for coset in (COSET_INF, *range(p)):
            word, end = _schreier_walk(p, w, coset)
            if end != coset:
                raise AssertionError(f"walk of relator {w} from coset {coset} did not return to it")
            sign_against(evaluate_word(word, matrices, powers), IDENTITY, "rewritten relator")
            word = _cyclic_reduce(word)
            if word:
                relators.append(word)
    return relators


class GammaWord:
    """A word over the generators of a GenSet, with a sign flag.

    ``tokens`` is a list of (label, exponent) with no two adjacent tokens
    sharing a label; the element equals sign * (product left to right).
    """

    def __init__(self, tokens: Word, sign: int = 1):
        self.tokens = reduce_word(tokens)
        self.sign = sign

    @classmethod
    def _of_reduced(cls, tokens: Word) -> "GammaWord":
        """The word of tokens that are reduced already, without a second pass."""
        word = cls.__new__(cls)
        word.tokens, word.sign = tokens, 1
        return word

    def evaluate(self, gens: "GenSet") -> Mat2:
        return evaluate_word(self.tokens, gens._matrices, dict(gens._unit_powers))

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


class GenSet:
    """Generating set {S} u {V_q : q in Q'} of Gamma0(p)/{+-I} with orders,
    free-product signature, and the rewriting log of the Tietze eliminations.

    From the log it tabulates, once, the classes of the Schreier rewriting of
    the letters of :func:`~weilgap.matrices.decompose_sl2` words: per coset,
    the class of the T step (sparse, unreduced coordinates) and its target
    coset; and the class of one wrap, T S^p T^{-1} = V_1^{-1} S^{-1}, which
    an S power contributes each time it crosses from coset p - 1 to 0 (as
    an ExpVector, ``parabolic_class``).
    """

    def __init__(
        self,
        p: int,
        labels: list[str],
        matrices: dict[str, Mat2],
        orders: dict[str, object],
        rewriting_log: dict[str, Word],
    ):
        self.p = p
        self.labels = labels
        self._matrices = matrices
        # the entries of each generator to the power +-1, copied as the
        # starting cache of each evaluate_word call, so the cache stays bounded
        self._unit_powers = {(lbl, e): (m**e).entries() for lbl, m in matrices.items() for e in (1, -1)}
        self.orders = orders
        self.rewriting_log = rewriting_log  # raw Schreier symbol -> word over final labels

        self.free_labels = [lbl for lbl in labels if orders[lbl] == "inf"]
        self.order2_labels = [lbl for lbl in labels if orders[lbl] == 2]
        self.order3_labels = [lbl for lbl in labels if orders[lbl] == 3]
        l = len(labels)
        a2, b3 = len(self.order2_labels), len(self.order3_labels)
        assert a2 % 2 == 0 and b3 % 2 == 0
        self.signature = (l, a2 // 2, b3 // 2)
        # coordinates of a class: free, then order-2, then order-3 labels
        self._index = {lbl: i for i, lbl in enumerate(self.free_labels + self.order2_labels + self.order3_labels)}
        self.s_index = self._index["S"]  # S is free: also its index in ExpVector.free

        def sparse_class(raw: Word) -> list[tuple[int, int]]:
            # the exponent sums of raw substituted through the log, which
            # free reduction leaves unchanged
            coords: dict[int, int] = defaultdict(int)
            for symbol, n in raw:
                for label, exp in rewriting_log[symbol]:
                    coords[self._index[label]] += n * exp
            return [(i, e) for i, e in sorted(coords.items()) if e]

        self._t_steps = {
            coset: (sparse_class(_schreier_walk(p, [("T", 1)], coset)[0]), _t_target(p, coset))
            for coset in (COSET_INF, *range(p))
        }
        self._wrap_class = sparse_class(WRAP)
        wrap = [0] * len(self._index)
        for i, e in self._wrap_class:
            wrap[i] = e
        self.parabolic_class = self._vector(wrap)

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

    # -- Schreier rewriting of S/T words -------------------------------------

    def rewrite_st_word(self, word: STWord) -> Word:
        """Schreier-rewrite a decompose_sl2 word of an element of Gamma0(p):
        its walk from the identity coset, expanded through the rewriting log."""
        raw, coset = _schreier_walk(self.p, word.tokens)
        if coset != COSET_INF:
            raise AssertionError("rewriting of a Gamma0(p) element did not return to the identity coset")
        return _substitute(raw, self.rewriting_log)

    # -- abelianization -----------------------------------------------------

    def _coords(self, tokens: Word) -> list[int]:
        coords = [0] * len(self._index)
        for label, exp in tokens:
            coords[self._index[label]] += exp
        return coords

    def _vector(self, coords: list[int]) -> ExpVector:
        n1 = len(self.free_labels)
        n2 = n1 + len(self.order2_labels)
        return ExpVector(
            tuple(coords[:n1]), tuple(x % 2 for x in coords[n1:n2]), tuple(x % 3 for x in coords[n2:])
        )

    def walk_coords(self, quotients: list[int]) -> list[int]:
        """Unreduced class coordinates of T S^{t_k} T ... T S^{t_1}, for the
        quotients t_1..t_k of a bottom row (c, d) with p | c.

        The Schreier walk of the letters, on classes: a T step adds its
        tabulated class, an S^t at the identity coset adds t[S], and an S^t
        elsewhere adds one wrap class per crossing of the p - 1 -> 0
        boundary.  O(k) table lookups; no word is built.
        """
        p, steps, wrap, s_index = self.p, self._t_steps, self._wrap_class, self.s_index
        coords = [0] * len(self._index)
        coset = COSET_INF
        for t in reversed(quotients):
            step, coset = steps[coset]
            for i, e in step:
                coords[i] += e
            if coset == COSET_INF:
                coords[s_index] += t
            else:
                wraps, coset = divmod(coset + t, p)
                if wraps:
                    for i, e in wrap:
                        coords[i] += wraps * e
        if coset != COSET_INF:
            raise AssertionError("walk of a Gamma0(p) bottom row did not return to the identity coset")
        return coords

    def walk_tables(self, weights: list[int]) -> tuple[list[int], list[int], int]:
        """The tables of walk_coords, each class dotted with one integer
        weight per coordinate: per coset, the identity coset at index p,
        the weight of the T step's class and the index of the coset it
        reaches; and the weight of the wrap class."""
        p = self.p
        steps, targets = [0] * (p + 1), [0] * (p + 1)
        for coset, (step, target) in self._t_steps.items():
            steps[coset % (p + 1)] = sum(weights[i] * e for i, e in step)  # COSET_INF -> p
            targets[coset % (p + 1)] = target % (p + 1)
        return steps, targets, sum(weights[i] * e for i, e in self._wrap_class)

    def crossings(self, quotients: list[int]) -> int:
        """The number of p - 1 <-> 0 crossings in the walk of walk_coords:
        the wrap words the word path writes out for these quotients."""
        p, steps = self.p, self._t_steps
        count, coset = 0, COSET_INF
        for t in reversed(quotients):
            coset = steps[coset][1]
            if coset != COSET_INF:
                wraps, coset = divmod(coset + t, p)
                count += abs(wraps)
        return count

    def class_of(self, gamma: Mat2) -> ExpVector:
        """The class of gamma in Gamma0(p)^ab, without building its word.

        Equals abelianize(decompose_gamma0(self, gamma), self): the walk
        over the quotients of the bottom row, plus e[S] for the leading S^e
        of the decompose_sl2 word.  Self-certifying: the whole matrix is
        reduced along the same quotients to +-S^e, and the walk must return
        to the identity coset.
        """
        if gamma.det() != 1:
            raise ValueError("gamma must have determinant 1")
        if gamma.c % self.p != 0:
            raise ValueError(f"matrix {gamma} is not in Gamma0({self.p})")
        quotients = euclid_quotients(gamma.c, gamma.d)
        coords = self.walk_coords(quotients)
        coords[self.s_index] += leading_s_power(gamma, quotients)
        return self._vector(coords)

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


def _pair_eliminations(relators: list[Word]) -> tuple[list[Word], list[tuple[str, Word]]]:
    """Tietze phase 1: the length-2 relators are the T^2 walks V_r V_{r*}
    (r r* = -1 mod p) from the cosets r > 0.  Each eliminates its larger
    label, V_{max} = V_{min}^{-1}, logged in relator order.  The pairs are
    disjoint, so the whole map is one substitution, applied to every relator
    in one pass; trivial relators are dropped.  Returns (relators, log)."""
    pairs: dict[str, Word] = {}
    for rel in relators:
        if len(rel) == 2:
            (x, e1), (y, e2) = sorted(rel, key=lambda tok: _label_sort_key(tok[0]))
            pairs.setdefault(y, [(x, -e1 * e2)])
    rewritten = (_cyclic_reduce(_substitute(rel, pairs)) for rel in relators)
    return [rel for rel in rewritten if rel], list(pairs.items())


def _eligible_token(rel: Word, elliptic: set[str]) -> Optional[int]:
    """The index of the first token of rel whose label occurs once in rel,
    with exponent +-1, and is not elliptic; None if there is none."""
    counts = Counter(gen for gen, _ in rel)
    for i, (gen, exp) in enumerate(rel):
        if counts[gen] == 1 and abs(exp) == 1 and gen not in elliptic:
            return i
    return None


def _rewrite(live: dict[int, Word], holders: dict[str, set[int]], label: str, replacement: Word) -> list[int]:
    """Substitute replacement for label in the relators that hold it.

    ``live`` maps list positions to relators and ``holders`` is the
    occurrence index, label -> positions of the relators that hold it.  Only
    the relators indexed under label are touched: each is rewritten,
    cyclically reduced and re-indexed in place, and dropped if trivial.
    Returns the positions of the rewritten relators that survive.
    """
    subst = {label: replacement}
    kept = []
    for pos in holders.pop(label):
        old = live.pop(pos)
        new = _cyclic_reduce(_substitute(old, subst))
        for gen, _ in old:
            holders[gen].discard(pos)
        for gen, _ in new:
            holders[gen].add(pos)
        if new:
            live[pos] = new
            kept.append(pos)
    return kept


def _tietze(relators: list[Word], matrices: dict[str, Mat2]) -> tuple[list[Word], list[tuple[str, Word]]]:
    """The surviving relators and the elimination log.

    After phase 1, each step eliminates the first non-elliptic generator
    that occurs once, with exponent +-1, in the shortest relator that has
    one, the earliest in list order among equal lengths.  A rewritten
    relator keeps its list position, so phase 2 keys the relators by their
    positions after phase 1 and keeps two indexes instead of rescanning:

    * the occurrence index (label -> positions of the relators holding it),
      so an elimination rewrites only the relators that hold its label;
    * a worklist, a heap of (length, position) pushed whenever a relator is
      written.  An entry is taken when it surfaces if its relator is still
      there, still of that length and has an eligible token; otherwise it
      is stale and skipped.  Eligibility depends on the relator alone, so
      the first entry taken is the step a full rescan would take.

    A step costs the length of the relators it rewrites.
    """
    relators, log = _pair_eliminations(relators)
    elliptic = {label for label, m in matrices.items() if _order_of(m) != "inf"}
    live = dict(enumerate(relators))
    holders: dict[str, set[int]] = defaultdict(set)
    for pos, rel in live.items():
        for gen, _ in rel:
            holders[gen].add(pos)
    worklist = [(len(rel), pos) for pos, rel in live.items()]
    heapq.heapify(worklist)
    while worklist:
        length, pos = heapq.heappop(worklist)
        rel = live.get(pos)
        if rel is None or len(rel) != length or (idx := _eligible_token(rel, elliptic)) is None:
            continue
        gen, exp = rel[idx]
        rest = rel[idx + 1:] + rel[:idx]
        replacement = _invert_word(rest) if exp == 1 else rest
        for other, _ in live.pop(pos):
            holders[other].discard(pos)
        log.append((gen, replacement))
        for kept in _rewrite(live, holders, gen, replacement):
            heapq.heappush(worklist, (len(live[kept]), kept))
    return [live[pos] for pos in sorted(live)], log


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
    matrices = {"S": S, **{f"V_{j}": v_matrix(p, j) for j in range(1, p)}}
    relators, log = _tietze(_schreier_relators(p, matrices), matrices)

    # The surviving relators must be the elliptic power relators.
    power_of: dict[str, int] = {}
    for rel in relators:
        if len(rel) != 1:
            raise AssertionError(f"non-power relator survived Tietze elimination: {rel}")
        gen, exp = rel[0]
        order = abs(exp)
        if order not in (2, 3) or _order_of(matrices[gen]) != order:
            raise AssertionError(f"unexpected power relator {rel}")
        if power_of.setdefault(gen, order) != order:
            raise AssertionError(f"conflicting power relators for {gen}")

    labels = sorted(matrices.keys() - {label for label, _ in log}, key=_label_sort_key)
    orders = {lbl: _order_of(matrices[lbl]) for lbl in labels}
    for lbl, order in orders.items():
        if order != "inf" and power_of.get(lbl) != order:
            raise AssertionError(f"elliptic generator {lbl} lacks its power relator")

    # Expand the elimination log into final words for every raw symbol.
    final_words: dict[str, Word] = {lbl: [(lbl, 1)] for lbl in labels}
    for label, replacement in reversed(log):
        final_words[label] = _substitute(replacement, final_words)

    # Certificate: every raw Schreier generator is reproduced, up to sign,
    # by its final word.
    powers: dict = {}
    for raw, word in final_words.items():
        sign_against(evaluate_word(word, matrices, powers), matrices[raw], f"rewriting-log word of {raw}")

    return GenSet(p, labels, {lbl: matrices[lbl] for lbl in labels}, orders, final_words)


def compute_Q(p: int, gens: Optional[GenSet] = None) -> set[int]:
    """The additive-twist moduli Q = {1} u {q : V_q in the generating set}."""
    if gens is None:
        gens = build_presentation(p)
    return gens.q_set()


def decompose_gamma0(gens: GenSet, gamma: Mat2) -> GammaWord:
    """Decompose an element of Gamma0(p) into a word over the generating set.

    Pipeline: decompose_sl2 -> the Schreier walk of its letters from the
    identity coset -> rewriting-log substitutions.  The result evaluates to
    +-gamma; the sign is recovered by exact re-multiplication.  The word
    holds one wrap word per crossing of the walk from coset p - 1 to 0, so
    the crossings are counted first, without a word, and more than
    MAX_WORD_CROSSINGS raise ValueError.
    """
    p = gens.p
    if gamma.det() != 1:
        raise ValueError("gamma must have determinant 1")
    if gamma.c % p != 0:
        raise ValueError(f"matrix {gamma} is not in Gamma0({p})")
    crossings = gens.crossings(euclid_quotients(gamma.c, gamma.d))
    if crossings > MAX_WORD_CROSSINGS:
        raise ValueError(
            f"the word of {gamma} crosses coset {p - 1} -> 0 {crossings} times;"
            f" words are written out for at most {MAX_WORD_CROSSINGS} crossings"
        )
    word = GammaWord._of_reduced(gens.rewrite_st_word(decompose_sl2(gamma)))  # _substitute reduced it
    word.sign = sign_against(word.evaluate(gens), gamma, "Gamma0(p) decomposition")
    return word


def abelianize(word: GammaWord, gens: GenSet) -> ExpVector:
    """Exponent sums of a word: free part over Z, torsion parts mod 2 and 3."""
    return gens._vector(gens._coords(word.tokens))


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
