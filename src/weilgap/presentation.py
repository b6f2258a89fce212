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
from itertools import chain, repeat
from types import MappingProxyType
from typing import Optional, Sequence

from .characters import _factorize
from .matrices import (
    IDENTITY, Entries, Mat2, S, T, _fold, _product, evaluate_word, lift_bottom_row, reduce_word, sign_against,
    st_letters,
)

COSET_INF = -1  # label for the identity coset (the cusp at infinity)
# P = T S^p T^{-1} = V_1^{-1} S^{-1}: the raw Schreier symbol "P" stands for
# one crossing of an S power from coset p - 1 to coset 0, and WRAP is its word
WRAP = [("V_1", -1), ("S", -1)]
# the most tokens a decompose_gamma0 word may write out: 10^6 crossings of
# coset p - 1 -> 0 at p = 13, whose wrap word has 5 tokens
MAX_WORD_TOKENS = 5 * 10**6
# PSL2(Z) = <T, TS | T^2, (TS)^3>, each u^k as (u, k) in the T^{+1} and S^t letters of the walk
DEFINING_RELATORS = (([("T", 1)], 2), ([("T", 1), ("S", 1)], 3))

Token = tuple[str, int]
Word = list[Token]
# per coset, the raw symbol its T step emits (None if none) and the coset it reaches
Steps = list[tuple[Optional[Token], int]]
# a class in Gamma0(p)^ab as {coordinate: exponent}, coordinates those of
# GenSet._index, torsion exponents reduced mod their order and zeros left out
Class = dict[int, int]


def is_prime(n: int) -> bool:
    return n > 1 and _factorize(n) == [(n, 1)]


def _check_level(p: int) -> int:
    """p itself, if it is a level this package works at: a prime > 3."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= 3:
        raise ValueError(f"level must be a prime > 3, got {p}")
    return p


def _require_level(p: int, obj) -> None:
    """Refuse a level p passed beside an object of another level (obj.p)."""
    if p != obj.p:
        raise ValueError(f"p = {p} differs from the level {obj.p} of the {type(obj).__name__}")


def v_matrix(p: int, q: int) -> Mat2:
    """The Rademacher matrix V_q = [[-q*, -1], [q q* + 1, q]].

    q* is the unique solution of q q* = -1 (mod p) with 1 <= q* < p.
    """
    if q % p == 0:
        raise ValueError(f"q = {q} is divisible by p = {p}")
    qs = (-pow(q, -1, p)) % p
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


class CertifiedWord(tuple):
    """A reduced word as an immutable tuple of tokens, held together with
    ``product``, the exact product of those tokens left to right.

    The product is taken from the tokens when the word is made, by
    :func:`_splice` or from a generator's own matrix, so a word changed
    afterwards is another tuple, without a product."""

    def __new__(cls, tokens: Sequence[Token], product: Mat2):
        word = super().__new__(cls, tokens)
        word.product = product
        return word


def _invert_word(tokens: Sequence[Token]) -> Sequence[Token]:
    """The inverse word; a CertifiedWord's is certified by the adjugate of
    its product, its inverse as the det is 1.  ([::-1] is a plain sequence,
    which reads faster than a reversed tuple subclass.)"""
    inverse = [(gen, -exp) for gen, exp in tokens[::-1]]
    if isinstance(tokens, CertifiedWord):
        return CertifiedWord(inverse, tokens.product.inv())
    return inverse


def _append(out: Word, piece: Sequence[Token]) -> int:
    """Append the reduced word piece to the reduced word out, reducing only at
    the seam: cancellation may reach back through out, and then at most one
    token merges; the rest of piece is copied as it is.  Returns the number
    i of piece's tokens taken up at the seam: each removed or changed one
    token of out, so out[:len(out) - i] before the call is left as it was."""
    i = 0
    for gen, exp in piece:
        if not out or out[-1][0] != gen:
            break
        merged = out[-1][1] + exp
        i += 1
        if merged:
            out[-1] = (gen, merged)
            break
        out.pop()
    out.extend(piece[i:] if i else piece)
    return i


def _cut(runs: list, size: int) -> None:
    """Cut the runs of :func:`_substitute` back to the first size tokens."""
    while runs and runs[-1][0] >= size:
        runs.pop()
    if runs and runs[-1][1] > size:
        start, _, piece, lo = runs[-1]
        runs[-1] = (start, size, piece, lo)


def _substitute(
    tokens: Word, words: dict[str, Word], inverses: Optional[dict[str, Word]] = None, runs: Optional[list] = None,
) -> Word:
    """The reduced word with each token (label, e) replaced by words[label]^e;
    labels not in words stay as they are.  The words must be reduced: each
    piece is, so the output is reduced at the seams only, and a one-token
    piece merges with or cancels the last token written.  A longer word's
    inverse is read from ``inverses`` (label -> word), entered there on a miss.

    A power of a longer word whose end tokens differ reduces only at the
    seam of its first copy: the other copies are written at once.

    Given a list ``runs``, the copies of a longer word (or of its inverse)
    written are entered there as (start, end, piece, lo): out[start:end] is
    piece repeated, from its token lo on, cut back as later seams reduce
    through it.  The tokens between runs are the ones written one at a time,
    bare or merged."""
    out: Word = []
    inverses = {} if inverses is None else inverses
    for token in tokens:
        label, exp = token
        word = words.get(label)
        if word is not None:
            if len(word) > 1:
                piece = word if exp >= 0 else inverses.get(label) or inverses.setdefault(label, _invert_word(word))
                copies = abs(exp)
                while copies:
                    size, i = len(out), _append(out, piece)
                    start, copies = len(out) - len(piece) + i, copies - 1
                    if copies and i < len(piece) and piece[0][0] != piece[-1][0]:
                        out.extend(chain.from_iterable(repeat(piece, copies)))
                        copies = 0
                    if runs is not None:
                        if i:
                            _cut(runs, size - i)
                        if i < len(piece):
                            runs.append((start, len(out), piece, i))
                continue
            if not word:
                continue
            (label, e), = word
            exp *= e
            token = (label, exp)
        if not exp:
            continue
        if out and out[-1][0] == label:
            merged = out[-1][1] + exp
            if merged:
                out[-1] = (label, merged)
            else:
                out.pop()
            if runs is not None:
                _cut(runs, len(out) - bool(merged))
        else:
            out.append(token)
    return out


def _repeats(out: Word, start: int, end: int, piece: Sequence[Token], lo: int) -> bool:
    """Whether out[start:end] is piece repeated from its token lo on, token
    for token: its first copy by a slice, and the copies after it in blocks
    of whole copies of about 4096 tokens, so memory stays bounded."""
    n = len(piece)
    head = min(end, start + n - lo)
    if out[start:head] != list(piece[lo:lo + head - start]):
        return False
    if head == end:
        return True
    block = list(piece) * (4096 // n + 1)
    return all(out[i:min(end, i + len(block))] == block[:end - i] for i in range(head, end, len(block)))


def _slice_product(piece: CertifiedWord, lo: int, hi: int, matrices: dict[str, Mat2], powers: dict) -> Entries:
    """The entries of the product of piece[lo:hi]: the piece's product if it
    is whole; the product of its tokens if they are at most half of it; else
    the piece's product between the inverses of the trimmed head and tail,
    their adjugates, as every generator has det 1."""
    n = len(piece)
    if hi - lo == n:
        return piece.product.entries()
    if 2 * (hi - lo) <= n:
        return _product(piece[lo:hi], matrices, powers)
    a, b, c, d = _product(piece[:lo], matrices, powers)
    w, x, y, z = _product(piece[hi:], matrices, powers)
    return _fold([(d, -b, -c, a), piece.product.entries(), (z, -x, -y, w)])


def _spliced_product(out: Word, runs: list, matrices: dict[str, Mat2], powers: dict) -> Mat2:
    """The product of the word out from the runs :func:`_substitute` entered
    while writing it, each piece a CertifiedWord.

    Each run is compared token for token with its piece (:func:`_repeats`),
    and the runs must lie in order inside out; otherwise AssertionError.  A
    run from token lo to token hi of piece repeated, n = len(piece), is
    piece[lo:n] piece^q piece[:r] with q, r = divmod(hi - n, n) if hi > n:
    each part's product comes from the piece's (:func:`_slice_product`, and
    binary powering for piece^q), and the tokens between runs are multiplied
    out, so the product is exactly that of out's tokens.  ``powers`` is the
    memo of :func:`~weilgap.matrices.evaluate_word`.
    """
    pos, factors = 0, []
    for start, end, piece, lo in runs:
        if not pos <= start < end <= len(out):
            raise AssertionError(f"the runs of a spliced word do not tile it at token {start}")
        if not isinstance(piece, CertifiedWord) or not _repeats(out, start, end, piece, lo):
            raise AssertionError(f"tokens {start} to {end} of a spliced word are not their certified piece's")
        if pos < start:
            factors.append(_product(out[pos:start], matrices, powers))
        n, hi = len(piece), lo + end - start
        factors.append(_slice_product(piece, lo, min(hi, n), matrices, powers))
        if hi > n:
            q, r = divmod(hi - n, n)
            if q:
                factors.append((piece.product ** q).entries())
            if r:
                factors.append(_slice_product(piece, 0, r, matrices, powers))
        pos = end
    if pos < len(out):
        factors.append(_product(out[pos:], matrices, powers))
    return Mat2(*_fold(factors))


def _splice(
    tokens: Word, words: dict[str, Word], inverses: dict[str, Word], matrices: dict[str, Mat2], powers: dict,
) -> tuple[Word, Mat2]:
    """The word of :func:`_substitute` over CertifiedWords, and its product
    from the pieces' products (:func:`_spliced_product`)."""
    runs: list = []
    out = _substitute(tokens, words, inverses, runs)
    return out, _spliced_product(out, runs, matrices, powers)


def _cyclic_reduce(tokens: Word) -> Word:
    """The cyclic reduction of a reduced word: matching end tokens are
    trimmed, and merged once, which leaves the ends distinct."""
    i, j = 0, len(tokens) - 1
    while i < j and tokens[i][0] == tokens[j][0]:
        merged = tokens[i][1] + tokens[j][1]
        if merged:
            return [(tokens[i][0], merged), *tokens[i + 1:j]]
        i, j = i + 1, j - 1
    return tokens[i:j + 1] if i else tokens


def _t_steps(p: int) -> Steps:
    """The T step of each coset, indexed by coset with the identity coset
    COSET_INF = -1 last: the raw symbol it emits, None between I and T, and
    the coset it reaches.  From coset 0 < r < p it emits ("V_r", 1) and
    goes on to T S^{-1/r mod p}."""
    steps: Steps = [(None, COSET_INF)]
    steps += [((f"V_{r}", 1), (-pow(r, -1, p)) % p) for r in range(1, p)]
    return steps + [(None, 0)]


def _schreier_walk(steps: Steps, letters: Word, coset: int = COSET_INF) -> tuple[Word, int]:
    """Walk T^{+1} and S^t letters through the transversal {I} u {T S^j}.

    Starts at the given coset and returns the reduced word of raw Schreier
    symbols and the coset the walk ends at; ``steps`` is the T-step table
    of the level p (:func:`_t_steps`).  The raw symbols are "S", the
    Schreier element of S at the identity coset; "V_r", emitted by a T
    step from coset 0 < r < p; and "P", the wrap T S^p T^{-1}.  An S
    power stays one token at the identity coset; elsewhere it moves by
    divmod and emits one ("P", wraps) token, wraps counting its crossings
    from p - 1 to 0 (negative when it crosses back).  Symbols that are +-I
    are dropped; the lost signs are irrelevant in the projective group.
    """
    p = len(steps) - 1
    out: Word = []
    for gen, exp in letters:
        if gen == "T":
            if exp != 1:
                raise ValueError("the Schreier walk takes T^+1 letters only")
            token, coset = steps[coset]
            if token is not None:
                out.append(token)
        elif gen != "S":
            raise ValueError(f"unknown letter {gen}")
        elif coset == COSET_INF:
            out.append(("S", exp))
        else:
            wraps, coset = divmod(coset + exp, p)
            out.append(("P", wraps))
    return reduce_word(out), coset


def _schreier_relators(steps: Steps, matrices: dict[str, Mat2]) -> list[Word]:
    """The Reidemeister-Schreier relators of Gamma0(p)/{+-I}, cyclically
    reduced: one relator per cycle of a defining relator's period on the cosets.

    Each defining relator u^k is walked from the cosets I, T S^0, ...,
    T S^{p-1} in order.  The transversal is a Schreier transversal, and S^j
    from coset 0 never crosses p - 1 -> 0, so the conjugating prefix T S^j
    and suffix S^{-j} T^{-1} of T S^j u^k S^{-j} T^{-1} emit no symbol: the
    walk of u^k alone is the rewritten conjugate.  The cosets a walk passes
    at its period boundaries, its cycle under u, would give rotations of its
    relator and are skipped.  Each walk must return to its coset, and each
    relator, with P written out as WRAP, must evaluate to +-I.
    """
    relators: list[Word] = []
    powers: dict = {}
    wrap, inverses = {"P": WRAP}, {}
    for period, power in DEFINING_RELATORS:
        passed = set()
        for coset in (COSET_INF, *range(len(steps) - 1)):
            if coset in passed:
                continue
            word, end = [], coset
            for _ in range(power):
                passed.add(end)
                piece, end = _schreier_walk(steps, period, end)
                _append(word, piece)
            if end != coset:
                raise AssertionError(f"walk of relator {period}^{power} from coset {coset} did not return to it")
            word = _substitute(word, wrap, inverses)
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
        """The product of the word, without its sign, multiplied out from its
        tokens alone: the oracle a decomposition's spliced product is tested against."""
        return evaluate_word(self.tokens, gens._matrices)

    def to_json(self) -> dict:
        return {"word": [{"gen": g, "exp": e} for g, e in self.tokens], "sign": self.sign}

    def __repr__(self) -> str:
        if not self.tokens:
            return f"GammaWord(1, sign={self.sign})"
        body = "*".join(f"{g}^{e}" if e != 1 else g for g, e in self.tokens)
        return f"GammaWord({body}, sign={self.sign})"


class GenSet:
    """Generating set {S} u {V_q : q in Q'} of Gamma0(p)/{+-I} with orders,
    free-product signature, and the rewriting log of the Tietze eliminations.

    Made from the matrix of every raw symbol but P (S and V_1..V_{p-1}),
    the Tietze rules and the T-step table ``_steps`` of the walk
    (:func:`_t_steps`).  ``_rules`` is the elimination log of
    :func:`_tietze` as rules, symbol -> replacement, in reversed log order
    with P's rule WRAP last, so each rule's tokens are final labels or
    symbols whose rules come before it.  The final labels are the symbols
    without a rule, and ``_matrices`` holds their matrices only.

    One pass over the rules writes ``_raw_words``, the word of every raw
    symbol of :func:`_schreier_walk` over the final labels: each word is
    spliced from the words its rule reads, as a CertifiedWord, whose
    product must be +-that symbol's matrix (P's is T S^p T^{-1}).  The
    splice of a decomposition (:meth:`rewrite_st_word`) reads those
    products, and a decomposition writes its tokens from those tuples.
    ``rewriting_log`` is the same words without P's; ``_inverses`` holds
    the inverse of P's word.  ``_classes`` is the memo of :meth:`_class`:
    the class of a raw symbol as sparse (coordinate, exponent sum) pairs,
    summed from the rules when a walk first reads it.  A class
    (:meth:`class_of`, :func:`abelianize`) is those pairs summed into a
    :data:`Class` dict; P's is ``parabolic_class``.  ``_torsion`` maps each
    torsion coordinate to its order.  ``_unit_powers`` holds the read-only
    entries of every generator and its inverse, keyed by the tokens
    (label, 1) and (label, -1).
    """

    def __init__(self, p: int, matrices: dict[str, Mat2], rules: dict[str, Word], steps: Steps):
        self.p = p
        self._steps = steps
        self._rules = rules
        self.labels = labels = sorted(matrices.keys() - rules.keys(), key=_label_sort_key)
        self._matrices = {lbl: matrices[lbl] for lbl in labels}
        self.orders = orders = {lbl: _order_of(matrices[lbl]) for lbl in labels}

        self.free_labels = [lbl for lbl in labels if orders[lbl] == "inf"]
        self.order2_labels = [lbl for lbl in labels if orders[lbl] == 2]
        self.order3_labels = [lbl for lbl in labels if orders[lbl] == 3]
        l = len(labels)
        a2, b3 = len(self.order2_labels), len(self.order3_labels)
        assert a2 % 2 == 0 and b3 % 2 == 0
        self.signature = (l, a2 // 2, b3 // 2)
        # coordinates of a class: free, then order-2, then order-3 labels
        self._index = {lbl: i for i, lbl in enumerate(self.free_labels + self.order2_labels + self.order3_labels)}
        self.s_index = self._index["S"]  # S is free: its coordinate is also its place among free_labels
        self._torsion = {self._index[lbl]: orders[lbl] for lbl in self.order2_labels + self.order3_labels}

        # read-only: each splice copies it into its own memo of powers; an
        # inverse is the adjugate, as every generator has det 1
        units = {}
        for lbl in labels:
            a, b, c, d = units[lbl, 1] = matrices[lbl].entries()
            units[lbl, -1] = (d, -b, -c, a)
        self._unit_powers = MappingProxyType(units)

        targets = {**matrices, "P": T * S**p * T.inv()}
        words = {lbl: CertifiedWord([(lbl, 1)], matrices[lbl]) for lbl in labels}
        inverses: dict[str, Word] = {}
        powers = self._unit_powers.copy()
        for symbol, rule in rules.items():
            tokens, product = _splice(rule, words, inverses, self._matrices, powers)
            sign_against(product, targets[symbol], f"rewriting-log word of {symbol}")
            words[symbol] = CertifiedWord(tokens, product)
        self._raw_words = words
        self.rewriting_log = {symbol: word for symbol, word in words.items() if symbol != "P"}
        self._inverses = {"P": _invert_word(words["P"])}  # copied per rewrite_st_word call, which may add to it
        self._classes = {lbl: [(i, 1)] for lbl, i in self._index.items()}
        self.parabolic_class = self._coords([("P", 1)])

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

    def _walk(self, gamma: Mat2) -> Word:
        """The raw Schreier word of gamma, which must have det 1 and p | c:
        the walk of :func:`~weilgap.matrices.st_letters` from the identity
        coset, where it must end."""
        if gamma.det() != 1:
            raise ValueError("gamma must have determinant 1")
        if gamma.c % self.p != 0:
            raise ValueError(f"matrix {gamma} is not in Gamma0({self.p})")
        raw, coset = _schreier_walk(self._steps, st_letters(gamma))
        if coset != COSET_INF:
            raise AssertionError("walk of a Gamma0(p) element did not return to the identity coset")
        return raw

    def rewrite_st_word(self, raw: Word) -> tuple[Word, Mat2]:
        """The Schreier rewriting of an S/T word and its product, from the
        raw word of its walk (:meth:`_walk`): every raw symbol expanded
        through ``_raw_words``, P through its wrap word, P^-1 read from
        ``_inverses``, and the product spliced from theirs (:func:`_splice`),
        with a memo of powers that starts from ``_unit_powers``."""
        return _splice(raw, self._raw_words, dict(self._inverses), self._matrices, self._unit_powers.copy())

    # -- abelianization -----------------------------------------------------

    def _class(self, symbol: str) -> list[tuple[int, int]]:
        """The class of a raw symbol: a final label's is its own coordinate,
        an eliminated label's or P's the sum of its rule's token classes, n
        times each (free reduction leaves exponent sums unchanged).  Summed
        once, on first use, with the classes of the rules it reads first,
        from an explicit stack, so a long chain of rules needs no recursion."""
        classes, rules = self._classes, self._rules
        stack = [symbol]
        while stack:
            top = stack[-1]
            if top in classes:
                stack.pop()
                continue
            missing = [label for label, _ in rules[top] if label not in classes]
            if missing:
                stack += missing
                continue
            stack.pop()
            sums: dict[int, int] = {}
            for label, n in rules[top]:
                for i, e in classes[label]:
                    sums[i] = sums.get(i, 0) + n * e
            classes[top] = sorted((i, e) for i, e in sums.items() if e)
        return classes[symbol]

    def _coords(self, raw: Word) -> Class:
        """The class of a word of raw Schreier symbols, final labels among
        them: its symbols' classes (:meth:`_class`), summed, so none is
        written out, with each torsion exponent reduced mod its order."""
        sums, classes = {}, self._classes
        for symbol, n in raw:
            for i, e in classes[symbol] if symbol in classes else self._class(symbol):
                sums[i] = sums.get(i, 0) + n * e
        for i, order in self._torsion.items():
            if i in sums:
                sums[i] %= order
        return {i: e for i, e in sums.items() if e}

    def class_of(self, gamma: Mat2) -> Class:
        """The class of gamma in Gamma0(p)^ab, without building its word.

        Equals abelianize(decompose_gamma0(self, gamma), self): the classes
        of the raw symbols in the walk of gamma's S/T letters, summed into a
        :data:`Class`.  A homomorphism: the class of a product is the sum of
        the classes.  Self-certifying: :func:`~weilgap.matrices.st_letters`
        reduces the whole matrix along its quotients to +-S^e, and the walk
        must return to the identity coset (:meth:`_walk`).
        """
        return self._coords(self._walk(gamma))

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
                    "order": self.orders[lbl],
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
    subst, inverses = {label: replacement}, {}
    kept = []
    for pos in holders.pop(label):
        old = live.pop(pos)
        new = _cyclic_reduce(_substitute(old, subst, inverses))
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
    steps = _t_steps(p)
    relators, log = _tietze(_schreier_relators(steps, matrices), matrices)

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

    gens = GenSet(p, matrices, dict([*reversed(log), ("P", WRAP)]), steps)
    for lbl, order in gens.orders.items():
        if order != "inf" and power_of.get(lbl) != order:
            raise AssertionError(f"elliptic generator {lbl} lacks its power relator")
    return gens


def compute_Q(p: int, gens: Optional[GenSet] = None) -> set[int]:
    """The additive-twist moduli Q = {1} u {q : V_q in the generating set}."""
    if gens is None:
        gens = build_presentation(p)
    _require_level(p, gens)
    return gens.q_set()


def decompose_gamma0(gens: GenSet, gamma: Mat2) -> GammaWord:
    """Decompose an element of Gamma0(p) into a word over the generating set.

    Pipeline: the Schreier walk of gamma (:meth:`GenSet._walk`) ->
    rewriting-log substitutions.  The result evaluates to +-gamma; the sign
    is recovered, and the word certified, by its exact product, spliced
    from the certified products of its pieces (:meth:`GenSet.rewrite_st_word`).  The
    word holds one wrap word per crossing of the walk from coset p - 1 to
    0, so the tokens the expansion would write are counted first, from the
    raw word: |n| times the length of the word of a raw token (symbol, n),
    or one for a one-token word.  More than MAX_WORD_TOKENS raise ValueError.
    """
    p = gens.p
    raw = gens._walk(gamma)
    words, size = gens._raw_words, 0
    for symbol, n in raw:
        length = len(words[symbol])
        size += abs(n) * length if length > 1 else 1
    if size > MAX_WORD_TOKENS:
        crossings = sum(abs(n) for symbol, n in raw if symbol == "P")
        wrap = len(words["P"])
        raise ValueError(
            f"the word of {gamma} crosses coset {p - 1} -> 0 {crossings} times and would hold {size} tokens;"
            f" words are written out up to {MAX_WORD_TOKENS} tokens, at most"
            f" {MAX_WORD_TOKENS // wrap} crossings of the {wrap}-token wrap word at p = {p}"
        )
    tokens, product = gens.rewrite_st_word(raw)
    word = GammaWord._of_reduced(tokens)  # _substitute reduced it
    word.sign = sign_against(product, gamma, "Gamma0(p) decomposition")
    return word


def abelianize(word: GammaWord, gens: GenSet) -> Class:
    """The exponent sums of a word as a :data:`Class`: free coordinates over
    Z, torsion coordinates mod 2 and 3."""
    return gens._coords(word.tokens)


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
