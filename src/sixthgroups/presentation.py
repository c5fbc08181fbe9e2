"""The presentation of the sixth group G_T of a graph T: Dehn's algorithm
and the torsion (order) algorithm in closed form, plus symmetrized
relator sets and the C'(1/6) condition.

A relator set is symmetrized: cyclically reduced, closed under inverses
and cyclic permutations.  ``roots`` records each defining relator as a
maximal proper power root^exponent.

In G_T the first two letters of a relator fix it: a a begins only a^7,
a b with a and b distinct generators of one sign begins only the
rotation of (ab)^k that starts there, and a b^-1 begins none.  So a Dehn
step, more than half of a relator, is a run of 4 to 7 equal letters or
an alternation a b a b ... of more than k letters, and it is found with
no table of relators.

Dehn's algorithm works on a word packed into one bytearray, letter c as
the byte c & 0xFF: a letter and its inverse are two bytes that add up to
256, and the byte 0x80 is no letter.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
from typing import FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

from .graphs import Graph
from .words import (
    EMPTY,
    MAX_ALPHABET_SIZE,
    BudgetError,
    InputError,
    Letter,
    Word,
    cyclic_permutations,
    cyclic_reduce,
    format_word,
    gen,
    invert_word,
    reduce_word,
    word_key,
)

INFINITE = math.inf

GENERATOR_ORDER = 7
EDGE_ORDER = 11
NONEDGE_ORDER = 13
LONGEST_RELATOR = 2 * NONEDGE_ORDER

# The most Dehn steps one method call takes.  Each step shortens the
# word, so no word of at most 10 000 letters can need more.
MAX_DEHN_STEPS = 10_000

# Where a Dehn step may start: the first 4 letters of a run of equal
# letters, or the first 12 of an alternation a b a b ...  It has a fixed
# length and no repeat, so a match costs no backtracking; the step's
# extent is found after it.  A letter is one byte, so '.' must match
# every byte.
_START = re.compile(rb"(.)\1\1\1|(.)(.)\2\3\2\3\2\3\2\3\2\3", re.DOTALL)

# the byte of each letter's inverse, by the byte of the letter
_NEGATE = bytes(-c & 0xFF for c in range(256))

# A word of fewer than 32 letters is checked for free reduction letter
# by letter, and packed and unpacked by a Struct of its length made once.
_SHORT = 32
_SHORT_STRUCTS = tuple(struct.Struct(f"{n}b") for n in range(_SHORT))


class DehnBudgetError(BudgetError):
    """Dehn's algorithm needed more steps than its budget allows.  ``used``
    is the step that broke the budget, ``word`` the input word."""


class AlphabetError(InputError):
    """A word or relator uses a generator outside the presentation's alphabet."""


def primitive_root(w: Word) -> Tuple[Word, int]:
    """Write w = u^k with k maximal (u the primitive root)."""
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[:p] * (n // p):
            return w[:p], n // p
    return w, 1


class RelatorSet(NamedTuple):
    relators: FrozenSet[Word]
    roots: FrozenSet[Tuple[Word, int]]

    def sorted_relators(self):
        return sorted(self.relators, key=word_key)


def symmetrize(seeds: Iterable[Word]) -> RelatorSet:
    relators: Set[Word] = set()
    roots: Set[Tuple[Word, int]] = set()
    for seed in seeds:
        if not seed:
            raise ValueError("empty seed relator")
        core, _ = cyclic_reduce(reduce_word(seed))
        if not core:
            continue
        roots.add(primitive_root(core))
        for w in (core, invert_word(core)):
            relators.update(cyclic_permutations(w))
    return RelatorSet(frozenset(relators), frozenset(roots))


def _common_prefix(w1: Word, w2: Word) -> Word:
    k = 0
    for a, b in zip(w1, w2):
        if a != b:
            break
        k += 1
    return w1[:k]


def _neighbour_prefixes(rel: RelatorSet) -> List[Tuple[Word, int]]:
    """(maximal common prefix, length of the shorter) of each pair of
    neighbours in the lexicographic order of the relators."""
    return [
        (_common_prefix(r1, r2), min(len(r1), len(r2)))
        for r1, r2 in itertools.pairwise(sorted(rel.relators))
    ]


def pieces(rel: RelatorSet) -> Set[Word]:
    """Maximal common prefixes of pairs of distinct relators.

    In lexicographic order the relators with a given prefix are
    consecutive, so the common prefix of any two is the shortest of the
    common prefixes of the neighbours between them: one sorted pass finds
    every piece.  A relator is never compared with itself: proper powers
    such as (v0 v1)^11 contribute no pieces through their self-overlaps.
    """
    return {u for u, _ in _neighbour_prefixes(rel) if u}


def max_piece_length(rel: RelatorSet) -> int:
    return max((len(u) for u in pieces(rel)), default=0)


def check_c16(rel: RelatorSet) -> bool:
    """Every piece occurring inside a relator r has length < |r|/6.

    For a symmetrized set it is enough that each pair of lexicographic
    neighbours has a common prefix u with 6|u| < the shorter length.  The
    set is closed under rotation, so a piece u inside r is a prefix of a
    rotation r' of r; at least two relators begin with u, so r' shares at
    least u with a neighbour, and |r'| = |r| <= 6|u|.  Conversely the
    common prefix of two neighbours is a piece inside the shorter one.
    """
    return all(6 * len(u) < shorter for u, shorter in _neighbour_prefixes(rel))


def relator_roots(t: Graph) -> List[Tuple[Word, int]]:
    """(root, exponent) of each defining relator of G_T: v_i^7 for every
    vertex, then (v_i v_j)^11 for every edge ij and (v_i v_j)^13 for every
    non-edge, i < j."""
    roots = [((gen(i),), GENERATOR_ORDER) for i in range(t.n)]
    for i, j in itertools.combinations(range(t.n), 2):
        roots.append(((gen(i), gen(j)), EDGE_ORDER if t.adj(i, j) else NONEDGE_ORDER))
    return roots


def relator_seeds(t: Graph) -> List[Word]:
    return [root * exp for root, exp in relator_roots(t)]


class Presentation:
    """The presentation of G_T, immutable.

    Dehn's algorithm makes one resumable left-to-right pass over the word,
    kept from packing to answer as one ``bytearray``: letter c is the
    unsigned byte c & 0xFF, so a letter and its inverse are bytes that add
    up to 256.  A fixed-length pattern finds where a step may start; the
    relator r its first two letters fix, cached as (r^-1, r, |r|) under
    the int of those two bytes, is matched there by ``startswith``, and a
    step that covers all of r is one deletion, free reduction running
    only at the seam it leaves.  The run or alternation is measured only
    for a partial step or no step.  The scan resumes one relator length
    left of the lowest letter a step changed.  ``_scan`` is that pass;
    ``_signed_bytes`` packs a word once and checks its letters on the
    bytes, and ``_cyclic_core`` strips, scans and rotates the bytes of the
    core across its rounds and finds its wrap-around step itself.  An
    answer is made signed letters once, and ``order`` reads the core's
    bytes.  ``relators``, the symmetrized set, is built on first use.

    A method call that needs more than MAX_DEHN_STEPS Dehn steps raises
    DehnBudgetError.
    """

    def __init__(self, t: Graph):
        if t.n > MAX_ALPHABET_SIZE:
            raise InputError(
                f"{t.n} generators: Dehn's algorithm takes at most "
                f"{MAX_ALPHABET_SIZE}, one signed byte per letter"
            )
        self.graph = t
        self.alphabet_size = t.n
        # the byte of each letter, for _signed_bytes
        self._alphabet = bytes(c & 0xFF for c in range(-t.n, t.n + 1) if c)
        self.roots = tuple(relator_roots(t))
        # a << 8 | b -> (r^-1, r, |r|) for the relator r whose first two
        # letters are the bytes a b, filled on first use
        self._relators_at = {}

    def __repr__(self):
        return f"Presentation({self.graph!r})"

    @functools.cached_property
    def relators(self) -> RelatorSet:
        return symmetrize(relator_seeds(self.graph))

    def _relator_at(self, key: int):
        """(r^-1, r, |r|) for the relator r whose first two letters are the
        bytes key >> 8 and key & 0xFF, r and r^-1 as bytes, or None if no
        relator begins with them."""
        found = self._relators_at.get(key)
        if found is None:
            a, b = key >> 8, key & 0xFF
            if (a < 0x80) == (b < 0x80):  # letters of one sign
                if a == b:
                    r = bytes((a,)) * GENERATOR_ORDER
                else:
                    adjacent = self.graph.adj(_index(a), _index(b))
                    r = bytes((a, b)) * (EDGE_ORDER if adjacent else NONEDGE_ORDER)
                found = self._relators_at[key] = r[::-1].translate(_NEGATE), r, len(r)
        return found

    def _alphabet_error(self, w: Sequence[Letter]) -> AlphabetError:
        bad = next(c for c in w if not (isinstance(c, int) and 0 < abs(c) <= self.alphabet_size))
        return AlphabetError(
            f"letter {format_word((bad,)) if isinstance(bad, int) and bad else repr(bad)} "
            f"is outside the alphabet g0..g{self.alphabet_size - 1} of size {self.alphabet_size}"
        )

    def dehn_reduce(self, w: Word) -> Word:
        """Run Dehn's algorithm to a fixed point.  Empty iff w = 1 in G.

        Each step rewrites the leftmost, then longest, more-than-half
        relator prefix.  After a step the scan resumes one relator length
        left of the first letter the step changed: a step further left
        would lie wholly inside letters that did not change, where the
        previous scan found none.
        """
        return self._reduce(w)[0]

    def _reduce(self, w: Word) -> Tuple[Word, int]:
        """``dehn_reduce`` with its step count: w's normal form and the Dehn
        steps it took.  w is packed, scanned in place and made signed
        letters once."""
        word = self._signed_bytes(w)
        used = self._scan(word, 0, w)
        return _letters(word), used

    def _signed_bytes(self, w: Sequence[Letter]) -> bytearray:
        """w freely reduced, letter c as the byte c & 0xFF.  The letters are
        checked before any free reduction: packed as signed bytes by the
        ``Struct`` of w's length, whose ``pack(*w)`` takes the letters
        without the copy of all of them that ``struct.pack(fmt, *w)``
        makes to put fmt first, the word must vanish when ``translate``
        deletes the bytes of the alphabet, or AlphabetError names the
        first letter outside it.

        The input is nearly always freely reduced already: it is when no
        letter is followed by its inverse.  A short word is checked letter
        by letter.  A long one is checked in one pass: XOR-ed with its own
        negation, shifted by one letter, it has a zero byte where a letter
        meets its inverse.  A word that is not is reduced on its bytes.
        """
        n = len(w)
        try:
            word = bytearray(_signed_struct(n).pack(*w))
        except struct.error:
            raise self._alphabet_error(w) from None
        if word.translate(None, self._alphabet):
            raise self._alphabet_error(w)
        if n < _SHORT:
            meets = 0 in map(operator.add, w, w[1:])
        else:
            shifted = int.from_bytes(word[1:], "big") ^ int.from_bytes(
                word.translate(_NEGATE)[:-1], "big"
            )
            meets = b"\0" in shifted.to_bytes(n - 1, "big")
        return _freely_reduced(word) if meets else word

    def _scan(self, word: bytearray, used: int, origin: Word) -> int:
        """Dehn-reduce the packed, freely reduced ``word`` in place and
        return the steps used so far, counting on from ``used``.  A step
        that deletes a whole relator calls no Python function.

        ``_START`` finds the leftmost candidate, at i, and its letters a b
        fix the relator r, if any.  The longest prefix of r at i is all of
        r exactly when ``word.startswith(r, i)``: then r = 1, and the step
        deletes it and cancels across the one seam it leaves.  Else the
        letters at i are matched against r on from the candidate's 4 or
        12, which follows the run or alternation to its length L < |r|: a
        partial step if 2L > |r|, which splices in the rest of r's
        inverse, and no step otherwise."""
        search = _START.search
        relators_at = self._relators_at
        budget = MAX_DEHN_STEPS
        start = 0
        while (m := search(word, start)) is not None:
            i, end = m.span()
            key = word[i] << 8 | word[i + 1]
            found = relators_at.get(key) or self._relator_at(key)
            if found is None:
                start = i + 1
                continue
            inv, r, size = found
            if word.startswith(r, i):
                used += 1
                if used > budget:
                    raise DehnBudgetError("Dehn step budget MAX_DEHN_STEPS", budget, used, origin)
                # r = 1: delete it and cancel across the one seam
                a, b, n = i, i + size, len(word)
                while a > 0 and b < n and word[a - 1] + word[b] == 256:
                    a -= 1
                    b += 1
                del word[a:b]
            else:
                # the rest of the run or alternation, to L < |r| letters
                k, n = end - i, len(word) - i
                if n > size:
                    n = size
                while k < n and word[i + k] == r[k]:
                    k += 1
                if 2 * k <= size:
                    start = i + 1
                    continue
                used += 1
                if used > budget:
                    raise DehnBudgetError("Dehn step budget MAX_DEHN_STEPS", budget, used, origin)
                # r = u . s with u the matched prefix; replace u by s^{-1},
                # the first |r| - |u| letters of r^{-1}.  No letter cancels
                # at a seam, as u is the leftmost and longest.  Left:
                # s^{-1} starts with the inverse of r's last letter, which
                # before u would start a match one letter earlier, at least
                # as long (a non-step there is one here too).  Right: the
                # next letter of r after u would have extended the match.
                a = i
                word[i : i + k] = inv[: size - k]
            start = a - LONGEST_RELATOR if a > LONGEST_RELATOR else 0
        return used

    def is_identity(self, w: Word) -> bool:
        return self.dehn_reduce(w) == EMPTY

    def equal(self, w1: Word, w2: Word) -> bool:
        # unreduced: ``_reduce`` checks the letters before any cancellation
        return self.is_identity(tuple(w1) + invert_word(w2))

    def cyclic_dehn_reduce(self, w: Word) -> Word:
        """Some cyclically Dehn-reduced conjugate of w: cyclically reduced,
        and no rotation has a Dehn step.  Which rotation is returned is
        unspecified.

        After ``dehn_reduce`` and ``cyclic_reduce`` a step can only wrap
        round the end of the core, so one scan of core + core[:m - 1]
        (m = min(longest relator, |core|)) from |core| - m + 1 finds it:
        the leftmost candidate that begins a relator r and whose longest
        prefix of r there covers more than half of r within |core|
        letters, each used once; a candidate before it may be no step.
        The core is rotated to start at the step and reduced again, which
        shortens it.  All rounds share one budget of MAX_DEHN_STEPS Dehn
        steps.
        """
        return _letters(self._cyclic_core(w)[0])

    def _cyclic_core(self, w: Word) -> Tuple[bytearray, int]:
        """The bytes of ``cyclic_dehn_reduce``'s answer and the Dehn steps it
        took.  w is packed and its letters checked once: every round
        strips, scans and rotates the bytes of the core."""
        core = self._signed_bytes(w)
        used = self._scan(core, 0, w)
        search = _START.search
        while True:
            lo, hi = 0, len(core)
            while hi - lo >= 2 and core[lo] + core[hi - 1] == 256:
                lo += 1
                hi -= 1
            if lo:
                core = core[lo:hi]
            n = len(core)
            m = min(LONGEST_RELATOR, n)
            ring = core + core[: m - 1]
            start = n - m + 1
            while (hit := search(ring, start)) is not None:
                i = hit.start()
                found = self._relator_at(ring[i] << 8 | ring[i + 1])
                if found is not None:
                    _, r, size = found
                    k, top = 0, min(size, len(ring) - i)
                    while k < top and ring[i + k] == r[k]:
                        k += 1
                    if 2 * min(k, n) > size:
                        break
                start = i + 1
            else:
                return core, used
            core = core[i:] + core[:i]
            used = self._scan(core, used, w)

    def order(self, w: Word):
        """Order of the element w, or INFINITE.

        By the torsion theorem (Lyndon-Schupp, Combinatorial Group Theory,
        Ch. V) a finite-order element of a sixth group cyclically
        Dehn-reduces to a rotation of root^j, for some root with root^e a
        relator and 0 < j < e, and its order is e / gcd(j, e).  In G_T a
        root is one letter (e = 7) or two of one sign (e = k), and a
        rotation of (ab)^j is (ab)^j or (ba)^j, so the root is the first
        letter or the first two letters of the core, read on its bytes.
        Each e is prime, so the order is e.  MAX_DEHN_STEPS bounds all the
        Dehn steps of the call.
        """
        core, _ = self._cyclic_core(w)
        if not core:
            return 1
        root = 1 if core.count(core[0]) == len(core) else 2
        found = self._relator_at(core[0] << 8 | core[root - 1])
        if found is None or core[:root] * (len(core) // root) != core:
            return INFINITE
        return found[2] // root


def _index(byte: int) -> int:
    """The generator index of the letter with this byte."""
    return byte - 1 if byte < 0x80 else 0xFF - byte


def _freely_reduced(word: bytearray) -> bytearray:
    """The bytes of word freely reduced in one pass: a letter cancels the
    one before it when their bytes add up to 256."""
    out = bytearray()
    for x in word:
        if out and out[-1] + x == 256:
            out.pop()
        else:
            out.append(x)
    return out


def _signed_struct(n: int) -> struct.Struct:
    """The Struct of n signed bytes."""
    return _SHORT_STRUCTS[n] if n < _SHORT else struct.Struct(f"{n}b")


def _letters(word: bytearray) -> Word:
    """The signed letters of a packed word."""
    return _signed_struct(len(word)).unpack(word)
