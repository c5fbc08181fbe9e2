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
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
from array import array
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
    kept as one signed byte per letter.  A fixed-length pattern finds where
    a step may start; the relator r its first two letters fix, cached as
    (r^-1, r, |r|) per letter pair, is compared with the letters there,
    and a step that covers all of r is one deletion, free reduction
    running only at the seam it leaves.  The run or alternation is
    measured only for a partial step or no step.  The scan resumes one
    relator length left of the lowest letter a step changed.  ``_scan``
    is that pass; ``_signed_bytes`` packs a word once and checks its
    letters on the bytes, and ``cyclic_dehn_reduce`` keeps the packed
    core across its rounds and finds its wrap-around step itself.
    ``relators``, the symmetrized set, is built on first use.

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
        # (a, b) -> (r^-1, r, |r|) for the relator r that begins a b
        self._relators_at = {}

    def __repr__(self):
        return f"Presentation({self.graph!r})"

    @functools.cached_property
    def relators(self) -> RelatorSet:
        return symmetrize(relator_seeds(self.graph))

    def _relator_at(self, a: Letter, b: Letter):
        """(r^-1, r, |r|) for the relator r that begins with the letters a
        b, r and r^-1 as arrays of signed bytes, or None if none does."""
        found = self._relators_at.get((a, b))
        if found is None and a * b > 0:
            if a == b:
                r = array("b", (a,)) * GENERATOR_ORDER
            else:
                adjacent = self.graph.adj(abs(a) - 1, abs(b) - 1)
                r = array("b", (a, b)) * (EDGE_ORDER if adjacent else NONEDGE_ORDER)
            inv = array("b", (-c for c in reversed(r)))
            found = self._relators_at[a, b] = inv, r, len(r)
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
        steps it took.  w is packed, scanned in place and made a tuple once."""
        word = self._signed_bytes(w)
        used = self._scan(word, 0, w)
        return tuple(word), used

    def _signed_bytes(self, w: Sequence[Letter]) -> array:
        """w freely reduced, one signed byte per letter.  The letters are
        checked before any free reduction: packed (by array if short, else
        by struct, about twice as fast), the word must vanish when
        ``bytes.translate`` deletes the bytes of the alphabet, or
        AlphabetError names the first letter outside it.

        The input is nearly always freely reduced already: it is when no
        letter is followed by its inverse.  A short word is checked letter
        by letter.  A long one is checked in one pass: XOR-ed with its own
        negation, shifted by one letter, it has a zero byte where a letter
        meets its inverse.
        """
        short = len(w) < 32
        try:
            if short:
                packed = array("b", w)
                data = packed.tobytes()
            else:
                data = struct.pack(f"{len(w)}b", *w)
        except (TypeError, OverflowError, struct.error):
            raise self._alphabet_error(w) from None
        if data.translate(None, self._alphabet):
            raise self._alphabet_error(w)
        if short:
            return array("b", reduce_word(w)) if 0 in map(operator.add, w, w[1:]) else packed
        meets = int.from_bytes(data[1:], "big") ^ int.from_bytes(
            data.translate(_NEGATE)[:-1], "big"
        )
        return array("b", reduce_word(w) if b"\0" in meets.to_bytes(len(w) - 1, "big") else data)

    def _scan(self, word: array, used: int, origin: Word) -> int:
        """Dehn-reduce the packed, freely reduced ``word`` in place and
        return the steps used so far, counting on from ``used``.  A step
        that deletes a whole relator calls no Python function.

        ``_START`` finds the leftmost candidate, at i, and its letters a b
        fix the relator r, if any.  The longest prefix of r at i is all of
        r exactly when ``word[i:i + |r|] == r``: then r = 1, and the step
        deletes it and cancels across the one seam it leaves.  Else those
        letters are matched against r on from the candidate's 4 or 12,
        which follows the run or alternation to its length L < |r|: a
        partial step if 2L > |r|, which splices in the rest of r's
        inverse, and no step otherwise."""
        search = _START.search
        relators_at = self._relators_at
        budget = MAX_DEHN_STEPS
        start = 0
        while (m := search(word, start)) is not None:
            i, end = m.span()
            a = word[i]
            b = word[i + 1]
            found = relators_at.get((a, b)) or self._relator_at(a, b)
            if found is None:
                start = i + 1
                continue
            inv, r, size = found
            seg = word[i : i + size]
            if seg == r:
                used += 1
                if used > budget:
                    raise DehnBudgetError("Dehn step budget MAX_DEHN_STEPS", budget, used, origin)
                # r = 1: delete it and cancel across the one seam
                a, b, n = i, i + size, len(word)
                while a > 0 and b < n and word[a - 1] == -word[b]:
                    a -= 1
                    b += 1
                del word[a:b]
            else:
                # the rest of the run or alternation, to L < |r| letters
                k = end - i
                n = len(seg)
                while k < n and seg[k] == r[k]:
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
        steps.  w is packed and its letters checked once: every round
        cyclically reduces, scans and rotates the packed core, and only
        the answer is made a tuple.
        """
        core = self._signed_bytes(w)
        used = self._scan(core, 0, w)
        search = _START.search
        while True:
            core, _ = cyclic_reduce(core)
            n = len(core)
            m = min(LONGEST_RELATOR, n)
            ring = core + core[: m - 1]
            start = n - m + 1
            while (hit := search(ring, start)) is not None:
                i = hit.start()
                found = self._relator_at(ring[i], ring[i + 1])
                if found is not None:
                    _, r, size = found
                    if 2 * min(len(_common_prefix(ring[i : i + size], r)), n) > size:
                        break
                start = i + 1
            else:
                return tuple(core)
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
        letter or the first two letters of the core.  Each e is prime, so
        the order is e.  MAX_DEHN_STEPS bounds all the Dehn steps of the
        call.
        """
        core = self.cyclic_dehn_reduce(w)
        if not core:
            return 1
        root = core[:1] if core.count(core[0]) == len(core) else core[:2]
        found = self._relator_at(core[0], root[-1])
        if found is None or root * (len(core) // len(root)) != core:
            return INFINITE
        return found[2] // len(root)
