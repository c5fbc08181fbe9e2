"""Test oracle: Dehn's algorithm and the order algorithm for any
symmetrized relator set, driven by a prefix trie of the relators.

``sixthgroups.presentation.Presentation`` knows only the relators of
G_T and finds its Dehn steps in closed form.  This generic presentation
walks a trie of the whole symmetrized set instead; the tests compare the
two on G_T, and use this one alone for C'(1/6) presentations with long
pieces.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from sixthgroups.graphs import Graph
from sixthgroups.presentation import (
    DEFAULT_DEHN_BUDGET,
    INFINITE,
    AlphabetError,
    DehnBudgetError,
    RelatorSet,
    relator_seeds,
    symmetrize,
)
from sixthgroups.words import (
    EMPTY,
    Letter,
    Word,
    cyclic_reduce,
    format_word,
    invert_word,
    reduce_word,
    word_key,
)


class _TrieNode:
    __slots__ = ("children", "min_len", "best", "tail")

    def __init__(self, best: Optional[Word] = None):
        self.children: Dict[int, _TrieNode] = {}
        # the shortest relator with this prefix (ties: shortlex least), and
        # its length
        self.best = best
        self.min_len = None if best is None else len(best)
        # at depth _pin only: the letters of the one relator with this
        # prefix that follow it
        self.tail: Optional[List[Letter]] = None


class Presentation:
    """A group presentation with a prefix trie for fast Dehn steps.

    Immutable after construction.  Dehn's algorithm makes one resumable
    left-to-right pass: each step is spliced into the word in place, free
    reduction runs only at the two seams of the splice, and the scan
    resumes one relator length left of the lowest letter the step changed.

    Each trie node at depth ``_pin``, one letter past the longest prefix
    two relators share, has one relator left and keeps the rest of it as
    ``tail``: a scan of a long word settles a match there with one slice
    comparison.
    """

    def __init__(self, alphabet_size: int, relators: RelatorSet):
        self._letters = frozenset(range(-alphabet_size, alphabet_size + 1)) - {0}
        for r in relators.relators:
            if not self._letters.issuperset(r):
                raise AlphabetError(
                    f"relator {format_word(r)} uses generator outside "
                    f"alphabet of size {alphabet_size}"
                )
        self.alphabet_size = alphabet_size
        self.relators = relators
        lengths = [len(r) for r in relators.relators]
        self._max_relator_len = max(lengths, default=0)
        # a Dehn step rewrites more than half of a relator
        self._min_step_len = min(lengths, default=0) // 2 + 1
        self._root = _TrieNode()
        # In shortlex order the first relator through a node is its best.
        # Each relator walks the prefix it shares with those before it and
        # adds the rest; one letter past the longest shared prefix, only
        # one relator is left.
        ordered = relators.sorted_relators()
        pin = 1
        for r in ordered:
            node, depth = self._root, 0
            while depth < len(r) and r[depth] in node.children:
                node = node.children[r[depth]]
                depth += 1
            pin = max(pin, depth + 1)
            for c in r[depth:]:
                child = _TrieNode(r)
                node.children[c] = child
                node = child
        self._pin = pin
        for r in ordered:
            if len(r) >= pin:
                node = self._root
                for c in r[:pin]:
                    node = node.children[c]
                node.tail = list(r[pin:])

    def __repr__(self):
        return (
            f"Presentation(alphabet_size={self.alphabet_size}, "
            f"|R|={len(self.relators.relators)})"
        )

    def _find_dehn_step(self, w: List[Letter], start: int, cap: int):
        """Leftmost (from start), then longest subword u of at most cap
        letters that is a prefix of some relator r with |u| > |r|/2.
        Returns (pos, length, relator) or None.

        A word longer than every relator goes to ``_find_pinned_step``;
        shorter ones, most of the coding layer's, keep this plain walk,
        which does no more than one lookup per letter."""
        n = len(w)
        if n > self._max_relator_len:
            return self._find_pinned_step(w, start, cap)
        root = self._root
        for i in range(start, n - self._min_step_len + 1):
            node = root
            hit = None
            for d in range(i, n):
                node = node.children.get(w[d])
                if node is None:
                    break
                length = d - i + 1
                if 2 * length > node.min_len and length <= cap:
                    hit = (length, node.best)
            if hit is not None:
                return i, hit[0], hit[1]
        return None

    def _find_pinned_step(self, w: List[Letter], start: int, cap: int):
        """``_find_dehn_step`` with the walk from each position cut at depth
        ``_pin``.  Past it the match can only go on along the node's tail:
        one slice comparison settles a whole relator, and a letter loop
        finds where a partial match ends.  At depths of at least ``_pin``
        the node's relator is the only one, so the deepest step there is
        the match cut to cap letters, if that is more than half of it."""
        n = len(w)
        root = self._root
        pin = self._pin
        for i in range(start, n - self._min_step_len + 1):
            node = root
            hit = None
            length = 0
            for c in w[i : i + pin]:
                node = node.children.get(c)
                if node is None:
                    break
                length += 1
                if 2 * length > node.min_len and length <= cap:
                    hit = (length, node.best)
            else:
                # tail is None only where the word ended above depth _pin
                tail = node.tail
                if tail is not None:
                    end = i + pin
                    if w[end : end + len(tail)] == tail:
                        length = pin + len(tail)
                    else:
                        k = end
                        while k < n and w[k] == tail[k - end]:
                            k += 1
                        length = k - i
                    length = min(length, cap)
                    if length >= pin and 2 * length > node.min_len:
                        hit = (length, node.best)
            if hit is not None:
                return i, hit[0], hit[1]
        return None

    def _alphabet_error(self, w: Sequence[Letter]) -> AlphabetError:
        bad = next(c for c in w if c not in self._letters)
        return AlphabetError(
            f"letter {format_word((bad,)) if bad else bad} is outside the "
            f"alphabet g0..g{self.alphabet_size - 1} of size {self.alphabet_size}"
        )

    def dehn_reduce(self, w: Word, budget: int = DEFAULT_DEHN_BUDGET) -> Word:
        """Run Dehn's algorithm to a fixed point.  Empty iff w = 1 in G.

        Each step rewrites the leftmost, then longest, more-than-half
        relator prefix.  After a step the scan resumes one relator length
        left of the first letter the step changed: a step further left
        would lie wholly inside letters that did not change, where the
        previous scan found none.
        """
        return self._reduce(w, budget, 0, w)[0]

    def _reduce(self, w: Word, budget: int, used: int, origin: Word) -> Tuple[Word, int]:
        """``dehn_reduce`` with its step count: w's normal form and the
        steps used so far, counting on from ``used``.  A budget error names
        ``origin``, the word the caller was asked to reduce."""
        if not self._letters.issuperset(w):
            raise self._alphabet_error(w)
        # the input is nearly always freely reduced already: it is when no
        # two neighbouring letters add up to 0
        word = list(reduce_word(w) if 0 in map(operator.add, w, w[1:]) else w)
        max_len = self._max_relator_len
        start = 0
        while (step := self._find_dehn_step(word, start, len(word))) is not None:
            used += 1
            if used > budget:
                raise DehnBudgetError("Dehn step budget", budget, used, origin)
            i, length, r = step
            # r = u . s with u the matched prefix; replace u by s^{-1}.  The
            # prefix word[:i], the complement and the suffix word[i+length:]
            # are each freely reduced, so letters cancel only at the seams.
            comp = invert_word(r[length:])
            a, b = i, i + length
            lo, hi = 0, len(comp)
            while lo < hi and a > 0 and word[a - 1] == -comp[lo]:
                a -= 1
                lo += 1
            while lo < hi and b < len(word) and comp[hi - 1] == -word[b]:
                hi -= 1
                b += 1
            if lo == hi:
                while a > 0 and b < len(word) and word[a - 1] == -word[b]:
                    a -= 1
                    b += 1
            word[a:b] = comp[lo:hi]
            start = max(0, a - max_len)
        return tuple(word), used

    def is_identity(self, w: Word, budget: int = DEFAULT_DEHN_BUDGET) -> bool:
        return self.dehn_reduce(w, budget) == EMPTY

    def equal(self, w1: Word, w2: Word, budget: int = DEFAULT_DEHN_BUDGET) -> bool:
        # unreduced: ``_reduce`` checks the letters before any cancellation
        return self.is_identity(tuple(w1) + invert_word(w2), budget)

    def cyclic_dehn_reduce(self, w: Word, budget: int = DEFAULT_DEHN_BUDGET) -> Word:
        """Some cyclically Dehn-reduced conjugate of w: cyclically reduced,
        and no rotation has a Dehn step.  Which rotation is returned is
        unspecified.

        After ``dehn_reduce`` and ``cyclic_reduce`` a step can only wrap
        round the end of the core, so one scan of core + core[:m - 1]
        (m = min(longest relator, |core|)) from |core| - m + 1 finds it;
        a match may use at most |core| letters, each once.  The core is
        rotated to start at the step and reduced again, which shortens it.
        All rounds share one budget of Dehn steps.
        """
        core, used = self._reduce(w, budget, 0, w)
        while True:
            core, _ = cyclic_reduce(core)
            m = min(self._max_relator_len, len(core))
            step = self._find_dehn_step([*core, *core[: m - 1]], len(core) - m + 1, len(core))
            if step is None:
                return core
            i = step[0]
            core, used = self._reduce(core[i:] + core[:i], budget, used, w)

    def order(self, w: Word, budget: int = DEFAULT_DEHN_BUDGET):
        """Order of the element w, or INFINITE.

        Valid for sixth groups with populated roots.  By the torsion
        theorem (Lyndon-Schupp, Combinatorial Group Theory, Ch. V) a
        finite-order element cyclically reduces to a rotation of root^k or
        its inverse, for some root with root^n a relator and 0 < k < n.
        Such a core is shorter than its relator, so a core of at least the
        longest relator's length has infinite order.  ``budget`` bounds
        all the Dehn steps of the call.
        """
        core = self.cyclic_dehn_reduce(w, budget)
        if not core:
            return 1
        if len(core) >= self._max_relator_len:
            return INFINITE
        rotations = {core[i:] + core[:i] for i in range(len(core))}
        for root, n in sorted(self.relators.roots, key=lambda rn: word_key(rn[0])):
            if len(core) % len(root) != 0:
                continue
            k = len(core) // len(root)
            if root * k in rotations or invert_word(root) * k in rotations:
                return n // math.gcd(k, n)
        return INFINITE


def presentation_from_seeds(alphabet_size: int, seeds: Iterable[Word]) -> Presentation:
    return Presentation(alphabet_size, symmetrize(seeds))


def presentation_from_graph(t: Graph) -> Presentation:
    """The trie presentation of G_T."""
    return presentation_from_seeds(t.n, relator_seeds(t))
