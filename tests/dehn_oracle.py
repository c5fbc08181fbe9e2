"""Test oracle: Dehn's algorithm, its cyclic rounds and the order of an
element of G_T, built straight from the symmetrized relators.

G_T is a C'(1/6) group, so by Greendlinger's lemma Dehn's algorithm
decides its word problem: rewrite any subword that is more than half of
a relator, and stop when none is left.  This module is that sentence in
code and stays naive on purpose: after every step it freely reduces the
whole word and scans again from the first letter.  Each method returns
its answer with the number of Dehn steps it took, so a test derives the
outcome under any budget from one run.
"""

import math

from sixthgroups.presentation import INFINITE, relator_seeds, symmetrize
from sixthgroups.words import cyclic_reduce, invert_word, reduce_word


class DehnOracle:
    def __init__(self, t):
        relators = symmetrize(relator_seeds(t))
        self.roots = relators.roots
        # each prefix of each relator -> the shortest, then shortlex-least,
        # relator with that prefix
        self.best = {}
        for r in relators.sorted_relators():
            for k in range(1, len(r) + 1):
                self.best.setdefault(r[:k], r)

    def step_at(self, w, i):
        """The longest prefix of w[i:] that is more than half of its
        relator, as (length, relator), or None."""
        hit = None
        for j in range(i + 1, len(w) + 1):
            r = self.best.get(w[i:j])
            if r is None:
                break
            if 2 * (j - i) > len(r):
                hit = j - i, r
        return hit

    def reduce(self, w):
        """(normal form, steps): each step rewrites the leftmost, then
        longest, more-than-half relator prefix u of r = u s by s^-1."""
        w, steps = reduce_word(w), 0
        while True:
            for i in range(len(w)):
                step = self.step_at(w, i)
                if step:
                    break
            else:
                return w, steps
            length, r = step
            w = reduce_word(w[:i] + invert_word(r[length:]) + w[i + length :])
            steps += 1

    def cyclic_reduce(self, w):
        """(core, steps): reduce w, then in each round cyclically reduce
        the core and reduce its first rotation that has a step at its
        first letter, until no rotation has one.  Steps count across
        rounds."""
        core, steps = self.reduce(w)
        while True:
            core = cyclic_reduce(core)[0]
            rotations = (core[i:] + core[:i] for i in range(len(core)))
            rotation = next((r for r in rotations if self.step_at(r, 0)), None)
            if rotation is None:
                return core, steps
            core, more = self.reduce(rotation)
            steps += more

    def order(self, w):
        """(order, steps): a finite order e / gcd(k, e) when the core is a
        rotation of root^k or root^-k with 0 < k < e (the torsion theorem),
        else INFINITE."""
        core, steps = self.cyclic_reduce(w)
        if not core:
            return 1, steps
        for root, e in self.roots:
            k, rest = divmod(len(core), len(root))
            if rest or k >= e:
                continue
            powers = root * k, invert_word(root) * k
            if any(core[i:] + core[:i] in powers for i in range(len(core))):
                return e // math.gcd(k, e), steps
        return INFINITE, steps
