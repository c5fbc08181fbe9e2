"""Answers the benchmark computes without the program under test.

Words are tuples of nonzero ints, as in the program: c > 0 is v_{c-1} and
c < 0 its inverse, with the letter order v_0 < v_0^-1 < v_1 < ... .  The
group is G_T = < v_i | v_i^7, (v_i v_j)^11 on edges, (v_i v_j)^13 on
non-edges >.  No 22- or 26-letter relator can act on a word of at most
10 letters (that needs 12 letters of it), so on such words the normal form
is the free reduction with each single-generator run folded mod 7 into
[-3, 3].
"""

from __future__ import annotations

import heapq
import itertools
import random
from functools import lru_cache

MAX_LEN = 10  # the longest stable word the coding registers


def reduce(word):
    out = []
    for c in word:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inverse(word):
    return tuple(-c for c in reversed(word))


def fold(word):
    """Normal form of a word of at most 10 letters."""
    runs = []  # [generator, exponent in -3..3]
    for c in word:
        g, e = abs(c), (1 if c > 0 else -1)
        if runs and runs[-1][0] == g:
            x = (runs[-1][1] + e + 3) % 7 - 3
            if x:
                runs[-1][1] = x
            else:
                runs.pop()
        else:
            runs.append([g, e])
    return tuple(c for g, e in runs for c in [g if e > 0 else -g] * abs(e))


def is_stable(word):
    """Freely reduced, no single-generator run longer than 3."""
    run = 0
    for k, c in enumerate(word):
        if k and word[k - 1] == -c:
            return False
        run = run + 1 if k and word[k - 1] == c else 1
        if run > 3:
            return False
    return True


def letters(n):
    return [s * (i + 1) for i in range(n) for s in (1, -1)]


class StableWords:
    """Shortlex counting of stable words over n generators, by a dynamic
    programme over (letters remaining, run length of the last letter)."""

    def __init__(self, n):
        self.n = n
        self.letters = letters(n)
        self.key = {c: k for k, c in enumerate(self.letters)}

    @lru_cache(maxsize=None)
    def completions(self, rem, run):
        if rem == 0:
            return 1
        same = self.completions(rem - 1, run + 1) if run < 3 else 0
        return same + (2 * self.n - 2) * self.completions(rem - 1, 1)

    def count(self, length):
        if length == 0:
            return 1
        return 2 * self.n * self.completions(length - 1, 1)

    def rank(self, word):
        """Shortlex rank among stable words of length >= 2."""
        length = len(word)
        r = sum(self.count(m) for m in range(2, length))
        run = 0
        for p, c in enumerate(word):
            last = word[p - 1] if p else None
            for d in self.letters[: self.key[c]]:
                if d == -(last or 0) or (d == last and run >= 3):
                    continue
                r += self.completions(length - p - 1, run + 1 if d == last else 1)
            run = run + 1 if c == last else 1
        return r

    @lru_cache(maxsize=1 << 14)
    def code(self, word):
        """The code the coding assigns to a stable word."""
        if not word:
            return 0
        if len(word) == 1:
            c = word[0]
            return 3 * (abs(c) - 1) + (1 if c > 0 else 2)
        return 3 * (1 + self.rank(word))

    def words_of_length(self, length):
        """Stable words of one length, in lex order."""
        word = []

        def extend(run):
            if len(word) == length:
                yield tuple(word)
                return
            last = word[-1] if word else None
            for c in self.letters:
                if c == -(last or 0) or (c == last and run >= 3):
                    continue
                word.append(c)
                yield from extend(run + 1 if c == last else 1)
                word.pop()

        return extend(0)

    def table(self, max_code):
        """Every (code, word) pair with code <= max_code, in code order,
        generated lazily."""
        singles = sorted((self.code((c,)), (c,)) for c in self.letters)
        composites = (
            (3 * (1 + r), w)
            for r, w in enumerate(
                w for length in range(2, MAX_LEN + 1) for w in self.words_of_length(length)
            )
        )
        return itertools.takewhile(
            lambda pair: pair[0] <= max_code,
            heapq.merge([(0, ())], singles, composites),
        )

    def full_length(self, max_code):
        """Largest L such that every stable word of length <= L has a code
        <= max_code."""
        length, total = 1, 0
        while 3 * (total + self.count(length + 1)) <= max_code:
            length += 1
            total += self.count(length)
        return length

    def random_word(self, rng, length):
        """A random stable word of the given length: each letter is drawn
        uniformly from those the previous letters allow."""
        word, run = [], 0
        for _ in range(length):
            last = word[-1] if word else 0
            while True:
                c = rng.choice(self.letters)
                if c != -last and not (c == last and run >= 3):
                    break
            run = run + 1 if c == last else 1
            word.append(c)
        return tuple(word)


# -- graphs --------------------------------------------------------------


def adjacency(n, edges):
    adj = [[False] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = True
    return adj


def is_automorphism(perm, adj):
    n = len(adj)
    return sorted(perm) == list(range(n)) and all(
        adj[i][j] == adj[perm[i]][perm[j]] for i in range(n) for j in range(i)
    )


def automorphisms(adj):
    """All automorphisms, by backtracking over partial assignments."""
    n = len(adj)
    deg = [sum(row) for row in adj]
    perm, used, out = [], [False] * n, []

    def extend(i):
        if i == n:
            out.append(tuple(perm))
            return
        for v in range(n):
            if used[v] or deg[v] != deg[i]:
                continue
            if all(adj[i][j] == adj[v][perm[j]] for j in range(i)):
                used[v] = True
                perm.append(v)
                extend(i + 1)
                perm.pop()
                used[v] = False

    extend(0)
    return out


def random_graph(rng, n, p=0.5):
    """A random graph on n vertices that is neither empty nor complete."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if 0 < len(edges) < len(pairs) or n < 2:
            return edges


def random_reduced(rng, n, length):
    word = []
    while len(word) < length:
        c = rng.choice(letters(n))
        if not word or word[-1] != -c:
            word.append(c)
    return tuple(word)


# -- the prime-divisibility random graph, through sympy ------------------


class RadoOracle:
    """m ~ n iff some prime q | n has primepi(q) - 1 = m, or the same with
    m and n swapped; factorisations and prime counts come from sympy."""

    def __init__(self):
        import sympy

        self._factorint = sympy.factorint
        self._primepi = sympy.primepi
        self._factors = {}
        self._index = {}

    def _prime_indices(self, n):
        """{i : p_i divides n}."""
        out = self._factors.get(n)
        if out is None:
            indices = []
            for q in self._factorint(n):
                i = self._index.get(q)
                if i is None:
                    i = self._index[q] = int(self._primepi(q)) - 1
                indices.append(i)
            out = self._factors[n] = frozenset(indices)
        return out

    def adjacent(self, m, n):
        return m in self._prime_indices(n) or n in self._prime_indices(m)

    def is_witness(self, x, a, b):
        if x < 2 or x in a or x in b:
            return False
        adjacent = self.adjacent
        return all(adjacent(x, y) for y in a) and not any(adjacent(x, z) for z in b)

    def is_embedding(self, n, edges, images):
        adj = adjacency(n, edges)
        vals = [images[v] for v in range(n)]
        return (
            len(set(vals)) == n
            and min(vals) >= 2
            and all(
                self.adjacent(vals[i], vals[j]) == adj[i][j]
                for i in range(n)
                for j in range(i)
            )
        )


def stratified(rng, count):
    """count values in [0, 1), one in each of count equal strata, in random
    order: every run covers a continuous range evenly."""
    return [(k + rng.random()) / count for k in rng.sample(range(count), count)]


def seeded(seed, *labels):
    """An independent random stream for one part of a run."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))
