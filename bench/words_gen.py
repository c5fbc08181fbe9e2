"""Seeded words of G_T whose value is known from the construction."""

from __future__ import annotations

import math

from expect import inverse, letters, random_reduced

GENERATOR_ORDER = 7


def exponent(adj, i, j):
    return 11 if adj[i][j] else 13


def push(stack, word):
    """Append word to a freely reduced stack of letters, cancelling."""
    for c in word:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)


def identity_product(rng, adj, length):
    """A product of conjugated relators (so equal to 1) of at least
    `length` letters after free reduction."""
    n = len(adj)
    stack = []
    while len(stack) < length:
        t = random_reduced(rng, n, rng.randint(0, 6))
        i = rng.randrange(n)
        if n > 1 and rng.random() < 0.75:
            j = rng.choice([k for k in range(n) if k != i])
            rel = (i + 1, j + 1) * exponent(adj, i, j)
        else:
            rel = (i + 1,) * GENERATOR_ORDER
        if rng.random() < 0.5:
            rel = inverse(rel)
        k = rng.randrange(len(rel))
        push(stack, t + rel[k:] + rel[:k] + inverse(t))
    return stack


def stable_word(rng, n, max_len=10):
    """A nonempty freely reduced word with runs of at most 3 letters."""
    word = []
    for _ in range(rng.randint(1, max_len)):
        while True:
            c = rng.choice(letters(n))
            if word and word[-1] == -c:
                continue
            if word[-3:] == [c, c, c]:
                continue
            break
        word.append(c)
    return tuple(word)


def known_order_element(rng, adj):
    """(x, order of x) for x = v_i^k, (v_i v_j)^k or v_i v_j v_l."""
    n = len(adj)
    kind = rng.randrange(3) if n >= 3 else rng.randrange(2)
    if kind == 0 or n < 2:
        i, k = rng.randrange(n), rng.randint(1, GENERATOR_ORDER)
        return (i + 1,) * k, GENERATOR_ORDER // math.gcd(k, GENERATOR_ORDER)
    if kind == 1:
        i, j = rng.sample(range(n), 2)
        e = exponent(adj, i, j)
        k = rng.randint(1, e)
        return (i + 1, j + 1) * k, e // math.gcd(k, e)
    i, j, m = rng.sample(range(n), 3)
    return (i + 1, j + 1, m + 1), math.inf


def order_word(rng, adj, length):
    """A word of at least `length` letters whose order is known: an identity
    product times a conjugate of an element of known order."""
    n = len(adj)
    x, order = known_order_element(rng, adj)
    t = random_reduced(rng, n, rng.randint(0, 4))
    stack = identity_product(rng, adj, length)
    push(stack, t + x + inverse(t))
    return tuple(stack), order


def format_word(word):
    if not word:
        return "e"
    return " ".join(("g" if c > 0 else "G") + str(abs(c) - 1) for c in word)
