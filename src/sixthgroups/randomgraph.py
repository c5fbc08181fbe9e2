"""The explicit countable random graph on vertices {2, 3, ...}:
m and n are adjacent iff p_m | n or p_n | m, with p_0 = 2, p_1 = 3, ...

The extension-property witness search is exact but not a linear scan.
As p_x > x, a witness x < max(A) is adjacent to max(A) only through
p_x | max(A).  One trial division of max(A), the only member of A it
factors, finds these candidates: a small factor's index is its sieve
position; only the prime cofactor left goes through prime_index.  The
sieve then holds p_x, so each p_y, y <= x, is read from it.  Above
max(A), a witness is a common multiple of {p_y : y in A}, checked
against B alone with primes from nth_prime, as the sieve may grow.
Every prime index the search reads is held to MAX_PRIME_INDEX; past it,
PrimeBudgetError is raised rather than silently stalling.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import compress, count
from typing import Dict, Iterable, List, Tuple

from .graphs import Graph
from .words import BudgetError, InputError

# The largest index whose sieve bound (_prime_bound) fits _MAX_SIEVE.
MAX_PRIME_INDEX = 9_590_648
_MAX_SIEVE = 200_000_000


class PrimeBudgetError(BudgetError):
    """A request beyond the prime layer's budgets: a prime index above
    MAX_PRIME_INDEX or a number beyond the sieve cap _MAX_SIEVE.

    ``used`` is the index, sieve limit or prime asked for; for a
    factorisation, the sieve limit it needs, one past the square root.
    """


# All primes up to _sieve_limit, ascending; the sieve only ever grows.
_primes = array("q")
_sieve_limit = 0


def _extend_sieve(limit: int) -> None:
    global _primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    if limit > _MAX_SIEVE:
        raise PrimeBudgetError("sieve limit _MAX_SIEVE", _MAX_SIEVE, limit)
    limit = min(max(limit, 1 << 16, _sieve_limit * 2), _MAX_SIEVE)
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((limit - p * p) // p + 1)
    _primes = array("q", compress(range(limit + 1), flags))
    _sieve_limit = limit


def _prime_bound(i: int) -> int:
    """A sieve limit that holds p_i.  p_i < (i+1)(ln(i+1) + ln ln(i+1))
    for i >= 5; pad generously."""
    return int((i + 1) * (math.log(i + 2) + math.log(math.log(i + 3)) + 2))


def nth_prime(i: int) -> int:
    """The i-th prime with p_0 = 2."""
    if i < 0:
        raise ValueError("negative prime index")
    if i > MAX_PRIME_INDEX:
        raise PrimeBudgetError("prime index budget MAX_PRIME_INDEX", MAX_PRIME_INDEX, i)
    while i >= len(_primes):
        _extend_sieve(_prime_bound(i))
    return _primes[i]


def prime_index(p: int) -> int:
    """Index i with p_i = p.  Raises ValueError on composites and
    PrimeBudgetError on primes beyond the sieve limit; every prime that
    nth_prime returns lies within it."""
    if p > _MAX_SIEVE:
        raise PrimeBudgetError(
            "sieve limit _MAX_SIEVE", _MAX_SIEVE, p, context=f": cannot find the index of {p}"
        )
    _extend_sieve(p)
    i = bisect_left(_primes, p)
    if i >= len(_primes) or _primes[i] != p:
        raise ValueError(f"{p} is not prime")
    return i


def _trial_division(y: int) -> Tuple[List[int], int]:
    """The sieve indices of the small prime factors of y >= 2, ascending,
    and the cofactor left: 1 or a prime.  Refuses before sieving."""
    root = math.isqrt(y)
    if root + 1 > _MAX_SIEVE:
        raise PrimeBudgetError(
            "sieve limit _MAX_SIEVE", _MAX_SIEVE, root + 1, context=f": cannot factor {y}"
        )
    _extend_sieve(root + 1)
    found, rem = [], y
    # The sieve holds every prime up to root, so rem ends as 1 or a prime.
    for i, p in enumerate(_primes):
        if p * p > rem:
            break
        if rem % p == 0:
            found.append(i)
            rem //= p
            while rem % p == 0:
                rem //= p
    return found, rem


def prime_factors(y: int) -> List[int]:
    """Distinct prime factors, by trial division up to sqrt(y)."""
    if y < 2:
        return []
    found, rem = _trial_division(y)
    return [_primes[i] for i in found] + ([rem] if rem > 1 else [])


def _check_vertex(v: int) -> None:
    if v < 2:
        raise InputError(f"vertex {v} out of range: vertices start at 2")


def adjacent(m: int, n: int) -> bool:
    _check_vertex(m)
    _check_vertex(n)
    if m == n:
        raise InputError("adjacency is only defined for distinct vertices")
    # p_k > k, so p_m can only divide n if m < n (and vice versa).
    if m < n:
        return n % nth_prime(m) == 0
    return m % nth_prime(n) == 0


def extension_witness(a: Iterable[int], b: Iterable[int]) -> int:
    """Least vertex adjacent to everything in a and nothing in b.

    The candidates are the indices of the prime factors of max(a),
    ascending (each is below max(a), as x < p_x; none when a is empty),
    checked with primes read from the sieve once x <= MAX_PRIME_INDEX,
    then the multiples k * m, k = 1, 2, ..., of m = prod p_y over y in a
    (m = 1 when a is empty), adjacent to all of a and checked against b
    through nth_prime.  The loop over k needs no budget of its own: for
    a prime q, q * m is rejected only if q * m is in b, q = p_z for some
    z in b, or p_{q m} | z for some z in b.  As z is not in a, p_z does
    not divide m, and distinct q give distinct p_{q m}.  So each z rules
    out at most 2 + omega(z) primes, and the loop stops by the
    (2|b| + sum_z omega(z) + 1)-th prime.
    """
    a, b = set(a), set(b)
    ab = a | b
    if ab and min(ab) < 2:
        for v in ab:
            _check_vertex(v)
    if a & b:
        raise ValueError("witness sets must be disjoint")
    if a:
        xs, rem = _trial_division(max(a))
        if rem > 1:
            xs.append(prime_index(rem))
        for x in xs:
            if x < 2 or x in a or x in b:
                continue
            px = _primes[x] if x <= MAX_PRIME_INDEX else nth_prime(x)
            for y in a:
                if (y % px if y > x else x % _primes[y]) != 0:
                    break
            else:
                for z in b:
                    if (z % px if z > x else x % _primes[z]) == 0:
                        break
                else:
                    return x
    # m = prod p_y >= p_max(a) > max(a): k * m exceeds and is adjacent to all of a.
    m = 1
    for y in sorted(a):
        m *= nth_prime(y)
    top = max(b) if b else 0
    for x in count(m, m):
        if x < 2 or x in b:
            continue
        px = nth_prime(x) if top > x else 0
        for z in b:
            if (z % px if z > x else x % nth_prime(z)) == 0:
                break
        else:
            return x


def embed_graph(t: Graph) -> Dict[int, int]:
    """Greedy induced embedding of t, vertex by vertex."""
    images: Dict[int, int] = {}
    for v in range(t.n):
        a, b = set(), set()
        for u in range(v):
            (a if t.adj(u, v) else b).add(images[u])
        images[v] = extension_witness(a, b)
    return images
