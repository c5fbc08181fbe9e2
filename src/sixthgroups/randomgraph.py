"""The explicit countable random graph on vertices {2, 3, ...}:
m and n are adjacent iff p_m | n or p_n | m, with p_0 = 2, p_1 = 3, ...

The extension-property witness search is exact but not a linear scan:
p_x > x always, so once a candidate x exceeds every vertex in play the
p_x-divides route is dead and a valid x must be a common multiple of
{p_y : y in A}.  Such a multiple exceeds every member of A and is
adjacent to all of them, so only B is left to check.  Below the closed
form, a witness x < max(A) is adjacent to max(A) only through
p_x | max(A), so the only candidates there are the indices of the prime
factors of max(A); the other members of A are never factored.  The
search needs no budget of its own: among the multiples q * prod p_y with
q prime, each z in B rules out at most 2 + omega(z) values of q, so it
stops by the (2|B| + sum omega(z) + 1)-th prime.

Vertex values grow roughly like iterated nth-primes under the greedy
embedding, so nth_prime carries an index budget; exceeding it raises
PrimeBudgetError rather than silently stalling.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import compress, count
from typing import Collection, Dict, Iterable, List, Set

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


def prime_factors(y: int) -> List[int]:
    """Distinct prime factors, by trial division up to sqrt(y)."""
    if y < 2:
        return []
    root = math.isqrt(y)
    if root + 1 > _MAX_SIEVE:
        raise PrimeBudgetError(
            "sieve limit _MAX_SIEVE", _MAX_SIEVE, root + 1, context=f": cannot factor {y}"
        )
    _extend_sieve(root + 1)
    out = []
    rem = y
    # The sieve holds every prime up to root, so rem ends as 1 or a prime.
    for p in _primes:
        if p * p > rem:
            break
        if rem % p == 0:
            out.append(p)
            while rem % p == 0:
                rem //= p
    if rem > 1:
        out.append(rem)
    return out


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


def _valid_witness(x: int, a: Collection[int], b: Set[int], top: int) -> bool:
    """Whether x is adjacent to all of a and none of b; top is the
    largest vertex in play."""
    if x < 2 or x in a or x in b:
        return False
    px = nth_prime(x) if top > x else None
    for y in a:
        if y > x:
            if y % px != 0:
                return False
        elif x % nth_prime(y) != 0:
            return False
    for z in b:
        if z > x:
            if z % px == 0:
                return False
        elif x % nth_prime(z) == 0:
            return False
    return True


def extension_witness(a: Iterable[int], b: Iterable[int]) -> int:
    """Least vertex adjacent to everything in a and nothing in b.

    The candidates are the indices of the prime factors of max(a),
    ascending (each is below max(a), as x < p_x; none when a is empty),
    then the multiples k * m, k = 1, 2, ..., of m = prod p_y over y in a
    (m = 1 when a is empty), which are adjacent to all of a and only
    checked against b.  The loop over k stops:
    - For a prime q, q * m is rejected only if q * m is in b, q = p_z for
      some z in b, or p_{q m} | z for some z in b.
    - p_z does not divide m, because z is not in a.  Distinct q give
      distinct p_{q m}.
    - So each z rules out at most 2 + omega(z) primes, and the loop stops
      by the (2|b| + sum_z omega(z) + 1)-th prime.
    """
    a, b = set(a), set(b)
    for v in a | b:
        _check_vertex(v)
    if a & b:
        raise ValueError("witness sets must be disjoint")
    top = max(a | b, default=0)
    # A witness x < max(a) is adjacent to max(a) only through p_x | max(a).
    for x in [prime_index(q) for q in prime_factors(max(a, default=1))]:
        if _valid_witness(x, a, b, top):
            return x
    # Closed form: m = prod p_y >= p_max(a) > max(a), so k * m exceeds all
    # of a and is adjacent to all of it.
    m = 1
    for y in sorted(a):
        m *= nth_prime(y)
    for x in count(m, m):
        if _valid_witness(x, (), b, top):
            return x


def embed_graph(t: Graph) -> Dict[int, int]:
    """Greedy induced embedding of t, vertex by vertex."""
    images: Dict[int, int] = {}
    for v in range(t.n):
        a = {images[u] for u in range(v) if t.adj(u, v)}
        b = {images[u] for u in range(v) if not t.adj(u, v)}
        images[v] = extension_witness(a, b)
    return images
