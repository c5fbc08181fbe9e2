"""The explicit countable random graph on vertices {2, 3, ...}:
m and n are adjacent iff p_m | n or p_n | m, with p_0 = 2, p_1 = 3, ...

The extension-property witness search is exact but not a linear scan.
As p_x > x, a witness x < max(A) is adjacent to max(A) only through
p_x | max(A).  One trial division of max(A), the only member of A it
factors, finds these candidates: a small factor's index is its sieve
position; only the prime cofactor left goes through prime_index.  A
bounded memo keeps these indices for the last few hundred max(A), as
an embedding job asks for many witnesses over the same few images.
Above max(A), a witness is a common multiple of {p_y : y in A},
checked against B alone.  Each p_y is read straight from the sieve when
y is sieved, and through nth_prime, which grows the sieve, when not.
Every prime index the search reads is held to MAX_PRIME_INDEX; past it,
PrimeBudgetError is raised rather than silently stalling.  The sieve
flags odd numbers only and keeps its primes in 4-byte items.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import lru_cache
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


# The smallest item that holds every prime below _MAX_SIEVE < 2**31:
# 4 bytes ("i" is at least 2 bytes in C, "l" at least 4).
_TYPECODE = next(c for c in "ilq" if array(c).itemsize >= 4)
# All primes up to _sieve_limit, ascending; the sieve only grows, but for
# a build that fails, which leaves it empty.
_primes = array(_TYPECODE)
_sieve_limit = 0


def _extend_sieve(limit: int, context: str = "") -> None:
    global _primes, _sieve_limit
    if limit <= _sieve_limit:
        return
    if limit > _MAX_SIEVE:
        raise PrimeBudgetError("sieve limit _MAX_SIEVE", _MAX_SIEVE, limit, context=context)
    limit = min(max(limit, 1 << 16, _sieve_limit * 2), _MAX_SIEVE)
    # The old primes go before the new ones are built, so the two are
    # never held at once; should the build raise (MemoryError), the
    # sieve is left empty, its limit 0, and nth_prime's loop cannot spin.
    _primes, _sieve_limit = array(_TYPECODE), 0
    # flags[i] stands for the odd number 2i + 1; p * p is at p * p // 2.
    half = (limit + 1) // 2
    flags = bytearray([1]) * half
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes((half - 1 - p * p // 2) // p + 1)
    primes = array(_TYPECODE, [2])
    primes.extend(compress(range(1, limit + 1, 2), flags))
    _primes, _sieve_limit = primes, limit


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
    _extend_sieve(p, f": cannot find the index of {p}")
    i = bisect_left(_primes, p)
    if i >= len(_primes) or _primes[i] != p:
        raise ValueError(f"{p} is not prime")
    return i


def _trial_division(y: int) -> Tuple[List[int], int]:
    """The sieve indices of the small prime factors of y >= 2, ascending,
    and the cofactor left: 1 or a prime.  Refuses before sieving."""
    root = math.isqrt(y)
    _extend_sieve(root + 1, f": cannot factor {y}")
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


# The rado benchmark's 12 s runs (5 760 embedding jobs, 392 000
# searches each) ask for 136-151 distinct max(A) at seeds 7, 1001, 1301
# and 2024: at 256 entries only these miss, at 128 up to 162, at 64 up
# to 848.
_FACTOR_MEMO = 256


@lru_cache(maxsize=_FACTOR_MEMO, typed=True)
def _factor_indices(y: int) -> Tuple[int, ...]:
    """The sieve indices of the distinct prime factors of y >= 2,
    ascending.  Sieve indices never change as the sieve grows, and an
    exception is never cached, so a budget error raises on every call."""
    found, rem = _trial_division(y)
    if rem > 1:
        found.append(prime_index(rem))
    return tuple(found)


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
    then the multiples k * m, k = 1, 2, ..., of m = prod p_y over y in a
    (m = 1 when a is empty), adjacent to all of a and checked against b.
    Each prime is read from the sieve where its index is sieved and at
    most MAX_PRIME_INDEX, else through nth_prime.  The loop over k needs
    no budget of its own: for a prime q, q * m is rejected only if q * m
    is in b, q = p_z for some z in b, or p_{q m} | z for some z in b.  As
    z is not in a, p_z does not divide m, and distinct q give distinct
    p_{q m}.  So each z rules out at most 2 + omega(z) primes, and the
    loop stops by the (2|b| + sum_z omega(z) + 1)-th prime.
    """
    # neither set is written to, so a caller's set is used as it is
    if not isinstance(a, set):
        a = set(a)
    if not isinstance(b, set):
        b = set(b)
    if (a and min(a) < 2) or (b and min(b) < 2):
        for v in a | b:
            _check_vertex(v)
    if not a.isdisjoint(b):
        raise ValueError("witness sets must be disjoint")
    high = max(a) if a else 0
    xs = _factor_indices(high) if a else ()
    # Indices below n are read from the sieve, others through nth_prime;
    # once it returns p_x, the sieve holds p_y for every y < x.
    n = min(len(_primes), MAX_PRIME_INDEX + 1)
    for x in xs:
        if x < 2 or x in a or x in b:
            continue
        px = _primes[x] if x < n else nth_prime(x)
        for y in a:
            if (y % px if y > x else x % _primes[y]) != 0:
                break
        else:
            for z in b:
                if (z % px if z > x else x % _primes[z]) == 0:
                    break
            else:
                return x
    # m = prod p_y >= p_max(a) > max(a): k * m exceeds and is adjacent to
    # all of a.  If an index is past n, nth_prime takes them in ascending
    # order, so that a budget error names the least index past the budget.
    m = 1
    for y in a if high < n else sorted(a):
        m *= _primes[y] if y < n else nth_prime(y)
    top = max(b) if b else 0
    for x in count(m, m):
        if x < 2 or x in b:
            continue
        px = (_primes[x] if x < n else nth_prime(x)) if top > x else 0
        for z in b:
            if (z % px if z > x else x % (_primes[z] if z < n else nth_prime(z))) == 0:
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
