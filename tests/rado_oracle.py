"""Test oracle for the extension-witness search.

``extension_witness`` is the search that ``randomgraph.extension_witness``
replaced, kept as it was but for its two own raises, which report
limit + 1 as ``used``: it factors and indexes every member of A, tries
the sorted union of those indices, then the common multiples of
{p_y : y in A}, and checks every candidate against all of A and B.  It
keeps the scan and multiple limits that bounded the old search, as its
own constants.  The new search must return its witness, or raise the
same exception type, wherever it answers.

Its primes, factorisations and prime indices come from sympy, not from
the engine's prime layer, so that layer's faults are not shared.  It
holds only the engine's prime index budget and sieve cap, read from
``randomgraph`` at each call, so it refuses what the engine refuses.
"""

from typing import Iterable, Set

import sympy

from sixthgroups import randomgraph
from sixthgroups.randomgraph import PrimeBudgetError, _check_vertex

_SCAN_LIMIT = 2_000_000
_MULTIPLE_LIMIT = 1_000


def nth_prime(i: int) -> int:
    """The i-th prime with p_0 = 2, within MAX_PRIME_INDEX."""
    budget = randomgraph.MAX_PRIME_INDEX
    if i > budget:
        raise PrimeBudgetError("prime index budget MAX_PRIME_INDEX", budget, i)
    # sympy's sieve, which grows as needed; sympy.prime past the sieve
    # searches from an estimate, in milliseconds a call
    return sympy.sieve[i + 1]


def prime_index(q: int) -> int:
    """Index i with p_i = q, for q within the engine's sieve cap."""
    cap = randomgraph._MAX_SIEVE
    if q > cap:
        raise PrimeBudgetError(
            "sieve limit _MAX_SIEVE", cap, q, context=f": cannot find the index of {q}"
        )
    if not sympy.isprime(q):
        raise ValueError(f"{q} is not prime")
    return int(sympy.primepi(q)) - 1


def _valid_witness(x: int, a: Set[int], b: Set[int]) -> bool:
    if x < 2 or x in a or x in b:
        return False
    larger = [v for v in a | b if v > x]
    px = nth_prime(x) if larger else None
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
    """Least vertex adjacent to everything in a and nothing in b."""
    a, b = set(a), set(b)
    for v in a | b:
        _check_vertex(v)
    if a & b:
        raise ValueError("witness sets must be disjoint")
    if not a:
        # Plain scan; valid vertices have positive density.
        for x in range(2, _SCAN_LIMIT):
            if _valid_witness(x, a, b):
                return x
        raise PrimeBudgetError(
            "scan limit", _SCAN_LIMIT, _SCAN_LIMIT + 1, context=": no witness found"
        )
    # Candidates below the closed form: indices of primes dividing some
    # y in a (these are the only x with p_x | y available).
    candidates = set()
    for y in a:
        for q in sympy.primefactors(y):
            candidates.add(prime_index(q))
    for x in sorted(candidates):
        if _valid_witness(x, a, b):
            return x
    # Closed form: common multiples of {p_y : y in a}.
    m = 1
    for y in sorted(a):
        m *= nth_prime(y)
    for k in range(1, _MULTIPLE_LIMIT + 1):
        x = k * m
        if _valid_witness(x, a, b):
            return x
    raise PrimeBudgetError(
        "multiple limit", _MULTIPLE_LIMIT, _MULTIPLE_LIMIT + 1, context=": no witness found"
    )
