import itertools
import math
import random
from array import array

import pytest
import rado_oracle
import sympy

from sixthgroups import randomgraph
from sixthgroups.graphs import graph
from sixthgroups.randomgraph import (
    MAX_PRIME_INDEX,
    PrimeBudgetError,
    adjacent,
    embed_graph,
    extension_witness,
    nth_prime,
    prime_factors,
    prime_index,
)
from sixthgroups.words import InputError

# p_0 = 2, so sympy.prime(i + 1) is the independent oracle.
FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def test_nth_prime_frozen(monkeypatch):
    assert [nth_prime(i) for i in range(13)] == FIRST_PRIMES
    assert nth_prime(999) == sympy.prime(1000)
    with pytest.raises(ValueError):
        nth_prime(-1)
    monkeypatch.setattr(randomgraph, "MAX_PRIME_INDEX", 5)
    assert nth_prime(5) == 13
    with pytest.raises(PrimeBudgetError):
        nth_prime(10)


def test_index_budget_is_reachable():
    # The sieve bound of every index up to the budget fits the sieve cap,
    # so the index budget, not the cap, refuses the next index.
    bound = randomgraph._prime_bound
    assert bound(MAX_PRIME_INDEX) <= randomgraph._MAX_SIEVE
    assert bound(MAX_PRIME_INDEX + 1) > randomgraph._MAX_SIEVE
    limit = randomgraph._sieve_limit
    with pytest.raises(PrimeBudgetError) as exc:
        nth_prime(MAX_PRIME_INDEX + 1)
    assert (exc.value.budget, exc.value.used) == (MAX_PRIME_INDEX, MAX_PRIME_INDEX + 1)
    assert randomgraph._sieve_limit == limit


def test_budget_errors_carry_budget_and_used():
    cap = randomgraph._MAX_SIEVE
    q = sympy.nextprime(cap)
    # each refuses before it sieves, with the context of the request
    cases = [
        (lambda: randomgraph._extend_sieve(cap + 1), cap, cap + 1, ""),
        (lambda: prime_index(q), cap, q, f": cannot find the index of {q}"),
        (lambda: prime_factors(10**18), cap, 10**9 + 1, f": cannot factor {10**18}"),
        (lambda: prime_factors(cap**2), cap, cap + 1, f": cannot factor {cap**2}"),
    ]
    limit = randomgraph._sieve_limit
    for call, budget, used, context in cases:
        with pytest.raises(PrimeBudgetError, match=str(cap)) as exc:
            call()
        assert (exc.value.budget, exc.value.used) == (budget, used)
        assert str(exc.value) == (
            f"sieve limit _MAX_SIEVE {cap} exceeded (needs at least {used}){context}"
        )
        assert randomgraph._sieve_limit == limit


def test_prime_index_inverts():
    for i in range(0, 200, 7):
        assert prime_index(nth_prime(i)) == i
    with pytest.raises(ValueError):
        prime_index(9)


def test_oracle_prime_index_refuses_past_the_sieve_cap_as_the_engine_does():
    # the least prime above the cap and the composite after it
    cap = randomgraph._MAX_SIEVE
    q = sympy.nextprime(cap)
    for n in (q, q + 1):
        raised = []
        for index in (prime_index, rado_oracle.prime_index):
            with pytest.raises(PrimeBudgetError) as exc:
                index(n)
            raised.append((exc.value.budget, exc.value.used, str(exc.value)))
        assert raised[0] == raised[1] == (cap, n, raised[0][2])


def test_sieve_growth_matches_sympy(monkeypatch):
    # From an empty sieve, a small index sieves to 2**16, which holds
    # p_0 .. p_6541.  Index 6542 forces the first extension, and 20 000
    # and 100 000 one more each.
    monkeypatch.setattr(randomgraph, "_primes", array(randomgraph._primes.typecode))
    monkeypatch.setattr(randomgraph, "_sieve_limit", 0)
    assert nth_prime(0) == 2 and len(randomgraph._primes) == 6542
    limits = []
    for i in (6541, 6542, 6543, 20_000, 100_000):
        p = nth_prime(i)
        limits.append(randomgraph._sieve_limit)
        assert p == sympy.prime(i + 1)
        assert prime_index(p) == i
        for composite in (p - 1, p + 1):
            with pytest.raises(ValueError):
                prime_index(composite)
    assert limits[:3] == [1 << 16, 1 << 17, 1 << 17]
    assert limits[2] < limits[3] < limits[4]


def test_sieve_items_hold_every_prime_below_the_cap():
    code = randomgraph._TYPECODE
    cap = randomgraph._MAX_SIEVE
    nth_prime(0)
    assert randomgraph._primes.typecode == code
    assert array(code, [cap])[0] == cap
    assert array(code).itemsize == min(
        array(c).itemsize for c in "ilq" if array(c).itemsize >= 4
    )


@pytest.mark.parametrize(
    "limit", [65536, 65537, 65538, 66049, 66050, 128881, 128882, 131070, 131071, 131072, 131073]
)
def test_odd_only_sieve_matches_sympy(monkeypatch, limit):
    # 65537 = 2**16 + 1 and 131071 = 2**17 - 1 are prime: each limit
    # takes or leaves a prime at its very end.  66049 = 257**2 and
    # 128881 = 359**2 are struck out only by the largest prime at most
    # the limit's square root.
    monkeypatch.setattr(randomgraph, "_primes", array(randomgraph._TYPECODE))
    monkeypatch.setattr(randomgraph, "_sieve_limit", 0)
    randomgraph._extend_sieve(limit)
    assert randomgraph._sieve_limit == limit
    assert list(randomgraph._primes) == list(sympy.primerange(limit + 1))


def test_failed_sieve_build_leaves_a_consistent_sieve(monkeypatch):
    # A build that fails partway (here a MemoryError while the primes are
    # collected) leaves the sieve empty with limit 0, so nth_prime raises
    # instead of looping on a limit its primes do not reach; the next
    # call builds a correct sieve, and memoised factor indices stay right.
    monkeypatch.setattr(randomgraph, "_primes", array(randomgraph._TYPECODE))
    monkeypatch.setattr(randomgraph, "_sieve_limit", 0)
    # the witness 10 is the memoised factor index of max(A) = 31 = p_10
    a, b = {2, 31}, {3}
    witness = extension_witness(a, b)
    assert witness == rado_oracle.extension_witness(a, b) == 10
    extensions = []
    extend = randomgraph._extend_sieve

    def counted(limit):
        extensions.append(limit)
        if len(extensions) == 10:
            raise RuntimeError("nth_prime loops")
        extend(limit)

    def failing(data, selectors):
        for k, item in enumerate(itertools.compress(data, selectors)):
            if k == 1000:
                raise MemoryError
            yield item

    monkeypatch.setattr(randomgraph, "_extend_sieve", counted)
    monkeypatch.setattr(randomgraph, "compress", failing)
    with pytest.raises(MemoryError):
        nth_prime(7000)
    assert (len(randomgraph._primes), randomgraph._sieve_limit) == (0, 0)
    with pytest.raises(MemoryError):
        nth_prime(7000)
    assert len(extensions) == 2
    monkeypatch.setattr(randomgraph, "compress", itertools.compress)
    assert extension_witness(a, b) == witness
    assert nth_prime(7000) == sympy.prime(7001)
    limit = randomgraph._sieve_limit
    assert list(randomgraph._primes) == list(sympy.primerange(limit + 1))


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(2 * 3 * 5 * 49) == [2, 3, 5, 7]
    rng = random.Random(20170213)
    for _ in range(200):
        y = rng.randint(2, 10**12)
        assert prime_factors(y) == sympy.primefactors(y)


def test_prime_factors_refuses_before_sieving():
    limit = randomgraph._sieve_limit
    with pytest.raises(PrimeBudgetError, match="200000000"):
        prime_factors(10**18)
    assert randomgraph._sieve_limit == limit


def test_adjacent_examples():
    assert adjacent(2, 5)  # p_2 = 5 divides 5
    assert not adjacent(4, 9)  # p_4 = 11 does not divide 9; p_9 = 29 not | 4
    assert adjacent(5, 2)  # symmetric
    assert adjacent(3, 7)  # p_3 = 7 divides 7
    with pytest.raises(ValueError):
        adjacent(1, 5)
    with pytest.raises(ValueError):
        adjacent(5, 5)


def test_adjacent_matches_definition():
    for m, n in itertools.combinations(range(2, 40), 2):
        expected = n % sympy.prime(m + 1) == 0 or m % sympy.prime(n + 1) == 0
        assert adjacent(m, n) == expected


def test_extension_witness_small():
    assert extension_witness([], []) == 2
    w = extension_witness({2, 3}, {4})
    assert w == 35  # lcm(p_2, p_3) = 35; no smaller candidate works
    assert adjacent(w, 2) and adjacent(w, 3) and not adjacent(w, 4)


def test_extension_witness_is_least():
    rng = random.Random(5)
    universe = list(range(2, 13))
    for _ in range(30):
        k = rng.randint(0, 4)
        picks = rng.sample(universe, k)
        cut = rng.randint(0, k)
        a, b = set(picks[:cut]), set(picks[cut:])
        w = extension_witness(a, b)
        for x in range(2, w):
            if x in a or x in b:
                continue
            ok = all(adjacent(x, y) for y in a) and not any(
                adjacent(x, z) for z in b
            )
            assert not ok, f"witness {w} not least for {a} {b}: {x}"


def _sympy_witness_ok(x, a, b, primes):
    # m ~ n iff p_m | n or p_n | m, with p_i = primes[i] from sympy; as
    # p_i > i, only the smaller index can divide the larger vertex
    def adj(m, n):
        lo, hi = sorted((m, n))
        return hi % primes[lo] == 0

    return all(adj(x, y) for y in a) and not any(adj(x, z) for z in b)


def test_extension_witness_past_the_oracle_multiple_limit():
    # every candidate 5k (a common multiple of p_2 = 5) with k <= 1000 is
    # adjacent to z, since p_{5k} | z; the first one past that is 5005
    z = 1
    for k in range(1, 1001):
        z *= nth_prime(5 * k)
    assert extension_witness({2}, {z}) == 5005
    primes = list(sympy.primerange(sympy.prime(5006) + 1))
    assert _sympy_witness_ok(5005, {2}, {z}, primes)
    assert not any(_sympy_witness_ok(x, {2}, {z}, primes) for x in range(2, 5005))
    with pytest.raises(PrimeBudgetError, match="multiple limit 1000"):
        rado_oracle.extension_witness({2}, {z})


def test_extension_witness_empty_a_skips_every_smaller_vertex():
    # p_x | z for every x in 2..59, so the least witness is 60
    z = 1
    for x in range(2, 60):
        z *= nth_prime(x)
    assert extension_witness(set(), {z}) == 60
    assert rado_oracle.extension_witness(set(), {z}) == 60
    primes = list(sympy.primerange(sympy.prime(61) + 1))
    assert _sympy_witness_ok(60, set(), {z}, primes)
    assert not any(_sympy_witness_ok(x, set(), {z}, primes) for x in range(2, 60))


ITERATED_PRIMES = [2, 5, 13, 41, 179, 1063, 8431, 87803]  # y -> p_y from 2
WITNESS_POOLS = [
    list(range(2, 40)),
    list(range(2, 2000)),
    ITERATED_PRIMES,
    [nth_prime(i) for i in range(2, 300)] + [6, 10, 15, 35, 77, 1001, 30030],
]


def _outcome(search, a, b):
    try:
        return search(a, b)
    except (ValueError, PrimeBudgetError) as exc:
        return type(exc)


def test_extension_witness_matches_oracle():
    # The old search factors every member of A; the new one only max(A).
    # Both must give the same least witness or the same exception type.
    rng = random.Random(20170309)
    for _ in range(5000):
        pool = rng.choice(WITNESS_POOLS)
        picks = rng.sample(pool, rng.randint(0, min(5, len(pool))))
        cut = rng.randint(0, len(picks))
        a, b = set(picks[:cut]), set(picks[cut:])
        if picks and rng.random() < 0.05:
            shared = rng.choice(picks)
            a.add(shared)
            b.add(shared)
        expected = _outcome(rado_oracle.extension_witness, a, b)
        assert _outcome(extension_witness, a, b) == expected, (a, b)


def test_extension_witness_factors_only_max_a():
    # q is the least prime above the sieve cap: indexing it is refused,
    # but only the factors 2 and 5 of max(A) = 5 * 2**28 are indexed.
    q = 200_000_033
    assert q == sympy.nextprime(randomgraph._MAX_SIEVE)
    a = {5 * q, 5 * 2**28}
    assert extension_witness(a, set()) == 2
    assert all(adjacent(2, y) for y in a)


def test_extension_witness_factors_once(monkeypatch):
    # max(A) = 13 is the only member factored, and only once
    calls = []
    factor = randomgraph._trial_division

    def counted(y):
        calls.append(y)
        return factor(y)

    randomgraph._factor_indices.cache_clear()
    monkeypatch.setattr(randomgraph, "_trial_division", counted)
    assert extension_witness({2, 5, 13}, {3}) == 2795  # p_2 p_5 p_13
    assert calls == [13]
    assert extension_witness({2, 5, 13}, {3}) == 2795
    assert calls == [13]


def test_extension_witness_cold_and_warm_memo_match_oracle():
    rng = random.Random(20170512)
    memo = randomgraph._factor_indices
    for _ in range(1000):
        pool = rng.choice(WITNESS_POOLS)
        picks = rng.sample(pool, rng.randint(0, min(5, len(pool))))
        cut = rng.randint(0, len(picks))
        a, b = set(picks[:cut]), set(picks[cut:])
        expected = _outcome(rado_oracle.extension_witness, a, b)
        memo.cache_clear()
        assert _outcome(extension_witness, a, b) == expected, (a, b)
        hits = memo.cache_info().hits
        assert _outcome(extension_witness, a, b) == expected, (a, b)
        assert memo.cache_info().hits == hits + bool(a)


def test_budget_errors_are_never_memoised():
    # q is the least prime above the sieve cap: indexing it is refused,
    # and so is factoring 10**18, before any sieving
    q = sympy.nextprime(randomgraph._MAX_SIEVE)
    randomgraph._factor_indices.cache_clear()
    for top, used in ((q, q), (10**18, 10**9 + 1)):
        for _ in range(2):
            with pytest.raises(PrimeBudgetError) as exc:
                extension_witness({2, top}, {3})
            assert exc.value.used == used
    assert randomgraph._factor_indices.cache_info().currsize == 0


def test_factor_memo_keys_on_type():
    # 5.0 == 5, but a float max(A) is not factored: it raises TypeError
    # with the indices of 5 in the memo, as it does without them
    assert extension_witness({5}, set()) == 2
    with pytest.raises(TypeError):
        extension_witness({5.0}, set())


def test_factor_memo_is_bounded():
    memo = randomgraph._factor_indices
    size = randomgraph._FACTOR_MEMO
    assert memo.cache_info().maxsize == size
    memo.cache_clear()
    for y in range(2, size + 100):
        extension_witness({y}, set())
        assert memo.cache_info().currsize <= size
    assert memo.cache_info().currsize == size


def test_extension_witness_index_budget_holds_for_sieve_reads(monkeypatch):
    # p_10 = 31 is already in the sieve, but its index is over the budget
    assert nth_prime(10) == 31
    monkeypatch.setattr(randomgraph, "MAX_PRIME_INDEX", 5)
    for a, b in (({31}, set()), ({2, 31}, {3})):
        for search in (extension_witness, rado_oracle.extension_witness):
            with pytest.raises(PrimeBudgetError, match="MAX_PRIME_INDEX") as exc:
                search(a, b)
            assert (exc.value.budget, exc.value.used) == (5, 10)


def test_extension_witness_budget_error_names_the_least_index(monkeypatch):
    # no candidate below max(A) = 10 is a witness, and 7, 9 and 10 are all
    # past the budget; the set yields 9 and 10 before 7, yet the error
    # names 7, as nth_prime of each in ascending order would
    monkeypatch.setattr(randomgraph, "MAX_PRIME_INDEX", 5)
    for search in (extension_witness, rado_oracle.extension_witness):
        with pytest.raises(PrimeBudgetError, match="MAX_PRIME_INDEX") as exc:
            search({7, 9, 10}, set())
        assert (exc.value.budget, exc.value.used) == (5, 7)


def test_extension_witness_branches_match_oracle():
    # Cases the pooled draws seldom make, each against the old search.
    rng = random.Random(20170421)
    below = 0
    for _ in range(300):
        # max(A) = p_x * k with k < p_x: a prime cofactor above its square
        # root; A also holds indices y < x with p_y | x, and B members
        # above x, some of them multiples of p_x
        x = rng.randint(2, 400)
        q = nth_prime(x)
        top = q * rng.randint(1, min(q - 1, 60))
        smaller = [prime_index(r) for r in prime_factors(x)]
        a = {top} | set(rng.sample(smaller, rng.randint(0, len(smaller))))
        a.discard(0)
        a.discard(1)
        b = {rng.randint(x + 1, 2 * top) for _ in range(rng.randint(0, 3))}
        if rng.random() < 0.3:
            b.add(q * rng.randint(1, 80))
        b -= a
        expected = _outcome(rado_oracle.extension_witness, a, b)
        assert _outcome(extension_witness, a, b) == expected, (a, b)
        below += isinstance(expected, int) and expected < top
    assert below >= 150
    for _ in range(100):
        # A empty, B products of the first primes: every smaller vertex
        # whose prime divides some z is skipped
        b = {math.prod(map(nth_prime, range(rng.randint(1, 60)))) for _ in range(3)}
        expected = rado_oracle.extension_witness(set(), b)
        assert extension_witness(set(), b) == expected, b


def test_extension_witness_rejects_overlap():
    with pytest.raises(ValueError):
        extension_witness({2}, {2})
    with pytest.raises(ValueError):
        extension_witness({1}, set())


@pytest.mark.parametrize(
    "a, b, low",
    [({1, 5}, {7}, 1), ({5}, {0, 7}, 0), ({0}, {1}, None), ({1, 9}, {1, 9}, 1), (set(), {-4}, -4)],
)
def test_extension_witness_refuses_a_vertex_below_2(a, b, low):
    # a vertex below 2 in a, in b or in both is an input error, checked
    # before the overlap; the caller's sets are left as they were
    copies = set(a), set(b)
    with pytest.raises(InputError, match="out of range: vertices start at 2") as err:
        extension_witness(a, b)
    if low is not None:
        assert str(err.value) == f"vertex {low} out of range: vertices start at 2"
    assert (a, b) == copies


def test_extension_witness_refuses_overlapping_sets():
    a, b = {2, 3, 9}, {9, 4}
    with pytest.raises(ValueError, match="^witness sets must be disjoint$") as err:
        extension_witness(a, b)
    assert not isinstance(err.value, InputError)
    assert (a, b) == ({2, 3, 9}, {9, 4})


def test_extension_witness_takes_any_iterable_and_keeps_its_sets():
    rng = random.Random(35)
    for _ in range(200):
        picks = rng.sample(range(2, 60), rng.randint(0, 6))
        cut = rng.randint(0, len(picks))
        a, b = set(picks[:cut]), set(picks[cut:])
        copies = set(a), set(b)
        want = extension_witness(a, b)
        assert (a, b) == copies
        assert want == rado_oracle.extension_witness(a, b)
        assert extension_witness(sorted(a), sorted(b)) == want
        assert extension_witness(frozenset(a), frozenset(b)) == want
        assert extension_witness(iter(sorted(a)), (z for z in b)) == want
        assert extension_witness(list(a) + list(a), tuple(b)) == want


def test_embed_path():
    p3 = graph(3, [(0, 1), (1, 2)])
    images = embed_graph(p3)
    assert images == {0: 2, 1: 5, 2: 13}
    for i, j in itertools.combinations(range(3), 2):
        assert adjacent(images[i], images[j]) == p3.adj(i, j)


def test_embed_preserves_adjacency():
    g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    images = embed_graph(g)
    assert len(set(images.values())) == 5
    for i, j in itertools.combinations(range(5), 2):
        assert adjacent(images[i], images[j]) == g.adj(i, j)


def test_dense_embedding_exceeds_budget_honestly(monkeypatch):
    k8 = graph(8, [(i, j) for i, j in itertools.combinations(range(8), 2)])
    monkeypatch.setattr(randomgraph, "MAX_PRIME_INDEX", 10_000)
    with pytest.raises(PrimeBudgetError):
        embed_graph(k8)
