import itertools
import random
import re
import time
import tracemalloc
from typing import Iterator, List

import pytest

from sixthgroups import coding, reduction
from sixthgroups.coding import (
    MAX_ELEMENTS,
    MAX_REP_LEN,
    CodingBudgetError,
    CodingTable,
    ExtensionWitness,
    _automaton,
    _code,
    _counts,
    _stable_words,
    _unrank,
    default_star_conj_bound,
    oracle_aut_extends,
    sigma_ns_nonempty,
)
from coding_rows import star_search
from sixthgroups.graphs import automorphisms, graph, graphs_up_to, nonisomorphic_graphs
from sixthgroups.presentation import AlphabetError, Presentation, relator_seeds
from sixthgroups.reduction import apply_hom, induced_hom, reduced_words
from sixthgroups.words import (
    EMPTY,
    InputError,
    MapError,
    Word,
    concat,
    gen,
    invert_word,
    letter_key,
    parse_word,
    power,
    word_key,
)

K2 = graph(2, [(0, 1)])
K1 = graph(1, [])
P3 = graph(3, [(0, 1), (1, 2)])


# Frozen shortlex table for K2 (letter order g0 < G0 < g1 < G1; composites
# take successive multiples of 3 in order of their length-2 representatives).
K2_TABLE = [
    (0, "e"),
    (1, "g0"),
    (2, "G0"),
    (3, "g0 g0"),
    (4, "g1"),
    (5, "G1"),
    (6, "g0 g1"),
    (9, "g0 G1"),
    (12, "G0 G0"),
    (15, "G0 g1"),
    (18, "G0 G1"),
    (21, "g1 g0"),
    (24, "g1 G0"),
    (27, "g1 g1"),
    (30, "G1 g0"),
]

# The single-vertex group is Z/7; codes in terms of the exponent of g0.
K1_EXP_OF_CODE = {0: 0, 1: 1, 2: -1, 3: 2, 6: -2, 9: 3, 12: -3}


def test_k2_table_frozen():
    ct = CodingTable(K2)
    got = ct.enumerate_to(30)
    assert got == [(c, parse_word(w)) for c, w in K2_TABLE]


def test_k2_spec_examples():
    ct = CodingTable(K2)
    assert ct.code_of(EMPTY) == 0
    assert ct.code_of((1,)) == 1
    assert ct.code_of((-1,)) == 2
    assert ct.code_of((2,)) == 4
    assert ct.code_of((-2,)) == 5
    assert ct.code_of((1, 1)) == 3
    assert ct.star(1, 1) == 3
    assert ct.star(0, 21) == 21 and ct.star(21, 0) == 21
    assert ct.star(1, 2) == 0
    assert ct.code_of(power((1,), 7)) == 0  # relator collapses


def test_generator_code_on_three_vertices():
    ct = CodingTable(P3)
    assert ct.code_of((3,)) == 7  # v_2 -> 3*2+1


def test_k1_exhaustion():
    ct = CodingTable(K1)
    assert ct.enumerate_to(-1) == []
    table = ct.enumerate_to(100)
    assert sorted(c for c, _ in table) == sorted(K1_EXP_OF_CODE)
    assert not ct.registrable(4)  # no second generator
    assert not ct.registrable(15)  # only 7 elements exist
    assert ct.registrable(12)


def test_trivial_group():
    # no vertices: G_T is the trivial group, and the identity is all it codes
    ct = CodingTable(graph(0))
    assert ct.enumerate_to(10) == [(0, ())]
    assert not ct.registrable(3)
    assert ct.word_of(0) == ()
    assert ct.code_of(()) == 0
    assert ct.star(0, 0) == 0


def test_k1_star_matches_mod7_arithmetic():
    ct = CodingTable(K1)
    code_of_exp = {e: c for c, e in K1_EXP_OF_CODE.items()}
    for n, en in K1_EXP_OF_CODE.items():
        for m, em in K1_EXP_OF_CODE.items():
            e = (en + em + 3) % 7 - 3  # representative exponent in -3..3
            assert ct.star(n, m) == code_of_exp[e]


def test_inverse_code():
    ct = CodingTable(K2)
    assert ct.inverse_code(1) == 2
    assert ct.inverse_code(6) == ct.code_of((-2, -1))
    for c, _ in ct.enumerate_to(30):
        assert ct.star(c, ct.inverse_code(c)) == 0


def test_code_of_respects_group_equality():
    ct = CodingTable(K2)
    assert ct.code_of(power((1,), 4)) == ct.code_of(power((-1,), 3))
    assert ct.code_of(parse_word("g0 g1 G1")) == 1


def test_word_of_unassigned_raises():
    ct = CodingTable(K1)
    with pytest.raises(KeyError):
        ct.word_of(4)
    # a code that is not an int is assigned to nothing, also where the
    # table holds the int it equals
    fresh, enumerated = CodingTable(K2), CodingTable(K2)
    enumerated.enumerate_to(12)
    for ct in (fresh, enumerated):
        for code in (1.5, 4.0, True):
            assert not ct.registrable(code)
            with pytest.raises(KeyError):
                ct.word_of(code)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerated_word_of_matches_a_fresh_table_at_every_cut(n):
    # every int from -3 to 5 past the cut, the gap codes above 3n that are
    # not multiples of 3 included: the memo of the cut's table gives the
    # word a fresh table unranks, or the same error
    t = graph(n, [(0, 1)] if n > 1 else [])
    fresh = CodingTable(t)

    def outcome(ct, code):
        try:
            return ct.word_of(code)
        except (KeyError, CodingBudgetError) as e:
            return type(e)

    for max_code in [*range(3 * n + 10), 3000]:
        enumerated = CodingTable(t)
        enumerated.enumerate_to(max_code)
        for code in range(-3, max_code + 6):
            want = outcome(fresh, code)
            assert outcome(enumerated, code) == want, (max_code, code)
        for code in (1.0, 4.0, True, None):
            for ct in (fresh, enumerated):
                with pytest.raises(KeyError):
                    ct.word_of(code)


def _store():
    """The shared pair lists as they stand, each list and a copy of it,
    and a copy of the shared code list."""
    return {n: (p, list(p)) for n, p in coding._PAIRS.items()}, list(coding._CODES)


def _assert_store_is(before):
    pairs, codes = before
    assert coding._PAIRS.keys() == pairs.keys()
    for n, (p, copy) in pairs.items():
        assert coding._PAIRS[n] is p and p == copy, n
    assert coding._CODES == codes


@pytest.mark.parametrize("bound", [True, 4.5, 7.0, "5", None])
def test_enumerate_to_refuses_a_bound_that_is_no_int(bound):
    CodingTable(K2).enumerate_to(30)
    before = _store()
    ct = CodingTable(K2)
    with pytest.raises(InputError, match=re.escape(repr(bound))):
        ct.enumerate_to(bound)
    assert ct.code_to_word == [(0, EMPTY)]
    _assert_store_is(before)


def test_budget_errors():
    ct = CodingTable(K2)
    with pytest.raises(CodingBudgetError):
        ct.enumerate_to(3 * MAX_ELEMENTS)
    ct2 = CodingTable(K2)
    with pytest.raises(CodingBudgetError):
        # normal form (g0 g1)^5 g0 has length 11 > MAX_REP_LEN
        ct2.code_of(power((1, 2), 5) + (1,))


def test_sigma_spec_examples():
    ct = CodingTable(K2)
    ok, w = sigma_ns_nonempty(ct, {0: 0}, 0)
    assert ok
    ok, w = sigma_ns_nonempty(ct, {1: 4}, 0)  # v0 -> v1 via the swap
    assert ok and w.k == 0 and w.l == 0 and dict(w.r) == {0: 1}
    ok, _ = sigma_ns_nonempty(ct, {0: 1}, 0)
    assert not ok
    # the first conjugator already works; those of 11 letters, past the
    # reach of the coding, are never coded
    ok, w = sigma_ns_nonempty(ct, {1: 1}, 11)
    assert ok and w.k == 0


def test_extension_witness_record():
    ct = CodingTable(K2)
    got = sigma_ns_nonempty(ct, {1: 4}, 0)  # v0 -> v1 via the swap
    assert got == (True, ExtensionWitness(r=((0, 1),), k=0, k_inv=0, l=0))
    assert got[1] != ExtensionWitness(r=((0, 1),), k=0, k_inv=0, l=1)


def test_deciders_walk_the_ball_lazily(monkeypatch):
    # the first conjugator already works, so neither decider may list the
    # radius-12 ball of K2 (1 062 881 words) before its first try
    drawn = []

    def counting(alphabet_size, max_len):
        for w in reduced_words(alphabet_size, max_len):
            drawn.append(w)
            yield w

    monkeypatch.setattr(reduction, "reduced_words", counting)
    monkeypatch.setattr(coding, "reduced_words", counting)
    ct = CodingTable(K2)
    ok, w = sigma_ns_nonempty(ct, {1: 1}, 12)
    assert ok and w.k == 0
    assert len(drawn) < 10
    drawn.clear()
    assert oracle_aut_extends(ct, {1: 1}, 12)
    assert len(drawn) < 10


def test_sigma_rejects_unregistrable():
    ct = CodingTable(K1)
    ok, _ = sigma_ns_nonempty(ct, {1: 4}, 0)
    assert not ok
    assert not oracle_aut_extends(ct, {1: 4}, 0)
    # an entry that is not an int is no natural, on either side of the map
    for ct, code in itertools.product((ct, CodingTable(K2)), (1.5, 4.0, True)):
        for s in ({1: code}, {code: 1}):
            with pytest.raises(MapError, match="naturals"):
                sigma_ns_nonempty(ct, s, 0)
            with pytest.raises(MapError, match="naturals"):
                oracle_aut_extends(ct, s, 0)


def test_sigma_composite_and_inverse_codes_constrain():
    # on Z/7 the literal generator-level conditions are vacuous for these
    # domains; the action check must reject them
    ct = CodingTable(K1)
    ok, _ = sigma_ns_nonempty(ct, {3: 1}, 0)  # v^2 -> v: impossible
    assert not ok
    assert not oracle_aut_extends(ct, {3: 1}, 0)
    ok, _ = sigma_ns_nonempty(ct, {2: 3}, 0)  # v^-1 -> v^2: impossible
    assert not ok
    assert not oracle_aut_extends(ct, {2: 3}, 0)
    ok, _ = sigma_ns_nonempty(ct, {3: 6}, 0)  # v^2 -> v^-2: inversion
    assert ok
    assert oracle_aut_extends(ct, {3: 6}, 0)


def test_sigma_nontrivial_conjugator():
    ct = CodingTable(K2)
    c = ct.code_of(parse_word("g0 g1 G0"))
    ok, w = sigma_ns_nonempty(ct, {4: c}, 1)
    assert ok and w.k != 0
    assert ct.star(w.k, w.k_inv) == 0
    assert oracle_aut_extends(ct, {4: c}, 1)
    # not reachable without a conjugator
    assert not oracle_aut_extends(ct, {4: c}, 0)
    ok0, _ = sigma_ns_nonempty(ct, {4: c}, 0)
    assert not ok0


def _differential_maps(ct: CodingTable, rng: random.Random, count: int):
    """Partial maps with domains of 0-4 codes mixing generator, inverse and
    composite codes: half are restrictions of canonical automorphisms
    with a conjugator of at most 2 letters, half are arbitrary.  Codes of
    6-letter words make products leave the reach of the coding."""
    n = ct.graph.n
    pool = [c for c in range(60) if ct.registrable(c)]
    letters = [c for i in range(n) for c in (gen(i), -gen(i))]
    for _ in range(3 if n > 1 else 0):
        w: Word = ()
        while len(w) < 6:
            c = rng.choice(letters)
            w += (c,) if not w or c != -w[-1] else ()
        pool.append(ct.code_of(w))
    auts = automorphisms(ct.graph)
    conjugators = list(reduced_words(n, 2))
    for _ in range(count):
        dom = rng.sample(pool, rng.randint(0, 4))
        if rng.random() < 0.5:
            eps = rng.choice((1, -1))
            gm = induced_hom(ct.graph, ct.graph, rng.choice(auts), eps, rng.choice(conjugators))
            yield {c: ct.code_of(apply_hom(gm, ct.word_of(c))) for c in dom}
        else:
            yield dict(zip(dom, rng.sample(pool, len(dom))))


def test_sigma_matches_star_search():
    # the read-off decider returns the old search's answer and witness
    # wherever that search answers; where it ran out of reach, the
    # brute-force oracle decides
    rng = random.Random(8)
    answered = positive = conjugated = out_of_reach = 0
    for t in graphs_up_to(4):
        ct = CodingTable(t)
        for s in _differential_maps(ct, rng, 8):
            for bound in (0, 1, 2):
                got = sigma_ns_nonempty(ct, s, bound)
                try:
                    want = star_search(ct, s, bound)
                except CodingBudgetError:
                    out_of_reach += 1
                    assert got[0] == oracle_aut_extends(ct, s, bound), (t, s, bound)
                    continue
                assert got == want, (t, s, bound)
                answered += 1
                positive += got[0]
                conjugated += got[0] and got[1].k != 0
    assert answered > 300 and positive > 100 and conjugated > 20 and out_of_reach > 20


def test_sigma_matches_oracle_off_an_initial_support():
    # maps whose words use vertices that are no initial segment of 0, 1,
    # ..., so canonical_witness walks a copy of T that numbers them first;
    # three in four are images under a canonical automorphism, the rest
    # one letter off.  Every witness found maps each pair.
    rng = random.Random(36)
    cases = positive = 0
    for t in graphs_up_to(4):
        if t.n < 2:
            continue
        ct = CodingTable(t)
        auts = automorphisms(t)
        conjugators = list(reduced_words(t.n, 1))
        for _ in range(10):
            support = sorted(rng.sample(range(t.n), rng.randint(1, t.n - 1)))
            if support[-1] == len(support) - 1:
                support[-1] = t.n - 1
            letters = {c for i in support for c in (gen(i), -gen(i))}
            words = [w for w in reduced_words(t.n, 2) if w and set(w) <= letters]
            gm = induced_hom(t, t, rng.choice(auts), rng.choice((1, -1)), rng.choice(conjugators))
            s = {}
            for w in rng.sample(words, 2):
                v = apply_hom(gm, w)
                if rng.random() < 0.25:
                    v = concat(v, (gen(rng.randrange(t.n)),))
                s[ct.code_of(w)] = ct.code_of(v)
            if len(set(s.values())) < len(s):
                continue
            pairs = [(ct.word_of(c), ct.word_of(v)) for c, v in s.items()]
            for bound in (0, 1):
                ok, _ = sigma_ns_nonempty(ct, s, bound)
                assert ok == oracle_aut_extends(ct, s, bound), (t, s, bound)
                found = reduction.canonical_witness(ct.pres, pairs, bound)
                if found is not None:
                    theta = induced_hom(t, t, found.rho, found.epsilon, found.conj)
                    assert all(ct.code_of(apply_hom(theta, w)) == ct.code_of(v) for w, v in pairs)
                cases += 1
                positive += ok
    assert cases > 250 and positive > 100, (cases, positive)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sigma_on_complete_graphs(n):
    # rho = reversal and eps = -1 are read off, so Aut(K_n) (n! maps) is
    # never listed; the conjugator g0 g1 G0 g1 needs bound 4
    t = graph(n, itertools.combinations(range(n), 2))
    ct = CodingTable(t)
    rho = tuple(reversed(range(n)))
    conj = parse_word("g0 g1 G0 g1")
    gm = induced_hom(t, t, rho, epsilon=-1, conj=conj)
    s = {3 * i + 1: ct.code_of(w) for i, w in enumerate(gm)}
    assert sigma_ns_nonempty(ct, s, 2) == (False, None)
    ok, w = sigma_ns_nonempty(ct, s, 4)
    assert ok and w.r == tuple(enumerate(rho)) and w.l == 1
    assert (w.k, w.k_inv) == (ct.code_of(conj), ct.code_of(invert_word(conj)))


def test_sigma_answers_past_the_reach_of_star():
    # the swap of K2 maps (g0 g1)^5 to (g1 g0)^5; the product of the two
    # 10-letter values needs 11 letters, past the reach of the coding,
    # which the pairwise star check of the old search raised on
    ct = CodingTable(K2)
    s = {ct.code_of(power((1, 2), 5)): ct.code_of(power((2, 1), 5)), 1: 4}
    with pytest.raises(CodingBudgetError):
        star_search(ct, s, 0)
    ok, w = sigma_ns_nonempty(ct, s, 0)
    assert ok and dict(w.r) == {0: 1} and w.k == 0 and w.l == 0


def test_default_star_conj_bound():
    ct = CodingTable(K2)
    c = ct.code_of(parse_word("g0 g1 G0"))
    assert default_star_conj_bound(ct, {4: c}) == 1
    assert default_star_conj_bound(ct, {}) == 0


def test_star_random_associativity():
    ct = CodingTable(K2)
    codes = [c for c, _ in ct.enumerate_to(30)]
    rng = random.Random(3)
    for _ in range(100):
        a, b, c = (rng.choice(codes) for _ in range(3))
        assert ct.star(ct.star(a, b), c) == ct.star(a, ct.star(b, c))


def test_max_rep_len_is_sharp():
    # at length 11 two distinct stable words are equal in the group:
    # (g0 g1)^5 g0 and its Dehn complement from the 22-letter relator
    p = CodingTable(K2).pres
    w1 = power((1, 2), 5) + (1,)
    w2 = invert_word(power((2, 1), 5) + (2,))
    assert w1 != w2 and len(w1) == len(w2) == MAX_REP_LEN + 1
    assert p.equal(w1, w2)


# -- closed-form coding against the enumeration it replaced --------------


def _stable_words_of_length(alphabet_size: int, length: int) -> Iterator[Word]:
    """Oracle: freely reduced words with single-generator runs of exponent
    magnitude <= 3, in lex order of the shortlex letter order."""
    letters = sorted(
        [gen(i) for i in range(alphabet_size)]
        + [-gen(i) for i in range(alphabet_size)],
        key=letter_key,
    )

    def extend(prefix: List[int], run: int):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for c in letters:
            if prefix:
                last = prefix[-1]
                if last == -c:
                    continue
                if last == c and run >= 3:
                    continue
            prefix.append(c)
            yield from extend(prefix, run + 1 if prefix[-2:-1] == [c] else 1)
            prefix.pop()

    yield from extend([], 0)


def _oracle_composites(n: int) -> Iterator[Word]:
    """Stable words of length 2..MAX_REP_LEN in shortlex order."""
    for length in range(2, MAX_REP_LEN + 1):
        yield from _stable_words_of_length(n, length)


def _oracle_table(n: int, max_code: int) -> dict:
    table = {0: EMPTY}
    for i in range(n):
        table[3 * i + 1] = (gen(i),)
        table[3 * i + 2] = (-gen(i),)
    for code, w in zip(range(3, max_code + 1, 3), _oracle_composites(n)):
        table[code] = w
    return {c: w for c, w in table.items() if c <= max_code}


def test_coding_equals_enumeration_oracle():
    for t in graphs_up_to(4):
        oracle = _oracle_table(t.n, 3000)
        # separate tables, so neither answer comes from the other's memo
        by_code, by_word = CodingTable(t), CodingTable(t)
        for c in range(3001):
            if c in oracle:
                assert by_code.word_of(c) == oracle[c], (t, c)
                assert by_word.code_of(oracle[c]) == c, (t, c)
            else:
                assert not by_code.registrable(c), (t, c)
        assert CodingTable(t).enumerate_to(3000) == sorted(oracle.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stable_words_match_the_oracle_at_every_length_boundary(n):
    # counts one short of, at and one past the first word of each length,
    # within the reach of the coding; on 3 and 4 vertices only the lengths
    # whose words fit in the cap
    letters, _, first = _counts(n)
    cap = first[-1] if n < 3 else 25_000
    counts = {c for f in first[2:] for c in (f - 1, f, f + 1) if 0 <= c <= cap}
    if n == 1:
        counts |= set(range(8))  # Z/7 has 4 composites; asking for more gives those 4
    oracle = list(itertools.islice(_oracle_composites(n), max(counts)))
    if n == 1:
        assert len(oracle) == 4
    else:
        assert len(counts) >= 12
    for count in sorted(counts):
        assert _stable_words(letters, count) == oracle[:count], count


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_a_grown_list_equals_a_fresh_build(n, monkeypatch):
    # one list grown through seeded sequences of bounds, rising and
    # falling: every length boundary +-1, counts whose last word is the
    # last tail of its parent, and on one vertex the whole reach.  After
    # each step the list is a fresh one-shot build and the unranked word
    # at every index, and the pairs it held before are the same objects.
    letters, _, first = _counts(n)
    # every length that starts within 34 000 words: up to 10 letters on
    # two vertices
    cap = min(first[-1], 34_000)
    words = [_unrank(n, r) for r in range(cap)]
    rng = random.Random(40 + n)
    # the word of rank c - 1 is its parent's last tail where the next
    # word has another parent: the first ten such counts and 20 more
    last_tails = [c for c in range(1, cap) if words[c - 1][:-1] != words[c][:-1]]
    bounds = set(last_tails[:10] + rng.sample(last_tails[10:], min(20, len(last_tails[10:]))))
    bounds |= {c for f in first[2:] for c in (f - 1, f, f + 1) if 0 <= c <= cap}
    if n == 1:
        bounds |= set(range(8))  # past the 4 composites of Z/7 too
    bounds = sorted(bounds)
    sequences = [bounds] + [rng.choices(bounds, k=rng.randint(2, 6)) for _ in range(12)]
    for sequence in sequences:
        _empty_store(monkeypatch)
        held = coding._shared_pairs(n, 0)
        for count in sequence:
            before = list(held)
            assert coding._shared_pairs(n, count) is held
            assert len(held) == 1 + max(len(before) - 1, min(count, first[-1]))
            assert all(x is y for x, y in zip(before, held)), (sequence, count)
            if len(held) == len(before):
                continue
            got = [w for _, w in held[1:]]
            assert got == _stable_words(letters, len(got)) == words[: len(got)], (sequence, count)
            assert [c for c, _ in held] == list(range(0, 3 * len(held), 3))


def _memo_table(ct: CodingTable, max_code: int) -> dict:
    """The code -> word mapping the memo stands for: index k of the memo
    holds the pair of code 3k, and the generator codes up to max_code add
    their words."""
    table = dict(ct.code_to_word)
    assert list(table) == list(range(0, 3 * len(ct.code_to_word), 3))
    for i in range(ct.graph.n):
        for code, sign in ((3 * i + 1, 1), (3 * i + 2, -1)):
            if code <= max_code:
                table[code] = (gen(i, sign),)
    return table


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerate_to_every_small_cut_matches_word_of(n):
    # every cut from the identity to 3n + 9 code by code, including those
    # between v_i and v_i^{-1}: the table in code order, as word_of gives
    # each code, and the memo holding exactly the table's composites
    t = graph(n, [(0, 1)] if n > 1 else [])
    unrank = CodingTable(t)
    for max_code in range(3 * n + 10):
        ct = CodingTable(t)
        table = ct.enumerate_to(max_code)
        want = [(c, unrank.word_of(c)) for c in range(max_code + 1) if unrank.registrable(c)]
        assert table == want, max_code
        assert _memo_table(ct, max_code) == dict(want), max_code


@pytest.mark.parametrize("n", [5, 8])
def test_rank_unrank_round_trip(n):
    auto = _automaton(n)
    words = itertools.islice(_oracle_composites(n), 100_000)
    for r, w in enumerate(words):
        # rank r at shortlex position r: ranks rise strictly
        assert _code(auto, w) == 3 * (r + 1), w
        assert _unrank(n, r) == w, r


def test_star_on_p4_beyond_any_table():
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    ct = CodingTable(p4)
    start = time.perf_counter()
    product = ct.star(ct.code_of(parse_word("G3 G2 G1 G0")), ct.code_of(parse_word("g1 g2 g3")))
    assert time.perf_counter() - start < 1.0
    w = parse_word("G3 G2 G1 G0 g1 g2 g3")
    assert product == CodingTable(p4).code_of(w)
    assert CodingTable(p4).word_of(product) == w


def test_top_code_at_eight_vertices():
    ct = CodingTable(graph(8, []))
    top = 1_973_260_710_720  # 3 * (number of stable words of 2..10 letters)
    last = parse_word("G7 G7 G7 G6 G7 G7 G7 G6 G7 G7")
    assert ct.code_of(last) == top
    assert CodingTable(graph(8, [])).word_of(top) == last
    assert ct.registrable(top)
    with pytest.raises(CodingBudgetError):
        ct.registrable(top + 3)


def _random_stable_word(rng: random.Random, n: int, length: int) -> Word:
    """A stable word of the given length on n >= 2 vertices."""
    letters = [c for i in range(n) for c in (gen(i), -gen(i))]
    w: List[int] = []
    while len(w) < length:
        c = rng.choice(letters)
        if not w or (c != -w[-1] and w[-3:] != [c] * 3):
            w.append(c)
    return tuple(w)


def _outcome(code_of, w):
    try:
        return code_of(w)
    except (AlphabetError, CodingBudgetError) as e:
        return type(e)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_codes_stable_words_as_the_oracle(n):
    # every stable word of 2-6 letters codes to its place in the oracle's
    # shortlex order, by the stored transitions and by the arithmetic that
    # learns them
    auto = _automaton(n)
    ct = CodingTable(graph(n, []))
    first = _counts(n)[2]
    for r, w in enumerate(itertools.islice(_oracle_composites(n), first[7])):
        assert ct.code_of(w) == _code(auto, w) == auto.learn(w) == 3 * (r + 1), w
    if n == 1:
        return  # Z/7 has no stable word of more than 3 letters
    # seeded words of 7-10 letters: codes rise in shortlex order and unrank
    # to the word; on 2 vertices the oracle lists every stable word
    rng = random.Random(40 + n)
    words = sorted(
        {_random_stable_word(rng, n, rng.randint(7, MAX_REP_LEN)) for _ in range(2000)},
        key=word_key,
    )
    codes = [ct.code_of(w) for w in words]
    assert codes == sorted(set(codes))
    assert [CodingTable(graph(n, [])).word_of(c) for c in codes] == words
    if n == 2:
        oracle = {w: c for c, w in _oracle_table(2, 3 * first[-1]).items()}
        assert codes == [oracle[w] for w in words]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_walk_leaves_unstable_words_to_dehn(n):
    # a run of 4-7 letters, an inverse pair, a letter outside the alphabet
    # or 11 letters leave the automaton, and the code or error is that of
    # the word's Dehn normal form
    t = graph(n, [(i, i + 1) for i in range(n - 1)])
    ct = CodingTable(t)
    rng = random.Random(60 + n)
    letters = [c for i in range(n) for c in (gen(i), -gen(i))]
    words = []
    for _ in range(100):
        u, v = (tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in "uv")
        c = rng.choice(letters)
        words.append(u + (c,) * rng.randint(4, 7) + v)
        words.append(u + (c, -c) + v)
        words.append(u + (rng.choice((0, n + 1, -n - 1)),) + v)
        if n > 1:
            words.append(_random_stable_word(rng, n, MAX_REP_LEN + 1))
            words.append((c,) * 4 + _random_stable_word(rng, n, 7))
    outcomes = set()
    for w in words:
        assert _code(ct._auto, w) is None, w
        want = _outcome(lambda x: ct.code_of(ct.pres.dehn_reduce(x)), w)
        assert _outcome(ct.code_of, w) == want, w
        outcomes.add(want if isinstance(want, type) else int)
    assert outcomes == ({int, AlphabetError, CodingBudgetError} if n > 1 else {int, AlphabetError})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_cancels_only_at_the_junction(n):
    # star against coding the product of the two words on a fresh table:
    # junctions that cancel fully or in part, and runs that merge past 3
    # letters, which Dehn's algorithm folds
    t = graph(n, [(i, i + 1) for i in range(n - 1)])
    ct, fresh = CodingTable(t), CodingTable(t)
    rng = random.Random(80 + n)
    letters = [c for i in range(n) for c in (gen(i), -gen(i))]
    seen = set()
    for _ in range(400):
        u = ct.word_of(ct.code_of(tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))))
        if not u:
            continue
        kind = rng.choice(("full", "part", "merge"))
        if kind == "full":
            v = invert_word(u)
        elif kind == "part":
            v = invert_word(u[rng.randint(1, len(u)) :]) + (rng.choice(letters),) * 2
        else:
            v = (u[-1],) * rng.randint(1, 3) + (rng.choice(letters),)
        a, b = ct.code_of(u), ct.code_of(v)
        x, y = fresh.word_of(a), fresh.word_of(b)
        product = concat(x, y)
        assert ct.star(a, b) == fresh.code_of(product), (t, x, y)
        if not product:
            seen.add("full")
        elif len(product) < len(x) + len(y):
            seen.add("part")
        if _code(ct._auto, product) is None and len(product) <= MAX_REP_LEN:
            seen.add("dehn")
    assert seen == {"full", "part", "dehn"}


def test_automaton_forgets_past_its_cap(monkeypatch):
    # past MAX_TRANSITIONS stored transitions the automaton drops them all
    # and learns again: the codes stay the oracle's
    monkeypatch.setattr(coding, "MAX_TRANSITIONS", 7)
    auto = coding._Automaton(2)
    for r, w in enumerate(itertools.islice(_oracle_composites(2), 500)):
        assert _code(auto, w) == 3 * (r + 1), w
        assert auto.stored == sum(map(len, auto.states.values())) <= 7


def test_table_on_127_generators_is_cheap():
    # the automaton learns transitions as walks take them: a table on 127
    # generators and one 10-letter lookup store the walk's 10 transitions,
    # not the 1.5 million of the whole automaton, and cost about what the
    # table's presentation does
    t = graph(127, [])
    w = parse_word("g0 G2 g4 g4 g4 G126 g59 G1 g8 g99")

    def table_and_lookup():
        coding._automaton.cache_clear()
        return CodingTable(t).code_of(w)

    code = table_and_lookup()
    assert coding._automaton(127).stored <= len(w)
    assert CodingTable(t).word_of(code) == w

    def presentation():
        return Presentation(t)

    # the best of interleaved runs, so that a burst of load slows both
    times = {table_and_lookup: [], presentation: []}
    for _ in range(5):
        for f, runs in times.items():
            start = time.perf_counter()
            f()
            runs.append(time.perf_counter() - start)
    assert min(times[table_and_lookup]) < 2 * min(times[presentation])
    tracemalloc.start()
    try:
        table_and_lookup()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _lookup_words(t, rng: random.Random) -> List[Word]:
    """Words to code on t: the representatives of codes up to 3000, and
    unreduced words, runs of 4-7 letters and conjugated relators, which
    take Dehn's algorithm to their representatives."""
    letters = [c for i in range(t.n) for c in (gen(i), -gen(i))]
    words = list(_oracle_table(t.n, 3000).values())
    words += [tuple(rng.choice(letters) for _ in range(rng.randint(2, 9))) for _ in range(60)]
    words += [(c,) * k for c in letters for k in range(4, 8)]
    for r in relator_seeds(t):
        for _ in range(3):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            words.append(u + r + invert_word(u) + (rng.choice(letters),))
    return words


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerated_table_answers_as_a_fresh_one(n):
    # the memo of an enumerated table changes no answer: code_of on tuples
    # and lists, word_of, star and the errors match a table that never
    # enumerated, on every graph of n vertices
    rng = random.Random(17 + n)
    for t in nonisomorphic_graphs(n):
        full, fresh = CodingTable(t), CodingTable(t)
        full.enumerate_to(3000)
        words = _lookup_words(t, rng)
        for w in words:
            assert full.code_of(w) == fresh.code_of(w), (t, w)
            assert full.code_of(list(w)) == fresh.code_of(list(w)) == fresh.code_of(w), (t, w)
        codes = sorted({fresh.code_of(w) for w in words})
        for c in codes:
            assert full.word_of(c) == fresh.word_of(c), (t, c)
        # products of two words of at most 5 letters are within reach;
        # products of longer ones may not be, and then both tables raise
        short = [c for c in codes if len(fresh.word_of(c)) <= MAX_REP_LEN // 2]
        for a, b in (rng.sample(short, 2) for _ in range(150)):
            assert full.star(a, b) == fresh.star(a, b), (t, a, b)
        for a, b in (rng.sample(codes, 2) for _ in range(50)):
            try:
                want = fresh.star(a, b)
            except CodingBudgetError:
                with pytest.raises(CodingBudgetError):
                    full.star(a, b)
                continue
            assert full.star(a, b) == want, (t, a, b)
        # a letter that is no int is outside the alphabet, however equal
        # to one it is and whatever the table holds
        errors = [
            ((t.n + 1,), AlphabetError),
            ((1.0,), AlphabetError),
            ((1, 2.0), AlphabetError),
            ((1, -2, 1, 2, 1, -2, 1, 2, 1, 2.0), AlphabetError),
        ]
        if t.n > 1:  # every element of Z/7 is within reach
            errors.append((power((1, 2), 5) + (1,), CodingBudgetError))
        for w, error in errors:
            for ct in (full, fresh):
                for arg in (w, list(w)):
                    with pytest.raises(error):
                        ct.code_of(arg)


def test_memos_are_bounded():
    # lookups never grow the memo: it holds the table enumerate_to made
    for n, enumerated in itertools.product((1, 2, 4), (0, 90)):
        t = graph(n, [(0, 1)] if n > 1 else [])
        oracle = _oracle_table(n, 3000)
        ct = CodingTable(t)
        table = ct.enumerate_to(enumerated)
        assert _memo_table(ct, enumerated) == dict(table)
        memo = list(ct.code_to_word)
        codes = random.Random(5).sample(sorted(oracle), min(200, len(oracle)))
        for c in codes:
            assert ct.word_of(c) == oracle[c]
            assert ct.code_of(oracle[c]) == ct.code_of(list(oracle[c])) == c
            assert ct.star(ct.inverse_code(c), c) == 0
        for c in [c for c in codes if len(oracle[c]) <= MAX_REP_LEN // 2][:20]:
            assert ct.star(c, c) == ct.code_of(oracle[c] + oracle[c])
        assert ct.code_to_word == memo


def test_the_longest_table_fills_the_memos():
    # a shorter table after a longer one leaves the memo as the longer one
    # made it; a longer one after a shorter one replaces it
    for order in ((300, 30), (30, 300)):
        ct = CodingTable(P3)
        tables = {m: ct.enumerate_to(m) for m in order}
        assert tables[30] == tables[300][: len(tables[30])]
        assert _memo_table(ct, 300) == dict(tables[300])


def _two_graphs(n: int):
    """The empty and the complete graph on n vertices: the same n, other
    relators wherever n > 1."""
    return [graph(n, []), graph(n, itertools.combinations(range(n), 2))]


def _assert_answers_as_the_oracle(ct: CodingTable, max_code: int, table) -> None:
    oracle = _oracle_table(ct.graph.n, max_code + 5)
    assert table == [(c, w) for c, w in sorted(oracle.items()) if c <= max_code]
    for code in range(-3, max_code + 6):
        if code in oracle:
            assert ct.word_of(code) == oracle[code], (ct.graph, code)
        else:
            with pytest.raises(KeyError):
                ct.word_of(code)


def _empty_store(monkeypatch):
    monkeypatch.setattr(coding, "_PAIRS", {})
    monkeypatch.setattr(coding, "_CODES", [])


def _composites(table):
    return [p for p in table if p[0] and p[0] % 3 == 0]


def test_tables_on_one_vertex_count_share_their_words(monkeypatch):
    # fresh tables on the empty and the complete graph of each n = 0..4,
    # the bounds rising and then falling and the vertex counts
    # interleaved: each table, its memo and word_of answer as the oracle,
    # and a long-lived table per graph keeps the memo of its largest table
    _empty_store(monkeypatch)
    kept = {t: CodingTable(t) for n in range(5) for t in _two_graphs(n)}
    largest = {t: -1 for t in kept}
    for max_code in (0, 7, 30, 300, 3000, 300, 31, 8, 0):
        for n in (2, 0, 4, 1, 3):
            for t in _two_graphs(n):
                ct = CodingTable(t)
                table = ct.enumerate_to(max_code)
                _assert_answers_as_the_oracle(ct, max_code, table)
                assert ct.code_to_word == [p for p in table if p[0] % 3 == 0]
                assert kept[t].enumerate_to(max_code) == table
                largest[t] = max(largest[t], max_code)
                want = _oracle_table(n, largest[t])
                assert dict(kept[t].code_to_word) == {
                    c: w for c, w in want.items() if c % 3 == 0
                }
    # one list per vertex count, as long as the longest table asked, and
    # one code list as long as the longest of them
    assert {n: len(p) for n, p in coding._PAIRS.items()} == {
        0: 1,
        1: 5,
        2: 1001,
        3: 1001,
        4: 1001,
    }
    assert coding._CODES == list(range(0, 3003, 3))


def test_a_second_table_reads_the_first_ones_words(monkeypatch):
    # the composites as the same pair objects, not equal ones built
    # again; a longer table grows the list in place, so its first pairs
    # stay the same objects, and tables after it share the grown list
    _empty_store(monkeypatch)
    for n in (2, 3, 4):
        first, second = _two_graphs(n)
        a = _composites(CodingTable(first).enumerate_to(3000))
        b = _composites(CodingTable(second).enumerate_to(1500))
        assert len(a) == 1000 and len(b) == 500
        assert all(x is y for x, y in zip(a, b))
        held = coding._PAIRS[n]
        c = _composites(CodingTable(second).enumerate_to(6000))
        assert len(c) == 2000 and all(x is y for x, y in zip(a, c))
        assert coding._PAIRS[n] is held
        d = _composites(CodingTable(first).enumerate_to(6000))
        assert len(d) == 2000 and all(x is y for x, y in zip(c, d))
        assert coding._PAIRS[n] == [(0, EMPTY)] + d


def test_the_shared_words_stay_within_max_elements(monkeypatch):
    # with the element budget patched small, the lists of all vertex
    # counts never hold more than it, a build that would pass it empties
    # the store, the code list is as long as the longest list, and every
    # table still answers as the oracle
    monkeypatch.setattr(coding, "MAX_ELEMENTS", 120)
    _empty_store(monkeypatch)
    rng = random.Random(35)
    cleared = 0
    for _ in range(120):
        n = rng.randint(0, 4)
        max_code = rng.randint(0, 3 * (coding.MAX_ELEMENTS - 1 - 2 * n))
        held = sum(map(len, coding._PAIRS.values()))
        ct = CodingTable(rng.choice(_two_graphs(n)))
        table = ct.enumerate_to(max_code)
        _assert_answers_as_the_oracle(ct, max_code, table)
        total = sum(map(len, coding._PAIRS.values()))
        assert total <= coding.MAX_ELEMENTS
        assert len(coding._CODES) == max(map(len, coding._PAIRS.values()))
        cleared += total < held
    assert cleared > 5
    with pytest.raises(CodingBudgetError, match="MAX_ELEMENTS"):
        CodingTable(K2).enumerate_to(3 * coding.MAX_ELEMENTS)


def test_a_growth_past_max_elements_empties_the_store(monkeypatch):
    # with the element budget patched small, lists on three vertex
    # counts grow in rising steps, 10, 20 and 40 times a base: while the
    # store has room a list grows in place; a growth that would pass the
    # budget empties the store and builds its list from empty, so the
    # lists never hold more than the budget together
    monkeypatch.setattr(coding, "MAX_ELEMENTS", 400)
    _empty_store(monkeypatch)
    cleared = 0
    for step in (10, 20, 40):
        for n in (3, 2, 4):
            held = coding._PAIRS.get(n)
            before = list(held or ())
            others = sum(len(p) for m, p in coding._PAIRS.items() if m != n)
            ct = CodingTable(_two_graphs(n)[1])
            table = ct.enumerate_to(3 * 5 * step)
            _assert_answers_as_the_oracle(ct, 3 * 5 * step, table)
            pairs = coding._PAIRS[n]
            assert len(pairs) == 5 * step + 1
            if others + len(pairs) > coding.MAX_ELEMENTS:
                cleared += 1
                assert list(coding._PAIRS) == [n] and pairs is not held
                assert not any(x is y for x, y in zip(before[1:], pairs[1:]))
            elif held is not None:
                assert pairs is held and all(x is y for x, y in zip(before, pairs))
            assert sum(map(len, coding._PAIRS.values())) <= coding.MAX_ELEMENTS
            assert coding._CODES == list(range(0, 3 * max(map(len, coding._PAIRS.values())), 3))
    assert cleared == 3


def test_a_failed_growth_leaves_the_list_as_it_was(monkeypatch):
    # pairs are appended only once all their words are made: a growth
    # that raises leaves the list with its length and its pair objects,
    # and the code list, as they were, and the next table answers
    _empty_store(monkeypatch)
    CodingTable(K2).enumerate_to(300)
    CodingTable(P3).enumerate_to(300)
    ct = CodingTable(K2)
    ct.enumerate_to(30)
    memo = list(ct.code_to_word)
    held = coding._PAIRS[2]
    before, codes = list(held), list(coding._CODES)

    def out_of_memory(letters, count, pairs):
        raise MemoryError

    with monkeypatch.context() as m:
        m.setattr(coding, "_stable_words", out_of_memory)
        with pytest.raises(MemoryError):
            ct.enumerate_to(3000)
        assert coding._PAIRS[2] is held and len(held) == 101
        assert all(x is y for x, y in zip(held, before))
        assert len(coding._PAIRS[3]) == 101
        assert coding._CODES == codes
        assert ct.code_to_word == memo
        # a table the list still covers needs no build
        assert CodingTable(P3).enumerate_to(90) == sorted(_oracle_table(3, 90).items())
    _assert_answers_as_the_oracle(ct, 3000, ct.enumerate_to(3000))
    assert coding._PAIRS[2] is held and len(held) == 1001
    assert all(x is y for x, y in zip(held, before))


def test_a_returned_table_belongs_to_the_caller(monkeypatch):
    # appending to a table, assigning into it or emptying it changes
    # neither a later table nor word_of; only the pairs in it are shared
    _empty_store(monkeypatch)
    ct = CodingTable(P3)
    want = list(ct.enumerate_to(3000))
    words = [ct.word_of(c) for c, _ in want]
    spoilt = ct.enumerate_to(3000)
    spoilt.append((3003, (1, 2, 3)))
    assert ct.enumerate_to(3000) == want
    spoilt = ct.enumerate_to(3000)
    spoilt[0], spoilt[-1] = (0, (1,)), (3000, EMPTY)
    assert ct.enumerate_to(3000) == want
    spoilt = ct.enumerate_to(3000)
    del spoilt[:]
    for t in (ct, CodingTable(P3), CodingTable(graph(3))):
        assert t.enumerate_to(3000) == want
        assert [t.word_of(c) for c, _ in want] == words
    # the pairs of two tables on one n are the same objects
    a = _composites(CodingTable(P3).enumerate_to(3000))
    b = _composites(CodingTable(graph(3)).enumerate_to(1500))
    assert len(b) == 500 and all(x is y for x, y in zip(a, b))
    # the code ints are shared across n, past the ints Python caches
    c = _composites(CodingTable(K2).enumerate_to(6000))
    assert [p[0] for p in c[:1000]] == [p[0] for p in a]
    assert all(x[0] is y[0] for x, y in zip(a, c))
    # the code list is as long as the longest pair list, and shrinks
    # with the store
    assert len(coding._CODES) == 2001
    monkeypatch.setattr(coding, "MAX_ELEMENTS", 2100)
    CodingTable(graph(4)).enumerate_to(300)
    assert {n: len(p) for n, p in coding._PAIRS.items()} == {4: 101}
    assert len(coding._CODES) == 101


def test_codes_beyond_reach():
    # on two or more vertices the group is infinite: a code past the last
    # representative of MAX_REP_LEN letters exists, but the coding cannot
    # reach it
    ct = CodingTable(K2)
    top = 3 * sum(
        1 for length in range(2, MAX_REP_LEN + 1) for _ in _stable_words_of_length(2, length)
    )
    assert ct.registrable(top)
    assert len(ct.word_of(top)) == MAX_REP_LEN
    for call in (ct.registrable, ct.word_of, ct.enumerate_to):
        with pytest.raises(CodingBudgetError, match="MAX_REP_LEN"):
            call(top + 3)
    # on one vertex (Z/7) the count is exact
    z7 = CodingTable(K1)
    assert not z7.registrable(15)
    with pytest.raises(KeyError):
        z7.word_of(15)
    assert len(z7.enumerate_to(10**12)) == 7


def test_enumerate_to_checks_size_first():
    CodingTable(P3).enumerate_to(30)
    CodingTable(K2).enumerate_to(30)
    before = _store()
    ct = CodingTable(P3)
    start = time.perf_counter()
    with pytest.raises(CodingBudgetError, match="MAX_ELEMENTS") as err:
        ct.enumerate_to(10**12)
    assert time.perf_counter() - start < 0.1
    # the identity, six generator codes and every multiple of 3 up to 10^12
    assert (err.value.budget, err.value.used) == (MAX_ELEMENTS, 7 + 10**12 // 3)
    assert ct.code_to_word == [(0, EMPTY)]
    _assert_store_is(before)
    # a bound past the reach of the coding is refused before building too
    ct = CodingTable(K2)
    with pytest.raises(CodingBudgetError, match="MAX_REP_LEN"):
        ct.enumerate_to(3 * _counts(2)[2][-1] + 3)
    assert ct.code_to_word == [(0, EMPTY)]
    _assert_store_is(before)


def test_coding_budget_error_fields_and_message():
    w = power((1, 2, 2), 27)  # g0 g1 g1 has infinite order
    with pytest.raises(CodingBudgetError) as err:
        CodingTable(K2).code_of(w)
    e = err.value
    assert (e.budget, e.used, e.word) == (MAX_REP_LEN, 81, w)
    msg = str(e)
    assert "MAX_REP_LEN" in msg and "(81 letters)" in msg
    assert "g0 g1 g1 g0 g1 g1 g0 g1 …" in msg and "g0 g1 g1 g0 g1 g1 g0 g1 g1" not in msg
    assert len(msg) < 200
    with pytest.raises(CodingBudgetError) as err:
        CodingTable(K2).enumerate_to(3 * MAX_ELEMENTS)
    # the identity, four generator codes and MAX_ELEMENTS composites
    assert (err.value.budget, err.value.used) == (MAX_ELEMENTS, MAX_ELEMENTS + 5)
    assert "MAX_ELEMENTS" in str(err.value) and len(str(err.value)) < 200
