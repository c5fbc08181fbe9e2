import collections
import itertools
import math
import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from sixthgroups import presentation
from sixthgroups.graphs import graph, graphs_up_to
from sixthgroups.presentation import (
    INFINITE,
    MAX_ALPHABET_SIZE,
    AlphabetError,
    DehnBudgetError,
    check_c16,
    max_piece_length,
    pieces,
    primitive_root,
    relator_roots,
    symmetrize,
)
from sixthgroups.reduction import relators_from_graph
from sixthgroups.words import (
    EMPTY,
    cyclic_reduce,
    format_word,
    invert_word,
    parse_word,
    power,
    reduce_word,
    word_key,
)

from dehn_oracle import DehnOracle

K2 = graph(2, [(0, 1)])
E2 = graph(2, [])
P_K2 = relators_from_graph(K2)
P_E2 = relators_from_graph(E2)
Z7 = relators_from_graph(graph(1, []))

letters = st.integers(min_value=-2, max_value=2).filter(lambda c: c != 0)
words = st.lists(letters, max_size=10).map(lambda w: reduce_word(tuple(w)))


def _rotation_sorting_order(oracle, w):
    """Reference order: Dehn-reduce the rotations of the core in shortlex
    order, round after round, until no rotation shortens, then look the
    core up among the rotations of each root power.  Unlike the oracle's
    own ``order``, it tries rotations in shortlex order, not from the
    first letter on."""
    current = oracle.reduce(w)[0]
    while True:
        current, _ = cyclic_reduce(current)
        for rot in sorted(
            ({current[i:] + current[:i] for i in range(len(current))} or {EMPTY}),
            key=word_key,
        ):
            reduced = oracle.reduce(rot)[0]
            if word_key(reduced) < word_key(rot):
                current = reduced
                break
        else:
            break
    core = current
    if not core:
        return 1
    rotations = {core[i:] + core[:i] for i in range(len(core))}
    for root, n in sorted(oracle.roots, key=lambda rn: word_key(rn[0])):
        if len(core) % len(root) != 0:
            continue
        k = len(core) // len(root)
        if root * k in rotations or invert_word(root) * k in rotations:
            return n // math.gcd(k, n)
    return INFINITE


def test_primitive_root():
    assert primitive_root((1, 2, 1, 2)) == ((1, 2), 2)
    assert primitive_root((1, 2, 3)) == ((1, 2, 3), 1)
    assert primitive_root((1,) * 7) == ((1,), 7)
    assert primitive_root(EMPTY) == (EMPTY, 1)


def test_symmetrize_closure():
    rel = symmetrize([power((1, 2), 2)])
    # rotations and inverses of (g0 g1)^2: period 2, so 4 words
    assert rel.relators == {
        (1, 2, 1, 2),
        (2, 1, 2, 1),
        (-1, -2, -1, -2),
        (-2, -1, -2, -1),
    }
    assert rel.roots == {((1, 2), 2)}
    with pytest.raises(ValueError):
        symmetrize([EMPTY])


def test_symmetrize_cyclically_reduces():
    rel = symmetrize([(1, 2, -1)])
    assert rel.relators == {(2,), (-2,)}
    # a seed that conjugates to nothing is dropped
    assert symmetrize([(1, 2, -2, -1), (3,)]).roots == {((3,), 1)}


def test_pieces_of_proper_power_relator():
    # the 4 symmetrized relators of (g0 g1)^2 start with 4 distinct
    # letters, so there are no pieces and the condition holds vacuously;
    # self-overlap of a proper power does not create pieces
    rel = symmetrize([power((1, 2), 2)])
    assert pieces(rel) == set()
    assert max_piece_length(rel) == 0
    assert check_c16(rel) is True


def test_pieces_failure_case():
    # g0 g1 g2 and g0 g1 G2 share the length-2 prefix g0 g1; 2*6 >= 3
    rel = symmetrize([(1, 2, 3), (1, 2, -3)])
    assert max_piece_length(rel) >= 2
    assert check_c16(rel) is False


def _pairwise_pieces(rel):
    """Oracle: the maximal common prefix of every ordered pair of distinct
    relators."""
    out = set()
    for r1, r2 in itertools.permutations(rel.relators, 2):
        k = 0
        while k < min(len(r1), len(r2)) and r1[k] == r2[k]:
            k += 1
        if k:
            out.add(r1[:k])
    return out


def _pairwise_c16(rel):
    """Oracle: no piece u occurs inside a relator r with 6|u| >= |r|."""
    ps = _pairwise_pieces(rel)
    return not any(
        6 * len(u) >= len(r)
        and any(r[i : i + len(u)] == u for i in range(len(r) - len(u) + 1))
        for r in rel.relators
        for u in ps
    )


def test_c16_matches_pairwise_oracle():
    rng = random.Random(16)
    rels = [relators_from_graph(t).relators for t in graphs_up_to(5)]
    for _ in range(1500):
        k = rng.randint(1, 3)
        seeds = [
            tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(1, 14)))
            for _ in range(rng.randint(1, 3))
        ]
        rels.append(symmetrize(seeds))
    passing = 0
    for rel in rels:
        ps = _pairwise_pieces(rel)
        assert pieces(rel) == ps
        assert max_piece_length(rel) == max(map(len, ps), default=0)
        assert check_c16(rel) == _pairwise_c16(rel)
        passing += check_c16(rel)
    # both answers are well represented among the random sets
    assert 300 < passing < len(rels) - 300


def test_williams_relators_are_sixth():
    assert check_c16(P_K2.relators) is True
    assert max_piece_length(P_K2.relators) == 1
    assert check_c16(Z7.relators) is True
    assert max_piece_length(Z7.relators) == 0


def test_dehn_reduce_frozen_cases():
    # (presentation, word, normal form, steps), for the engine and the oracle
    cases = [
        # g0^4 against g0^7: prefix of length 4 > 7/2, complement G0^3
        (Z7, power((1,), 4), (-1, -1, -1), 1),
        (Z7, power((1,), 7), EMPTY, 1),
        (Z7, power((1,), 3), (1, 1, 1), 0),
        # g0^7 goes, then g0^5 becomes G0^2
        (Z7, power((1,), 12), (-1, -1), 2),
        # (g0 g1)^6 against (g0 g1)^11: complement (G1 G0)^5
        (P_K2, power((1, 2), 6), power((-2, -1), 5), 1),
        (P_K2, power((1, 2), 11), EMPTY, 1),
        (P_K2, power((1, 2), 5), power((1, 2), 5), 0),
        # non-edge exponent 13: (g0 g1)^11 is 22 of its 26 letters
        (P_E2, power((1, 2), 13), EMPTY, 1),
        (P_E2, power((1, 2), 11), power((-2, -1), 2), 1),
    ]
    for pres, w, form, steps in cases:
        assert pres._reduce(w) == (form, steps), format_word(w)
        assert DehnOracle(pres.graph).reduce(w) == (form, steps), format_word(w)


def test_identity_and_equal():
    w = parse_word("g0 g1 G0 G1")
    assert not P_K2.is_identity(w)
    assert P_K2.equal(power((1,), 4), power((-1,), 3))
    assert P_K2.equal(w, w)


def test_order_frozen_cases():
    # (presentation, word, order), for the engine and the oracle
    cases = [
        (Z7, EMPTY, 1),
        (Z7, (1,), 7),
        (Z7, (1, 1), 7),
        (Z7, power((1,), 7), 1),
        (P_K2, (1, 2), 11),
        (P_K2, power((1, 2), 3), 11),  # gcd(3, 11) = 1
        (P_E2, (1, 2), 13),
        (P_K2, parse_word("g0 g1 g1"), INFINITE),
        (P_K2, parse_word("g0 g1 g0 G1"), INFINITE),
        # conjugates keep their order
        (P_K2, parse_word("g1 g0 g1 G1"), 11),
    ]
    for pres, w, order in cases:
        assert pres.order(w) == order, format_word(w)
        assert DehnOracle(pres.graph).order(w)[0] == order, format_word(w)


def test_order_of_power_divides():
    # (g0 g1)^22 = 1 but (g0 g1)^11k' != 1 for k' not multiple
    assert P_K2.is_identity(power((1, 2), 22))
    assert not P_K2.is_identity(power((1, 2), 12))


def test_symmetrize_is_fixed_point():
    rel = P_K2.relators
    assert symmetrize(rel.relators).relators == rel.relators


def test_conjugated_relators_vanish():
    rng = random.Random(8)
    conjugators = [
        reduce_word(tuple(rng.choice((1, -1, 2, -2)) for _ in range(k)))
        for k in (1, 2, 3, 3)
    ]
    for r in list(P_K2.relators.relators)[:4]:
        for c in conjugators:
            assert P_K2.is_identity(reduce_word(c + r + invert_word(c)))


def test_order_of_conjugate_matches():
    w = (1, 2)
    for c in [(1,), (2, 1), (-2, 1, 1)]:
        conj = reduce_word(c + w + invert_word(c))
        assert P_K2.order(conj) == P_K2.order(w)


def test_order_power_law():
    assert P_K2.order((1, 2)) == 11
    for k in range(1, 12):
        assert P_K2.order(power((1, 2), k)) == 11 // math.gcd(k, 11)
    assert Z7.order(power((1,), 7)) == 1


def test_dehn_budget(monkeypatch):
    # the budget is read when a call starts, not when the presentation is
    # built
    fresh = relators_from_graph(graph(1, []))
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 1)
    # g0^12 takes two steps: g0^7 goes, then g0^5 becomes G0^2
    with pytest.raises(DehnBudgetError):
        fresh.dehn_reduce(power((1,), 12))
    # a successful reduction leaves nothing behind that a later call on
    # the same presentation could use to skip its steps
    assert fresh.dehn_reduce(power((1,), 4)) == (-1, -1, -1)
    with pytest.raises(DehnBudgetError):
        fresh.dehn_reduce(power((1,), 12))
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    assert fresh.dehn_reduce(power((1,), 12)) == (-1, -1)


def test_dehn_budget_error_names_budget_and_truncates(monkeypatch):
    w = power((1, 2), 40)
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    with pytest.raises(DehnBudgetError) as info:
        P_K2.dehn_reduce(w)
    err = info.value
    assert (err.name, err.budget, err.used, err.word) == (
        "Dehn step budget MAX_DEHN_STEPS", 2, 3, w
    )
    assert str(err) == (
        "Dehn step budget MAX_DEHN_STEPS 2 exceeded (needs at least 3) "
        "on g0 g1 g0 g1 g0 g1 g0 g1 … (80 letters)"
    )
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 0)
    with pytest.raises(DehnBudgetError, match=r"on g0 g0 g0 g0 \(4 letters\)$"):
        Z7.dehn_reduce(power((1,), 4))


def test_letters_outside_alphabet_rejected():
    g5 = parse_word("g5")
    for call in (
        lambda: P_K2.dehn_reduce(g5),
        lambda: P_K2.dehn_reduce(parse_word("g0 G5 g1")),
        lambda: P_K2.equal(g5, EMPTY),
        lambda: P_K2.equal(g5, g5),  # concat would cancel g5 G5
        lambda: P_K2.order(g5),
    ):
        with pytest.raises(AlphabetError, match="[gG]5 .*size 2"):
            call()
    assert issubclass(AlphabetError, ValueError)
    # the last generator of the alphabet is accepted
    assert P_K2.dehn_reduce(parse_word("G1")) == (-2,)


def _alphabet_message(call):
    with pytest.raises(AlphabetError) as exc:
        call()
    return str(exc.value)


def test_letters_outside_alphabet_rejected_at_every_length():
    # Words below 32 letters are packed by a Struct made once, longer ones
    # by one made for their length; a letter past the alphabet, 0, a
    # letter that is no signed byte or no byte of a letter (-128, 0x80),
    # or no int gets the same message at every length and position.
    n = P_K2.alphabet_size
    named = (
        (n + 1, "g2"),
        (-(n + 1), "G2"),
        (0, "0"),
        (128, "g127"),
        (-128, "G127"),
        (-129, "G128"),
        (1.0, "1.0"),
    )
    for bad, name in named:
        short = _alphabet_message(lambda: P_K2.dehn_reduce((bad,)))
        assert short.startswith(f"letter {name} is outside"), short
        for length in (1, 31, 32, 40):
            for pos in {0, length // 2, length - 1}:
                w = list(power((1, 2), length))[:length]
                w[pos] = bad
                w = tuple(w)
                for call in (
                    lambda: P_K2.dehn_reduce(w),
                    lambda: P_K2.equal(w, EMPTY),
                    lambda: P_K2.order(w),
                    lambda: P_K2.cyclic_dehn_reduce(w),
                ):
                    assert _alphabet_message(call) == short, (bad, length, pos)
    # a g5 G5 that cancels inside a 40-letter equal is still rejected
    w1 = power((1, 2), 10) + parse_word("g5")
    w2 = invert_word(parse_word("G5") + power((1, 2), 9))
    assert len(w1) + len(w2) == 40
    assert _alphabet_message(lambda: P_K2.equal(w1, w2)).startswith("letter g5 is outside")


def _random_graph(rng, n):
    pairs = itertools.combinations(range(n), 2)
    return graph(n, [p for p in pairs if rng.random() < 0.5])


def _noisy_relator_product(rng, pres, target_len):
    """Conjugated relators and conjugated relator prefixes multiplied
    together, with random letters inserted at random places; about
    target_len letters.  Prefixes longer than half a relator start Dehn
    steps whose complements can cancel into their neighbours."""
    rels = pres.relators.sorted_relators()
    n = pres.alphabet_size
    raw = []
    while len(raw) < target_len:
        conj = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4))]
        r = rng.choice(rels)
        if rng.random() < 0.3:
            r = r[: rng.randint(1, len(r))]
        raw += conj + list(r) + [-c for c in reversed(conj)]
    for _ in range(rng.randint(0, max(1, target_len // 50))):
        raw.insert(rng.randint(0, len(raw)), rng.choice((1, -1)) * rng.randint(1, n))
    return tuple(raw)


def test_dehn_reduce_matches_naive_rescan():
    rng = random.Random(20170213)
    for n in range(1, 9):
        t = _random_graph(rng, n)
        pres = relators_from_graph(t)
        for target_len in (10, 60, 300, 900, 2000):
            w = _noisy_relator_product(rng, pres, target_len)
            expected = DehnOracle(t).reduce(w)
            assert pres._reduce(w) == expected, (n, format_word(w))
            steps = expected[1]
            for budget in {steps, steps - 1, rng.randint(0, 12)} - {-1}:
                got = _outcome(pres.dehn_reduce, w, budget)
                assert got == _expected(expected, w, budget), (n, budget)


@given(words)
@settings(max_examples=60)
def test_dehn_reduce_idempotent_and_sound(w):
    nf = P_K2.dehn_reduce(w)
    assert P_K2.dehn_reduce(nf) == nf
    # soundness: w and its normal form are equal in the group
    assert P_K2.is_identity(nf + invert_word(w))


@given(words)
@settings(max_examples=60)
def test_dehn_result_has_no_long_relator_prefix(w):
    nf = P_K2.dehn_reduce(w)
    for r in P_K2.relators.relators:
        half = len(r) // 2
        for i in range(len(nf)):
            for j in range(i + half + 1, len(nf) + 1):
                assert nf[i:j] != r[: j - i]


@given(words, words)
@settings(max_examples=60)
def test_equal_is_congruence(a, b):
    if P_K2.equal(a, b):
        assert P_K2.equal(invert_word(a), invert_word(b))
        assert P_K2.equal(a + (1,), b + (1,))


def _conjugates(rng, pres):
    """Seeded conjugates t w t^-1 of powers of v_i and v_i v_j and of
    random words, with t a random word or a relator prefix."""
    n = pres.alphabet_size
    rels = pres.relators.sorted_relators()

    def random_word(length):
        return reduce_word(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length))
        )

    for _ in range(40):
        i, j = rng.randint(1, n), rng.randint(1, n)
        kind = rng.random()
        if kind < 0.3:
            w = power((rng.choice((i, -i)),), rng.randint(1, 14))
        elif kind < 0.7 and i != j:
            w = power((i, rng.choice((j, -j))), rng.randint(1, 27))
        else:
            w = random_word(rng.randint(1, 30))
        if rng.random() < 0.5:
            r = rng.choice(rels)
            t = r[: rng.randint(1, len(r))]
        else:
            t = random_word(rng.randint(0, 6))
        yield reduce_word(t + w + invert_word(t))


def test_order_matches_rotation_sorting_oracle():
    rng = random.Random(20171106)
    finite = 0
    for n in range(1, 9):
        for _ in range(3):
            pres = relators_from_graph(_random_graph(rng, n))
            oracle = DehnOracle(pres.graph)
            for w in _conjugates(rng, pres):
                expected = _rotation_sorting_order(oracle, w)
                assert pres.order(w) == expected, (n, format_word(w))
                finite += expected != INFINITE
                # the core is cyclically Dehn-reduced: no rotation has a step
                core = pres.cyclic_dehn_reduce(w)
                for i in range(len(core)):
                    rot = core[i:] + core[:i]
                    assert oracle.reduce(rot) == (rot, 0), (n, format_word(w))
    assert finite > 300


def test_cyclic_dehn_reduce_uses_no_letter_twice():
    # g0^3 wraps round to g0^4, a Dehn step, only by reusing a letter
    assert Z7.cyclic_dehn_reduce(power((1,), 3)) == power((1,), 3)
    assert Z7.order(power((1,), 3)) == 7
    assert P_K2.order(power((1, 2), 5)) == 11


def test_order_of_long_word_is_fast():
    c8 = relators_from_graph(graph(8, [(i, (i + 1) % 8) for i in range(8)]))
    rng = random.Random(8)
    w = [1]
    while len(w) < 4000:
        c = rng.choice((1, -1)) * rng.randint(1, 8)
        if c != -w[-1]:
            w.append(c)
    w = tuple(w)
    start = time.monotonic()
    assert c8.order(w) == INFINITE
    assert time.monotonic() - start < 1.0
    # no table of rotations: a set of all 4 000 would hold 16 M letters
    tracemalloc.start()
    try:
        c8.order(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_order_budget_covers_all_rounds(monkeypatch):
    # dehn_reduce rewrites g1^4 (one step); the core g0^2 G1^3 g0^2 then
    # wraps round to g0^4, one more step in a second round
    w = parse_word("g0 g0 g1 g1 g1 g1 g0 g0")
    assert P_K2._reduce(w) == (parse_word("g0 g0 G1 G1 G1 g0 g0"), 1)
    rotated = parse_word("g0 g0 g0 g0 G1 G1 G1")
    assert P_K2._reduce(rotated) == (parse_word("G0 G0 G0 G1 G1 G1"), 1)
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 1)
    with pytest.raises(DehnBudgetError) as info:
        P_K2.order(w)
    assert (info.value.budget, info.value.word) == (1, w)
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    assert P_K2.order(w) == INFINITE


def test_wrap_around_step_behind_a_candidate_that_is_no_step(monkeypatch):
    # The first candidate in the ring, the mixed-sign alternation at 1, is
    # no step; the run g0^4 from 14 is one, and it covers position 1.
    w = parse_word("g0 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 G1 g0 g0")
    core = parse_word("G0 G0 G0 G1 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 G1")
    for t in (K2, E2):
        assert relators_from_graph(t).cyclic_dehn_reduce(w) == core
        assert DehnOracle(t).cyclic_reduce(w) == (core, 1)
    # one linear step (g2^4) and this wrap-around step share the budget
    e3 = graph(3, [])
    pres = relators_from_graph(e3)
    w = parse_word("g0 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 G1 g2 g2 g2 g2 g0 g0")
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 1)
    with pytest.raises(DehnBudgetError) as info:
        pres.order(w)
    assert (info.value.budget, info.value.used, info.value.word) == (1, 2, w)
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    assert pres.order(w) == INFINITE
    assert pres.cyclic_dehn_reduce(w) == core + parse_word("G2 G2 G2")
    oracle = DehnOracle(e3)
    assert oracle.cyclic_reduce(w) == (core + parse_word("G2 G2 G2"), 2)
    assert oracle.order(w) == (INFINITE, 2)


def _random_reduced(rng, n, length):
    w = []
    while len(w) < length:
        c = rng.choice((1, -1)) * rng.randint(1, n)
        if not w or w[-1] != -c:
            w.append(c)
    return tuple(w)


def _identity_product(rng, t, length):
    """Conjugated rotations of relators of G_T and of their inverses, about
    length letters of them, multiplied and freely reduced."""
    roots = relator_roots(t)
    raw = ()
    for _ in range(max(1, length // 25)):
        root, e = rng.choice(roots)
        r = root * e if rng.random() < 0.5 else invert_word(root * e)
        k = rng.randrange(len(r))
        c = _random_reduced(rng, t.n, rng.randint(0, 6))
        raw += c + r[k:] + r[:k] + invert_word(c)
    return reduce_word(raw)


def _order_word(rng, t, length):
    """An identity product times a conjugate of a power of a root, of an
    inverse root, or of a short random word."""
    root, e = rng.choice(relator_roots(t))
    kind = rng.random()
    if kind < 0.4:
        x = root * rng.randint(1, e)
    elif kind < 0.7:
        x = invert_word(root) * rng.randint(1, e)
    else:
        x = _random_reduced(rng, t.n, rng.randint(1, 5))
    c = _random_reduced(rng, t.n, rng.randint(0, 4))
    return reduce_word(_identity_product(rng, t, length) + c + x + invert_word(c))


def _outcome(call, w, budget):
    """call(w) with the Dehn step budget patched to ``budget``: the
    answer, or the budget error's budget, used, word and message."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presentation, "MAX_DEHN_STEPS", budget)
        try:
            return call(w)
        except DehnBudgetError as err:
            return "budget", err.budget, err.used, err.word, str(err)


def _expected(answer, w, budget):
    """The outcome of a call on w under ``budget``, from the oracle's
    (answer, steps): the answer, or the budget error at step budget + 1."""
    value, steps = answer
    if steps <= budget:
        return value
    message = str(DehnBudgetError("Dehn step budget MAX_DEHN_STEPS", budget, budget + 1, w))
    return "budget", budget, budget + 1, w, message


def test_closed_form_matches_dehn_oracle():
    # Normal forms, step counts, cyclic cores, orders and budget errors
    # of the closed-form presentation equal the Dehn oracle's, on random
    # graphs of 1-8 vertices and one each of 16 and 64.
    rng = random.Random(20261019)
    graphs = [_random_graph(rng, n) for n in range(1, 9) for _ in range(3)]
    graphs += [_random_graph(rng, 16), _random_graph(rng, 64)]
    finite = nonempty = over_budget = 0
    for t in graphs:
        pres, oracle = relators_from_graph(t), DehnOracle(t)
        for make in (_identity_product, _order_word, _random_reduced):
            for _ in range(2):
                length = rng.choice((rng.randint(10, 300), rng.randint(300, 3000)))
                w = make(rng, t.n if make is _random_reduced else t, length)
                expected = oracle.reduce(w)
                assert pres._reduce(w) == expected, (t, format_word(w))
                steps = expected[1]
                for budget in {0, 1, steps - 1, steps} - {-1}:
                    got = _outcome(pres.dehn_reduce, w, budget)
                    assert got == _expected(expected, w, budget), (t, budget)
                    over_budget += got[:1] == ("budget",)
                assert pres.cyclic_dehn_reduce(w) == oracle.cyclic_reduce(w)[0], t
                order = oracle.order(w)
                assert pres.order(w) == order[0], (t, format_word(w))
                engine = _outcome(pres.order, w, steps)
                assert engine == _expected(order, w, steps)
                finite += order[0] not in (1, INFINITE)
                nonempty += bool(expected[0])
    assert finite > 25 and nonempty > 60 and over_budget > 250, (finite, nonempty, over_budget)


def _oracle_cyclic_rounds(oracle, w):
    """(wrap-around rounds, (core, steps)) of the oracle's
    ``cyclic_reduce`` on w: each round reduces once more."""
    words = []
    reduce = oracle.reduce

    def counted(w):
        words.append(w)
        return reduce(w)

    oracle.reduce = counted
    try:
        answer = oracle.cyclic_reduce(w)
    finally:
        del oracle.reduce
    return len(words) - 1, answer


def _assert_reduce_matches_oracle(t, oracle, w):
    """Normal form and step count equal the oracle's, and so does the
    outcome, answer or budget error with its used and word, under budgets
    0, 1, steps - 1 and steps.  Returns the normal form and steps."""
    expected = oracle.reduce(w)
    pres = relators_from_graph(t)
    assert pres._reduce(w) == expected, format_word(w)
    steps = expected[1]
    for budget in {0, 1, steps - 1, steps} - {-1}:
        got = _outcome(pres.dehn_reduce, w, budget)
        assert got == _expected(expected, w, budget), (budget, format_word(w))
    return expected


def _graph_with_edge(rng, n):
    t = _random_graph(rng, n)
    return t if t.edges else graph(n, [*t.edges, (0, 1)])


def test_whole_relator_steps_cancel_long_conjugators():
    # Conjugators of 7-20 letters: once a whole relator is deleted, its
    # conjugator cancels with its inverse across the one seam, and the
    # first factor's cancellation reaches the word's first letter, the
    # last one's its last.  Some factors are relator prefixes, partial
    # steps, and some stray letters stop a cancellation short.
    rng = random.Random(20261022)
    emptied = partial = 0
    for n in range(1, 9):
        t = _random_graph(rng, n)
        oracle = DehnOracle(t)
        roots = relator_roots(t)
        for _ in range(12):
            raw = ()
            for _ in range(rng.randint(1, 5)):
                root, e = rng.choice(roots)
                r = root * e if rng.random() < 0.5 else invert_word(root * e)
                k = rng.randrange(len(r))
                r = r[k:] + r[:k]
                if rng.random() < 0.25:
                    r = r[: rng.randint(len(r) // 2 + 1, len(r) - 1)]
                c = _random_reduced(rng, n, rng.randint(7, 20))
                raw += c + r + invert_word(c)
                if rng.random() < 0.2:
                    raw += _random_reduced(rng, n, 1)
            w = reduce_word(raw)
            form, steps = _assert_reduce_matches_oracle(t, oracle, w)
            emptied += not form
            partial += len(form) > 0 and steps > 0
    assert emptied > 20 and partial > 40, (emptied, partial)


def _first_candidate(w):
    """Reference finder: the first i at which w has a run of 4 or more
    letters or an alternation of 12 or more, or None."""
    for i in range(len(w)):
        if w[i : i + 4] == w[i : i + 1] * 4 or w[i : i + 12] == w[i : i + 2] * 6:
            return i
    return None


def test_start_pattern_finds_the_first_run_of_4_or_alternation_of_12():
    # Seeded words of 1-60 letters over at most 4 letters of each sign,
    # not reduced: runs of 1-6 letters and alternations of 2-14 end to
    # end, so that runs of 3 and 4 and alternations of 11 to 13 occur.
    rng = random.Random(20261020)
    found = collections.Counter()
    for _ in range(6000):
        alphabet = rng.sample([c for c in range(-4, 5) if c], rng.randint(1, 8))
        w = []
        while len(w) < 60:
            a, b = rng.choice(alphabet), rng.choice(alphabet)
            if rng.random() < 0.5:
                w += [a] * rng.randint(1, 6)
            else:
                w += [a, b] * 7
                del w[len(w) - rng.randint(0, 12) :]
        del w[rng.randint(1, 60) :]
        packed = array("b", w)
        hit = presentation._START.search(packed)
        want = _first_candidate(w)
        assert (hit and hit.start()) == want, w
        if hit:
            found[hit.end() - hit.start(), hit.start() > 0] += 1
    assert min(found.values()) > 100 and len(found) == 4, found


def test_whole_relator_matches_past_the_relator_next_to_partial_steps():
    # An alternation of 23-27 letters on an edge holds all of (ab)^11,
    # and a run of 8 or more letters all of a^7: the match runs past the
    # relator and the step deletes it.  Partial steps, runs of 4-6 and
    # alternations of k + 1 to 2k - 1 letters, stand next to them.
    rng = random.Random(20261023)
    past = 0
    for n in range(2, 9):
        t = _graph_with_edge(rng, n)
        oracle = DehnOracle(t)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [(i + 1, j + 1) for i, j in t.edges]
        for _ in range(15):
            raw = ()
            for _ in range(rng.randint(2, 8)):
                sign = rng.choice((1, -1))
                kind = rng.random()
                if kind < 0.3:
                    a, b = rng.choice(edges)
                    length = rng.randint(23, 27)
                    past += 1
                elif kind < 0.55:
                    a, b = rng.choice(pairs)
                    k = 11 if t.adj(a - 1, b - 1) else 13
                    length = rng.randint(k + 1, 2 * k - 1)
                elif kind < 0.75:
                    a = b = rng.randint(1, n)
                    length = rng.randint(8, 13)
                    past += 1
                else:
                    a = b = rng.randint(1, n)
                    length = rng.randint(4, 6)
                if rng.random() < 0.5:
                    a, b = b, a
                raw += ((sign * a, sign * b) * 14)[:length]
                raw += _random_reduced(rng, n, rng.randint(0, 3))
            _assert_reduce_matches_oracle(t, oracle, reduce_word(raw))
    assert past > 200, past
    # The lengths at the edges of the finder and of the compare, each
    # block kept apart from its neighbours by one letter of another
    # generator: runs of 3 (no candidate) and of exactly 7; alternations
    # on a non-edge of 11 (no candidate), 12 and 13 (a candidate, no step)
    # and exactly 26; on an edge exactly 22.
    exact = collections.Counter()
    for n in range(5, 9):
        t = _graph_with_edge(rng, n)
        oracle = DehnOracle(t)
        edges = [(i + 1, j + 1) for i, j in t.edges]
        non_edges = [
            (i + 1, j + 1) for i, j in itertools.combinations(range(n), 2) if not t.adj(i, j)
        ]
        kinds = [("run", 3), ("run", 7), ("edge", 22)]
        if non_edges:
            kinds += [("non-edge", k) for k in (11, 12, 13, 26)]
        for _ in range(15):
            blocks = []
            for _ in range(rng.randint(2, 6)):
                kind, length = rng.choice(kinds)
                if kind == "run":
                    a = b = rng.randint(1, n)
                else:
                    a, b = rng.choice(edges if kind == "edge" else non_edges)
                if rng.random() < 0.5:
                    a, b = b, a
                sign = rng.choice((1, -1))
                blocks.append(((sign * a, sign * b) * 13)[:length])
                exact[kind, length] += 1
            raw = blocks[0]
            for before, after in itertools.pairwise(blocks):
                used = {abs(c) for c in before + after}
                apart = rng.choice([c for c in range(1, n + 1) if c not in used])
                raw += (rng.choice((1, -1)) * apart,) + after
            assert reduce_word(raw) == raw
            _assert_reduce_matches_oracle(t, oracle, raw)
    assert len(exact) == 7 and min(exact.values()) > 10, exact


def _wrap_word(rng, t, rounds):
    """A conjugate of a word whose core has no Dehn step but needs
    ``rounds`` (1-3) wrap-around rounds, seeded on letters x and y of one
    sign.  The core x x M [x x x] (Y X)^j Y x x (X = x^-1, Y = y^-1, k =
    2j + 1 the exponent of (xy)) wraps to x^4, which leaves X^3
    in front; then (Y X)^j Y X is more than half of (YX)^k, which leaves
    (x y)^(k - j - 1) in front; then x x x x wraps again."""
    n = t.n
    i, j = rng.sample(range(1, n + 1), 2)
    sign = rng.choice((1, -1))
    x, y = sign * i, sign * j
    k = 11 if t.adj(i - 1, j - 1) else 13
    others = [c for c in range(1, n + 1) if c != i]
    middle = tuple(rng.choice((1, -1)) * rng.choice(others) for _ in range(rng.randint(1, 6)))
    core = (x, x) + middle
    if rounds == 3:
        core += (x, x, x)
    if rounds >= 2:
        core += (-y, -x) * ((k - 1) // 2) + (-y,)
    core += (x, x)
    c = _random_reduced(rng, n, rng.randint(0, 6))
    return reduce_word(c + core + invert_word(c))


def test_cyclic_rounds_match_dehn_oracle_under_every_budget():
    # Words that need 1-3 wrap-around rounds: the packed core is kept
    # across rounds.  Cores, orders and budget errors equal the oracle's
    # under budgets 0, 1, steps - 1 and steps, where steps counts the
    # linear and the wrap-around steps of the call.
    rng = random.Random(20261024)
    seen = {1: 0, 2: 0, 3: 0}
    for n in range(2, 9):
        for _ in range(4):
            t = _random_graph(rng, n)
            oracle = DehnOracle(t)
            for rounds in (1, 2, 3):
                for _ in range(4):
                    w = _wrap_word(rng, t, rounds)
                    got_rounds, core = _oracle_cyclic_rounds(oracle, w)
                    seen[got_rounds] = seen.get(got_rounds, 0) + 1
                    _assert_reduce_matches_oracle(t, oracle, w)
                    answers = {"cyclic_dehn_reduce": core, "order": oracle.order(w)}
                    steps = core[1]
                    pres = relators_from_graph(t)
                    for budget in {0, 1, steps - 1, steps} - {-1}:
                        for name, answer in answers.items():
                            got = _outcome(getattr(pres, name), w, budget)
                            assert got == _expected(answer, w, budget), (
                                name,
                                budget,
                                format_word(w),
                            )
    assert min(seen[1], seen[2], seen[3]) > 60, seen


def test_alphabet_fits_one_signed_byte():
    n = MAX_ALPHABET_SIZE
    assert n == 127
    big = relators_from_graph(graph(n, [(n - 2, n - 1)]))
    last = (n,)  # v_126
    assert big.dehn_reduce(last * 4) == (-n,) * 3
    assert big.dehn_reduce(power((n - 1, n), 7)) == power((-n, -(n - 1)), 4)
    assert big.order((-n,)) == 7 and big.order((n - 1, n)) == 11 and big.order((1, n)) == 13
    with pytest.raises(AlphabetError):
        big.dehn_reduce((n + 1,))
    # the symmetrized set is built only when asked for
    assert "relators" not in vars(big)
    with pytest.raises(ValueError, match="at most 127"):
        relators_from_graph(graph(n + 1))


def test_letters_at_the_byte_edge_match_dehn_oracle():
    # On 127 generators the letters 1, 126, 127, -127, -126 and -1 are the
    # bytes 0x01, 0x7e, 0x7f, 0x81, 0x82 and 0xff, the ends of both signs,
    # where a letter and its inverse add up to 256.  Seeded words of runs,
    # alternations, conjugated relators, whose conjugators cancel across
    # the seam a deleted relator leaves, and stray letters: normal form,
    # steps, cyclic core and order equal the oracle's, and so do the
    # budget errors at steps - 1.  A word's Dehn steps use only relators
    # over its letters, so the oracle runs on the graph that generators 0,
    # 125 and 126 induce, renamed 1, 2 and 3 in the same order.
    rng = random.Random(20261025)
    n = MAX_ALPHABET_SIZE
    gens = (1, n - 1, n)
    t = graph(n, [(0, n - 1), (n - 2, n - 1)])
    pres = relators_from_graph(t)
    oracle = DehnOracle(graph(3, [(0, 2), (1, 2)]))
    rename = {sign * g: sign * (k + 1) for k, g in enumerate(gens) for sign in (1, -1)}
    back = {v: k for k, v in rename.items()}
    letters = sorted(rename)
    counts = collections.Counter()
    for _ in range(400):
        raw = ()
        for _ in range(rng.randint(1, 10)):
            sign = rng.choice((1, -1))
            a, b = (sign * g for g in rng.sample(gens, 2))
            kind = rng.random()
            if kind < 0.2:
                raw += (a,) * rng.randint(3, 9)
            elif kind < 0.4:
                raw += ((a, b) * 14)[: rng.randint(10, 28)]
            elif kind < 0.8:
                if rng.random() < 0.3:
                    r = (a,) * 7
                else:
                    r = (a, b) * (11 if t.adj(abs(a) - 1, abs(b) - 1) else 13)
                k = rng.randrange(len(r))
                c = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                raw += c + r[k:] + r[:k] + invert_word(c)
                counts["conjugated"] += 1
            else:
                raw += tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        mapped = tuple(rename[c] for c in raw)
        form, steps = oracle.reduce(mapped)
        form = tuple(back[c] for c in form)
        assert pres._reduce(raw) == (form, steps), format_word(raw)
        core, cyclic_steps = oracle.cyclic_reduce(mapped)
        order = oracle.order(mapped)
        answers = (
            (pres.dehn_reduce, (form, steps)),
            (pres.cyclic_dehn_reduce, (tuple(back[c] for c in core), cyclic_steps)),
            (pres.order, order),
        )
        for call, answer in answers:
            for budget in {answer[1], answer[1] - 1} - {-1}:
                got = _outcome(call, raw, budget)
                assert got == _expected(answer, raw, budget), (call.__name__, format_word(raw))
        counts["short" if len(raw) < presentation._SHORT else "long"] += 1
        counts["empty" if not form else "nonempty"] += 1
        counts["finite order"] += order[0] not in (1, INFINITE)
    assert min(counts.values()) > 20, counts


def test_signed_bytes_reduce_freely_at_every_length():
    # short words are checked letter by letter, long ones in one pass;
    # a letter meets its inverse anywhere, the ends included.  The packed
    # bytes are read back as signed bytes.
    rng = random.Random(20261021)
    pres = relators_from_graph(graph(MAX_ALPHABET_SIZE))
    for length in (1, 2, 30, 31, 32, 33, 100, 1000):
        for _ in range(30):
            w = _random_reduced(rng, MAX_ALPHABET_SIZE, length)
            if rng.random() < 0.7:
                k = rng.choice((0, len(w) - 1, rng.randrange(len(w))))
                w = w[: k + 1] + (-w[k],) + w[k + 1 :]
            packed = pres._signed_bytes(w)
            assert tuple(array("b", packed)) == reduce_word(w), format_word(w)
