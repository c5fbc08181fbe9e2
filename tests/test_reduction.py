import itertools
import random

import pytest
from hypothesis import given, strategies as st

from injectivity_oracle import check_injective_up_to
from sixthgroups import presentation, reduction
from sixthgroups.coding import CodingTable, sigma_ns_nonempty
from sixthgroups.graphs import all_graphs, automorphisms, graph, graphs_up_to
from sixthgroups.presentation import (
    EDGE_ORDER,
    AlphabetError,
    DehnBudgetError,
    GENERATOR_ORDER,
    NONEDGE_ORDER,
    Presentation,
    relator_seeds,
)
from sixthgroups.reduction import (
    CanonicalAuto,
    apply_hom,
    aut_canonical_check,
    canonical_witness,
    conjugate,
    default_conj_bound,
    induced_hom,
    is_homomorphism,
    iso_search,
    read_off_letters,
    reduced_words,
    relators_from_graph,
)
from sixthgroups.search import vertex_maps
from sixthgroups.words import (
    EMPTY,
    MapError,
    concat,
    gen,
    invert_word,
    power,
    word_key,
)

K2 = graph(2, [(0, 1)])
P3 = graph(3, [(0, 1), (1, 2)])
K3 = graph(3, [(0, 1), (0, 2), (1, 2)])
P_K2 = relators_from_graph(K2)
P_P3 = relators_from_graph(P3)


def test_exponents():
    assert (GENERATOR_ORDER, EDGE_ORDER, NONEDGE_ORDER) == (7, 11, 13)


def test_seeds_for_k2():
    seeds = relator_seeds(K2)
    assert power((1,), 7) in seeds
    assert power((2,), 7) in seeds
    assert power((1, 2), 11) in seeds
    assert len(seeds) == 3


def test_seeds_use_nonedge_exponent():
    seeds = relator_seeds(P3)
    assert power((1, 2), 11) in seeds  # edge 0-1
    assert power((1, 3), 13) in seeds  # non-edge 0-2
    assert len(seeds) == 3 + 3


def test_relators_symmetrized_count():
    # K2: g0^7 and G0^7 (7 rotations collapse), same for g1, plus the
    # 22-letter edge relator with 2 distinct rotations times 2 inverses...
    # rotations of (g0 g1)^11 are (g0 g1)^11 and (g1 g0)^11 only
    assert len(P_K2.relators.relators) == 8


def test_induced_hom_validation():
    with pytest.raises(ValueError):
        induced_hom(K2, K2, [0, 0])
    with pytest.raises(ValueError):
        induced_hom(K2, K2, [0, 2])
    with pytest.raises(ValueError):
        induced_hom(K2, K2, [0, 1], epsilon=2)
    # one target per vertex of t: a short map is no IndexError, and a long
    # one is not cut to fit
    with pytest.raises(MapError, match="2 targets for 3 vertices"):
        induced_hom(graph(3), graph(3), [0, 1])
    with pytest.raises(MapError, match="4 targets for 3 vertices"):
        induced_hom(graph(3), graph(4), [0, 1, 2, 3])


def test_apply_hom():
    gm = induced_hom(K2, K2, [1, 0])
    assert apply_hom(gm, (1, 2)) == (2, 1)
    assert apply_hom(gm, (-1,)) == (-2,)
    gm_inv = induced_hom(K2, K2, [0, 1], epsilon=-1)
    assert apply_hom(gm_inv, (1,)) == (-1,)


def test_conjugated_hom():
    gm = induced_hom(K2, K2, [0, 1], conj=(1,))
    assert gm[0] == (1,)  # g0 g0 G0 = g0
    assert gm[1] == (1, 2, -1)


def test_is_homomorphism_swap_and_bad_map():
    assert is_homomorphism(P_K2, P_K2, induced_hom(K2, K2, [1, 0]))
    assert is_homomorphism(P_K2, P_K2, induced_hom(K2, K2, [0, 1], epsilon=-1))
    # P3 has edge 0-1 and non-edge 0-2; the transposition 1<->2 sends the
    # order-11 relator to an order-13 pair, so it is not a homomorphism
    assert not is_homomorphism(P_P3, P_P3, induced_hom(P3, P3, [0, 2, 1]))


def test_embedding_homomorphism():
    # K2 embeds in K3 as an induced subgraph
    p_k3 = relators_from_graph(K3)
    gm = induced_hom(K2, K3, [0, 1])
    assert is_homomorphism(P_K2, p_k3, gm)
    assert check_injective_up_to(P_K2, p_k3, gm, 3)


def test_nonedge_to_nonedge_embedding():
    e2 = graph(2, [])
    p_e2 = relators_from_graph(e2)
    gm = induced_hom(e2, P3, [0, 2])  # non-edge onto P3's non-edge
    assert is_homomorphism(p_e2, P_P3, gm)
    assert check_injective_up_to(p_e2, P_P3, gm, 3)
    # non-edge onto an edge fails: order 13 vs 11
    assert not is_homomorphism(p_e2, P_P3, induced_hom(e2, P3, [0, 1]))


def _induced_homs():
    """(t, s, f, is_homomorphism) for every injective vertex map f between
    graphs of at most 4 vertices."""
    pool = graphs_up_to(4)
    pres = {g: relators_from_graph(g) for g in pool}
    for t, s in itertools.product(pool, pool):
        for f in itertools.permutations(range(s.n), t.n):
            yield t, s, f, is_homomorphism(pres[t], pres[s], induced_hom(t, s, f))


def test_induced_map_is_a_homomorphism_iff_an_induced_embedding():
    # fact (a) of is_homomorphism, the half of hom-check's injectivity proof
    # that concerns the graphs
    maps = homs = 0
    for t, s, f, ok in _induced_homs():
        embeds = all(
            t.adj(i, j) == s.adj(f[i], f[j])
            for i, j in itertools.combinations(range(t.n), 2)
        )
        assert ok == embeds, (t, s, f)
        maps += 1
        homs += ok
    assert (maps, homs) == (4437, 479)


def test_induced_embedding_keeps_dehn_reduced_words_reduced():
    # fact (b) of is_homomorphism: the image of a Dehn-reduced word is
    # Dehn-reduced, so a nontrivial element never maps to 1.  The words mix
    # single letters with runs of one generator and of a pair of generators,
    # the stretches a relator step would match.
    rng = random.Random(12)
    words = 0
    for t, s, f, ok in _induced_homs():
        if not ok:
            continue
        p_t, p_s = relators_from_graph(t), relators_from_graph(s)
        gm = induced_hom(t, s, f)
        for _ in range(3):
            w = EMPTY
            for _ in range(rng.randint(1, 6)):
                a, b = (rng.choice((1, -1)) * gen(rng.randrange(t.n)) for _ in range(2))
                runs = ((a,), power((a,), rng.randint(2, 4)), power((a, b), rng.randint(2, 7)))
                w = concat(w, rng.choice(runs))
            nf = p_t.dehn_reduce(w)
            img = apply_hom(gm, nf)
            assert p_s.dehn_reduce(img) == img, (t, s, f, nf)
            assert len(img) == len(nf)
            words += 1
    assert words == 3 * 479


def _random_graph(rng, n):
    return graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])


def _relator_power_rule(p_t, p_s, gm):
    """Oracle for is_homomorphism: every defining relator root^e, mapped
    whole, Dehn-reduces to 1."""
    return all(p_s.is_identity(apply_hom(gm, root * exp)) for root, exp in p_t.roots)


def _outcome(rule, p_t, p_s, gm):
    try:
        return rule(p_t, p_s, gm)
    except ValueError as exc:
        return type(exc)


def test_is_homomorphism_by_root_orders_matches_relator_powers():
    # Every injective vertex map between graphs of at most 4 vertices, with
    # both signs; the conjugators, every reduced word of length <= 2 on the
    # target's letters, are taken in turn, three per map and sign.
    pool = graphs_up_to(4)
    pres = {g: relators_from_graph(g) for g in pool}
    maps = homs = 0
    for t, s in itertools.product(pool, pool):
        conjs = itertools.cycle(reduced_words(s.n, 2))
        for f in itertools.permutations(range(s.n), t.n):
            for eps in (1, -1):
                for conj in itertools.islice(conjs, 3):
                    gm = induced_hom(t, s, f, eps, conj)
                    ok = is_homomorphism(pres[t], pres[s], gm)
                    assert ok == _relator_power_rule(pres[t], pres[s], gm), (t, s, f, eps, conj)
                    maps += 1
                    homs += ok
    assert (maps, homs) == (6 * 4437, 6 * 479)
    # Seeded generator maps with random images of 0 to 6 letters on up to 8
    # vertices.  Some images use the letter of a generator one past the
    # target's alphabet, or 0: both rules raise the same error.
    rng = random.Random(20261019)
    outcomes = {}
    for _ in range(1500):
        t, s = (_random_graph(rng, rng.randint(1, 8)) for _ in range(2))
        p_t, p_s = relators_from_graph(t), relators_from_graph(s)
        top = s.n + (rng.random() < 0.1)
        letters = [c for c in range(-top, top + 1) if c] + [0] * (rng.random() < 0.1)
        if rng.random() < 0.5:
            # near a homomorphism: conjugated letters, some of them powers
            conj = tuple(
                rng.choice((1, -1)) * rng.randint(1, s.n) for _ in range(rng.randint(0, 2))
            )
            gm = tuple(
                conj + (rng.choice(letters),) * rng.choice((1, 1, 1, 2, 7)) + invert_word(conj)
                for _ in range(t.n)
            )
        else:
            gm = tuple(
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))) for _ in range(t.n)
            )
        got = _outcome(is_homomorphism, p_t, p_s, gm)
        assert got == _outcome(_relator_power_rule, p_t, p_s, gm), (t, s, gm)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert min(outcomes.get(k, 0) for k in (True, False, AlphabetError, ValueError)) > 20, outcomes


def test_reduced_words_count_and_order():
    ws = list(reduced_words(2, 2))
    # 1 + 4 + 12 freely reduced words
    assert len(ws) == 17
    assert ws[0] == EMPTY
    assert ws[1:5] == [(1,), (-1,), (2,), (-2,)]
    assert all(len(w) <= 2 for w in ws)
    # strictly increasing shortlex keys, and every freely reduced word
    for n in range(1, 5):
        for length in range(4):
            keys = [word_key(w) for w in reduced_words(n, length)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, length)
            count = 1 + sum(2 * n * (2 * n - 1) ** (m - 1) for m in range(1, length + 1))
            assert len(keys) == count


def test_aut_canonical_check_recovers():
    gm = induced_hom(K2, K2, [1, 0], epsilon=-1, conj=(1, 2))
    got = aut_canonical_check(K2, gm, bound=2)
    assert got is not None
    assert got.rho == (1, 0) and got.epsilon == -1
    # recovered witness reproduces the same map in the group
    for i in range(2):
        assert P_K2.equal(
            gm[i], conjugate(got.conj, (got.epsilon * gen(got.rho[i]),))
        )


def brute_force_canonical(t, gm, bound=None):
    """Oracle for aut_canonical_check: every rho in Aut(T), both signs and
    every conjugator of length <= bound, in that shortlex order."""
    if bound is None:
        bound = default_conj_bound(gm)
    pres = relators_from_graph(t)
    conjugators = list(reduced_words(t.n, bound))
    for rho in automorphisms(t):
        for eps in (1, -1):
            for conj in conjugators:
                if all(
                    pres.equal(gm[i], conjugate(conj, (eps * gen(rho[i]),)))
                    for i in range(t.n)
                ):
                    return CanonicalAuto(rho, eps, conj)
    return None


def _sample_maps(t, rng):
    """Generator maps of every kind the read-off must get right: canonical
    ones, broken ones, and canonical ones written unusually."""
    pres = relators_from_graph(t)
    by_length = [[w for w in reduced_words(t.n, 2) if len(w) == k] for k in range(3)]

    def conj():
        # uniform in length, so that every bound sees both answers
        return rng.choice(by_length[rng.randrange(3)])

    aut = rng.choice(automorphisms(t))
    eps = rng.choice((1, -1))
    canonical = induced_hom(t, t, aut, epsilon=eps, conj=conj())
    yield canonical
    bijection = rng.sample(range(t.n), t.n)
    yield induced_hom(t, t, bijection, epsilon=rng.choice((1, -1)), conj=conj())
    c = conj()
    # signs alternate: mixed on two or more vertices
    yield tuple(conjugate(c, ((-1) ** k * eps * gen(aut[k]),)) for k in range(t.n))
    i = rng.randrange(t.n)
    yield canonical[:i] + (conjugate(c, power((gen(aut[i]),), 2)),) + canonical[i + 1 :]
    r = rng.choice(pres.relators.sorted_relators())
    yield canonical[:i] + (concat(canonical[i], r),) + canonical[i + 1 :]


def test_read_off_matches_brute_force():
    rng = random.Random(3)
    cases = 0
    for t in graphs_up_to(4):
        for gm in _sample_maps(t, rng):
            # a relator makes the default bound too large for the oracle
            bounds = (0, 1, 2, None) if default_conj_bound(gm) <= 2 else (0, 1, 2)
            for bound in bounds:
                assert aut_canonical_check(t, gm, bound) == brute_force_canonical(
                    t, gm, bound
                ), (t, gm, bound)
                cases += 1
    assert cases >= 18 * 5 * 3


def test_automorphisms_extending_filters_automorphisms():
    # every partial injection on every labelled graph of at most 4
    # vertices: the same automorphisms, in the same order
    cases = 0
    for n in range(5):
        for t in all_graphs(n):
            auts = automorphisms(t)
            for k in range(n + 1):
                for dom in itertools.combinations(range(n), k):
                    for img in itertools.permutations(range(n), k):
                        partial = dict(zip(dom, img))
                        want = [r for r in auts if all(r[i] == v for i, v in partial.items())]
                        assert list(vertex_maps(t, t, partial)) == want, (t, partial)
                        cases += 1
    assert cases == 1 + 2 + 2 * 7 + 8 * 34 + 64 * 209


def canonical_witness_before(pres, pairs, bound):
    """``canonical_witness`` without the skip on the support and with no
    budget: every automorphism extending the read-off, as
    ``graphs.automorphisms`` lists them, walks the whole ball."""
    fixed = [(w[0] - 1, v) for w, v in pairs if len(w) == 1 and w[0] > 0]
    read = read_off_letters(pres, [v for _, v in fixed])
    if read is None:
        return None
    targets, eps = read
    t = pres.graph
    for rho in automorphisms(t):
        if any(rho[i] != j for (i, _), j in zip(fixed, targets)):
            continue
        for sign in (eps,) if fixed else (1, -1):
            theta0 = induced_hom(t, t, rho, sign)
            mapped = [(apply_hom(theta0, w), v) for w, v in pairs]
            for conj in reduced_words(t.n, bound):
                if all(pres.equal(conjugate(conj, m), v) for m, v in mapped):
                    return CanonicalAuto(rho, sign, conj)
    return None


def _pairs_on_part(rng, t, auts):
    """A random proper subset of the vertices of t, and two pairs (w, v)
    whose words w use only those vertices: half of them images under a
    canonical automorphism, the other half with one letter more."""
    support = rng.sample(range(t.n), rng.randint(1, t.n - 1))
    letters = [c for i in support for c in (gen(i), -gen(i))]
    words = [w for w in reduced_words(t.n, 3) if w and all(c in letters for c in w)]
    conj = rng.choice(list(reduced_words(t.n, 1)))
    theta = induced_hom(t, t, rng.choice(auts), rng.choice((1, -1)), conj)
    pairs = [(w, apply_hom(theta, w)) for w in rng.sample(words, 2)]
    if rng.random() < 0.5:
        w, v = pairs[-1]
        pairs[-1] = (w, concat(v, (gen(rng.randrange(t.n)),)))
    return support, pairs


def test_skipping_repeated_restrictions_keeps_every_witness():
    # pairs whose words use only some of the vertices, so that
    # automorphisms agreeing there are skipped
    rng = random.Random(13)
    cases = positive = repeated = 0
    for t in graphs_up_to(4):
        if t.n < 2:
            continue
        pres = relators_from_graph(t)
        auts = automorphisms(t)
        for _ in range(12):
            support, pairs = _pairs_on_part(rng, t, auts)
            # automorphisms that agree on the support
            repeated += len({tuple(r[i] for i in support) for r in auts}) < len(auts)
            for bound in (0, 1):
                got = canonical_witness(pres, pairs, bound)
                assert got == canonical_witness_before(pres, pairs, bound), (t, pairs, bound)
                cases += 1
                positive += got is not None
    assert cases == 2 * 12 * 17 and positive > 100 and repeated > 50, (positive, repeated)


def canonical_witness_every_rho(pres, pairs, bound, walked):
    """``canonical_witness`` listing every automorphism that extends the
    read-off, keeping the first of each restriction to the support, and
    walking those in sorted order of the restriction, with no budget.
    Appends each (rho, eps) it walks the ball for to ``walked``."""
    fixed = [(w[0] - 1, v) for w, v in pairs if len(w) == 1 and w[0] > 0]
    read = read_off_letters(pres, [v for _, v in fixed])
    if read is None:
        return None
    targets, eps = read
    t = pres.graph
    support = sorted({abs(c) - 1 for w, _ in pairs for c in w})
    first = {}
    for rho in automorphisms(t):
        if all(rho[i] == j for (i, _), j in zip(fixed, targets)):
            first.setdefault(tuple(rho[i] for i in support), rho)
    for _, rho in sorted(first.items()):
        for sign in (eps,) if fixed else (1, -1):
            walked.append((rho, sign))
            theta0 = induced_hom(t, t, rho, sign)
            mapped = [(apply_hom(theta0, w), v) for w, v in pairs]
            for conj in reduced_words(t.n, bound):
                if all(pres.equal(conjugate(conj, m), v) for m, v in mapped):
                    return CanonicalAuto(rho, sign, conj)
    return None


def test_one_rho_per_prefix_walks_what_every_rho_walks(monkeypatch):
    # canonical_witness lists only the first automorphism of each
    # restriction to the vertices the words use, the prefix of a walk that
    # numbers them first.  It walks the ball for the same (rho, eps), in
    # the same order, as the loop over every automorphism, and finds the
    # same witness.
    walked = []

    def recording(t, s, mapping, epsilon=1, conj=EMPTY):
        walked.append((tuple(mapping), epsilon))
        return induced_hom(t, s, mapping, epsilon, conj)

    monkeypatch.setattr(reduction, "induced_hom", recording)
    six = [
        graph(6),
        graph(6, [(i, (i + 1) % 6) for i in range(6)]),
        graph(6, [(0, 1), (2, 3), (4, 5)]),
        graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
    ]
    rng = random.Random(34)
    cases = positive = cut = relabelled = 0
    for t in [t for t in graphs_up_to(5) if t.n == 5] + six:
        pres = relators_from_graph(t)
        auts = automorphisms(t)
        for _ in range(6):
            support, pairs = _pairs_on_part(rng, t, auts)
            # maps cut after the support, with no image read off
            cut += len({tuple(r[i] for i in support) for r in auts}) < len(auts)
            relabelled += max(support) >= len(support)
            for bound in (0, 1):
                want = []
                got = canonical_witness_every_rho(pres, pairs, bound, want)
                walked.clear()
                assert canonical_witness(pres, pairs, bound) == got, (t, pairs, bound)
                assert walked == want, (t, pairs, bound)
                cases += 1
                positive += got is not None
    assert cases == 2 * 6 * 38 and positive > 100 and cut > 30 and relabelled > 100, (
        positive,
        cut,
        relabelled,
    )


def test_read_off_letters():
    pres = relators_from_graph(K2)
    g0, g1 = (1,), (2,)
    assert read_off_letters(pres, []) == ((), 1)
    assert read_off_letters(pres, [conjugate((1, 2), g1), g0]) == ((1, 0), 1)
    assert read_off_letters(pres, [(-2,), conjugate((2,), (-1,))]) == ((1, 0), -1)
    assert read_off_letters(pres, [g0, (-2,)]) is None  # signs differ
    assert read_off_letters(pres, [g0, conjugate((2,), g0)]) is None  # one target
    assert read_off_letters(pres, [g0, (2, 2)]) is None  # core of two letters
    assert read_off_letters(pres, [g0, EMPTY]) is None


def test_conjugated_letter_has_one_letter_core():
    # the fact the read-off rests on: t v_j^eps t^-1 cyclically
    # Dehn-reduces to the letter v_j^eps itself
    for t in graphs_up_to(5):
        pres = relators_from_graph(t)
        for conj in reduced_words(t.n, 3 if t.n <= 3 else 2):
            for c in itertools.chain(range(-t.n, 0), range(1, t.n + 1)):
                core = pres.cyclic_dehn_reduce(conjugate(conj, (c,)))
                assert core == (c,), (t, conj, c)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_complete_graph_needs_no_automorphism_list(n):
    # |Aut(K_n)| = n!: a search over it took minutes at n = 8
    t = graph(n, itertools.combinations(range(n), 2))
    pres = relators_from_graph(t)
    rho = tuple(reversed(range(n)))
    gm = induced_hom(t, t, rho, epsilon=-1, conj=(1, 2, -1, 2))
    assert aut_canonical_check(t, gm, bound=2) is None
    got = aut_canonical_check(t, gm, bound=4)
    assert got is not None and got.rho == rho and got.epsilon == -1
    for i in range(n):
        assert pres.equal(gm[i], conjugate(got.conj, (-gen(rho[i]),)))


def test_aut_canonical_check_arity():
    for gm in (((1,), (2,), (1,)), ((1,),)):
        with pytest.raises(MapError, match="wrong arity"):
            aut_canonical_check(K2, gm)
        with pytest.raises(MapError, match="wrong arity"):
            is_homomorphism(P_K2, P_K2, gm)


def test_deciders_reject_a_negative_bound():
    # an empty ball of conjugators must not read as an answer
    with pytest.raises(ValueError, match="at least 0"):
        aut_canonical_check(K2, ((1,), (2,)), bound=-1)
    with pytest.raises(ValueError, match="at least 0"):
        sigma_ns_nonempty(CodingTable(K2), {1: 1}, -1)


def test_maps_onto_the_identity_are_refuted_at_the_default_bound():
    # images of length 0 give the bound 0, not -1; the read-off refutes
    # the map
    assert default_conj_bound(((), ())) == 0
    assert aut_canonical_check(K2, ((), ())) is None
    assert sigma_ns_nonempty(CodingTable(K2), {1: 0}) == (False, None)


def test_aut_canonical_check_rejects():
    # v0 -> v0 v1 is not of canonical form
    gm = ((1, 2), (2,))
    assert aut_canonical_check(K2, gm, bound=1) is None


def test_default_conj_bound():
    gm = induced_hom(K2, K2, [0, 1], conj=(2, 1))
    assert default_conj_bound(gm) == 2
    assert default_conj_bound(induced_hom(K2, K2, [0, 1])) == 0


def test_inner_automorphism_recovered():
    gm = tuple(conjugate((1,), (gen(i),)) for i in range(2))
    got = aut_canonical_check(K2, gm, bound=1)
    assert got == CanonicalAuto(rho=(0, 1), epsilon=1, conj=(1,))


def test_collapsing_map_is_not_injective():
    gm = ((1,), (1,))  # both generators onto g0
    assert not check_injective_up_to(P_K2, P_K2, gm, 1)


def test_iso_preserves_pair_orders():
    relabeled = graph(3, [(1, 2), (0, 1)])
    rho, _ = iso_search(P3, relabeled)
    p_s = relators_from_graph(relabeled)
    for i, j in itertools.combinations(range(3), 2):
        assert P_P3.order((gen(i), gen(j))) == p_s.order(
            (gen(rho[i]), gen(rho[j]))
        )


def test_iso_search():
    relabeled = graph(3, [(1, 2), (0, 1)])
    got = iso_search(P3, relabeled)
    assert got is not None
    rho, eps = got
    assert eps == 1
    assert all(
        relabeled.adj(rho[i], rho[j]) == P3.adj(i, j)
        for i, j in itertools.combinations(range(3), 2)
    )
    assert iso_search(P3, K3) is None
    assert iso_search(K2, K3) is None


def test_relators_from_graph_builds_a_new_presentation_with_its_budget(monkeypatch):
    # no cache: each call builds a presentation, and each reads the one
    # budget, MAX_DEHN_STEPS, when a Dehn call starts
    first = relators_from_graph(P3)
    pres = relators_from_graph(graph(3, [(0, 1), (1, 2)]))
    assert pres is not first and isinstance(pres, Presentation)
    assert pres.graph == P3 and repr(pres) == f"Presentation({P3!r})"
    w = power((1,), 12)  # g0^7 goes, then g0^5 becomes G0^2
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 1)
    for p in (first, pres):
        with pytest.raises(DehnBudgetError):
            p.dehn_reduce(w)
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    assert first.dehn_reduce(w) == pres.dehn_reduce(w) == (-1, -1)


letters = st.integers(min_value=-4, max_value=4).filter(bool)
raw_words = st.lists(letters, max_size=12).map(tuple)


def _concat_loop(pieces):
    # oracle: the product built one piece at a time, reduced after each
    out = EMPTY
    for piece in pieces:
        out = concat(out, piece)
    return out


@given(st.tuples(raw_words, raw_words, raw_words, raw_words), raw_words, st.integers(-6, 6))
def test_apply_hom_and_power_match_concat_loop(gm, w, k):
    images = [gm[c - 1] if c > 0 else invert_word(gm[-c - 1]) for c in w]
    assert apply_hom(gm, w) == _concat_loop(images)
    copies = [w] * k if k >= 0 else [invert_word(w)] * -k
    assert power(w, k) == _concat_loop(copies)
