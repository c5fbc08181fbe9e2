"""Acceptance gate: one test per criterion, one pass/fail line each.

Each test prints "[PASS] ..." on success; a failing assertion surfaces as
"[FAIL] ..." plus the pytest failure.  Stated runtime bounds are asserted.
"""

import itertools
import random
import time

from coding_rows import checker_rows, oracle_rows
from injectivity_oracle import check_injective_up_to
from sixthgroups.coding import (
    CodingBudgetError,
    CodingTable,
    oracle_aut_extends,
    sigma_ns_nonempty,
)
from sixthgroups.graphs import (
    automorphisms,
    graph,
    graph_iso,
    graphs_up_to,
    induced_embeds,
    nonisomorphic_graphs,
)
from sixthgroups.presentation import INFINITE
from sixthgroups.presentation import check_c16, max_piece_length
from sixthgroups.randomgraph import adjacent, embed_graph, extension_witness
from sixthgroups.reduction import (
    apply_hom,
    aut_canonical_check,
    conjugate,
    induced_hom,
    is_homomorphism,
    iso_search,
    reduced_words,
    relators_from_graph,
)
from sixthgroups.words import EMPTY, gen, parse_word, reduce_word


def _report(label, fn, limit):
    start = time.monotonic()
    try:
        fn()
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] {label} ({elapsed:.1f}s)")
    assert elapsed < limit, f"{label}: {elapsed:.1f}s exceeds {limit}s budget"


def test_criterion_1_torsion_spectrum():
    def body():
        rng = random.Random(1)
        for t in graphs_up_to(5):
            pres = relators_from_graph(t)
            for i in range(t.n):
                assert pres.order((gen(i),)) == 7
            for i, j in itertools.combinations(range(t.n), 2):
                expected = 11 if t.adj(i, j) else 13
                assert pres.order((gen(i), gen(j))) == expected
            if t.n < 3:
                continue
            for _ in range(20):
                i, j, k = rng.sample(range(t.n), 3)
                w = (gen(i), gen(j), gen(k))
                assert pres.order(w) == INFINITE
                for m in range(1, 31):
                    assert not pres.is_identity(w * m)

    _report("criterion 1: torsion spectrum 7/11/13/INFINITE", body, 60)


def test_criterion_2_small_cancellation():
    def body():
        five = nonisomorphic_graphs(5)
        assert len(five) == 34
        for t in graphs_up_to(5):
            rel = relators_from_graph(t).relators
            assert check_c16(rel)
            # pieces come from distinct relators sharing one letter; a
            # single-vertex graph has no overlapping pair at all
            assert max_piece_length(rel) == (1 if t.n >= 2 else 0)

    _report("criterion 2: C'(1/6) with max piece exactly 1", body, 10)


def _group_embedding_exists(t, s):
    p_t = relators_from_graph(t)
    p_s = relators_from_graph(s)
    for mapping in itertools.permutations(range(s.n), t.n):
        gm = induced_hom(t, s, mapping)
        if is_homomorphism(p_t, p_s, gm) and check_injective_up_to(
            p_t, p_s, gm, 3
        ):
            return True
    return False


def test_criterion_3_reduction_fidelity_embeddability():
    def body():
        pool = graphs_up_to(4)
        assert len(pool) == 18
        for t, s in itertools.product(pool, pool):
            graph_side = induced_embeds(t, s) is not None
            group_side = _group_embedding_exists(t, s)
            assert graph_side == group_side, (t, s)

    _report("criterion 3: embeddability transfers to the groups", body, 600)


def test_criterion_4_reduction_fidelity_isomorphism():
    def body():
        pool = graphs_up_to(4)
        for t, s in itertools.product(pool, pool):
            got = iso_search(t, s)
            assert (got is not None) == (graph_iso(t, s) is not None), (t, s)
            if got is None:
                continue
            rho, eps = got
            assert eps == 1
            inv = [0] * s.n
            for i, v in enumerate(rho):
                inv[v] = i
            p_t = relators_from_graph(t)
            p_s = relators_from_graph(s)
            fwd = induced_hom(t, s, rho)
            bwd = induced_hom(s, t, inv)
            for i in range(t.n):
                assert p_t.equal(apply_hom(bwd, fwd[i]), (gen(i),))
            for j in range(s.n):
                assert p_s.equal(apply_hom(fwd, bwd[j]), (gen(j),))

    _report("criterion 4: isomorphism transfers to the groups", body, 600)


def test_criterion_5_checker_vs_oracle():
    def body():
        bound = 2
        saw_nontrivial_conjugator = False
        rng = random.Random(2)
        for t in graphs_up_to(3):
            ct = CodingTable(t)
            codes = [c for c in range(21) if ct.registrable(c)]
            # A checker witness and an oracle automorphism each act as a
            # total function on codes; either decider accepts s exactly
            # when one of its action rows extends s.  Equal row sets over
            # the registrable codes therefore give zero disagreements
            # over every injective s with dom, rng in {0..20}.
            assert checker_rows(ct, bound, codes) == oracle_rows(
                ct, bound, codes
            )
            # corroborate with direct randomized calls
            for _ in range(80):
                k = rng.randint(0, 3)
                s = dict(zip(rng.sample(range(21), k), rng.sample(range(21), k)))
                ok, witness = sigma_ns_nonempty(ct, s, bound)
                assert ok == oracle_aut_extends(ct, s, bound), (t, s)
                if ok and witness.k != 0:
                    saw_nontrivial_conjugator = True
        # guaranteed positive case needing a conjugator: v1 -> g0 g1 g0^-1
        k2 = graph(2, [(0, 1)])
        ct = CodingTable(k2)
        s = {4: ct.code_of(parse_word("g0 g1 G0"))}
        ok, witness = sigma_ns_nonempty(ct, s, bound)
        assert ok and witness.k != 0
        assert oracle_aut_extends(ct, s, bound)
        saw_nontrivial_conjugator = True
        assert saw_nontrivial_conjugator

    _report("criterion 5: extension checker equals oracle", body, 600)


def test_criterion_6_coding_invariants():
    def body():
        rng = random.Random(4)
        triples_left = 500
        pool = graphs_up_to(4)
        for idx, t in enumerate(pool):
            ct = CodingTable(t)
            table = ct.enumerate_to(200)
            codes = [c for c, _ in table]
            reps = dict(table)
            # (1) identity code
            assert reps[0] == EMPTY
            # (2) forced generator codes
            for i in range(t.n):
                assert reps[3 * i + 1] == (gen(i),)
                assert reps[3 * i + 2] == (-gen(i),)
            # (3) every other code is a positive multiple of 3
            for c, w in table:
                if c == 0 or (c % 3 in (1, 2)):
                    continue
                assert c % 3 == 0 and c > 0 and len(w) >= 2
            # (4) representatives pairwise distinct in the group
            for (c1, w1), (c2, w2) in itertools.combinations(table, 2):
                assert not ct.pres.equal(w1, w2), (c1, c2)
            # (5) subword monotonicity, every proper contiguous subword
            for c, w in table:
                if c == 0:
                    continue
                for i in range(len(w)):
                    for j in range(i + 1, len(w) + 1):
                        if j - i == len(w):
                            continue
                        sub = reduce_word(w[i:j])
                        assert ct.code_of(sub) < c, (c, w, w[i:j])
            # star laws: identity, inverse, then shared associativity pot
            for c in codes:
                assert ct.star(0, c) == c and ct.star(c, 0) == c
                inv = ct.inverse_code(c)
                assert ct.star(c, inv) == 0 and ct.star(inv, c) == 0
            # associativity holds wherever all six codes stay registrable;
            # triples whose products leave the representative-length range
            # are redrawn
            quota = triples_left // (len(pool) - idx)
            triples_left -= quota
            done = 0
            while done < quota:
                a, b, c = (rng.choice(codes) for _ in range(3))
                try:
                    left = ct.star(ct.star(a, b), c)
                    right = ct.star(a, ct.star(b, c))
                except CodingBudgetError:
                    continue
                assert left == right, (a, b, c)
                done += 1
            # code_of respects the word problem
            for c, w in table[:40]:
                assert ct.code_of(ct.pres.dehn_reduce(w)) == c
        assert triples_left == 0

    _report("criterion 6: coding table invariants and star laws", body, 600)


def test_criterion_7_automorphism_canonical_form():
    def body():
        rng = random.Random(6)
        pool = graphs_up_to(4)
        conjugators = {t.n: sorted(reduced_words(t.n, 2)) for t in pool}
        for _ in range(100):
            t = rng.choice(pool)
            pres = relators_from_graph(t)
            rho = rng.choice(automorphisms(t))
            eps = rng.choice((1, -1))
            conj = rng.choice(conjugators[t.n])
            gm = induced_hom(t, t, rho, epsilon=eps, conj=conj)
            assert is_homomorphism(pres, pres, gm)
            got = aut_canonical_check(t, gm, bound=2)
            assert got is not None, (t, rho, eps, conj)
            for i in range(t.n):
                assert pres.equal(
                    gm[i], conjugate(got.conj, (got.epsilon * gen(got.rho[i]),))
                )
        # non-canonical maps: a vertex bijection that breaks adjacency is
        # killed by the order-11/13 obstruction
        rejected = 0
        while rejected < 20:
            t = rng.choice(pool)
            if t.n < 3:
                continue
            perms = [
                p
                for p in itertools.permutations(range(t.n))
                if p not in set(automorphisms(t))
            ]
            if not perms:
                continue
            pi = rng.choice(perms)
            pres = relators_from_graph(t)
            gm = induced_hom(t, t, pi)
            assert not is_homomorphism(pres, pres, gm), (t, pi)
            rejected += 1

    _report("criterion 7: canonical automorphisms recovered", body, 600)


def test_criterion_8_random_graph():
    def body():
        assert adjacent(2, 5)
        assert not adjacent(4, 9)
        universe = list(range(2, 13))
        for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
            a = {v for v, tag in zip(universe, assignment) if tag == 1}
            b = {v for v, tag in zip(universe, assignment) if tag == 2}
            x = extension_witness(a, b)
            assert all(adjacent(x, y) for y in a)
            assert not any(adjacent(x, z) for z in b)
        # sparse random graphs stay within the prime-index budget; dense
        # 8-vertex graphs are inherently out of desk scale
        rng = random.Random(7)
        for _ in range(200):
            edges = [
                e
                for e in itertools.combinations(range(8), 2)
                if rng.random() < 0.15
            ]
            t = graph(8, edges)
            images = embed_graph(t)
            assert len(set(images.values())) == 8
            for i, j in itertools.combinations(range(8), 2):
                assert adjacent(images[i], images[j]) == t.adj(i, j)

    _report("criterion 8: random graph adjacency and embedding", body, 60)
