"""coding: sessions, each on a fresh CodingTable for a seeded graph of 2-4
vertices.  A session enumerates the table up to a seeded code, then decides
automorphism extension, looks up codes and words, and multiplies codes,
all on elements the enumeration has already registered.

The enumeration table does most of the work and only short words pass
through Dehn reduction.  Each session's calls of one kind form one
operation, so every operation of a kind meets the table in the same state:
the enumeration always misses, the later calls always hit.
"""

from __future__ import annotations

import itertools

from expect import (
    StableWords,
    adjacency,
    automorphisms,
    fold,
    inverse,
    is_stable,
    seeded,
    stratified,
)

SIZES = (2, 3, 4)
ROUND = ("enumerate", "sigma", "lookup", "star")
# Codes up to 10 000 cover every stable word of up to 4 letters on 4
# vertices, so the images t w t^-1 (|t| <= 1, |w| <= 2) used by the
# extension maps are registered by the enumeration.
MIN_CODE, MAX_CODE = 10_000, 40_000
CONJ_BOUND = 1
OPS_PER_ROUND = len(ROUND)
ROUNDS_PER_SECOND = 20.0
CHECK_AT_END = False


def plan(seed, rounds):
    rng = seeded(seed, "coding", "sessions")
    # Graph sizes cycle and the enumeration bound is stratified, so every
    # run holds the same mix of sizes.
    sizes = [n for _ in range(0, rounds, len(SIZES)) for n in rng.sample(SIZES, len(SIZES))]
    bounds = stratified(rng, rounds)
    sessions = []
    for n, q in zip(sizes, bounds):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.5]
        sessions.append((n, edges, int(MIN_CODE + q * (MAX_CODE - MIN_CODE))))
    ops = [(kind, s) for s in range(rounds) for kind in ROUND]
    return {
        "seed": seed,
        "sessions": sessions,
        "ops": ops,
        "stable": {n: StableWords(n) for n in SIZES},
    }


def setup(plan):
    from sixthgroups import coding, graph

    return {
        "coding": coding,
        "graphs": [graph(n, edges) for n, edges, _ in plan["sessions"]],
        "ct": None,
    }


def _image(word, rho, eps, t):
    body = tuple((eps if c > 0 else -eps) * (rho[abs(c) - 1] + 1) for c in word)
    return fold(t + body + inverse(t))


def _extension_maps(rng, sw, adj):
    """Partial maps on codes: restrictions of canonical automorphisms
    (which must be accepted) and perturbations of them (either answer)."""
    n = len(adj)
    auts = automorphisms(adj)
    small = [w for length in (1, 2) for w in sw.words_of_length(length)]
    positive = []
    for _ in range(rng.randint(2, 5)):
        rho, eps = rng.choice(auts), rng.choice((1, -1))
        t = rng.choice([()] + [(c,) for c in sw.letters])
        dom = [(i + 1,) for i in rng.sample(range(n), rng.randint(1, n))]
        # No product of two domain elements lies in the domain, so the
        # decider never multiplies two values (a perturbed pair could need
        # codes far beyond the enumeration).
        while True:
            cand = dom + [rng.choice(small)]
            if not any(fold(x + y) in cand for x in cand for y in cand):
                break
        dom = cand
        s = {sw.code(w): sw.code(_image(w, rho, eps, t)) for w in dom}
        positive.append(s)
    negative = []
    for _ in range(rng.randint(2, 5)):
        s = dict(rng.choice(positive))
        keys = list(s)
        if len(keys) > 1 and rng.random() < 0.5:
            a, b = rng.sample(keys, 2)
            s[a], s[b] = s[b], s[a]
        else:
            a = rng.choice(keys)
            taken = set(s.values())
            s[a] = rng.choice([c for c in range(1, 3 * n * 7) if c not in taken])
        negative.append(s)
    return positive, negative


def prepare(plan, state, index):
    kind, s = plan["ops"][index]
    n, edges, max_code = plan["sessions"][s]
    sw = plan["stable"][n]
    rng = seeded(plan["seed"], "coding", index)
    if kind == "enumerate":
        return {"graph": state["graphs"][s], "max_code": max_code, "n": n}
    if kind == "sigma":
        pos, neg = _extension_maps(rng, sw, adjacency(n, edges))
        return {"pos": pos, "neg": neg, "n": n, "s": s}
    full = sw.full_length(max_code)
    if kind == "lookup":
        k = rng.randint(60, 240)
        words = list({sw.random_word(rng, rng.randint(1, full)) for _ in range(k)})
        # Words of length <= full and their inverses are all registered.
        top = sum(sw.count(m) for m in range(2, full + 1))
        codes = sorted({3 * rng.randint(1, top) for _ in range(k)})
        return {"words": words, "codes": codes, "n": n}
    pairs = set()
    for _ in range(rng.randint(300, 1000)):
        a = rng.randint(1, full - 1)
        u = sw.random_word(rng, a)
        v = sw.random_word(rng, rng.randint(1, full - a))
        pairs.add((sw.code(u), sw.code(v), sw.code(fold(u + v))))
    return {"pairs": sorted(pairs), "n": n}


def run(state, kind, inp):
    coding = state["coding"]
    if kind == "enumerate":
        ct = state["ct"] = coding.CodingTable(inp["graph"])
        return ct.enumerate_to(inp["max_code"])
    ct = state["ct"]
    if kind == "sigma":
        return [
            coding.sigma_ns_nonempty(ct, s, CONJ_BOUND)[0]
            for s in inp["pos"] + inp["neg"]
        ]
    if kind == "lookup":
        return (
            [ct.code_of(w) for w in inp["words"]],
            [ct.word_of(c) for c in inp["codes"]],
            [ct.inverse_code(c) for c in inp["codes"]],
        )
    return [ct.star(a, b) for a, b, _ in inp["pairs"]]


def after(state, kind, tracer):
    if kind == ROUND[-1]:
        tracer.add("coding.registered", len(state["ct"].code_to_word))


def check(plan, kind, inp, out):
    """Codes against the benchmark's own shortlex rank of stable words,
    products against folding runs mod 7; positive extension maps must be
    accepted, the others must agree with the naive oracle."""
    sw = plan["stable"][inp["n"]]
    if kind == "enumerate":
        sentinel = object()
        return all(
            a == b
            for a, b in itertools.zip_longest(out, sw.table(inp["max_code"]), fillvalue=sentinel)
        )
    if kind == "sigma":
        from sixthgroups import coding, graph

        n, edges, _ = plan["sessions"][inp["s"]]
        oracle_table = coding.CodingTable(graph(n, edges))
        expected = [True] * len(inp["pos"]) + [
            coding.oracle_aut_extends(oracle_table, s, CONJ_BOUND) for s in inp["neg"]
        ]
        return out == expected
    if kind == "lookup":
        codes, words, inverses = out
        return (
            codes == [sw.code(w) for w in inp["words"]]
            and all(is_stable(w) for w in words)
            and [sw.code(w) for w in words] == inp["codes"]
            and inverses == [sw.code(inverse(w)) for w in words]
        )
    return out == [p for _, _, p in inp["pairs"]]
