"""groups: the word problem, element orders and canonical-automorphism
recovery on G_T for one seeded graph of each size 4..8.

Free reduction and Dehn reduction of long words do nearly all the work;
the coding never runs.
"""

from __future__ import annotations

import math

from expect import (
    adjacency,
    stratified,
    automorphisms,
    inverse,
    is_automorphism,
    random_graph,
    random_reduced,
    reduce,
    seeded,
)
from words_gen import identity_product, order_word, stable_word

GRAPH_SIZES = (4, 5, 6, 7, 8)
# Per graph and round: two word problems, one order, one automorphism check.
ROUND = ("wp", "wp", "order", "aut")
MIN_LEN, MAX_LEN = 300, 4500
OPS_PER_ROUND = len(ROUND) * len(GRAPH_SIZES)
ROUNDS_PER_SECOND = 1.6
CHECK_AT_END = False


def plan(seed, rounds):
    rng = seeded(seed, "groups", "graphs")
    graphs = [(n, random_graph(rng, n)) for n in GRAPH_SIZES]
    # One stratified size quantile per op: each (graph, slot) class covers
    # its size range evenly in every run.
    quantiles = {
        (g, slot): stratified(rng, rounds)
        for g in range(len(graphs))
        for slot in range(len(ROUND))
    }
    ops = [
        (kind, g, quantiles[g, slot][r])
        for r in range(rounds)
        for g in range(len(graphs))
        for slot, kind in enumerate(ROUND)
    ]
    adj = [adjacency(n, edges) for n, edges in graphs]
    return {
        "seed": seed,
        "graphs": graphs,
        "adj": adj,
        "auts": [automorphisms(a) for a in adj],
        "ops": ops,
    }


def setup(plan):
    from sixthgroups import graph, reduction

    graphs = [graph(n, edges) for n, edges in plan["graphs"]]
    return {
        "reduction": reduction,
        "graphs": graphs,
        "pres": [reduction.relators_from_graph(g) for g in graphs],
    }


def prepare(plan, state, index):
    kind, g, q = plan["ops"][index]
    rng = seeded(plan["seed"], "groups", index)
    adj = plan["adj"][g]
    n = len(adj)
    # Dehn reduction costs about the square of the length, so the squared
    # length is spread evenly: the cost quantiles, p90 among them, fall
    # where sizes are dense.  Words overshoot by at most one relator.
    length = math.sqrt(MIN_LEN**2 + q * ((MAX_LEN - 40) ** 2 - MIN_LEN**2))
    if kind == "wp":
        w = identity_product(rng, adj, length)
        s = stable_word(rng, n)
        ws = list(w)
        ws.extend(s)
        return {"g": g, "w": tuple(w), "ws": reduce(ws)}
    if kind == "order":
        word, order = order_word(rng, adj, length)
        return {"g": g, "w": word, "order": order}
    rho = rng.choice(plan["auts"][g])
    eps = rng.choice((1, -1))
    t = random_reduced(rng, n, int(3 * q))
    gm = tuple(reduce(t + (eps * (rho[i] + 1),) + inverse(t)) for i in range(n))
    while True:
        bad = tuple(rng.sample(range(n), n))
        if not is_automorphism(bad, adj):
            break
    return {"g": g, "gm": gm, "bad": tuple((v + 1,) for v in bad)}


def run(state, kind, inp):
    reduction = state["reduction"]
    g = inp["g"]
    pres = state["pres"][g]
    if kind == "wp":
        return pres.dehn_reduce(inp["w"]), pres.dehn_reduce(inp["ws"])
    if kind == "order":
        return pres.order(inp["w"])
    witness = reduction.aut_canonical_check(state["graphs"][g], inp["gm"])
    return (
        witness and (witness.rho, witness.epsilon, witness.conj),
        reduction.is_homomorphism(pres, pres, inp["gm"]),
        reduction.is_homomorphism(pres, pres, inp["bad"]),
    )


def check(plan, kind, inp, out):
    """Identity products reduce to e; a nonempty stable word times one does
    not (it holds no more than half of any relator); orders come from the
    construction; a recovered rho is a graph automorphism; a vertex
    bijection that breaks adjacency induces no homomorphism."""
    if kind == "wp":
        return out[0] == () and out[1] != ()
    if kind == "order":
        return out == inp["order"]
    witness, hom, bad_hom = out
    return (
        witness is not None
        and is_automorphism(witness[0], plan["adj"][inp["g"]])
        and witness[1] in (1, -1)
        and hom is True
        and bad_hom is False
    )
