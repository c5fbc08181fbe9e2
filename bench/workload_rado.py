"""rado: embedding jobs against the prime-divisibility random graph, in one
long-lived process.  Each job embeds a seeded sparse graph of 6-10
vertices, then asks for extension witnesses over (A, B) splits of its
images and of small vertices.

The prime layer does all the work.  The first job of every run embeds a
path of 8 vertices, whose images are iterated nth primes from 2 up to
99 523, and asks for a witness adjacent to 99 523: the sieve grows from
its 2^16 start to about 1.6 million.  Seeded graphs are forests whose trees
are shallow enough (depth 4 under vertex 0, depth 3 elsewhere) that no
later call needs a larger sieve, so every run ends with the same sieve and
no prime index comes near the module's budgets.
"""

from __future__ import annotations

import json

from expect import seeded

MIN_N, MAX_N = 6, 10
FIRST_TREE_DEPTH, OTHER_TREE_DEPTH = 4, 3
PLANTED_PATH = 8
SMALL = tuple(range(2, 30))
OPS_PER_ROUND = 1
ROUNDS_PER_SECOND = 480.0
CHECK_AT_END = True


def sparse_forest(rng):
    """(n, edges): each vertex joins at most one earlier vertex."""
    n = rng.randint(MIN_N, MAX_N)
    tree, depth, edges = [0], [0], []
    for v in range(1, n):
        if rng.random() < 0.8:
            if rng.random() < 0.5:
                u = v - 1
            else:
                u = rng.randrange(v)
            cap = FIRST_TREE_DEPTH if tree[u] == 0 else OTHER_TREE_DEPTH
            if depth[u] < cap:
                edges.append((u, v))
                tree.append(tree[u])
                depth.append(depth[u] + 1)
                continue
        tree.append(v)
        depth.append(0)
    return n, edges


def plan(seed, rounds):
    return {"seed": seed, "ops": [("job", j) for j in range(rounds)]}


def setup(plan):
    from sixthgroups import graph, randomgraph

    return {"graph": graph, "randomgraph": randomgraph}


def prepare(plan, state, index):
    rng = seeded(plan["seed"], "rado", index)
    if index == 0:
        n, edges = PLANTED_PATH, [(v, v + 1) for v in range(PLANTED_PATH - 1)]
        splits = [(["."] * (n - 1) + ["A"], [], [])]
    else:
        n, edges = sparse_forest(rng)
        splits = []
    for _ in range(rng.randint(40, 90)):
        roles = rng.choices("AAB.....", k=n)
        a_small = set(rng.sample(SMALL, rng.randint(0, 2)))
        b_small = set(rng.sample(SMALL, rng.randint(0, 2))) - a_small
        splits.append((roles, sorted(a_small), sorted(b_small)))
    return {"n": n, "edges": edges, "graph": state["graph"](n, edges), "splits": splits}


def run(state, kind, inp):
    rg = state["randomgraph"]
    images = rg.embed_graph(inp["graph"])
    witnesses = []
    for roles, a_small, b_small in inp["splits"]:
        a = {images[v] for v, r in enumerate(roles) if r == "A"}.union(a_small)
        b = {images[v] for v, r in enumerate(roles) if r == "B"}.union(b_small) - a
        witnesses.append((sorted(a), sorted(b), rg.extension_witness(a, b)))
    return images, witnesses


def record(inp, out):
    images, witnesses = out
    return json.dumps([inp["n"], inp["edges"], [images[v] for v in range(inp["n"])], witnesses])


def check_record(plan, state, index, line):
    """The embedding and every witness are checked for adjacency through
    sympy's factorint and primepi, not the program's sieve."""
    if "oracle" not in state:
        from expect import RadoOracle

        state["oracle"] = RadoOracle()
    oracle = state["oracle"]
    n, edges, images, witnesses = json.loads(line)
    return oracle.is_embedding(n, edges, dict(enumerate(images))) and all(
        oracle.is_witness(x, set(a), set(b)) for a, b, x in witnesses
    )
