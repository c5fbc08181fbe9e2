"""cli: a fixed sequence of subcommand calls on small seeded graph and map
files, each a fresh `python -m sixthgroups.cli` process, one at a time.
The processes inherit PYTHONPATH=src from the benchmark, because the
console script is not installed.

Interpreter start-up and imports are most of each call, so import-time work
shows here and the in-process sieve does not.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import subprocess
import sys
import threading
import time

import reference
from expect import (
    StableWords,
    adjacency,
    automorphisms,
    fold,
    random_graph,
    seeded,
)
from words_gen import format_word, identity_product, order_word

SEQUENCE = (
    "relators", "check-c16", "wp", "order", "code", "star-table", "aut-extend",
    "embed-graph", "graph-iso", "hom-check", "rado-adj", "rado-embed", "rigid",
    "tree",
)
OPS_PER_ROUND = len(SEQUENCE)
CALL_TIMEOUT = 120  # seconds
ROUNDS_PER_SECOND = 0.7
CHECK_AT_END = True
# Each call is mostly interpreter start-up, whose speed a loop of Python
# does not track.
REFERENCE = reference.Spawn


def graph_text(n, edges):
    return "".join([f"n {n}\n"] + [f"e {i} {j}\n" for i, j in sorted(edges)])


def relabel(rng, n, edges):
    perm = rng.sample(range(n), n)
    return [tuple(sorted((perm[i], perm[j]))) for i, j in edges]


def supergraph(rng, n, edges):
    """edges on n + 1 vertices with the first n inducing the given graph."""
    return list(edges) + [(i, n) for i in range(n) if rng.random() < 0.5]


def random_tree(rng, n):
    return [(rng.randrange(v), v) for v in range(1, n)]


def plan(seed, rounds):
    return {"seed": seed, "ops": [(cmd, r) for r in range(rounds) for cmd in SEQUENCE]}


def _round_inputs(seed, r):
    """Graphs, words and maps of one round, shared by its calls."""
    rng = seeded(seed, "cli", r)
    n = rng.randint(3, 5)
    t = random_graph(rng, n)
    adj = adjacency(n, t)
    s_edges = supergraph(rng, n, t)
    other = t if rng.random() < 0.5 else random_graph(rng, n)
    rho = rng.choice(automorphisms(adj))
    eps = rng.choice((1, -1))
    sw = StableWords(n)
    conj = rng.choice([()] + [(c,) for c in sw.letters])
    dom = [(i + 1,) for i in range(n)]
    image = {
        sw.code(w): sw.code(
            fold(conj + tuple(eps * (rho[abs(c) - 1] + 1) for c in w) + tuple(-c for c in conj[::-1]))
        )
        for w in dom
    }
    word, order = order_word(rng, adj, rng.uniform(40, 400))
    rigid_n = rng.randint(4, 6)
    return {
        "n": n,
        "t": t,
        "s": s_edges,
        "iso": relabel(rng, n, other),
        "wp": tuple(identity_product(rng, adj, rng.uniform(40, 400))),
        "order_word": word,
        "order": order,
        "max_code": rng.randint(60, 600),
        "star_code": rng.randint(20, 60),
        "partial_map": image,
        "rado": (rng.randint(2, 3000), rng.randint(2, 3000)),
        "forest": random_tree(rng, rng.randint(4, 7)),
        "rigid": (rigid_n, random_graph(rng, rigid_n)),
    }


def setup(plan):
    """Write every round's files under a scratch directory of the run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, "bench", "results", f"cli-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    rounds = sorted({r for _, r in plan["ops"]})
    state = {"root": root, "work": work, "rounds": {}}
    for r in rounds:
        inp = _round_inputs(plan["seed"], r)
        files = {}

        def put(name, text):
            path = os.path.join(work, f"r{r}-{name}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files[name] = path

        n = inp["n"]
        put("t.graph", graph_text(n, inp["t"]))
        put("s.graph", graph_text(n + 1, inp["s"]))
        put("iso.graph", graph_text(n, inp["iso"]))
        put("t.map", "".join(f"{a} {v}\n" for a, v in sorted(inp["partial_map"].items())))
        put("hom.map", "".join(f"{i} {i}\n" for i in range(n)))
        put("forest.graph", graph_text(len(inp["forest"]) + 1, inp["forest"]))
        put("rigid.graph", graph_text(*inp["rigid"]))
        inp["files"] = files
        state["rounds"][r] = inp
    return state


def argv(state, cmd, r):
    inp = state["rounds"][r]
    f = inp["files"]
    t = f["t.graph"]
    return {
        "relators": ["relators", t],
        "check-c16": ["check-c16", t],
        "wp": ["wp", t, format_word(inp["wp"])],
        "order": ["order", t, format_word(inp["order_word"])],
        "code": ["--max-code", str(inp["max_code"]), "code", t],
        "star-table": ["--max-code", str(inp["star_code"]), "star-table", t],
        "aut-extend": ["--conj-bound", "1", "aut-extend", t, f["t.map"], "--oracle"],
        "embed-graph": ["embed-graph", t, f["s.graph"]],
        "graph-iso": ["graph-iso", t, f["iso.graph"]],
        "hom-check": ["hom-check", t, f["s.graph"], f["hom.map"]],
        "rado-adj": ["rado-adj", *map(str, inp["rado"])],
        "rado-embed": ["rado-embed", f["forest.graph"]],
        "rigid": ["rigid", f["rigid.graph"]],
        "tree": ["tree", f["forest.graph"] if r % 2 == 0 else f["rigid.graph"]],
    }[cmd]


def prepare(plan, state, index):
    cmd, r = plan["ops"][index]
    return {"argv": argv(state, cmd, r), "r": r}


def _spawn(state, argv, capture):
    """Run a fresh interpreter to its end.  A timer kills one that hangs;
    subprocess's own timeout would poll and round waits up to 50 ms."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=state["root"],
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )
    timer = threading.Timer(CALL_TIMEOUT, proc.kill)
    timer.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, stdout


def run(state, kind, inp):
    return _spawn(state, ["-m", "sixthgroups.cli", *inp["argv"]], capture=True)


def run_in_process(main, inp):
    buf = io.StringIO()
    return main(inp["argv"], stdout=buf), buf.getvalue()


def record(inp, out):
    return out


def finish(state):
    shutil.rmtree(state["work"], ignore_errors=True)


def measure_setup(state):
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    return time_interpreter(state, "import sixthgroups.cli", 1)


def time_interpreter(state, code, repeats):
    """Median wall time, in seconds, of fresh interpreters running code."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, _ = _spawn(state, ["-c", code], capture=False)
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"interpreter running {code!r} exited with {status}")
    times.sort()
    return times[len(times) // 2]


# -- checks ----------------------------------------------------------------


def _lines(stdout):
    return stdout.splitlines()


def _mapping(lines, n):
    body = dict(line.split(": ") for line in lines[1:])
    return tuple(int(body[str(i)]) for i in range(n))


def check_record(plan, state, index, out):
    """One call's exit code and output lines against answers the benchmark
    computes itself: relator counts, orders from the construction, codes
    from its own shortlex rank, networkx for graph questions and sympy for
    the random graph."""
    import networkx as nx
    from networkx.algorithms import isomorphism

    cmd, r = plan["ops"][index]
    code, stdout = out
    lines = _lines(stdout)
    inp = state["rounds"][r]
    n = inp["n"]

    def nxg(k, edges):
        g = nx.Graph()
        g.add_nodes_from(range(k))
        g.add_edges_from(edges)
        return g

    if cmd == "relators":
        seeds = [x for x in lines if x.startswith("seed: ")]
        return (
            code == 0
            and len(seeds) == n + math.comb(n, 2)
            and lines[-1] == f"symmetrized-size: {2 * n + 4 * math.comb(n, 2)}"
        )
    if cmd == "check-c16":
        return code == 0 and lines == ["c16: true", "max-piece-length: 1"]
    if cmd == "wp":
        return code == 0 and lines == ["identity: true", "normal-form: e"]
    if cmd == "order":
        want = "INFINITE" if inp["order"] == math.inf else str(inp["order"])
        return code == 0 and lines == [f"order: {want}"]
    if cmd == "code":
        table = list(StableWords(n).table(inp["max_code"]))
        return code == 0 and lines == [f"{c}: {format_word(w)}" for c, w in table]
    if cmd == "star-table":
        sw = StableWords(n)
        table = list(sw.table(inp["star_code"]))
        want = ["n,m,star"] + [
            f"{a},{b},{sw.code(fold(u + v))}" for a, u in table for b, v in table
        ]
        return code == 0 and lines == want
    if cmd == "aut-extend":
        return code == 0 and "extends: true" in lines and "oracle: true" in lines
    if cmd in ("embed-graph", "graph-iso"):
        other_n, other = (n + 1, inp["s"]) if cmd == "embed-graph" else (n, inp["iso"])
        g_t, g_o = nxg(n, inp["t"]), nxg(other_n, other)
        if cmd == "embed-graph":
            want = isomorphism.GraphMatcher(g_o, g_t).subgraph_is_isomorphic()
        else:
            want = nx.is_isomorphic(g_t, g_o)
        key = "embeds" if cmd == "embed-graph" else "isomorphic"
        if lines[:1] != [f"{key}: {'true' if want else 'false'}"] or code != (0 if want else 1):
            return False
        if not want:
            return len(lines) == 1
        f = _mapping(lines, n)
        return len(set(f)) == n and all(
            g_t.has_edge(i, j) == g_o.has_edge(f[i], f[j])
            for i in range(n) for j in range(i)
        )
    if cmd == "hom-check":
        return code == 0 and lines == ["homomorphism: true", "injective-up-to-3: true"]
    if cmd == "rado-adj":
        from expect import RadoOracle

        want = RadoOracle().adjacent(*inp["rado"])
        return code == (0 if want else 1) and lines == [f"adjacent: {'true' if want else 'false'}"]
    if cmd == "rado-embed":
        from expect import RadoOracle

        k = len(inp["forest"]) + 1
        images = dict(tuple(map(int, x.split())) for x in lines)
        return code == 0 and RadoOracle().is_embedding(k, inp["forest"], images)
    if cmd == "rigid":
        g = nxg(*inp["rigid"])
        want = sum(1 for _ in isomorphism.GraphMatcher(g, g).isomorphisms_iter()) == 1
        return code == (0 if want else 1) and lines == [f"rigid: {'true' if want else 'false'}"]
    tree = (len(inp["forest"]) + 1, inp["forest"]) if r % 2 == 0 else inp["rigid"]
    want = nx.is_tree(nxg(*tree))
    return code == (0 if want else 1) and lines == [f"tree: {'true' if want else 'false'}"]
