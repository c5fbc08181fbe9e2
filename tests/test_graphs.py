import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from sixthgroups.graphs import (
    Graph,
    GraphFormatError,
    all_graphs,
    automorphisms,
    format_graph,
    graph,
    graph_iso,
    graphs_up_to,
    induced_embeds,
    is_combinatorial_tree,
    is_rigid,
    nonisomorphic_graphs,
    parse_graph,
)

K2 = graph(2, [(0, 1)])
P3 = graph(3, [(0, 1), (1, 2)])
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def small_graphs(max_n=5):
    pairs = [(i, j) for n in range(1, max_n + 1) for i in range(n) for j in range(i + 1, n)]
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            graph,
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] != e[1]),
                max_size=n * (n - 1) // 2,
            ),
        )
    )


def test_graph_basics():
    assert K2.adj(0, 1) and K2.adj(1, 0)
    assert not K2.adj(0, 0)
    assert P3.neighbors(1) == [0, 2]
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(-1)
    # equal and hashed by (n, edges), whatever order the edges came in
    g, h = graph(3, [(1, 2), (0, 1)]), Graph(3, frozenset([(0, 1), (1, 2)]))
    assert g == h == P3 and hash(g) == hash(h)
    assert g != graph(3, [(0, 1)]) and g != Graph(4, g.edges)
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        del g.n
    assert g.n == 3
    # == against a non-Graph defers to the other side
    assert (Graph(2) == 2) is False
    assert pickle.loads(pickle.dumps(g)) == g


def test_graph_keeps_a_frozenset_of_any_edge_container():
    # a list or set of edges is checked edge by edge and kept frozen, so
    # the graph hashes
    for edges in ([(0, 1)], {(0, 1)}, ((0, 1),), iter([(0, 1)])):
        g = Graph(4, edges)
        assert g.edges == frozenset({(0, 1)}) and g == graph(4, [(0, 1)])
        assert hash(g) == hash(graph(4, [(0, 1)]))
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 3)])


def test_parse_format_roundtrip():
    text = "n 3\ne 0 1\ne 1 2\n"
    assert parse_graph(text) == P3
    assert parse_graph(format_graph(P3)) == P3
    assert parse_graph("# comment\nn 1\n") == graph(1)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "e 0 1\nn 2\n",
        "n 2\ne 1 0\n",
        "n 2\ne 0 2\n",
        "n 2\ne 0 1\ne 0 1\n",
        "n 2\nn 2\n",
        "n 2\nz 0 1\n",
        "n 2\ne 0\n",
        "n 2\ne 0 1 1\n",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_counts_of_isomorphism_types():
    # 1, 2, 4, 11, 34 types on 1..5 vertices
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    assert len(graphs_up_to(4)) == 18
    assert len(list(all_graphs(3))) == 8


def test_induced_embeds_is_induced():
    # P3 is a subgraph of K4 but not an induced subgraph
    assert induced_embeds(P3, K4) is None
    assert induced_embeds(P3, C4) is not None
    assert induced_embeds(K4, C4) is None
    assert induced_embeds(graph(2), K4) is None  # non-edge needs a non-edge
    assert induced_embeds(graph(2), C4) == (0, 2)


def test_graph_iso_examples():
    relabeled = graph(4, [(2, 3), (1, 2), (0, 1), (0, 3)])
    assert graph_iso(C4, relabeled) is not None
    assert graph_iso(C4, K4) is None
    assert graph_iso(P3, graph(3, [(0, 1)])) is None


def test_automorphisms_and_rigidity():
    assert len(automorphisms(K2)) == 2
    assert len(automorphisms(C4)) == 8
    assert len(automorphisms(K4)) == 24
    assert not is_rigid(P3)
    # smallest rigid graph beyond K1 has 6 vertices; K1 is rigid
    assert is_rigid(graph(1))
    rigid6 = graph(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
    assert is_rigid(rigid6)


def test_tree_check():
    assert is_combinatorial_tree(P3)
    assert is_combinatorial_tree(graph(1))
    assert not is_combinatorial_tree(C4)
    assert not is_combinatorial_tree(graph(2))  # disconnected
    assert not is_combinatorial_tree(
        graph(4, [(0, 1), (0, 2), (1, 2)])
    )  # right edge count, disconnected


@given(small_graphs())
def test_iso_reflexive_and_aut_group(g):
    assert graph_iso(g, g) is not None
    auts = automorphisms(g)
    assert tuple(range(g.n)) in auts
    perms = set(auts)
    for p in auts:
        inv = tuple(sorted(range(g.n), key=lambda i: p[i]))
        assert inv in perms


@given(small_graphs(4), small_graphs(4))
def test_embeds_antisymmetric_up_to_iso(t, s):
    f = induced_embeds(t, s)
    b = induced_embeds(s, t)
    if f is not None and b is not None:
        assert graph_iso(t, s) is not None


# -- cross-checks against networkx's VF2 matcher -----------------------------


def _nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_automorphism_counts_match_networkx():
    pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    count = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            h = _nx(g)
            vf2 = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert len(automorphisms(g)) == vf2, g
            count += 1
    assert count == 1099


def test_iso_and_induced_embeds_match_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(9)

    def random_graph(n):
        pairs = list(itertools.combinations(range(n), 2))
        return graph(n, [p for p in pairs if rng.random() < 0.5])

    isomorphic = embedded = 0
    for _ in range(2000):
        t = random_graph(rng.randint(1, 4))
        if rng.random() < 0.3:
            # a relabelling, so that isomorphic pairs are common
            perm = rng.sample(range(t.n), t.n)
            s = graph(t.n, [(perm[i], perm[j]) for i, j in t.edges])
        else:
            s = random_graph(rng.randint(1, 5))
        iso = graph_iso(t, s) is not None
        assert iso == nx.is_isomorphic(_nx(t), _nx(s)), (t, s)
        # VF2's subgraph isomorphism is the induced one
        emb = induced_embeds(t, s) is not None
        assert emb == GraphMatcher(_nx(s), _nx(t)).subgraph_is_isomorphic(), (t, s)
        isomorphic += iso
        embedded += emb
    assert isomorphic > 500 and embedded > 1000
