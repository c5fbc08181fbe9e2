import itertools
import random

import pytest

from sixthgroups import search
from sixthgroups.graphs import (
    automorphisms,
    graph,
    graph_iso,
    graphs_up_to,
    induced_embeds,
    is_rigid,
)
from sixthgroups.search import SearchBudgetError, vertex_maps


def _first(t, s):
    return next(vertex_maps(t, s, {}), None)


def _iso(t, s):
    # as graph-iso and iso_search ask: the edge counts first
    if (t.n, len(t.edges)) != (s.n, len(s.edges)):
        return None
    return _first(t, s)


def _rigid(g):
    return len(list(itertools.islice(vertex_maps(g, g, {}), 2))) == 1


def _random_graph(rng, n):
    return graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5])


def _relabel(rng, g):
    perm = rng.sample(range(g.n), g.n)
    return graph(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def _is_embedding(t, s, f):
    pairs = itertools.combinations(range(t.n), 2)
    return all(t.adj(i, j) == s.adj(f[i], f[j]) for i, j in pairs)


def _induced(g, vertices):
    index = {v: k for k, v in enumerate(vertices)}
    edges = [(index[i], index[j]) for i, j in g.edges if i in index and j in index]
    return graph(len(vertices), edges)


def _seeded_pairs(rng, sizes, count):
    """(t, s) with s of a size in sizes: a relabelling of s, an induced
    subgraph of a relabelling, or an unrelated graph no larger than s."""
    for k in range(count):
        s = _random_graph(rng, rng.choice(sizes))
        if k % 3 == 0:
            t = _relabel(rng, s)
        elif k % 3 == 1:
            t = _induced(_relabel(rng, s), sorted(rng.sample(range(s.n), rng.randint(1, s.n))))
        else:
            t = _random_graph(rng, rng.randint(1, s.n))
        yield t, s


def test_every_map_in_order_on_small_graphs():
    # every pair of graphs of at most 5 vertices: all the induced
    # embeddings in lexicographic order, the first being induced_embeds,
    # and the isomorphism and rigidity answers of graphs.py
    pool = graphs_up_to(5)
    assert len(pool) == 52
    for s in pool:
        for t in pool:
            want = [f for f in itertools.permutations(range(s.n), t.n) if _is_embedding(t, s, f)]
            assert list(vertex_maps(t, s, {})) == want, (t, s)
            assert _first(t, s) == induced_embeds(t, s)
            assert _iso(t, s) == graph_iso(t, s), (t, s)
        assert list(vertex_maps(s, s, {})) == automorphisms(s)
        assert _rigid(s) == is_rigid(s)


def test_a_prefix_lists_the_first_map_of_each_prefix():
    # every pair of graphs of at most 5 vertices and every prefix length:
    # the full list with each map dropped whose first k images an earlier
    # map shares
    pool = graphs_up_to(5)
    for s in pool:
        for t in pool:
            maps = list(vertex_maps(t, s, {}))
            for k in range(t.n + 1):
                firsts = {}
                for f in maps:
                    firsts.setdefault(f[:k], f)
                assert list(vertex_maps(t, s, {}, prefix=k)) == list(firsts.values()), (t, s, k)
    # with fixed images too: the path 0-1-2 into the empty graph on 4
    # vertices, vertex 1 placed on 3
    p3, e4 = graph(3, [(0, 1), (1, 2)]), graph(4)
    assert list(vertex_maps(p3, graph(5, [(0, 3), (3, 1), (3, 2)]), {1: 3}, prefix=1)) == [
        (0, 3, 1),
        (1, 3, 0),
        (2, 3, 0),
    ]
    assert list(vertex_maps(e4, e4, {0: 2}, prefix=2)) == [(2, 0, 1, 3), (2, 1, 0, 3), (2, 3, 0, 1)]


def test_a_prefix_stops_each_branch_at_its_first_map(monkeypatch):
    # the empty graph on 4 vertices with prefix 1: after the 4 images of
    # vertex 0, one descent each, which tries the images from 0 up to the
    # first free one at each level: 9, 8, 7 and 6 candidates, 34 in all.
    # The full list takes 164.
    e4 = graph(4)
    monkeypatch.setattr(search, "MAX_CANDIDATES", 34)
    assert len(list(vertex_maps(e4, e4, {}, prefix=1))) == 4
    monkeypatch.setattr(search, "MAX_CANDIDATES", 33)
    with pytest.raises(SearchBudgetError):
        list(vertex_maps(e4, e4, {}, prefix=1))


def test_seeded_pairs_up_to_8_vertices_match_graphs():
    rng = random.Random(31)
    found = 0
    for t, s in _seeded_pairs(rng, range(6, 9), 30):
        f = _first(t, s)
        assert f == induced_embeds(t, s), (t, s)
        assert _iso(t, s) == graph_iso(t, s), (t, s)
        found += f is not None
    for n in range(6, 9):
        g = _random_graph(rng, n)
        assert _rigid(g) == is_rigid(g)
        assert list(vertex_maps(g, g, {})) == automorphisms(g)
    assert found >= 20


def test_seeded_pairs_of_9_to_12_vertices_match_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def _nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    rng = random.Random(47)
    counts = [0, 0, 0]
    for t, s in _seeded_pairs(rng, range(9, 13), 60):
        f = _first(t, s)
        # VF2's subgraph isomorphism is the induced one
        assert (f is not None) == GraphMatcher(_nx(s), _nx(t)).subgraph_is_isomorphic(), (t, s)
        if f is not None:
            assert len(set(f)) == t.n and _is_embedding(t, s, f)
        iso = _iso(t, s) is not None
        assert iso == nx.is_isomorphic(_nx(t), _nx(s)), (t, s)
        vf2 = sum(1 for _ in itertools.islice(GraphMatcher(_nx(s), _nx(s)).isomorphisms_iter(), 2))
        assert _rigid(s) == (vf2 == 1), s
        counts[0] += f is not None
        counts[1] += iso
        counts[2] += vf2 == 1
    assert counts[0] >= 40 and counts[1] >= 20 and counts[2] >= 20, counts


def test_fixed_images_are_kept():
    # the path 0-1-2 has one automorphism besides the identity
    p3 = graph(3, [(0, 1), (1, 2)])
    assert list(vertex_maps(p3, p3, {0: 2})) == [(2, 1, 0)]
    assert list(vertex_maps(p3, p3, {1: 0})) == []
    # an edge into the path with its first end fixed on the middle
    k2 = graph(2, [(0, 1)])
    assert list(vertex_maps(k2, p3, {0: 1})) == [(1, 0), (1, 2)]
    # more vertices than the target has: nothing, without a walk
    assert list(vertex_maps(p3, k2, {})) == []


def test_search_past_its_budget_is_a_budget_error(monkeypatch):
    # the 4! automorphisms of the empty graph on 4 vertices take 164
    # candidates: 4 at each of the 1 + 4 + 12 + 24 partial maps
    e4 = graph(4)
    assert len(list(vertex_maps(e4, e4, {}))) == 24
    monkeypatch.setattr(search, "MAX_CANDIDATES", 163)
    with pytest.raises(SearchBudgetError) as info:
        list(vertex_maps(e4, e4, {}))
    e = info.value
    assert (e.name, e.budget, e.used, e.word) == (
        "vertex-map candidate budget MAX_CANDIDATES", 163, 164, ()
    )
    assert str(e) == f"{e.name} 163 exceeded (needs at least 164)"
    # a search that stops in time is no error
    assert next(vertex_maps(e4, e4, {})) == (0, 1, 2, 3)
