"""Finite simple graphs on vertices 0..n-1, plus the brute-force oracles
for induced embeddability, isomorphism, rigidity and the tree check.

Everything here is deliberately naive: these functions serve as ground
truth for the group-theoretic machinery, so they must be trivially
correct.  The searches walk every permutation or injection, so they
finish only on small graphs.  They are the oracles of
``search.vertex_maps``, the budgeted search that the engine and the CLI
run instead.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Tuple

from .words import InputError, content_lines, parse_natural, read_text


class GraphFormatError(InputError):
    pass


def _norm_edge(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


class Graph:
    """A graph on vertices 0..n-1 with edges (i, j), i < j, taken from any
    iterable and kept as a frozenset.  Immutable, equal and hashed by
    (n, edges), so it can key caches."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("negative vertex count")
        edges = frozenset(edges)
        for i, j in edges:
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Graph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def adj(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return _norm_edge(i, j) in self.edges

    def neighbors(self, v: int):
        return [u for u in range(self.n) if self.adj(v, u)]


def graph(n: int, edges=()) -> Graph:
    return Graph(n, (_norm_edge(i, j) for i, j in edges))


def parse_graph(text: str) -> Graph:
    n = None
    edges = set()
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate n line")
            n = parse_natural(parts[1]) if len(parts) == 2 else None
            if n is None:
                raise GraphFormatError(f"line {lineno}: bad n line {line!r}")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before n line")
            i, j = map(parse_natural, parts[1:]) if len(parts) == 3 else (None, None)
            if i is None or j is None:
                raise GraphFormatError(f"line {lineno}: bad edge line {line!r}")
            if not i < j:
                raise GraphFormatError(f"line {lineno}: edge must have i < j")
            if j >= n:
                raise GraphFormatError(f"line {lineno}: vertex {j} out of range")
            if (i, j) in edges:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({i},{j})")
            edges.add((i, j))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing n line")
    return Graph(n, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    return parse_graph(read_text(path, GraphFormatError))


def all_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))


def _canonical_mask(g: Graph) -> int:
    pairs = list(itertools.combinations(range(g.n), 2))
    best = None
    for perm in itertools.permutations(range(g.n)):
        mask = 0
        for k, (i, j) in enumerate(pairs):
            if g.adj(perm[i], perm[j]):
                mask |= 1 << k
        if best is None or mask < best:
            best = mask
    return 0 if best is None else best


def nonisomorphic_graphs(n: int) -> list:
    """One representative per isomorphism class of graphs on n vertices."""
    seen = {}
    for g in all_graphs(n):
        seen.setdefault(_canonical_mask(g), g)
    return [seen[k] for k in sorted(seen)]


def graphs_up_to(n: int) -> list:
    out = []
    for k in range(1, n + 1):
        out.extend(nonisomorphic_graphs(k))
    return out


def _injections(k: int, n: int):
    # Lexicographic order over the image tuples.
    return itertools.permutations(range(n), k)


def induced_embeds(t: Graph, s: Graph) -> Optional[Tuple[int, ...]]:
    """Lexicographically least induced embedding of t into s, or None.

    Adjacency must be preserved in both directions (the graph quasi-order
    is about induced subgraphs, not subgraphs).
    """
    if t.n > s.n:
        return None
    for f in _injections(t.n, s.n):
        if all(
            t.adj(i, j) == s.adj(f[i], f[j])
            for i, j in itertools.combinations(range(t.n), 2)
        ):
            return f
    return None


def graph_iso(t: Graph, s: Graph) -> Optional[Tuple[int, ...]]:
    if t.n != s.n or len(t.edges) != len(s.edges):
        return None
    return induced_embeds(t, s)


def is_automorphism(g: Graph, perm: Tuple[int, ...]) -> bool:
    """Whether the permutation perm of g's vertices preserves adjacency."""
    return all(
        g.adj(i, j) == g.adj(perm[i], perm[j])
        for i, j in itertools.combinations(range(g.n), 2)
    )


def automorphisms(g: Graph) -> list:
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if is_automorphism(g, perm)
    ]


def is_rigid(g: Graph) -> bool:
    return len(automorphisms(g)) == 1


def is_combinatorial_tree(g: Graph) -> bool:
    if g.n == 0:
        return False
    if len(g.edges) != g.n - 1:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.n
