"""One budgeted search behind every graph walk of the engine: the induced
embeddings, isomorphisms and automorphisms of ``embed-graph``,
``graph-iso``, ``rigid``, ``reduction.iso_search`` and
``reduction.canonical_witness``.  The naive walks of ``graphs.py`` are
its oracles.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .graphs import Graph
from .words import BudgetError

# The most candidate images one vertex_maps call tries: about 0.5 s of
# search on G(127, 1/2) (2 vCPUs, Python 3.11).
MAX_CANDIDATES = 2_000_000


class SearchBudgetError(BudgetError):
    """A search past its budget: the candidate images of ``vertex_maps``,
    or the conjugators of ``reduction.canonical_witness``."""


def _neighbours(g: Graph) -> list:
    """The neighbours of each vertex, as a bit mask."""
    masks = [0] * g.n
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def vertex_maps(
    t: Graph, s: Graph, fixed: Dict[int, int], *, prefix: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """The induced embeddings f of t into s with f(i) = fixed[i] for each
    i in fixed, in lexicographic order, so the first is
    ``graphs.induced_embeds(t, s)``; of those that agree on f(0) ..
    f(prefix - 1), only the first (prefix defaults to t.n, listing all).

    It places f(0), f(1), ... in turn, trying the images in increasing
    order, and keeps an image only if its adjacency to the images already
    placed is that of the vertex.  An induced embedding between graphs of
    one size is an isomorphism, so there an image must also have the
    vertex's degree.  Past the first prefix vertices, each branch ends at
    its first embedding (``place`` returns whether it found one).  Past
    MAX_CANDIDATES images tried it raises SearchBudgetError.
    """
    if t.n > s.n:
        return
    if prefix is None:
        prefix = t.n
    nt, ns = _neighbours(t), _neighbours(s)

    def pool(mask: int) -> int:
        return mask.bit_count() if t.n == s.n else 0

    # the images of each degree, or all of them in one pool
    images = {}
    for j, mask in enumerate(ns):
        images.setdefault(pool(mask), []).append(j)
    candidates = [(fixed[i],) if i in fixed else images.get(pool(nt[i]), ()) for i in range(t.n)]
    # the neighbours of each vertex among those placed before it
    earlier = [[k for k in range(i) if nt[i] >> k & 1] for i in range(t.n)]
    f = [0] * t.n
    tried = 0

    def place(i: int, used: int):
        nonlocal tried
        if i == t.n:
            yield tuple(f)
            return True
        want = sum(1 << f[k] for k in earlier[i])
        found = False
        for j in candidates[i]:
            tried += 1
            if tried > MAX_CANDIDATES:
                raise SearchBudgetError(
                    "vertex-map candidate budget MAX_CANDIDATES", MAX_CANDIDATES, tried
                )
            if not used >> j & 1 and ns[j] & used == want:
                f[i] = j
                found |= yield from place(i + 1, used | 1 << j)
                if found and i >= prefix:
                    return True
        return found

    yield from place(0, 0)
