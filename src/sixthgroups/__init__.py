"""Desk-scale computational engine for small-cancellation graph groups:
the graph-to-group reduction, Dehn's algorithm and torsion in sixth
groups, the element coding with its code multiplication, the
automorphism-extension decision procedure, and the prime-divisibility
random graph.
"""

from .graphs import Graph, graph

__all__ = ["Graph", "graph"]
