"""Desk-scale computational engine for small-cancellation graph groups:
the graph-to-group reduction, Dehn's algorithm and torsion in sixth
groups, the element coding with its code multiplication, the
automorphism-extension decision procedure, and the prime-divisibility
random graph.

The names below are imported from their modules on first use (PEP 562),
so importing one submodule, as the CLI does, loads no other.
"""

import importlib

_HOMES = {
    "Graph": "graphs",
    "graph": "graphs",
    "INFINITE": "presentation",
    "Presentation": "presentation",
    "RelatorSet": "presentation",
    "symmetrize": "presentation",
    "relators_from_graph": "reduction",
    "Word": "words",
    "format_word": "words",
    "parse_word": "words",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
