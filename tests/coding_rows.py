"""Code-action rows of both automorphism-extension deciders, for the
equivalence test of acceptance criterion 5."""

from sixthgroups.coding import CodingTable, _theta_image, _witness_action
from sixthgroups.graphs import automorphisms
from sixthgroups.reduction import reduced_words
from sixthgroups.words import invert_word


def checker_rows(ct: CodingTable, bound: int, codes) -> set:
    """Code-action rows of every checker witness, via star arithmetic."""
    rows = set()
    for rho in automorphisms(ct.graph):
        for l in (0, 1):
            for t in reduced_words(ct.graph.n, bound):
                k = ct.code_of(t)
                k_inv = ct.code_of(invert_word(t))
                rows.add(
                    tuple(
                        _witness_action(ct, c, rho, l, k, k_inv) for c in codes
                    )
                )
    return rows


def oracle_rows(ct: CodingTable, bound: int, codes) -> set:
    """Code-action rows of every canonical automorphism, via the group."""
    rows = set()
    for rho in automorphisms(ct.graph):
        for eps in (1, -1):
            for t in reduced_words(ct.graph.n, bound):
                rows.add(
                    tuple(
                        ct.code_of(_theta_image(ct, ct.word_of(c), rho, eps, t))
                        for c in codes
                    )
                )
    return rows
