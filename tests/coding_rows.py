"""Test oracles for the automorphism-extension decider on codes.

``star_search`` is the search that ``coding.sigma_ns_nonempty`` replaced,
kept unchanged: it tries every rho in Aut(T), both signs and every
conjugator, and checks each candidate through an action computed purely
in code arithmetic (``_witness_action``).  The decider must return its
``(bool, ExtensionWitness)`` wherever it answers.  ``checker_rows`` and
``oracle_rows`` give the code-action rows of that arithmetic action and
of the group action, for the equivalence test of acceptance criterion 5.
"""

import itertools
from typing import Dict, Optional, Tuple

from sixthgroups.coding import (
    CodingTable,
    ExtensionWitness,
    PartialMap,
    default_star_conj_bound,
    validate_partial_map,
)
from sixthgroups.graphs import automorphisms
from sixthgroups.reduction import apply_hom, induced_hom, reduced_words
from sixthgroups.words import Word, invert_word


def _letter_image_code(ct: CodingTable, c: int, rho, l: int, k: int, k_inv: int) -> int:
    """Code of the image of one letter under the witness (rho, l, k)."""
    i = abs(c) - 1
    if c > 0:
        base = 3 * rho[i] + 1 + l
    else:
        base = 3 * rho[i] + 2 - l
    return ct.star(k, ct.star(base, k_inv))


def _witness_action(ct: CodingTable, code: int, rho, l: int, k: int, k_inv: int) -> int:
    """Action on an arbitrary code, computed purely in code arithmetic:
    decompose the representative into letters and star the letter images."""
    w = ct.word_of(code)
    out = 0
    for c in w:
        out = ct.star(out, _letter_image_code(ct, c, rho, l, k, k_inv))
    return out


def star_search(
    ct: CodingTable,
    s: PartialMap,
    bound: Optional[int] = None,
) -> Tuple[bool, Optional[ExtensionWitness]]:
    """The extension search ``sigma_ns_nonempty`` replaced: the reference
    its answers and witnesses are compared with.

    Checks the homomorphism compatibility of s on its domain, then
    searches for a graph automorphism rho, an inversion flag l and a
    conjugator code k (from words of length <= bound) matching s on
    generator codes.  Because the domain of s need not be closed under
    subwords, a candidate witness is additionally required to agree with
    s on composite and inverse-generator codes; without that step the
    generator-level conditions are necessary but not sufficient.
    """
    validate_partial_map(s)
    for c in itertools.chain(s.keys(), s.values()):
        if not ct.registrable(c):
            return False, None
    if bound is None:
        bound = default_star_conj_bound(ct, s)
    # Condition (1): s respects code multiplication inside its domain.
    for n, m in itertools.product(s, s):
        p = ct.star(n, m)
        if p in s and s[p] != ct.star(s[n], s[m]):
            return False, None
    gen_dom = sorted(i for i in range((max(s, default=0)) // 3 + 1) if 3 * i + 1 in s)
    # Everything else in the domain (composites and inverse-generator
    # codes) is checked through the induced action.
    other_dom = sorted(c for c in s if c % 3 != 1)
    # (k, k_inv) per conjugator, coded when first reached: a witness found
    # early never codes the longer conjugators, which may be out of reach.
    # The ball is walked afresh for each (rho, l), never held as a list.
    codes: Dict[Word, Tuple[int, int]] = {}
    for rho in automorphisms(ct.graph):
        for l in (0, 1):
            for t in reduced_words(ct.graph.n, bound):
                if t not in codes:
                    codes[t] = (ct.code_of(t), ct.code_of(invert_word(t)))
                k, k_inv = codes[t]
                if any(
                    s[3 * i + 1]
                    != ct.star(k, ct.star(3 * rho[i] + 1 + l, k_inv))
                    for i in gen_dom
                ):
                    continue
                if any(
                    s[c] != _witness_action(ct, c, rho, l, k, k_inv)
                    for c in other_dom
                ):
                    continue
                return True, ExtensionWitness(
                    tuple((i, rho[i]) for i in gen_dom), k, k_inv, l
                )
    return False, None


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
                theta = induced_hom(ct.graph, ct.graph, rho, eps, t)
                rows.add(
                    tuple(ct.code_of(apply_hom(theta, ct.word_of(c))) for c in codes)
                )
    return rows
