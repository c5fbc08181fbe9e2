"""The graph-to-group reduction T -> G_T and its canonical-form theory.

G_T is generated by one v_i per vertex, with relators v_i^7, and
(v_i v_j)^11 on edges / (v_i v_j)^13 on non-edges.  Every automorphism
of G_T has the canonical form theta(v_i) = t v_{rho(i)}^eps t^{-1} with
rho a graph automorphism and eps = +/-1.  Both extension deciders,
``aut_canonical_check`` here and ``coding.sigma_ns_nonempty``, are
adapters around one search, ``canonical_witness``: it reads rho and eps
off the cyclic Dehn cores of the images (``read_off_letters``) and
searches only for the conjugator t, among the words of bounded length.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence, Tuple

from .graphs import Graph, graph
from .presentation import INFINITE, Presentation
from .search import SearchBudgetError, vertex_maps
from .words import (
    EMPTY,
    MapError,
    Word,
    gen,
    invert_word,
    reduce_word,
)

# Images of v_0 .. v_{n-1}, one reduced word each.
GeneratorMap = Tuple[Word, ...]

# The most conjugators one canonical_witness call tries, summed over every
# (rho, eps).
MAX_CONJUGATORS = 250_000


def relators_from_graph(t: Graph) -> Presentation:
    """A new presentation of G_T."""
    return Presentation(t)


def conjugate(t_word: Word, w: Word) -> Word:
    return reduce_word(t_word + w + invert_word(t_word))


def induced_hom(
    t: Graph,
    s: Graph,
    mapping: Sequence[int],
    epsilon: int = 1,
    conj: Word = EMPTY,
) -> GeneratorMap:
    """Generator map v_i -> conj . v_{mapping(i)}^epsilon . conj^{-1}."""
    if len(mapping) != t.n:
        raise MapError(f"mapping has {len(mapping)} targets for {t.n} vertices")
    if len(set(mapping)) != len(mapping):
        raise MapError("mapping must be injective")
    if any(not 0 <= v < s.n for v in mapping):
        raise MapError("mapping target out of range")
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +1 or -1")
    return tuple(
        conjugate(conj, (epsilon * gen(mapping[i]),)) for i in range(t.n)
    )


def apply_hom(gm: GeneratorMap, w: Word) -> Word:
    return reduce_word(
        itertools.chain.from_iterable(
            gm[c - 1] if c > 0 else invert_word(gm[-c - 1]) for c in w
        )
    )


def is_homomorphism(p_t: Presentation, p_s: Presentation, gm: GeneratorMap) -> bool:
    """The map extends to G_T -> G_S iff every defining relator maps to 1.

    A relator is root^e, so it maps to 1 iff u = gm(root) has u^e = 1,
    that is iff the order of u divides e.  The order is exact by the
    torsion theorem (``Presentation.order``), so only the image of each
    root, one or two letters of G_T, goes through Dehn's algorithm, not
    the image of the whole relator.

    For the map ``induced_hom(t, s, f)`` of an injective vertex map f this
    decides injectivity too, by two facts:
    (a) it is a homomorphism iff f is an induced embedding: v_a v_b has
        order 11 on an edge and 13 on a non-edge, and 11, 13 are coprime;
    (b) then it renames the letters of a Dehn-reduced word into a
        Dehn-reduced word: a relator of G_S meeting more than half its
        length in image letters is made of image letters, so by (a) its
        preimage would have been a Dehn step in G_T.  By Dehn's algorithm
        a nonempty Dehn-reduced word is not 1, so the kernel is trivial.
    """
    if len(gm) != p_t.alphabet_size:
        raise MapError("generator map has wrong arity")
    for root, exp in p_t.roots:
        order = p_s.order(apply_hom(gm, root))
        if order == INFINITE or exp % order:
            return False
    return True


def reduced_words(alphabet_size: int, max_len: int):
    """All freely reduced words of length <= max_len, shortlex order."""
    letters = []
    for i in range(alphabet_size):
        letters.append(gen(i))
        letters.append(-gen(i))
    yield EMPTY
    frontier = [EMPTY]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for c in letters:
                if w and w[-1] == -c:
                    continue
                nxt.append(w + (c,))
        yield from nxt
        frontier = nxt


class CanonicalAuto(NamedTuple):
    rho: Tuple[int, ...]
    epsilon: int
    conj: Word


def default_conj_bound(gm: GeneratorMap) -> int:
    # |t v t^{-1}| = 2|t| + 1 without cancellation; never below 0, the
    # least bound canonical_witness accepts.
    return max([(len(w) - 1) // 2 for w in gm] + [0])


def read_off_letters(
    pres: Presentation, images: Sequence[Word]
) -> Optional[Tuple[Tuple[int, ...], int]]:
    """The targets j and the shared sign eps of images t v_j^eps t^{-1}.

    By the torsion theorem such an image cyclically Dehn-reduces to the
    letter v_j^eps, and distinct letters are not conjugate, so no other
    (j, eps) can have a witness.  None when a core is not one letter, the
    signs differ or two images share a target; eps is 1 for no images.
    """
    cores = [pres.cyclic_dehn_reduce(w) for w in images]
    if any(len(core) != 1 for core in cores):
        return None
    eps = -1 if cores and cores[0][0] < 0 else 1
    # A letter of the other sign gives a negative target.
    targets = tuple(eps * core[0] - 1 for core in cores)
    if min(targets, default=0) < 0 or len(set(targets)) != len(targets):
        return None
    return targets, eps


def canonical_witness(
    pres: Presentation,
    pairs: Sequence[Tuple[Word, Word]],
    bound: int,
) -> Optional[CanonicalAuto]:
    """The first (rho, eps, conj) in (rho|S, eps, conjugator shortlex)
    order with |conj| <= bound and conj theta0(w) conj^{-1} = v in G_T for
    every pair (w, v), theta0 the map v_i -> v_{rho(i)}^eps; or None.  G_T
    is ``pres`` and T is ``pres.graph``.

    theta0 is applied only to the words w, so it depends on rho only
    through rho|S, rho on the vertices S those words use.  Each rho|S is
    tried once, in lexicographic order of (rho(s) : s in S ascending), by
    its least rho: ``vertex_maps`` walks T numbered S first, cut after |S|
    vertices; a copy is built only when S is not 0 .. |S| - 1 already.
    rho and eps are read off the values of the pairs whose w is one
    positive generator, each generator once (``read_off_letters``; with
    none both signs are tried).  The ball of conjugators is walked
    lazily, afresh for each (rho, eps), and past MAX_CONJUGATORS
    conjugators in all a SearchBudgetError is raised.  A negative bound
    is a ValueError.
    """
    if bound < 0:
        raise ValueError(f"conjugator bound must be at least 0, not {bound}")
    fixed = [(w[0] - 1, v) for w, v in pairs if len(w) == 1 and w[0] > 0]
    read = read_off_letters(pres, [v for _, v in fixed])
    if read is None:
        return None
    targets, eps = read
    partial = {i: j for (i, _), j in zip(fixed, targets)}
    t = pres.graph
    support = sorted({abs(c) - 1 for w, _ in pairs for c in w})
    k = len(support)
    # vertex pos[i] of the copy is vertex i of t; the rest keep their
    # order, so both numberings have the same least rho for each rho|S
    order = support + sorted(set(range(t.n)).difference(support))
    pos = sorted(range(t.n), key=order.__getitem__)
    # with S numbered first already pos is the identity: the copy is t
    if support == list(range(k)):
        first = t
    else:
        first = graph(t.n, ((pos[i], pos[j]) for i, j in t.edges))
    maps = vertex_maps(first, t, {pos[i]: j for i, j in partial.items()}, prefix=k)
    rhos = (tuple(map(f.__getitem__, pos)) for f in maps)
    # conj m conj^-1 = v iff conj m conj^-1 v^-1 = 1: one Dehn call, whose
    # packing reduces the word freely
    wanted = [(w, invert_word(v)) for w, v in pairs]
    tried = 0
    for rho in rhos:
        for sign in (eps,) if fixed else (1, -1):
            theta0 = induced_hom(t, t, rho, sign)
            mapped = [(apply_hom(theta0, w), v_inv) for w, v_inv in wanted]
            for conj in reduced_words(t.n, bound):
                tried += 1
                if tried > MAX_CONJUGATORS:
                    raise SearchBudgetError(
                        "conjugator budget MAX_CONJUGATORS", MAX_CONJUGATORS, tried
                    )
                back = invert_word(conj)
                if all(pres.is_identity(conj + m + back + v_inv) for m, v_inv in mapped):
                    return CanonicalAuto(rho, sign, conj)
    return None


def aut_canonical_check(
    t: Graph,
    gm: GeneratorMap,
    bound: Optional[int] = None,
) -> Optional[CanonicalAuto]:
    """``canonical_witness`` for gm(i) = t v_{rho(i)}^eps t^{-1} in G_T, by
    default with conjugators as long as an image allows.  Together with
    is_homomorphism, a witness certifies that gm is an automorphism of G_T.
    """
    if len(gm) != t.n:
        raise MapError("generator map has wrong arity")
    if bound is None:
        bound = default_conj_bound(gm)
    pairs = [((gen(i),), w) for i, w in enumerate(gm)]
    return canonical_witness(relators_from_graph(t), pairs, bound)


def iso_search(t: Graph, s: Graph):
    """Graph isomorphism rho lifted to a group isomorphism G_T -> G_S.

    Returns (rho, +1) or None.  The lift holds by construction: the map
    induced by rho sends each relator of G_T letter by letter onto a
    relator of G_S, and the map induced by rho^{-1} undoes it letter by
    letter, so the two compose to the identity on generators.
    """
    if t.n != s.n or len(t.edges) != len(s.edges):
        return None
    rho = next(vertex_maps(t, s, {}), None)
    if rho is None:
        return None
    return rho, 1
