"""Test oracle: injectivity of an induced map checked on a finite ball.

``hom-check`` answers injectivity from the theorem (see
``reduction.is_homomorphism``); this enumeration of every word up to a
length is what the tests compare that answer against.
"""

from typing import Dict

from sixthgroups.presentation import Presentation
from sixthgroups.reduction import GeneratorMap, apply_hom, reduced_words
from sixthgroups.words import Word


def check_injective_up_to(
    p_t: Presentation,
    p_s: Presentation,
    gm: GeneratorMap,
    length: int,
) -> bool:
    """Distinct elements of G_T of word length <= length must have
    distinct images in G_S.  Assumes is_homomorphism(gm) already holds."""
    images: Dict[Word, Word] = {}
    for w in reduced_words(p_t.alphabet_size, length):
        nf = p_t.dehn_reduce(w)
        img = p_s.dehn_reduce(apply_hom(gm, w))
        prev = images.get(nf)
        if prev is None:
            images[nf] = img
        elif prev != img:
            # One source element produced two image forms; not a hom.
            return False
    seen: Dict[Word, Word] = {}
    for src, img in images.items():
        if img in seen:
            return False
        seen[img] = src
    return True
