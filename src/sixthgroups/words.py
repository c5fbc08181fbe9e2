"""Words in the free group on generators v_0, v_1, ...

A letter is a nonzero int: c > 0 means v_{c-1}, c < 0 means v_{c-1}^{-1}
(index = abs(c) - 1).  A word is a tuple of letters, kept freely reduced
by all operations here.  Letter order for shortlex purposes is
v_0 < v_0^{-1} < v_1 < v_1^{-1} < ...
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Optional, Sequence, Tuple

Letter = int
Word = Tuple[int, ...]

EMPTY: Word = ()

# The largest alphabet of Dehn's algorithm (``presentation``), one signed
# byte per letter; kept here so the CLI can use it without loading the
# presentation layer.
MAX_ALPHABET_SIZE = 127


class BudgetError(RuntimeError):
    """A request beyond one of the engine's budgets.  The Dehn, coding and
    prime layers each raise their own subclass.

    Carries the budget's name, its value, how much of it the request
    needs at least and the word concerned (empty when the request was a
    number).  The message shows only the first letters of the word and
    its length, then ``context``.
    """

    def __init__(self, name: str, budget: int, used: int, word: Word = EMPTY, context: str = ""):
        self.name = name
        self.budget = budget
        self.used = used
        self.word = word
        on = f" on {preview_word(word)}" if word else ""
        super().__init__(f"{name} {budget} exceeded (needs at least {used}){on}{context}")


class InputError(ValueError):
    """Input the engine rejects: malformed text, a letter, vertex or map
    that does not fit.  The CLI reports these, and only these, as usage
    errors; any other ValueError is a bug."""


class MapError(InputError):
    """A map file or vertex map that is malformed, not injective, or does
    not fit its graph."""


class WordFormatError(InputError):
    """Malformed word text; carries the offending token position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (token {position})")
        self.position = position


def gen(index: int, sign: int = 1) -> Letter:
    if index < 0 or sign not in (-1, 1):
        raise ValueError(f"bad letter ({index}, {sign})")
    return sign * (index + 1)


def letter_key(c: Letter) -> int:
    # v_i comes before v_i^{-1}; smaller indices first.
    return 2 * (abs(c) - 1) + (0 if c > 0 else 1)


def word_key(w: Sequence[Letter]):
    """Shortlex sort key: length first, then letterwise order."""
    return (len(w), tuple(letter_key(c) for c in w))


def reduce_word(raw: Iterable[Letter]) -> Word:
    """Freely reduce, cancelling adjacent inverse pairs until none remain."""
    stack = []
    for c in raw:
        if c == 0:
            raise ValueError("0 is not a letter")
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def invert_word(w: Sequence[Letter]) -> Word:
    return tuple(map(operator.neg, reversed(w)))


def concat(w1: Sequence[Letter], w2: Sequence[Letter]) -> Word:
    return reduce_word(tuple(w1) + tuple(w2))


def power(w: Sequence[Letter], k: int) -> Word:
    if k < 0:
        return power(invert_word(w), -k)
    return reduce_word(tuple(w) * k)


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split w = conjugator . core . conjugator^{-1} with core cyclically reduced."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi], w[:lo]


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) < 2 or w[0] != -w[-1]


def cyclic_permutations(w: Word) -> set:
    """All rotations of a cyclically reduced word, deduplicated."""
    if not is_cyclically_reduced(w):
        raise ValueError(f"not cyclically reduced: {format_word(w)}")
    if not w:
        return {EMPTY}
    return {w[i:] + w[:i] for i in range(len(w))}


def parse_natural(text: str) -> Optional[int]:
    """The natural number written in decimal digits, or None.  ``int``
    also takes signs, spaces and underscores, and str.isdigit also passes
    digits such as superscripts that ``int`` refuses."""
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def read_text(path, error) -> str:
    """The file at path read as UTF-8; a byte that does not decode raises
    ``error``, the InputError subclass of the file's format."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(str(exc)) from exc


def content_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number from 1, stripped line) of each line of a graph or map
    file that counts: blank lines and lines starting with ``#`` are
    skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_word(text: str) -> Word:
    tokens = text.split()
    if not tokens:
        raise WordFormatError("empty word text (use 'e' for the identity)", 0)
    letters = []
    for pos, tok in enumerate(tokens):
        if tok == "e":
            continue
        index = parse_natural(tok[1:])
        if tok[0] not in "gG" or index is None:
            raise WordFormatError(f"bad token {tok!r}", pos)
        letters.append(gen(index, 1 if tok[0] == "g" else -1))
    return reduce_word(letters)


def format_word(w: Sequence[Letter]) -> str:
    if not w:
        return "e"
    return " ".join(
        ("g" if c > 0 else "G") + str(abs(c) - 1) for c in w
    )


PREVIEW_LETTERS = 8


def preview_word(w: Sequence[Letter]) -> str:
    """The first PREVIEW_LETTERS letters of w and its length, for error
    messages."""
    shown = format_word(w[:PREVIEW_LETTERS])
    if len(w) > PREVIEW_LETTERS:
        shown += " …"
    return f"{shown} ({len(w)} letters)"
