"""The element coding of G_T onto the naturals and the induced code
multiplication, plus the decision procedure for whether some group
automorphism extends a finite partial injection on codes: it decodes the
map into pairs of words and asks ``reduction.canonical_witness``, the
search behind both extension deciders (see ``sigma_ns_nonempty``).

Code layout: 0 is the identity, 3i+1 is v_i, 3i+2 is v_i^{-1}, and every
other element gets the least unused positive multiple of 3, in shortlex
order of canonical representatives: the element whose representative
has shortlex rank r among representatives of length >= 2 gets code
3(r + 1).  Shortlex order makes subword codes smaller than the codes of
the words containing them; the test suite asserts this exhaustively
rather than assuming it.

Canonical representatives rely on a normal-form fact about these graph-group
presentations: relators are v_i^7 and 22- or 26-letter proper powers, so
for words of length <= 10 the Dehn-stable forms (freely reduced, every
single-generator run of exponent magnitude <= 3) are in bijection with
group elements.  Stable words form a regular language, so a code is a
rank in a finite automaton (the shortlex automatic structure of the
group, cut off at MAX_REP_LEN): ``_rank`` and ``_unrank`` compute it in
closed form from a table of completion counts built once per generator
count.  A CodingTable's memos of both directions hold exactly the largest
table ``enumerate_to`` has returned, and no lookup writes to them: they
change speed, never answers, and a long session of lookups leaves them as
they were.  A word or code whose representative would be longer than
MAX_REP_LEN letters is a budget error, never a wrong answer.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .graphs import Graph, automorphisms
from .presentation import DEFAULT_DEHN_BUDGET
from .reduction import (
    apply_hom,
    canonical_witness,
    default_conj_bound,
    induced_hom,
    reduced_words,
    relators_from_graph,
)
from .words import (
    EMPTY,
    BudgetError,
    MapError,
    Word,
    concat,
    gen,
    invert_word,
    letter_key,
)

MAX_REP_LEN = 10
MAX_ELEMENTS = 500_000  # the largest table enumerate_to builds


class CodingBudgetError(BudgetError):
    """A request the coding cannot answer within its budgets: a
    representative longer than MAX_REP_LEN letters, or a table of more
    than MAX_ELEMENTS codes."""


# -- stable words in closed form -----------------------------------------


@functools.lru_cache(maxsize=16)
def _counts(n: int):
    """Counts of stable words over n generators: (letters, completions,
    first), the letters in shortlex order.

    ``completions[rem][run]`` is the number of ways to append ``rem``
    letters to a stable word whose last run has length ``run`` (1..3, or
    0 for the empty word), for rem = 0 .. MAX_REP_LEN + 1.  ``first[L]``,
    for L = 2 .. MAX_REP_LEN + 1, is the rank of the first stable word of
    length L among stable words of length >= 2, so
    ``first[MAX_REP_LEN + 1]`` is the number of composite codes within
    reach.
    """
    letters = tuple(s * gen(i) for i in range(n) for s in (1, -1))
    new_runs = max(2 * n - 2, 0)  # letters other than the last and its inverse
    rows = [(1, 1, 1, 1)]
    for _ in range(MAX_REP_LEN + 1):
        prev = rows[-1]
        rows.append(
            (2 * n * prev[1],)
            + tuple((prev[run + 1] if run < 3 else 0) + new_runs * prev[1] for run in (1, 2, 3))
        )
    first = [0, 0, 0]
    for length in range(2, MAX_REP_LEN + 1):
        first.append(first[-1] + rows[length][0])
    return letters, tuple(rows), tuple(first)


def _rank(n: int, w: Sequence[int]) -> int:
    """Shortlex rank of the stable word w (|w| >= 2) among stable words of
    length >= 2, in O(|w|): at each position, add the completions of every
    smaller letter that could stand there."""
    _, completions, first = _counts(n)
    length = len(w)
    r = first[length]
    last = 2 * n  # key of the previous letter; none before the first
    run = 0
    for p, c in enumerate(w):
        key = letter_key(c)
        row = completions[length - p - 1]
        # A smaller letter other than the previous one and its inverse
        # (key last ^ 1) starts a new run; the previous one continues its
        # run if the run is short.
        r += (key - (last < key) - ((last ^ 1) < key)) * row[1]
        if last < key and run < 3:
            r += row[run + 1]
        run = run + 1 if key == last else 1
        last = key
    return r


def _unrank(n: int, r: int) -> Word:
    """The stable word of rank r, 0 <= r < first[MAX_REP_LEN + 1]: the
    walk of ``_rank`` in reverse."""
    letters, completions, first = _counts(n)
    length = 2
    while first[length + 1] <= r:
        length += 1
    r -= first[length]
    w: List[int] = []
    last, run = 0, 0
    for p in range(length):
        row = completions[length - p - 1]
        for c in letters:
            if c == -last or (c == last and run >= 3):
                continue
            size = row[run + 1] if c == last else row[1]
            if r < size:
                break
            r -= size
        run = run + 1 if c == last else 1
        last = c
        w.append(c)
    return tuple(w)


def _stable_words(letters: Sequence[int], count: int) -> List[Word]:
    """The first count stable words of length >= 2, in shortlex order.

    The words are built one length at a time, each with its state: the
    position of its last letter in ``letters`` and the length (1..3) of its
    last run.  A state indexes the one-letter tails a word in it may take,
    in shortlex order, and the states they lead to, so no word is read
    back.  Every stable word has at least 2n - 2 tails (every letter but
    its last and that letter's inverse), so need // (2n - 2) + 1 words of
    one length give the next length's first need words; on one vertex
    every length has at most two words, which need + 1 covers.
    """
    tails: List[Tuple[Word, ...]] = []
    succ: List[Tuple[int, ...]] = []
    for c in letters:
        for run in (1, 2, 3):
            # state 3 * j + run - 1: last letter letters[j], run of that length
            ok = [(j, d) for j, d in enumerate(letters) if d != -c and (d != c or run < 3)]
            tails.append(tuple((d,) for _, d in ok))
            succ.append(tuple(3 * j + (run if d == c else 0) for j, d in ok))
    fan = max(len(letters) - 2, 1)
    words: List[Word] = []
    layer = [(c,) for c in letters]
    states = list(range(0, 3 * len(letters), 3))
    while len(words) < count and layer:
        need = count - len(words)
        del layer[need // fan + 1 :], states[need // fan + 1 :]
        layer, states = (
            [w + t for w, r in zip(layer, states) for t in tails[r]],
            [s for r in states for s in succ[r]],
        )
        words += layer[:need]
    return words


def _letter_code(c: int) -> int:
    return 3 * (abs(c) - 1) + (1 if c > 0 else 2)


class CodingTable:
    """The coding of G_T: rank and unrank in closed form, with memos.

    ``code_to_word`` and ``word_to_code`` hold the largest table
    ``enumerate_to`` has returned (at first the identity alone), and only
    ``enumerate_to`` writes them: tables are prefixes of one another, so
    a longer one replaces both memos wholesale.  ``code_of`` and
    ``word_of`` read the memos and otherwise compute, never store.
    """

    def __init__(self, graph: Graph, dehn_budget: int = DEFAULT_DEHN_BUDGET):
        self.graph = graph
        self.pres = relators_from_graph(graph, dehn_budget)
        self._letters, completions, first = _counts(graph.n)
        self._reach = first[-1]  # composite codes 3 .. 3 * _reach
        # no stable word longer than MAX_REP_LEN: the group has no element
        # beyond the reach of the coding (one vertex gives Z/7)
        self._finite = completions[MAX_REP_LEN + 1][0] == 0
        self.code_to_word: Dict[int, Word] = {0: EMPTY}
        self.word_to_code: Dict[Word, int] = {EMPTY: 0}

    def _reach_error(self, code: int) -> CodingBudgetError:
        """In an infinite group, a composite code past the last
        representative of at most MAX_REP_LEN letters is assigned to an
        element the coding cannot reach."""
        return CodingBudgetError(
            "representative length MAX_REP_LEN",
            MAX_REP_LEN,
            MAX_REP_LEN + 1,
            context=f": code {code} has a representative longer than {MAX_REP_LEN} letters",
        )

    def registrable(self, code: int) -> bool:
        if code < 0:
            return False
        if code % 3:
            return (code - 1) // 3 < self.graph.n
        if code // 3 <= self._reach:  # includes code 0
            return True
        if self._finite:
            return False
        raise self._reach_error(code)

    # -- the coding proper ---------------------------------------------

    def code_of(self, w: Word) -> int:
        # A key is a stable word: its own normal form, in the alphabet and
        # 0 Dehn steps from it.  Only a tuple can be one (a list is
        # unhashable).
        if isinstance(w, tuple):
            code = self.word_to_code.get(w)
            if code is not None:
                return code
        nf = self.pres.dehn_reduce(w)
        if len(nf) > MAX_REP_LEN:
            raise CodingBudgetError(
                "representative length MAX_REP_LEN", MAX_REP_LEN, len(nf), w
            )
        if len(nf) > 1:
            return 3 * (1 + _rank(self.graph.n, nf))
        return _letter_code(nf[0]) if nf else 0

    def word_of(self, code: int) -> Word:
        w = self.code_to_word.get(code)  # code 0 is always there
        if w is not None:
            return w
        if not self.registrable(code):
            raise KeyError(f"code {code} is not assigned for this graph")
        if code % 3:
            return (gen((code - 1) // 3, 1 if code % 3 == 1 else -1),)
        return _unrank(self.graph.n, code // 3 - 1)

    def star(self, n: int, m: int) -> int:
        return self.code_of(concat(self.word_of(n), self.word_of(m)))

    def inverse_code(self, n: int) -> int:
        return self.code_of(invert_word(self.word_of(n)))

    def enumerate_to(self, max_code: int) -> List[Tuple[int, Word]]:
        """All assigned (code, representative) pairs with code <= max_code,
        in code order.  The size of the table is checked against
        MAX_ELEMENTS, and its reach against MAX_REP_LEN, before anything
        is built.

        The table is laid out in code order, never sorted: composite
        3(i + 1) follows v_i and v_i^{-1} for i < n, and the composites
        past 3n take the rest of ``_stable_words`` in turn.  A table
        longer than the memos replaces them; the word memo is keyed
        straight from the word list, so no pair is unpacked to key it.
        """
        if max_code < 0:
            return []
        n = self.graph.n
        singles = [(_letter_code(c), (c,)) for c in self._letters if _letter_code(c) <= max_code]
        composites = max_code // 3
        if self._finite:
            composites = min(composites, self._reach)
        size = 1 + len(singles) + composites
        if size > MAX_ELEMENTS:
            raise CodingBudgetError(
                "element budget MAX_ELEMENTS",
                MAX_ELEMENTS,
                size,
                context=f": codes up to {max_code}",
            )
        if composites > self._reach:
            raise self._reach_error(3 * (self._reach + 1))
        words = _stable_words(self._letters, composites)
        # one int object per code, shared by the table and both memos
        codes = list(range(3, 3 * composites + 1, 3))
        head = min(n, composites)
        table = [(0, EMPTY)]
        for i in range(head):
            table += singles[2 * i : 2 * i + 2]
            table.append((codes[i], words[i]))
        table += singles[2 * head :]
        table += zip(itertools.islice(codes, n, None), itertools.islice(words, n, None))
        if len(table) > len(self.code_to_word):
            self.code_to_word = dict(table)
            self.word_to_code = dict(zip(words, codes))
            self.word_to_code.update((w, c) for c, w in singles)
            self.word_to_code[EMPTY] = 0
        return table


# -- partial maps on codes ---------------------------------------------

PartialMap = Dict[int, int]


def validate_partial_map(s: PartialMap) -> None:
    vals = list(s.values())
    if len(set(vals)) != len(vals):
        raise MapError("partial map must be injective")
    if any(a < 0 or v < 0 for a, v in s.items()):
        raise MapError("partial map entries must be naturals")


# -- automorphism extension: checker and oracle ------------------------


class ExtensionWitness(NamedTuple):
    r: Tuple[Tuple[int, int], ...]  # vertex map i -> r(i) on coded generators
    k: int
    k_inv: int
    l: int


def default_star_conj_bound(ct: CodingTable, s: PartialMap) -> int:
    """``reduction.default_conj_bound`` of the decoded generator images."""
    return default_conj_bound(
        tuple(ct.word_of(v) for a, v in s.items() if a % 3 == 1 and ct.registrable(v))
    )


def sigma_ns_nonempty(
    ct: CodingTable,
    s: PartialMap,
    bound: Optional[int] = None,
) -> Tuple[bool, Optional[ExtensionWitness]]:
    """Decide whether some automorphism of the coded group extends s:
    ``reduction.canonical_witness`` on the decoded pairs of s.  The
    witness codes what it finds: r is rho on the generator codes in the
    domain, l = (1 - eps)/2, and only the winning conjugator is coded.
    """
    validate_partial_map(s)
    for c in itertools.chain(s.keys(), s.values()):
        if not ct.registrable(c):
            return False, None
    if bound is None:
        bound = default_star_conj_bound(ct, s)
    pairs = [(ct.word_of(c), ct.word_of(v)) for c, v in s.items()]
    found = canonical_witness(ct.pres, pairs, bound)
    if found is None:
        return False, None
    r = tuple((i, found.rho[i]) for i in sorted(c // 3 for c in s if c % 3 == 1))
    k, k_inv = ct.code_of(found.conj), ct.code_of(invert_word(found.conj))
    return True, ExtensionWitness(r, k, k_inv, (1 - found.epsilon) // 2)


def oracle_aut_extends(
    ct: CodingTable,
    s: PartialMap,
    bound: int,
) -> bool:
    """Brute-force ground truth: enumerate canonical automorphisms
    (rho in Aut(T), eps = +/-1, |t| <= bound), act on codes through the
    group itself, and test whether any action extends s."""
    validate_partial_map(s)
    for c in itertools.chain(s.keys(), s.values()):
        if not ct.registrable(c):
            return False
    for rho in automorphisms(ct.graph):
        for eps in (1, -1):
            for t in reduced_words(ct.graph.n, bound):
                theta = induced_hom(ct.graph, ct.graph, rho, eps, t)
                if all(
                    ct.code_of(apply_hom(theta, ct.word_of(c))) == v
                    for c, v in s.items()
                ):
                    return True
    return False
