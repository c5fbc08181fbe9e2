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
group, cut off at MAX_REP_LEN), computed from a table of completion
counts built once per generator count.  ``_code`` codes a stable word by
one walk of the automaton, one stored transition per letter, and
``_unrank`` runs the walk in reverse.  The automaton of each generator
count is shared by every table and learns a transition when a walk
first takes it, up to MAX_TRANSITIONS.  So is the list of (code, word)
pairs ``enumerate_to`` lays tables out from, the identity's in front, so
index k holds (3k, the word of code 3k): grown in place only for a
longer table, by a build that resumes after its last word, capped at
MAX_ELEMENTS pairs over all generator counts, and its code ints taken
from one list of 0, 3, 6, ... that every count shares.
A table builds only the pairs of its generator codes and slices the
rest.  A CodingTable's one memo is its exact prefix up to the largest
table that CodingTable has returned.  No lookup writes to either: they
change speed, never answers.
A word or code whose representative would be longer than MAX_REP_LEN
letters is a budget error, never a wrong answer.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .graphs import Graph, automorphisms
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
    InputError,
    MapError,
    Word,
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


def _letter_code(c: int) -> int:
    return 3 * (abs(c) - 1) + (1 if c > 0 else 2)


# Stored transitions per automaton: all of them up to 18 generators
# (30 348 there).  Past this the automaton forgets every stored
# transition and learns again the ones it meets, so a long session of
# lookups on many generators holds a few megabytes at most.
MAX_TRANSITIONS = 1 << 15

_Transitions = Dict[int, Tuple["_Transitions", int]]


class _Automaton:
    """The stable words over n generators as a finite automaton.

    A state is the key of the last letter (2n before the first), the
    length of its run and the number of letters still to read.  It is a
    dict from each letter that may come next to (next state, the letter's
    term of the code), holding only the transitions some walk has taken:
    ``learn`` computes them, ``_code`` reads them.  A word of length L
    starts at ``starts[L]`` with code ``bases[L]``.
    """

    def __init__(self, n: int):
        _, self.completions, first = _counts(n)
        self.n = n
        self.states: Dict[Tuple[int, int, int], _Transitions] = {}
        self.stored = 0
        self.starts = [self._state(2 * n, 0, length) for length in range(MAX_REP_LEN + 1)]
        self.bases = [0, 0] + [3 * (1 + f) for f in first[2 : MAX_REP_LEN + 1]]

    def _state(self, last: int, run: int, rem: int) -> _Transitions:
        return self.states.setdefault((last, run, rem), {})

    def learn(self, w: Sequence[int]) -> Optional[int]:
        """``_code`` of w by arithmetic, storing each transition it takes.
        Each letter adds the completions of every smaller letter that
        could stand in its place."""
        length = len(w)
        state, code = self.starts[length], self.bases[length]
        last, run = 2 * self.n, 0
        for p, c in enumerate(w):
            if type(c) is not int or not 0 < abs(c) <= self.n:
                return None
            key = letter_key(c)
            if key == last ^ 1 or (key == last and run == 3):
                return None
            if length == 1:
                term = _letter_code(c)
            else:
                # A smaller letter other than the previous one and its
                # inverse (key last ^ 1) starts a new run; the previous
                # one continues its run if the run is short.
                row = self.completions[length - p - 1]
                term = (key - (last < key) - ((last ^ 1) < key)) * row[1]
                if last < key and run < 3:
                    term += row[run + 1]
                term *= 3
            run = run + 1 if key == last else 1
            last = key
            if c not in state:
                if self.stored == MAX_TRANSITIONS:
                    for s in self.states.values():
                        s.clear()
                    self.stored = 0
                self.stored += 1
                state[c] = self._state(key, run, length - p - 1), term
            state = state[c][0]
            code += term
        return code


@functools.lru_cache(maxsize=16)
def _automaton(n: int) -> _Automaton:
    return _Automaton(n)


def _code(auto: _Automaton, w: Sequence[int]) -> Optional[int]:
    """The code of w if w is a stable word of at most MAX_REP_LEN int
    letters of the alphabet, else None: one walk of the automaton, which
    adds each letter's term to the base of the word's length.  A stable
    word of at most MAX_REP_LEN letters is its own Dehn normal form."""
    length = len(w)
    if length > MAX_REP_LEN:
        return None
    state, code = auto.starts[length], auto.bases[length]
    try:
        for c in w:
            if type(c) is not int:
                return None
            state, term = state[c]
            code += term
    except KeyError:  # a transition not learnt yet, or none
        return auto.learn(w)
    return code


def _unrank(n: int, r: int) -> Word:
    """The stable word of rank r, 0 <= r < first[MAX_REP_LEN + 1]: the
    walk of ``_code`` in reverse."""
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


def _stable_words(
    letters: Sequence[int], count: int, pairs: Sequence[Tuple[int, Word]] = ((0, EMPTY),)
) -> List[Word]:
    """The stable words of ranks len(pairs) - 1 .. count - 1 among those
    of length >= 2, in shortlex order: the words after those of
    ``pairs[1:]``, which holds the (code, word) pairs of the first ranks,
    so the default gives the first count words.  ``letters`` are those
    of n generators in shortlex order, as ``_counts(n)`` gives them.

    The words are made one length at a time from their parents, the
    words one letter shorter, each with its state: the position of its
    last letter in ``letters`` and the length (1..3) of its last run.  A
    state indexes the one-letter tails a word in it may take, in shortlex
    order, and the states they lead to, so no word made here is read
    back; the state of a parent held in pairs is read from its last
    letters.  The build resumes after the last word w of pairs: the
    first length is w's, its parents are the letters or the words of w's
    prefix onward, and the tails of that prefix up to w's are dropped.
    Each later length takes its parents from the first word of the
    length before, held in pairs or made here.  Every stable word has at
    least 2n - 2 tails (every letter but its last and that letter's
    inverse), so need // (2n - 2) + 2 parents give the next need words
    of a length, one parent to spare for the prefix of w; on one vertex
    every length has at most two words, which need + 2 covers.  The
    length that covers count is cut to what is needed and gets no states.
    """
    n = len(letters) // 2
    first = _counts(n)[2]
    tails: List[Tuple[Word, ...]] = []
    succ: List[Tuple[int, ...]] = []
    for c in letters:
        for run in (1, 2, 3):
            # state 3 * j + run - 1: last letter letters[j], run of that length
            ok = [(j, d) for j, d in enumerate(letters) if d != -c and (d != c or run < 3)]
            tails.append(tuple((d,) for _, d in ok))
            succ.append(tuple(3 * j + (run if d == c else 0) for j, d in ok))

    def state(u: Word) -> int:
        c = u[-1]
        return 3 * letter_key(c) + (u[-2:] == (c, c)) + (u[-3:] == (c, c, c))

    fan = max(len(letters) - 2, 1)
    held = len(pairs) - 1
    length, start, skip = 2, 0, 0
    # the words one letter shorter made last, from rank start, and their
    # states: at first the letters
    layer = [(c,) for c in letters]
    if held:
        w = pairs[-1][1]
        length, prefix = len(w), w[:-1]
        if length == 2:
            del layer[: letter_key(w[0])]
        else:
            layer = []
            start = _code(_automaton(n), prefix) // 3 - 1
        skip = tails[state(prefix)].index(w[-1:]) + 1
    states = [state(u) for u in layer]
    words: List[Word] = []
    while len(words) < count - held and length <= MAX_REP_LEN:
        need = count - held - len(words)
        top = need // fan + 2
        # parents of ranks start .. start + top - 1: first those held in
        # pairs at index rank + 1, then those made last
        parents = [u for _, u in pairs[start + 1 : min(start + top, first[length]) + 1]]
        states = [state(u) for u in parents] + states[: top - len(parents)]
        parents += layer[: top - len(parents)]
        layer = [u + t for u, r in zip(parents, states) for t in tails[r]]
        if len(layer) - skip >= need:
            # the last length made: its first need words, and no states
            del layer[skip + need :]
        else:
            states = [s for r in states for s in succ[r]]
            del states[:skip]
        del layer[:skip]
        words += layer
        start, skip = first[length], 0
        length += 1
    return words


# The list of (code, word) pairs of each generator count, shared by every
# CodingTable, and the code ints 0, 3, 6, ... every list shares, as long
# as the longest list.
_PAIRS: Dict[int, List[Tuple[int, Word]]] = {}
_CODES: List[int] = []


def _shared_pairs(n: int, composites: int) -> List[Tuple[int, Word]]:
    """The identity's pair and at least the first composites pairs of
    stable words over n generators, so index k holds (3k, w) for the word
    w of code 3k on every graph of n vertices: the edges only pick the
    22- and 26-letter relators, whose Dehn steps need more than
    MAX_REP_LEN letters.  A list too short is grown in place: the build
    resumes after its last word, and the pairs are appended only once
    all their words are made, so a growth that raises leaves the list as
    it was.  Tables and memos hold copies of slices, never the list.
    All lists hold at most MAX_ELEMENTS pairs together, as a growth that
    would pass that empties the store first and builds from empty: what
    outlives every table is then at most one maximal table's pairs, as
    many as one live table may already hold.
    """
    pairs = _PAIRS.get(n)
    if pairs is not None and len(pairs) > composites:
        return pairs
    count = composites + 1
    if sum(map(len, _PAIRS.values())) - len(_PAIRS.get(n, ())) + count > MAX_ELEMENTS:
        _PAIRS.clear()
    pairs = _PAIRS.get(n, [(0, EMPTY)])
    words = _stable_words(_counts(n)[0], composites, pairs)
    del _CODES[max([count, *map(len, _PAIRS.values())]) :]
    _CODES.extend(range(3 * len(_CODES), 3 * count, 3))
    pairs += zip(_CODES[len(pairs) : count], words)
    _PAIRS[n] = pairs
    return pairs


class CodingTable:
    """The coding of G_T: a word's code by one walk of the stable-word
    automaton, a code's word by unrank, and a memo of the second.

    ``code_to_word`` is a list indexed by rank: index k holds the pair
    (3k, word of code 3k), so index 0 the identity's and index r + 1 that
    of the stable word of rank r.  It holds the composites of the largest
    table ``enumerate_to`` has returned (at first the identity alone),
    and only ``enumerate_to`` writes it: tables are prefixes of one
    another, so one with more composites copies its prefix of the shared
    pair list, references only.  A copy, never the list itself, so a
    later growth of the list, which appends in place, changes no memo.
    ``word_of`` reads a generator's word from a tuple indexed by code and
    a multiple of 3 from the memo's pair, and otherwise unranks, never
    stores.
    ``code_of`` needs no memo: it walks a stable word of at most
    MAX_REP_LEN int letters straight to its code and Dehn-reduces any
    other word first.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.pres = relators_from_graph(graph)
        letters, completions, first = _counts(graph.n)
        self._auto = _automaton(graph.n)
        self._reach = first[-1]  # composite codes 3 .. 3 * _reach
        # no stable word longer than MAX_REP_LEN: the group has no element
        # beyond the reach of the coding (one vertex gives Z/7)
        self._finite = completions[MAX_REP_LEN + 1][0] == 0
        # the generator words by code: slot 3i + 1 holds v_i, 3i + 2 its
        # inverse, and word_of never reads the multiples of 3
        singles: List[Optional[Word]] = [None] * (3 * graph.n)
        for c in letters:
            singles[_letter_code(c)] = (c,)
        self._singles = tuple(singles)
        self.code_to_word: List[Tuple[int, Word]] = [(0, EMPTY)]

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
        if type(code) is not int or code < 0:
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
        code = _code(self._auto, w)
        if code is not None:
            return code
        # not a stable word of int letters: Dehn's algorithm checks the
        # letters, and its normal form of at most MAX_REP_LEN letters is
        # a stable word
        nf = self.pres.dehn_reduce(w)
        if len(nf) > MAX_REP_LEN:
            raise CodingBudgetError(
                "representative length MAX_REP_LEN", MAX_REP_LEN, len(nf), w
            )
        return _code(self._auto, nf)

    def word_of(self, code: int) -> Word:
        if type(code) is int and code >= 0:  # 4.0 and True never hit
            try:
                return self._singles[code] if code % 3 else self.code_to_word[code // 3][1]
            except IndexError:  # past the generators or past the memo
                pass
        if not self.registrable(code):
            raise KeyError(f"code {code!r} is not assigned for this graph")
        return _unrank(self.graph.n, code // 3 - 1)

    def star(self, n: int, m: int) -> int:
        u, v = self.word_of(n), self.word_of(m)
        if u and v and u[-1] == -v[0]:
            # u and v are freely reduced, so letters cancel only where
            # they meet
            k, top = 1, min(len(u), len(v))
            while k < top and u[-1 - k] == -v[k]:
                k += 1
            return self.code_of(u[: len(u) - k] + v[k:])
        return self.code_of(u + v)

    def inverse_code(self, n: int) -> int:
        return self.code_of(invert_word(self.word_of(n)))

    def enumerate_to(self, max_code: int) -> List[Tuple[int, Word]]:
        """All assigned (code, representative) pairs with code <= max_code,
        in code order.  The size of the table is checked against
        MAX_ELEMENTS, and its reach against MAX_REP_LEN, before anything
        is built.

        The table is laid out in code order, never sorted, from the pair
        list every table on n vertices shares (``_shared_pairs``): only
        its head of at most 3n + 1 pairs is built, where composite
        3(i + 1) follows v_i and v_i^{-1} for i < n, and the composites
        past 3n are a slice of the shared list, so no pair or code int is
        made for them.  The list is the caller's; the pairs in it are
        shared.  A table the shared list is too short for first grows it
        in place, making only the pairs it lacks.  A table with more
        composites than the memo holds copies that prefix of the shared
        list into the memo.
        """
        if type(max_code) is not int:
            raise InputError(f"table bound {max_code!r} is not an int")
        if max_code < 0:
            return []
        n = self.graph.n
        singles = [(c, w) for c, w in enumerate(self._singles[: max_code + 1]) if c % 3]
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
        pairs = _shared_pairs(n, composites)
        head = min(n, composites)
        table = [pairs[0]]
        for i in range(head):
            table += singles[2 * i : 2 * i + 2]
            table.append(pairs[i + 1])
        table += singles[2 * head :]
        table += pairs[head + 1 : composites + 1]
        if composites >= len(self.code_to_word):
            self.code_to_word = pairs[: composites + 1]
        return table


# -- partial maps on codes ---------------------------------------------

PartialMap = Dict[int, int]


def validate_partial_map(s: PartialMap) -> None:
    vals = list(s.values())
    if len(set(vals)) != len(vals):
        raise MapError("partial map must be injective")
    if any(type(x) is not int or x < 0 for x in itertools.chain(s, vals)):
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
