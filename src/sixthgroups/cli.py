"""Command-line surface.

Exit codes: 0 computed, 1 negative answer for yes/no queries, 2 usage or
parse error, 3 budget exceeded, 4 internal error (a bug, never an
answer), 141 (128 + SIGPIPE) the reader closed stdout before the report
ended.  Reports are line oriented `key: value`.

`COMMANDS` is the one list of subcommands, with the operands each takes.
Each subcommand imports the engine modules it runs when it runs: start-up
is most of a call's time, and every imported module is compiled unless
its bytecode is cached.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import islice

from . import graphs
from .words import (
    MAX_ALPHABET_SIZE,
    BudgetError,
    InputError,
    MapError,
    content_lines,
    format_word,
    parse_natural,
    parse_word,
    read_text,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 128 + 13  # SIGPIPE, as a shell reports a process it killed


class OracleDisagreement(RuntimeError):
    """The extension checker and the brute-force oracle answered differently."""


def _load_graph(args, path: str) -> graphs.Graph:
    g = graphs.load_graph(path)
    # --oracle walks every automorphism with no budget
    cap = 8 if args.oracle else MAX_ALPHABET_SIZE
    if g.n > cap:
        command = f"{args.command} --oracle" if args.oracle else args.command
        raise graphs.GraphFormatError(f"graph has {g.n} vertices; {command} takes at most {cap}")
    return g


def _presentation(args):
    from . import reduction

    return reduction.relators_from_graph(_load_graph(args, args.graph))


def _coding_table(args):
    from . import coding

    return coding.CodingTable(_load_graph(args, args.graph))


def _verdict(out, key: str, ok: bool) -> int:
    """Report the answer to a yes/no query as ``key: true|false``; its
    exit code."""
    out(f"{key}: {'true' if ok else 'false'}")
    return EXIT_OK if ok else EXIT_NO


def read_map(path: str) -> dict[int, int]:
    """The map file of ``aut-extend`` and ``hom-check``: lines
    ``<arg> <value>`` of naturals, each argument at most once."""
    s = {}
    for lineno, line in content_lines(read_text(path, MapError)):
        parts = line.split()
        arg, val = map(parse_natural, parts) if len(parts) == 2 else (None, None)
        if arg is None or val is None:
            raise MapError(f"line {lineno}: expected '<arg> <value>'")
        if arg in s:
            raise MapError(f"line {lineno}: duplicate argument {arg}")
        s[arg] = val
    return s


def _cmd_relators(args, out):
    from .presentation import relator_seeds

    pres = _presentation(args)
    for seed in relator_seeds(pres.graph):
        out(f"seed: {format_word(seed)}")
    out(f"symmetrized-size: {len(pres.relators.relators)}")
    return EXIT_OK


def _cmd_check_c16(args, out):
    from .presentation import check_c16, max_piece_length

    rel = _presentation(args).relators
    code = _verdict(out, "c16", check_c16(rel))
    out(f"max-piece-length: {max_piece_length(rel)}")
    return code


def _cmd_wp(args, out):
    nf = _presentation(args).dehn_reduce(parse_word(args.word))
    _verdict(out, "identity", not nf)
    out(f"normal-form: {format_word(nf)}")
    return EXIT_OK


def _cmd_order(args, out):
    from .presentation import INFINITE

    n = _presentation(args).order(parse_word(args.word))
    out(f"order: {'INFINITE' if n == INFINITE else int(n)}")
    return EXIT_OK


def _cmd_code(args, out):
    for c, w in _coding_table(args).enumerate_to(args.max_code):
        out(f"{c}: {format_word(w)}")
    return EXIT_OK


def _cmd_star_table(args, out):
    ct = _coding_table(args)
    codes = [c for c, _ in ct.enumerate_to(args.max_code)]
    out("n,m,star")
    for n in codes:
        for m in codes:
            out(f"{n},{m},{ct.star(n, m)}")
    return EXIT_OK


def _cmd_aut_extend(args, out):
    from . import coding

    ct = _coding_table(args)
    s = read_map(args.partialmap)
    coding.validate_partial_map(s)
    bound = args.conj_bound
    if bound is None:
        bound = coding.default_star_conj_bound(ct, s)
    ok, witness = coding.sigma_ns_nonempty(ct, s, bound)
    code = _verdict(out, "extends", ok)
    out(f"conj-bound: {bound}")
    if witness is not None:
        out(f"witness-r: {dict(witness.r)}")
        out(f"witness-k: {witness.k}")
        out(f"witness-k-inverse: {witness.k_inv}")
        out(f"witness-l: {witness.l}")
    if args.oracle:
        oracle = coding.oracle_aut_extends(ct, s, bound)
        _verdict(out, "oracle", oracle)
        if oracle != ok:
            out("disagreement: checker and oracle differ")
            raise OracleDisagreement(f"checker says {ok}, oracle says {oracle}")
    return code


def _cmd_vertex_map(key, args, out):
    """``embed-graph`` and ``graph-iso``: the least induced embedding of
    the first graph into the second, if there is one; for graph-iso only
    between graphs of one size and edge count, where it is an
    isomorphism."""
    from .search import vertex_maps

    t, s = _load_graph(args, args.graph_t), _load_graph(args, args.graph_s)
    f = None
    if key == "embeds" or (t.n, len(t.edges)) == (s.n, len(s.edges)):
        f = next(vertex_maps(t, s, {}), None)
    code = _verdict(out, key, f is not None)
    for i, v in enumerate(f or ()):
        out(f"{i}: {v}")
    return code


def _cmd_hom_check(args, out):
    from . import reduction

    t = _load_graph(args, args.graph_t)
    s = _load_graph(args, args.graph_s)
    mapping = read_map(args.mapfile)
    if sorted(mapping) != list(range(t.n)):
        if not t.n:
            raise MapError("mapfile must be empty: the first graph has no vertices")
        raise MapError(f"mapfile must map exactly the vertices 0..{t.n - 1}")
    gm = reduction.induced_hom(t, s, [mapping[i] for i in range(t.n)])
    p_t = reduction.relators_from_graph(t)
    p_s = reduction.relators_from_graph(s)
    ok = reduction.is_homomorphism(p_t, p_s, gm)
    code = _verdict(out, "homomorphism", ok)
    if ok:
        # proved, not sampled: a homomorphism induced by an injective
        # vertex map is injective (see reduction.is_homomorphism); the
        # key's name is part of the output format
        out("injective-up-to-3: true")
    return code


def _cmd_rado_adj(args, out):
    from . import randomgraph

    try:
        m, n = int(args.m), int(args.n)
    except ValueError:
        raise InputError("the vertices of rado-adj are integers") from None
    return _verdict(out, "adjacent", randomgraph.adjacent(m, n))


def _cmd_rado_embed(args, out):
    from . import randomgraph

    g = _load_graph(args, args.graph)
    images = randomgraph.embed_graph(g)
    for v in range(g.n):
        out(f"{v} {images[v]}")
    return EXIT_OK


def _cmd_rigid(args, out):
    from .search import vertex_maps

    g = _load_graph(args, args.graph)
    # the identity, and a second automorphism if there is one
    return _verdict(out, "rigid", len(list(islice(vertex_maps(g, g, {}), 2))) == 1)


def _cmd_tree(args, out):
    return _verdict(out, "tree", graphs.is_combinatorial_tree(_load_graph(args, args.graph)))


def _at_least(low: int):
    """An argparse type: an integer of at least low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    return integer


# Each subcommand's handler and operands; parse_args sets each operand on
# the namespace under its name, where the handler reads it.
COMMANDS = {
    "relators": (_cmd_relators, "graph"),
    "check-c16": (_cmd_check_c16, "graph"),
    "wp": (_cmd_wp, "graph word"),
    "order": (_cmd_order, "graph word"),
    "code": (_cmd_code, "graph"),
    "star-table": (_cmd_star_table, "graph"),
    "aut-extend": (_cmd_aut_extend, "graph partialmap"),
    "embed-graph": (partial(_cmd_vertex_map, "embeds"), "graph_t graph_s"),
    "graph-iso": (partial(_cmd_vertex_map, "isomorphic"), "graph_t graph_s"),
    "hom-check": (_cmd_hom_check, "graph_t graph_s mapfile"),
    "rado-adj": (_cmd_rado_adj, "m n"),
    "rado-embed": (_cmd_rado_embed, "graph"),
    "rigid": (_cmd_rigid, "graph"),
    "tree": (_cmd_tree, "graph"),
}


def parse_args(argv=None) -> argparse.Namespace:
    """The flags, command and operands of one call.  Flags may come before,
    between or after the operands; a usage error raises SystemExit."""
    parser = argparse.ArgumentParser(
        prog="sixthgroups",
        description="small-cancellation graph-group computations",
        epilog="subcommands:\n"
        + "\n".join(f"  {name} {ops.upper()}" for name, (_, ops) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--max-code", type=_at_least(1), default=500)
    parser.add_argument("--conj-bound", type=_at_least(0))
    parser.add_argument("--oracle", action="store_true", help="aut-extend only")
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="one listed below")
    parser.add_argument("operands", nargs="*")
    args = parser.parse_intermixed_args(argv)
    names = COMMANDS[args.command][1].split()
    if len(args.operands) != len(names):
        parser.error(f"{args.command} takes the operands {' '.join(names).upper()}")
    if args.oracle and args.command != "aut-extend":
        parser.error("--oracle goes only with aut-extend")
    vars(args).update(zip(names, args.operands))
    return args


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    out = partial(print, file=stdout)
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command][0](args, out)
    except BrokenPipeError:
        # Nothing more can be reported.  Point stdout at the null device so
        # that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        return EXIT_PIPE
    except (InputError, OSError) as exc:
        out(f"error: {exc}")
        return EXIT_USAGE
    except BudgetError as exc:
        out(f"budget-error: {exc}")
        return EXIT_BUDGET
    except Exception as exc:
        # imported only here: every call of the CLI would pay for it
        import traceback

        traceback.print_exc(file=sys.stderr)
        out(f"internal-error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
