import argparse
import io
import itertools
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sixthgroups
from sixthgroups import coding, graphs, presentation, randomgraph, reduction, search
from sixthgroups.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    main,
    read_map,
)
from sixthgroups.words import BudgetError, InputError, MapError, WordFormatError, power

K2_TEXT = "n 2\ne 0 1\n"
E2_TEXT = "n 2\n"
P3_TEXT = "n 3\ne 0 1\ne 1 2\n"


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


@pytest.fixture
def k2(tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text(K2_TEXT)
    return str(p)


@pytest.fixture
def p3(tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text(P3_TEXT)
    return str(p)


@pytest.mark.parametrize("flag", ["--max-code=0", "--conj-bound=-1"])
def test_flags_out_of_range_are_usage_errors(k2, tmp_path, flag):
    # a negative --conj-bound leaves no conjugator to try, which must not
    # read as an answer
    mapfile = tmp_path / "id.map"
    mapfile.write_text("1 1\n")
    for argv in ([flag, "aut-extend", k2, str(mapfile)], ["aut-extend", flag, k2, str(mapfile)]):
        assert run(*argv) == (EXIT_USAGE, "")


def test_relators(k2):
    code, out = run("relators", k2)
    assert code == EXIT_OK
    assert "seed: g0 g0 g0 g0 g0 g0 g0" in out
    assert "symmetrized-size: 8" in out


def test_check_c16(k2):
    code, out = run("check-c16", k2)
    assert code == EXIT_OK
    assert "c16: true" in out
    assert "max-piece-length: 1" in out


def test_wp(k2):
    code, out = run("wp", k2, "g0 g0 g0 g0 g0 g0 g0")
    assert code == EXIT_OK
    assert "identity: true" in out
    code, out = run("wp", k2, "g0 g0 g0 g0")
    assert code == EXIT_OK
    assert "identity: false" in out
    assert "normal-form: G0 G0 G0" in out
    code, out = run("wp", k2, "g5 g0")
    assert code == EXIT_USAGE
    assert out.startswith("error: ") and "g5" in out and "normal-form" not in out


def test_order(k2, tmp_path):
    code, out = run("order", k2, "g0 g1")
    assert code == EXIT_OK and "order: 11" in out
    code, out = run("order", k2, "g0 g1 g1")
    assert code == EXIT_OK and "order: INFINITE" in out
    e2 = tmp_path / "e2.graph"
    e2.write_text(E2_TEXT)
    code, out = run("order", str(e2), "g0 g1")
    assert code == EXIT_OK and "order: 13" in out
    code, out = run("order", k2, "g5")
    assert code == EXIT_USAGE
    assert out.splitlines() == ["error: letter g5 is outside the alphabet g0..g1 of size 2"]


def test_code_listing(k2):
    code, out = run("--max-code", "6", "code", k2)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "0: e",
        "1: g0",
        "2: G0",
        "3: g0 g0",
        "4: g1",
        "5: G1",
        "6: g0 g1",
    ]


def test_star_table(k2):
    code, out = run("--max-code", "2", "star-table", k2)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,m,star"
    assert "1,1,3" in lines
    assert "1,2,0" in lines
    assert len(lines) == 1 + 9


def test_aut_extend(k2, tmp_path):
    sfile = tmp_path / "s.map"
    sfile.write_text("1 4\n")
    code, out = run("aut-extend", k2, str(sfile), "--oracle")
    assert code == EXIT_OK
    assert "extends: true" in out
    assert "oracle: true" in out
    sfile.write_text("0 1\n")
    code, out = run("aut-extend", k2, str(sfile), "--oracle")
    assert code == EXIT_NO
    assert "extends: false" in out
    assert "oracle: false" in out


def test_aut_extend_onto_the_identity(k2, tmp_path):
    # v0 -> 1 gives the default bound 0: a negative answer, not an error
    sfile = tmp_path / "s.map"
    sfile.write_text("1 0\n")
    code, out = run("aut-extend", k2, str(sfile), "--oracle")
    assert code == EXIT_NO, out
    assert out.splitlines() == ["extends: false", "conj-bound: 0", "oracle: false"]


def test_aut_extend_negative_at_long_conjugators(k2, tmp_path):
    # v0 -> v0^2 extends to no automorphism; the 11-letter images of the
    # longer conjugators used to turn that answer into a budget error
    sfile = tmp_path / "s.map"
    sfile.write_text("1 3\n")
    for bound in ("4", "5"):
        code, out = run("--conj-bound", bound, "aut-extend", k2, str(sfile))
        assert code == EXIT_NO, out
        assert "extends: false" in out


def test_embed_and_iso(k2, p3, tmp_path):
    code, out = run("embed-graph", k2, p3)
    assert code == EXIT_OK and "embeds: true" in out
    code, out = run("embed-graph", p3, k2)
    assert code == EXIT_NO and "embeds: false" in out
    code, out = run("graph-iso", k2, p3)
    assert code == EXIT_NO and "isomorphic: false" in out
    code, out = run("graph-iso", p3, p3)
    assert code == EXIT_OK and "isomorphic: true" in out


def test_hom_check(k2, p3, tmp_path):
    mapfile = tmp_path / "f.map"
    mapfile.write_text("0 0\n1 1\n")
    code, out = run("hom-check", k2, p3, str(mapfile))
    assert code == EXIT_OK
    assert "homomorphism: true" in out
    assert "injective-up-to-3: true" in out
    mapfile.write_text("0 0\n1 2\n")  # edge onto non-edge
    code, out = run("hom-check", k2, p3, str(mapfile))
    assert code == EXIT_NO
    assert "homomorphism: false" in out


def test_read_map(k2, tmp_path):
    path = tmp_path / "s.map"

    def read(text):
        path.write_text(text)
        return read_map(str(path))

    assert read("# comment\n1 4\n\n3 27\n") == {1: 4, 3: 27}
    with pytest.raises(ValueError):
        read("1 4\n1 5\n")
    with pytest.raises(ValueError):
        read("x 4\n")
    # injectivity is checked by the subcommand that reads the map
    with pytest.raises(ValueError):
        coding.validate_partial_map(read("1 4\n2 4\n"))
    code, out = run("aut-extend", k2, str(path))
    assert (code, out) == (EXIT_USAGE, "error: partial map must be injective\n")
    coding.validate_partial_map({})


@pytest.mark.parametrize(
    "text", ["0 0\n1 x\n", "0 0\n0 1\n", "0 0\n", "0 0\n1 0\n", "0 0\n1 1\n2 2\n"]
)
def test_hom_check_mapfile_errors(k2, p3, tmp_path, text):
    # a bad line, a repeated source, a missing vertex, a non-injective map
    # and a vertex outside the graph
    mapfile = tmp_path / "f.map"
    mapfile.write_text(text)
    code, out = run("hom-check", k2, p3, str(mapfile))
    assert code == EXIT_USAGE and out.startswith("error: ")


def test_rado_commands(k2, tmp_path):
    assert run("rado-adj", "2", "5") == (EXIT_OK, "adjacent: true\n")
    code, out = run("rado-adj", "4", "9")
    assert code == EXIT_NO and "adjacent: false" in out
    p3f = tmp_path / "p3.graph"
    p3f.write_text(P3_TEXT)
    code, out = run("rado-embed", str(p3f))
    assert code == EXIT_OK
    assert out.splitlines() == ["0 2", "1 5", "2 13"]


def _relator_product():
    # a product of conjugated relators of K3, longer than every relator,
    # so Dehn's algorithm resumes its scan after each of many steps
    r = random.Random(3)
    rels = ["g0 " * 7, "g0 g1 " * 11, "g1 g2 " * 11, "G2 G0 " * 11]
    conjugators = r.choices(["g0", "G1", "g2"], k=24)
    return " ".join(f"{t} {r.choice(rels)}{t.swapcase()}" for t in conjugators)


PRODUCT = _relator_product()
# one linear step and one wrap-around step, which share the budget
LINEAR_AND_WRAP = "g0 g0 g0 g2 g1 g1 g1 g1 g2 g0"
# on E3, the first wrap-around candidate, a mixed-sign alternation, is no
# step; the run g0^4 behind it is, after the linear step g2^4
BEHIND_A_CANDIDATE = "g0 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 g0 G1 G1 g2 g2 g2 g2 g0 g0"
FILES = {
    "K1": "n 1\n",
    "K2": K2_TEXT,
    "E2": E2_TEXT,
    "K3": "n 3\ne 0 1\ne 0 2\ne 1 2\n",
    "E3": "n 3\n",
    "P8": "n 8\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 7\n",
    "ID": "0 0\n1 1\n",
    "SWAP": "1 4\n4 1\n6 21\n",
}
# argv with the names of FILES for their paths, the exit code, and the
# report: all its lines, or (the number of lines, lines it contains).  No
# flag sets the Dehn step budget: an argv that starts MAX_DEHN_STEPS=<n>
# runs with presentation.MAX_DEHN_STEPS patched to n.
CLI_ANSWERS = [
    pytest.param(
        ["--conj-bound", "-1", "rado-adj", "2", "5"], EXIT_USAGE, [], id="conj-bound-negative"
    ),
    pytest.param(
        ["MAX_DEHN_STEPS=1", "wp", "E2", "g0 g0 g0 g0 g1 g1 g1 g1"],
        EXIT_BUDGET,
        ["budget-error: Dehn step budget MAX_DEHN_STEPS 1 exceeded (needs at least 2) "
         "on g0 g0 g0 g0 g1 g1 g1 g1 (8 letters)"],
        id="wp-budget",
    ),
    # the extension-witness search: the 8-vertex path ends at 99 523
    pytest.param(
        ["rado-embed", "P8"],
        EXIT_OK,
        ["0 2", "1 5", "2 13", "3 43", "4 193", "5 1181", "6 9547", "7 99523"],
        id="rado-embed-p8",
    ),
    pytest.param(["rigid", "E2"], EXIT_NO, ["rigid: false"], id="rigid-e2"),
    # K2 into K3 is an induced embedding; into E2 it sends the edge onto a
    # non-edge
    pytest.param(
        ["hom-check", "K2", "K3", "ID"],
        EXIT_OK,
        ["homomorphism: true", "injective-up-to-3: true"],
        id="hom-check-k3",
    ),
    pytest.param(
        ["hom-check", "K2", "E2", "ID"], EXIT_NO, ["homomorphism: false"], id="hom-check-e2"
    ),
    # a letter outside the alphabet at the end of a 40-letter word
    pytest.param(
        ["wp", "K2", "g0 g1 " * 19 + "g0 g5"],
        EXIT_USAGE,
        ["error: letter g5 is outside the alphabet g0..g1 of size 2"],
        id="wp-letter-outside",
    ),
    pytest.param(
        ["wp", "K3", PRODUCT], EXIT_OK, ["identity: true", "normal-form: e"], id="wp-product"
    ),
    pytest.param(["order", "K3", PRODUCT + " g0"], EXIT_OK, ["order: 7"], id="order-product"),
    pytest.param(
        ["MAX_DEHN_STEPS=1", "order", "K3", PRODUCT + " g0"],
        EXIT_BUDGET,
        ["budget-error: Dehn step budget MAX_DEHN_STEPS 1 exceeded (needs at least 2) "
         "on g0 g1 g2 g1 g2 g1 g2 g1 … (498 letters)"],
        id="order-product-budget",
    ),
    # no linear step, but one that wraps round the end of the core turns
    # it into G1 G0
    pytest.param(
        ["order", "K3", "g1 g1 g1 G0 g1 g1 g1"], EXIT_OK, ["order: 11"], id="order-wrap-around"
    ),
    pytest.param(
        ["MAX_DEHN_STEPS=1", "order", "K3", LINEAR_AND_WRAP],
        EXIT_BUDGET,
        ["budget-error: Dehn step budget MAX_DEHN_STEPS 1 exceeded (needs at least 2) "
         "on g0 g0 g0 g2 g1 g1 g1 g1 … (10 letters)"],
        id="order-linear-and-wrap-budget-1",
    ),
    pytest.param(
        ["MAX_DEHN_STEPS=2", "order", "K3", LINEAR_AND_WRAP],
        EXIT_OK,
        ["order: INFINITE"],
        id="order-linear-and-wrap-budget-2",
    ),
    pytest.param(
        ["MAX_DEHN_STEPS=1", "order", "E3", BEHIND_A_CANDIDATE],
        EXIT_BUDGET,
        ["budget-error: Dehn step budget MAX_DEHN_STEPS 1 exceeded (needs at least 2) "
         "on g0 g0 G1 g0 G1 g0 G1 g0 … (20 letters)"],
        id="order-behind-a-candidate-budget-1",
    ),
    pytest.param(
        ["MAX_DEHN_STEPS=2", "order", "E3", BEHIND_A_CANDIDATE],
        EXIT_OK,
        ["order: INFINITE"],
        id="order-behind-a-candidate-budget-2",
    ),
    # 2 relators per vertex and 4 per edge of K3
    pytest.param(
        ["relators", "K3"],
        EXIT_OK,
        [
            "seed: g0 g0 g0 g0 g0 g0 g0",
            "seed: g1 g1 g1 g1 g1 g1 g1",
            "seed: g2 g2 g2 g2 g2 g2 g2",
            "seed: g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1 g0 g1",
            "seed: g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2 g0 g2",
            "seed: g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2 g1 g2",
            "symmetrized-size: 18",
        ],
        id="relators-k3",
    ),
    pytest.param(
        ["check-c16", "K3"], EXIT_OK, ["c16: true", "max-piece-length: 1"], id="check-c16-k3"
    ),
    pytest.param(
        ["--max-code", "40", "code", "K2"],
        EXIT_OK,
        [
            "0: e", "1: g0", "2: G0", "3: g0 g0", "4: g1", "5: G1", "6: g0 g1",
            "9: g0 G1", "12: G0 G0", "15: G0 g1", "18: G0 G1", "21: g1 g0", "24: g1 G0",
            "27: g1 g1", "30: G1 g0", "33: G1 G0", "36: G1 G1", "39: g0 g0 g0",
        ],
        id="code-k2",
    ),
    # star decodes both codes, cancels where the words meet and codes the
    # product, also past the table: 7 codes give 49 products and the header
    pytest.param(
        ["--max-code", "6", "star-table", "K2"],
        EXIT_OK,
        (50, {"1,1,3", "1,2,0", "1,3,39"}),
        id="star-table-k2-6",
    ),
    # 39 is g0 g0 g0 and 12 is G0 G0: cancellation at the junction (39,2),
    # a double one (12,39), a run of six that Dehn's algorithm folds to G0
    # (39,39), and a product past the table (39,1 is g0^4 = G0 G0 G0, code
    # 66)
    pytest.param(
        ["--max-code", "40", "star-table", "K2"],
        EXIT_OK,
        (1 + 18 * 18, {"39,2,3", "12,39,1", "39,39,2", "39,1,66"}),
        id="star-table-k2-40",
    ),
    # one vertex gives Z/7, the finite branch of the coding: its 7 elements
    # are all the codes there are, and 49 products
    pytest.param(
        ["--max-code", "40", "code", "K1"],
        EXIT_OK,
        ["0: e", "1: g0", "2: G0", "3: g0 g0", "6: G0 G0", "9: g0 g0 g0", "12: G0 G0 G0"],
        id="code-k1",
    ),
    pytest.param(
        ["--max-code", "12", "star-table", "K1"],
        EXIT_OK,
        (50, {"9,9,2", "12,12,1"}),
        id="star-table-k1",
    ),
    # the swap of K2 extends to the map v0 -> v1, v1 -> v0, g0 g1 -> g1 g0
    pytest.param(
        ["aut-extend", "K2", "SWAP"],
        EXIT_OK,
        [
            "extends: true",
            "conj-bound: 0",
            "witness-r: {0: 1, 1: 0}",
            "witness-k: 0",
            "witness-k-inverse: 0",
            "witness-l: 0",
        ],
        id="aut-extend-swap",
    ),
]


@pytest.mark.parametrize("argv, code, report", CLI_ANSWERS)
def test_cli_answers(tmp_path, monkeypatch, argv, code, report):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    if argv[0].startswith("MAX_DEHN_STEPS="):
        monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", int(argv[0].split("=")[1]))
        argv = argv[1:]
    got, out = run(*(str(tmp_path / a) if a in FILES else a for a in argv))
    assert got == code, out
    if isinstance(report, list):
        assert out == "".join(line + "\n" for line in report)
    else:
        count, lines = report
        assert len(out.splitlines()) == count
        assert lines <= set(out.splitlines())


def test_runs_without_numpy():
    # A fresh interpreter in which every import of numpy fails.
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from sixthgroups import cli\n"
        "sys.exit(cli.main(['rado-adj', '2', '5']))\n"
    )
    src = os.path.dirname(os.path.dirname(sixthgroups.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "adjacent: true" in proc.stdout


def test_closed_stdout_pipe_exits_quietly(k2):
    # the reader takes the first line and closes the pipe; the table's
    # 130 kB fill the pipe, so the writer meets the closed end
    src = os.path.dirname(os.path.dirname(sixthgroups.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sixthgroups.cli", "--max-code", "300", "star-table", k2],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,m,star\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == EXIT_PIPE == 141


_GROUP_MODULES = {"graphs", "words", "search", "presentation", "reduction"}


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (None, None, {"graphs", "words"}),
        (["rado-adj", "2", "5"], EXIT_OK, {"cli", "graphs", "words", "randomgraph"}),
        (["rigid", "K2"], EXIT_NO, {"cli", "graphs", "words", "search"}),
        (["wp", "K2", "g0 g1 G0 G1"], EXIT_OK, {"cli", *_GROUP_MODULES}),
        (["hom-check", "K2", "K2", "MAP"], EXIT_OK, {"cli", *_GROUP_MODULES}),
    ],
    ids=["import", "rado-adj", "rigid", "wp", "hom-check"],
)
def test_subcommands_import_only_what_they_run(argv, code, modules, k2, tmp_path):
    # In a fresh interpreter: the modules that importing the package, or
    # importing the CLI and running one subcommand, add to those loaded
    # before, whatever site preloads.
    mapfile = tmp_path / "id.map"
    mapfile.write_text("0 0\n1 1\n")
    if argv is None:
        call = "import sixthgroups\ncode = None\n"
    else:
        argv = [{"K2": k2, "MAP": str(mapfile)}.get(a, a) for a in argv]
        call = f"from sixthgroups import cli\ncode = cli.main({argv!r}, stdout=io.StringIO())\n"
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        f"{call}"
        "print(code, *sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(sixthgroups.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    got, *loaded = proc.stdout.split()
    assert got == str(code)
    assert "sixthgroups" in loaded and "dataclasses" not in loaded
    assert {m[len("sixthgroups."):] for m in loaded if m.startswith("sixthgroups.")} == modules


def test_rigid_and_tree(k2, p3):
    code, out = run("rigid", k2)
    assert code == EXIT_NO and "rigid: false" in out
    code, out = run("tree", p3)
    assert code == EXIT_OK and "tree: true" in out
    code, out = run("tree", k2)
    assert code == EXIT_OK


def test_trivial_group(tmp_path):
    # the graph with no vertices, end to end
    g0 = tmp_path / "g0.graph"
    g0.write_text("n 0\n")
    empty = tmp_path / "empty.map"
    empty.write_text("")
    g = str(g0)
    assert run("code", g) == (EXIT_OK, "0: e\n")
    assert run("star-table", g) == (EXIT_OK, "n,m,star\n0,0,0\n")
    extends = ["extends: true", "conj-bound: 0", "witness-r: {}"]
    extends += ["witness-k: 0", "witness-k-inverse: 0", "witness-l: 0"]
    assert run("aut-extend", g, str(empty)) == (EXIT_OK, "\n".join(extends) + "\n")
    assert run("order", g, "e") == (EXIT_OK, "order: 1\n")
    assert run("relators", g) == (EXIT_OK, "symmetrized-size: 0\n")
    assert run("check-c16", g) == (EXIT_OK, "c16: true\nmax-piece-length: 0\n")
    assert run("rigid", g) == (EXIT_OK, "rigid: true\n")
    assert run("tree", g) == (EXIT_NO, "tree: false\n")
    assert run("rado-embed", g) == (EXIT_OK, "")
    assert run("hom-check", g, g, str(empty)) == (
        EXIT_OK,
        "homomorphism: true\ninjective-up-to-3: true\n",
    )
    # a map for the vertices of a graph that has none
    onefour = tmp_path / "onefour.map"
    onefour.write_text("1 4\n")
    assert run("hom-check", g, g, str(onefour)) == (
        EXIT_USAGE,
        "error: mapfile must be empty: the first graph has no vertices\n",
    )


def test_usage_errors(k2, tmp_path):
    code, out = run("wp", k2, "bad token")
    assert code == EXIT_USAGE and "error:" in out
    bad = tmp_path / "bad.graph"
    bad.write_text("e 0 1\n")
    code, out = run("wp", str(bad), "g0")
    assert code == EXIT_USAGE
    code, _ = run("no-such-command")
    assert code == EXIT_USAGE
    code, out = run("wp", str(tmp_path / "missing.graph"), "g0")
    assert code == EXIT_USAGE
    # 9 vertices are in reach of Dehn's algorithm with no flag, and no
    # flag lifts the cap of 127
    big = tmp_path / "big.graph"
    big.write_text("n 9\n")
    assert run("wp", str(big), "g8 g0") == (EXIT_OK, "identity: false\nnormal-form: g8 g0\n")
    big.write_text("n 128\n")
    assert run("wp", str(big), "g0") == (
        EXIT_USAGE,
        "error: graph has 128 vertices; wp takes at most 127\n",
    )
    assert run("--max-n", "128", "wp", str(big), "g0") == (EXIT_USAGE, "")


# one small valid call of each subcommand, with the names of CALL_FILES
# for their paths
CALL_FILES = {"K2": K2_TEXT, "P3": P3_TEXT, "ID": "0 0\n1 1\n", "SWAP": "1 4\n4 1\n"}
CALLS = {
    "relators": ["K2"],
    "check-c16": ["K2"],
    "wp": ["K2", "g0 g1"],
    "order": ["K2", "g0 g1"],
    "code": ["K2"],
    "star-table": ["K2"],
    "aut-extend": ["K2", "SWAP"],
    "embed-graph": ["K2", "P3"],
    "graph-iso": ["K2", "P3"],
    "hom-check": ["K2", "P3", "ID"],
    "rado-adj": ["2", "5"],
    "rado-embed": ["P3"],
    "rigid": ["K2"],
    "tree": ["P3"],
}


def _call(tmp_path, command):
    for name, text in CALL_FILES.items():
        (tmp_path / name).write_text(text)
    return [command, *(str(tmp_path / a) if a in CALL_FILES else a for a in CALLS[command])]


def _refuse(*args, **kwargs):
    raise AssertionError("a graph above its cap reached the engine")


@pytest.mark.parametrize("command", [c for c in CALLS if c != "rado-adj"])
def test_graphs_above_their_cap_are_refused(tmp_path, monkeypatch, command):
    # every graph above 127 vertices, and above 8 for aut-extend --oracle,
    # whose oracle walks every automorphism with no budget, is refused
    # before the engine sees it.  The oracle's walk starts in permutations.
    for module, name in [
        (graphs, "is_rigid"),
        (graphs, "graph_iso"),
        (graphs, "induced_embeds"),
        (search, "vertex_maps"),
        (itertools, "permutations"),
        (graphs, "is_combinatorial_tree"),
        (reduction, "relators_from_graph"),
        (coding, "CodingTable"),
        (randomgraph, "embed_graph"),
    ]:
        monkeypatch.setattr(module, name, _refuse)
    argv = _call(tmp_path, command)
    big = tmp_path / "big.graph"
    cases = [(128, [], command, 127)]
    if command == "aut-extend":
        cases.append((9, ["--oracle"], "aut-extend --oracle", 8))
    for n, flags, what, cap in cases:
        big.write_text(f"n {n}\n")
        # the large graph in each graph operand's place in turn
        for i in [i for i, a in enumerate(argv) if a.endswith(("K2", "P3"))]:
            assert run(*argv[:i], str(big), *argv[i + 1 :], *flags) == (
                EXIT_USAGE,
                f"error: graph has {n} vertices; {what} takes at most {cap}\n",
            )


def _g127(tmp_path):
    """G(127, 1/2) at seed 2 and a relabelling of it, written to tmp_path
    as G and H."""
    n = 127
    rng = random.Random(2)
    g = graphs.graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
    perm = rng.sample(range(n), n)
    h = graphs.graph(n, [(perm[i], perm[j]) for i, j in g.edges])
    (tmp_path / "G").write_text(graphs.format_graph(g))
    (tmp_path / "H").write_text(graphs.format_graph(h))
    return g, h


def test_graph_subcommands_answer_on_127_vertices(tmp_path):
    # G(127, 1/2), with the empty graph for rado-embed, whose images on
    # denser graphs outgrow the prime budget, and the path for tree; the
    # walks against a relabelling H of G, and aut-extend on the identity
    # map of every generator code.  The thirteen calls took 1.6-2.3 s in
    # all on 2 vCPUs.
    g, h = _g127(tmp_path)
    n = g.n
    files = {
        "E": f"n {n}\n",
        "P": graphs.format_graph(graphs.graph(n, [(i, i + 1) for i in range(n - 1)])),
        "ID": "".join(f"{i} {i}\n" for i in range(n)),
        "GENS": "".join(f"{3 * i + 1} {3 * i + 1}\n" for i in range(n)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = {"G", "H", *files}
    calls = {
        "relators": ["G"],
        "check-c16": ["G"],
        "wp": ["G", " ".join(["g126"] * 7)],
        "order": ["G", "g0 g126"],
        "code": ["G", "--max-code", "12"],
        "star-table": ["G", "--max-code", "12"],
        "hom-check": ["G", "G", "ID"],
        "rado-embed": ["E"],
        "tree": ["P"],
        "rigid": ["G"],
        "graph-iso": ["G", "H"],
        "embed-graph": ["G", "H"],
        "aut-extend": ["G", "GENS"],
    }
    start = time.perf_counter()
    answers = {
        command: run(command, *(str(tmp_path / a) if a in paths else a for a in operands))
        for command, operands in calls.items()
    }
    assert time.perf_counter() - start < 15
    assert {command: code for command, (code, _) in answers.items()} == dict.fromkeys(calls, 0)
    lines = {command: out.splitlines() for command, (_, out) in answers.items()}
    # a seed per generator and per pair of generators
    assert len(lines["relators"]) == 1 + n + n * (n - 1) // 2
    assert lines["relators"][-1].startswith("symmetrized-size: ")
    assert lines["check-c16"] == ["c16: true", "max-piece-length: 1"]
    assert lines["wp"] == ["identity: true", "normal-form: e"]
    assert lines["order"] == [f"order: {11 if g.adj(0, n - 1) else 13}"]
    assert [line.split(":")[0] for line in lines["code"]] == [str(c) for c in range(13)]
    assert lines["star-table"][0] == "n,m,star" and len(lines["star-table"]) == 1 + 13 * 13
    assert lines["hom-check"] == ["homomorphism: true", "injective-up-to-3: true"]
    assert [line.split()[0] for line in lines["rado-embed"]] == [str(v) for v in range(n)]
    assert lines["tree"] == ["tree: true"]
    assert lines["rigid"] == ["rigid: true"]
    # G is rigid, so the one isomorphism onto H is the relabelling
    for command, key in (("graph-iso", "isomorphic"), ("embed-graph", "embeds")):
        assert lines[command][0] == f"{key}: true"
        f = [int(line.split(": ")[1]) for line in lines[command][1:]]
        assert len(set(f)) == n and all(h.adj(f[i], f[j]) for i, j in g.edges)
    assert lines["graph-iso"][1:] == lines["embed-graph"][1:]
    assert lines["aut-extend"][:2] == ["extends: true", "conj-bound: 0"]
    assert lines["aut-extend"][2] == f"witness-r: {dict((i, i) for i in range(n))}"


def test_walk_past_its_budget_exits_3(tmp_path):
    # G(127, 1/2) less its last vertex into a relabelling of G: the least
    # embedding lies past the budget of the vertex-map search, which took
    # 0.3-0.5 s to use up on 2 vCPUs
    g, _ = _g127(tmp_path)
    (tmp_path / "F").write_text(
        graphs.format_graph(graphs.graph(g.n - 1, [(i, j) for i, j in g.edges if j < g.n - 1]))
    )
    start = time.perf_counter()
    got = run("embed-graph", str(tmp_path / "F"), str(tmp_path / "H"))
    assert time.perf_counter() - start < 15
    assert got == (
        EXIT_BUDGET,
        "budget-error: vertex-map candidate budget MAX_CANDIDATES 2000000 exceeded "
        "(needs at least 2000001)\n",
    )


def test_aut_extend_tries_each_restriction_to_the_words_once(tmp_path):
    # the words of the map use only vertex 0 of the empty graph on 8
    # vertices, so one of the 5 040 automorphisms fixing 0 walks the 57 857
    # conjugators of length at most 4; a walk for each would take minutes.
    # It took 0.8-0.9 s on 2 vCPUs.
    (tmp_path / "e8").write_text("n 8\n")
    (tmp_path / "map").write_text("1 25261720641\n3 3\n")
    start = time.perf_counter()
    got = run("aut-extend", str(tmp_path / "e8"), str(tmp_path / "map"))
    assert time.perf_counter() - start < 10
    assert got == (EXIT_NO, "extends: false\nconj-bound: 4\n")


@pytest.mark.parametrize("n", [10, 127])
def test_aut_extend_lists_one_automorphism_per_restriction_to_the_words(tmp_path, n):
    # the words of the first map use only vertex 0 of the empty graph, and
    # its image is read off, so the first automorphism decides the map.
    # Listing all (n - 1)! automorphisms that fix it, to skip the repeats,
    # ran out of the vertex-map candidate budget after 0.3-0.5 s on 2 vCPUs.
    # The words of the second use vertices 0 and 9: cutting the walk after
    # vertex 9 instead of after the two of them ran out of the same budget.
    (tmp_path / "e").write_text(f"n {n}\n")
    for words in ("1 4\n3 3\n", "3 6\n28 4\n"):
        (tmp_path / "map").write_text(words)
        start = time.perf_counter()
        got = run("aut-extend", str(tmp_path / "e"), str(tmp_path / "map"))
        assert time.perf_counter() - start < 5
        assert got == (EXIT_NO, "extends: false\nconj-bound: 0\n"), words


def test_conjugator_walk_has_a_budget(k2, tmp_path):
    # 4 (rho, eps) times the 1 062 881 conjugators of length at most 12 on
    # K2 would take about a minute; the budget ran out after 2.9-4.0 s on
    # 2 vCPUs.
    (tmp_path / "map").write_text("3 6\n")
    start = time.perf_counter()
    code, out = run("--conj-bound", "12", "aut-extend", k2, str(tmp_path / "map"))
    assert time.perf_counter() - start < 20
    assert (code, out) == (
        EXIT_BUDGET,
        "budget-error: conjugator budget MAX_CONJUGATORS 250000 exceeded "
        "(needs at least 250001)\n",
    )


@pytest.mark.parametrize("command", CALLS)
def test_flags_anywhere(tmp_path, command):
    # before the subcommand, between two operands (or the subcommand and
    # its one operand), after the last operand, and as --flag=value
    argv = _call(tmp_path, command)
    flags = [("--conj-bound", "0")]
    if command in ("code", "star-table"):
        flags.append(("--max-code", "12"))
    split = [a for pair in flags for a in pair]
    joined = [f"{flag}={value}" for flag, value in flags]
    k = 1 + (len(argv) - 1) // 2
    answers = [
        run(*split, *argv),
        run(*argv[:k], *split, *argv[k:]),
        run(*argv, *split),
        run(*argv[:k], *joined, *argv[k:]),
    ]
    assert answers[0][0] in (EXIT_OK, EXIT_NO) and answers[0][1]
    assert answers == [answers[0]] * 4
    if len(flags) > 1:
        # --max-code took effect: the default 500 lists more
        assert run(*argv) != answers[0]


@pytest.mark.parametrize("command", CALLS)
def test_parse_failures_are_usage_errors(tmp_path, command):
    # one operand too few or too many, --oracle on another subcommand, and
    # an unknown flag, each wherever it stands
    argv = _call(tmp_path, command)
    bad = [argv[:-1], argv + argv[-1:], argv + ["--bogus"], ["--bogus"] + argv]
    if command != "aut-extend":
        bad += [argv + ["--oracle"], ["--oracle"] + argv]
    for call in bad:
        assert run(*call) == (EXIT_USAGE, ""), call


def test_usage_and_help(k2, capsys):
    assert run() == (EXIT_USAGE, "")
    assert run("no-such-command", k2) == (EXIT_USAGE, "")
    for argv in (["-h"], ["-h", "rigid", k2], ["rigid", k2, "-h"], ["wp", "-h"]):
        assert run(*argv) == (EXIT_OK, "")
        # the help lists each subcommand with its operands
        help_text = capsys.readouterr().out
        assert "  hom-check GRAPH_T GRAPH_S MAPFILE\n" in help_text
        assert all(f"\n  {command} " in help_text for command in CALLS)
        assert set(re.findall(r"--[a-z-]+", help_text)) == {
            "--help", "--max-code", "--conj-bound", "--oracle"
        }
    # rado-adj converts its own operands: a vertex int() does not take
    for vertex in ("x", "9" * 5000):
        code, out = run("rado-adj", "2", vertex)
        assert code == EXIT_USAGE
        assert out == "error: the vertices of rado-adj are integers\n"
    assert "Traceback" not in capsys.readouterr().err


def test_one_parser_per_call(k2, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run("--max-code", "12", "rigid", k2, "--max-code=5") == (
        EXIT_NO,
        "rigid: false\n",
    )
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [("rigid", "{dir}"), ("aut-extend", "{k2}", "{dir}"), ("hom-check", "{k2}", "{k2}", "{dir}")],
)
def test_directory_paths_are_usage_errors(k2, tmp_path, capsys, argv):
    code, out = run(*(a.format(k2=k2, dir=tmp_path) for a in argv))
    assert code == EXIT_USAGE and out.startswith("error: ")
    assert "Traceback" not in capsys.readouterr().err


def test_budget_exit(k2, monkeypatch):
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 1)
    code, out = run("wp", k2, " ".join(["g0 g1"] * 40))
    assert code == EXIT_BUDGET
    assert "budget-error:" in out
    assert "MAX_DEHN_STEPS 1 " in out and "(80 letters)" in out
    assert len(out.strip()) < 200
    # one step in each of two rounds of cyclic reduction: the budget
    # covers both
    w = "g0 g0 g1 g1 g1 g1 g0 g0"
    assert run("order", k2, w)[0] == EXIT_BUDGET
    monkeypatch.setattr(presentation, "MAX_DEHN_STEPS", 2)
    assert run("order", k2, w) == (0, "order: INFINITE\n")


def test_dehn_budget_boundary(tmp_path):
    # (g0^4 g1^4)^k on the empty graph on 2 vertices takes 2k Dehn steps,
    # each g^4 -> G^3: 5 000 blocks take the whole budget, one more block
    # is a budget error.  Each call took 0.07-0.09 s on 2 vCPUs.
    (tmp_path / "e2").write_text(E2_TEXT)
    block = "g0 g0 g0 g0 g1 g1 g1 g1"
    start = time.perf_counter()
    code, out = run("wp", str(tmp_path / "e2"), " ".join([block] * 5000))
    assert (code, out) == (
        EXIT_OK,
        "identity: false\nnormal-form: " + " ".join(["G0 G0 G0 G1 G1 G1"] * 5000) + "\n",
    )
    code, out = run("wp", str(tmp_path / "e2"), " ".join([block] * 5001))
    assert time.perf_counter() - start < 10
    assert (code, out) == (
        EXIT_BUDGET,
        "budget-error: Dehn step budget MAX_DEHN_STEPS 10000 exceeded (needs at least 10001) "
        f"on {block} … (40008 letters)\n",
    )


def test_max_code_beyond_reach_is_a_quick_budget_error(p3):
    start = time.perf_counter()
    code, out = run("--max-code", "1000000000000", "code", p3)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET
    assert out.startswith("budget-error: element budget MAX_ELEMENTS 500000 exceeded")
    assert len(out.strip()) < 200


def test_prime_index_beyond_budget_is_a_quick_budget_error():
    # nth_prime refuses the index before it sieves
    start = time.perf_counter()
    code, out = run("rado-adj", "9590650", "9590651")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (
        EXIT_BUDGET,
        "budget-error: prime index budget MAX_PRIME_INDEX 9590648 exceeded "
        "(needs at least 9590650)\n",
    )


def test_budget_errors_share_one_shape():
    # a Dehn step, a representative, a table and a prime index too many;
    # the last two requests are numbers, so no word comes with them
    k2 = graphs.graph(2, [(0, 1)])
    # (g0^4 g1^4)^5001 takes one Dehn step per g^4, two past the budget
    w, long_rep = power((1, 1, 1, 1, 2, 2, 2, 2), 5001), power((1, 2, 2), 27)
    requests = [
        (lambda: reduction.relators_from_graph(k2).dehn_reduce(w), w),
        (lambda: coding.CodingTable(k2).code_of(long_rep), long_rep),
        (lambda: coding.CodingTable(k2).enumerate_to(3 * coding.MAX_ELEMENTS), ()),
        (lambda: randomgraph.nth_prime(randomgraph.MAX_PRIME_INDEX + 1), ()),
    ]
    for call, word in requests:
        with pytest.raises(BudgetError) as info:
            call()
        e = info.value
        assert str(e).startswith(f"{e.name} {e.budget} exceeded (needs at least {e.used})")
        assert e.used > e.budget
        assert e.word == word


def test_internal_errors_exit_4(k2, tmp_path, monkeypatch, capsys):
    def broken(t, s, fixed):
        raise AssertionError("planted bug")

    monkeypatch.setattr(search, "vertex_maps", broken)
    code, out = run("rigid", k2)
    assert code == EXIT_INTERNAL
    assert out.splitlines() == ["internal-error: AssertionError: planted bug"]
    assert "Traceback" in capsys.readouterr().err
    # a checker/oracle disagreement is an internal error, not a "no"
    monkeypatch.setattr(coding, "oracle_aut_extends", lambda ct, s, bound: False)
    sfile = tmp_path / "s.map"
    sfile.write_text("1 4\n")
    code, out = run("aut-extend", k2, str(sfile), "--oracle")
    assert code == EXIT_INTERNAL
    assert "disagreement: checker and oracle differ" in out
    assert "internal-error: OracleDisagreement:" in out


def test_input_errors_are_value_errors():
    for cls in (WordFormatError, presentation.AlphabetError, graphs.GraphFormatError, MapError):
        assert issubclass(cls, InputError)
    assert issubclass(InputError, ValueError)
    # library callers still get a ValueError
    with pytest.raises(ValueError):
        randomgraph.adjacent(1, 5)
    with pytest.raises(ValueError):
        reduction.induced_hom(graphs.graph(2), graphs.graph(2), [0, 0])


@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["rado-adj", "1", "5"], None, "vertex 1 out of range: vertices start at 2"),
        (["rado-adj", "5", "5"], None, "adjacency is only defined for distinct vertices"),
        (["hom-check", "K2", "P3", "MAP"], "0 0\n1 x\n", "line 2: expected '<arg> <value>'"),
        (["hom-check", "K2", "P3", "MAP"], "0 0\n0 1\n", "line 2: duplicate argument 0"),
        (["hom-check", "K2", "P3", "MAP"], "0 0\n", "mapfile must map exactly the vertices 0..1"),
        (["hom-check", "K2", "P3", "MAP"], "0 0\n1 0\n", "mapping must be injective"),
        (["hom-check", "K2", "P3", "MAP"], "0 0\n1 7\n", "mapping target out of range"),
        (["aut-extend", "K2", "MAP"], "1 4\n2 4\n", "partial map must be injective"),
        (["aut-extend", "K2", "MAP"], "1 \u00b2\n", "line 1: expected '<arg> <value>'"),
        (["rigid", "MAP"], "n \u00b2\n", "line 1: bad n line 'n \u00b2'"),
        (["wp", "K2", "g\u00b2"], None, "bad token 'g\u00b2' (token 0)"),
        (["wp", "K2", "g" + "9" * 5000], None, None),
    ],
)
def test_input_errors_are_usage_errors(k2, p3, tmp_path, argv, text, line):
    # a superscript digit passes str.isdigit but not int(); 5 000 digits
    # are more than int() converts
    mapfile = tmp_path / "f.map"
    if text is not None:
        mapfile.write_text(text, encoding="utf-8")
    argv = [{"K2": k2, "P3": p3, "MAP": str(mapfile)}.get(a, a) for a in argv]
    code, out = run(*argv)
    assert code == EXIT_USAGE
    assert out.startswith("error: ")
    if line is not None:
        assert out.splitlines() == [f"error: {line}"]


def test_files_that_are_not_utf8_are_usage_errors(k2, tmp_path):
    junk = tmp_path / "junk"
    junk.write_bytes(b"n 2\n\xff\n")
    for argv in (["rigid", str(junk)], ["aut-extend", k2, str(junk)]):
        code, out = run(*argv)
        assert code == EXIT_USAGE
        assert out.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_value_error_inside_an_engine_call_is_internal(k2, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("planted bug")

    monkeypatch.setattr(presentation.Presentation, "dehn_reduce", broken)
    monkeypatch.setattr(randomgraph, "adjacent", broken)
    for argv in (["wp", k2, "g0"], ["rado-adj", "2", "5"]):
        code, out = run(*argv)
        assert code == EXIT_INTERNAL
        assert out.splitlines() == ["internal-error: ValueError: planted bug"]
        assert "Traceback" in capsys.readouterr().err


# -- fuzzing main: random argv and random file contents -------------------

_NUMBER = st.one_of(
    # digits to str.isdigit but not to int(), other forms int() takes, too
    # many digits for int(), and naturals in Arabic-Indic digits
    st.sampled_from(["\u00b2", "1_0", "+1", "9" * 5000, "\u0663", "x"]),
    st.integers(-1, 5).map(str),
)


def _graph_text(n, mask):
    pairs = itertools.combinations(range(n), 2)
    edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
    return graphs.format_graph(graphs.graph(n, edges))


_GRAPH = st.builds(_graph_text, st.integers(0, 4), st.integers(0, 63))
_MAP = st.one_of(
    # vertex maps for hom-check, code maps for aut-extend
    st.builds(
        lambda n, p: "".join(f"{i} {p[i]}\n" for i in range(n)),
        st.integers(0, 5),
        st.permutations(range(6)),
    ),
    st.dictionaries(st.integers(0, 40), st.integers(0, 40), max_size=4).map(
        lambda m: "".join(f"{a} {v}\n" for a, v in m.items())
    ),
)
_JUNK = st.one_of(
    st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["n", "e", "#", "x", ""]), st.lists(_NUMBER, max_size=3)
            ).map(lambda t: " ".join((t[0], *t[1]))),
            st.text(max_size=6),
        ),
        max_size=5,
    ).map("\n".join),
    st.binary(max_size=4),
)
_LETTERS = ["g0", "G0", "g1", "G1", "g2", "G3", "e"]
_WORD = st.one_of(
    st.lists(st.sampled_from(_LETTERS), max_size=30),
    st.lists(
        st.sampled_from(["g\u00b2", "g" + "9" * 5000, "g\u0663", "x", "g"] + _LETTERS),
        max_size=6,
    ),
).map(" ".join)
_VERTEX = st.one_of(st.integers(-2, 300).map(str), st.sampled_from(["x", "10" * 20]))
_OPERANDS = {
    "relators": "G",
    "check-c16": "G",
    "wp": "GW",
    "order": "GW",
    "code": "G",
    "star-table": "G",
    "aut-extend": "GM",
    "embed-graph": "GG",
    "graph-iso": "GG",
    "hom-check": "GGM",
    "rado-adj": "VV",
    "rado-embed": "G",
    "rigid": "G",
    "tree": "G",
}
_FLAG = st.sampled_from(
    ["--max-code", "--conj-bound", "--oracle", "--bogus"]
).flatmap(lambda f: st.tuples(st.just(f), st.sampled_from(["3", "40", "1", "0", "-1", "x"])))
# hypothesis favours small integers, so a middle value is a rare case
_RARELY = st.integers(0, 7).map(lambda k: k == 5)


@st.composite
def _cli_calls(draw):
    """argv for one subcommand, and the files its operands name.  Every
    call is bounded: at most 12 codes, conjugators of at most 1 letter,
    graphs of at most 5 vertices.  Some calls have a junk file, dropped
    operands or a stray flag."""
    command = draw(st.sampled_from(sorted(_OPERANDS)))
    files = {}
    operands = []
    for kind in _OPERANDS[command]:
        if kind in "GM":
            name = f"f{len(files)}"
            valid = _GRAPH if kind == "G" else _MAP
            files[name] = draw(_JUNK if draw(_RARELY) else valid)
            operands.append(name)
        else:
            operands.append(draw(_WORD if kind == "W" else _VERTEX))
    if draw(_RARELY):
        operands = draw(st.permutations(operands))[: draw(st.integers(0, len(operands)))]
    flags = [
        "--max-code", draw(st.sampled_from(["1", "6", "12"])),
        "--conj-bound", draw(st.sampled_from(["0", "1"])),
    ]
    if command == "aut-extend" and draw(st.booleans()):
        flags.append("--oracle")
    if draw(_RARELY):
        flag, value = draw(_FLAG)
        # a value may pass the bounds above only in a flag argparse rejects
        if flag == "--oracle":
            flags.append(flag)
        elif flag not in ("--max-code", "--conj-bound") or value in ("-1", "x"):
            flags += [flag, value]
    return [command, *operands, *flags], files


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(_cli_calls())
def test_main_survives_random_argv_and_files(tmp_path, call):
    argv, files = call
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out = run(*argv)
    assert code in (EXIT_OK, EXIT_NO, EXIT_USAGE, EXIT_BUDGET), out
    assert "internal-error:" not in out and "Traceback" not in out
