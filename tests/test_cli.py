import io
import os
import subprocess
import sys
import time

import pytest

import sixthgroups
from sixthgroups import coding, graphs
from sixthgroups.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_NO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_map,
)

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


@pytest.mark.parametrize(
    "flag", ["--max-code=0", "--dehn-budget=-1", "--max-n=0", "--conj-bound=-1"]
)
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
    code, out = run("rado-adj", "2", "5")
    assert code == EXIT_OK and "adjacent: true" in out
    code, out = run("rado-adj", "4", "9")
    assert code == EXIT_NO and "adjacent: false" in out
    p3f = tmp_path / "p3.graph"
    p3f.write_text(P3_TEXT)
    code, out = run("rado-embed", str(p3f))
    assert code == EXIT_OK
    assert out.splitlines() == ["0 2", "1 5", "2 13"]


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


@pytest.mark.parametrize(
    "argv, code, unused",
    [
        (["rado-adj", "2", "5"], EXIT_OK, {"presentation", "reduction", "coding"}),
        (["rigid", "K2"], EXIT_NO, {"presentation", "reduction", "coding", "randomgraph"}),
        (["wp", "K2", "g0 g1 G0 G1"], EXIT_OK, {"coding", "randomgraph"}),
        (["hom-check", "K2", "K2", "MAP"], EXIT_OK, {"coding", "randomgraph"}),
    ],
    ids=["rado-adj", "rigid", "wp", "hom-check"],
)
def test_subcommands_import_only_what_they_run(argv, code, unused, k2, tmp_path):
    # In a fresh interpreter: the modules that importing the CLI and running
    # one subcommand add to those loaded before, whatever site preloads.
    mapfile = tmp_path / "id.map"
    mapfile.write_text("0 0\n1 1\n")
    argv = [{"K2": k2, "MAP": str(mapfile)}.get(a, a) for a in argv]
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from sixthgroups import cli\n"
        f"code = cli.main({argv!r}, stdout=io.StringIO())\n"
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
    assert int(got) == code
    assert "sixthgroups.cli" in loaded
    assert "dataclasses" not in loaded
    assert not {f"sixthgroups.{m}" for m in unused} & set(loaded), loaded


def test_rigid_and_tree(k2, p3):
    code, out = run("rigid", k2)
    assert code == EXIT_NO and "rigid: false" in out
    code, out = run("tree", p3)
    assert code == EXIT_OK and "tree: true" in out
    code, out = run("tree", k2)
    assert code == EXIT_OK


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
    big = tmp_path / "big.graph"
    big.write_text("n 9\n")
    code, out = run("wp", str(big), "g0")
    assert code == EXIT_USAGE and "max-n" in out


@pytest.mark.parametrize(
    "argv",
    [("rigid", "{dir}"), ("aut-extend", "{k2}", "{dir}"), ("hom-check", "{k2}", "{k2}", "{dir}")],
)
def test_directory_paths_are_usage_errors(k2, tmp_path, capsys, argv):
    code, out = run(*(a.format(k2=k2, dir=tmp_path) for a in argv))
    assert code == EXIT_USAGE and out.startswith("error: ")
    assert "Traceback" not in capsys.readouterr().err


def test_budget_exit(k2):
    code, out = run("--dehn-budget", "1", "wp", k2, " ".join(["g0 g1"] * 40))
    assert code == EXIT_BUDGET
    assert "budget-error:" in out
    assert "budget 1 " in out and "(80 letters)" in out
    assert len(out.strip()) < 200
    # one step in each of two rounds of cyclic reduction: the budget
    # covers both
    w = "g0 g0 g1 g1 g1 g1 g0 g0"
    assert run("--dehn-budget", "1", "order", k2, w)[0] == EXIT_BUDGET
    assert run("--dehn-budget", "2", "order", k2, w) == (0, "order: INFINITE\n")


def test_max_code_beyond_reach_is_a_quick_budget_error(p3):
    start = time.perf_counter()
    code, out = run("--max-code", "1000000000000", "code", p3)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BUDGET
    assert out.startswith("budget-error: element budget max_elements = 500000 exceeded")
    assert len(out.strip()) < 200


def test_internal_errors_exit_4(k2, tmp_path, monkeypatch, capsys):
    def broken(g):
        raise AssertionError("planted bug")

    monkeypatch.setattr(graphs, "is_rigid", broken)
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
