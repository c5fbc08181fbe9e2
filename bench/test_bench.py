"""Quick test of the benchmark itself (not part of the tier-1 suite):

    python -m pytest -q bench/test_bench.py

Every workload runs to its end at a tiny size with no failed operation, and
a deliberately wrong answer given to each workload's checker is counted as
a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workload  # noqa: E402

TINY_ROUNDS = {"groups": 1, "coding": 2, "rado": 5, "cli": 1}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_has_no_failures(name, trace):
    code, out, err = bench(
        "--workload", name, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--rounds", str(TINY_ROUNDS[name]),
    )
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [k for k, _ in expected] == list(result["metrics"])
    if trace:
        # The spans file holds one span per counted call.
        import spans

        kind, parent, start, end = spans.read(os.path.join(run.RESULTS, f"spans-{name}.bin"))
        calls = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".calls"))
        assert len(kind) == len(parent) == len(start) == len(end) == calls
        assert all(s <= e for s, e in zip(start, end))


def _wrong(name, kind, out):
    """A plausible but wrong answer for one operation."""
    if name == "groups":
        if kind == "wp":
            return (1,), out[1]
        if kind == "order":
            return 7 if out != 7 else 11
        return out[0], out[1], True
    if name == "coding":
        if kind == "enumerate":
            return out[:-1]
        if kind == "sigma":
            return [not out[0]] + out[1:]
        if kind == "lookup":
            return [out[0][0] + 3] + out[0][1:], out[1], out[2]
        return [out[0] + 3] + out[1:]
    if name == "rado":
        images, witnesses = out
        a, b, x = witnesses[0]
        return images, [(a, b, x + 1)] + witnesses[1:]
    code, stdout = out
    return code, stdout.replace("true", "false", 1) if "true" in stdout else stdout + "x\n"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_answer_is_a_failure(name):
    mod = workload.load(name)
    plan = mod.plan(5, TINY_ROUNDS[name])
    state = mod.setup(plan)
    if name == "cli":
        from sixthgroups import cli

        def honest(state, kind, inp):
            return mod.run_in_process(cli.main, inp)
    else:
        honest = mod.run
    kinds = sorted({op[0] for op in plan["ops"]})
    try:
        for planted in kinds:
            first = next(i for i, op in enumerate(plan["ops"]) if op[0] == planted)
            seen = []

            def lying(state, kind, inp):
                out = honest(state, kind, inp)
                seen.append(kind)
                return _wrong(name, kind, out) if len(seen) - 1 == first else out

            _, _, failed, records, wrong = workload.timed_ops(mod, plan, state, run=lying)
            wrong += workload.check_records(mod, plan, state, records)
            assert (failed, wrong) == (0, 1), planted
    finally:
        if hasattr(mod, "finish"):
            mod.finish(state)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_a_tree_without_the_program(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name), encoding="utf-8") as src:
                (tmp_path / "bench" / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("kind", ["Loop", "Spawn"])
def test_references_time_their_work(kind):
    import reference

    ref = getattr(reference, kind)()
    times = [ref.sample() for _ in range(3)]
    assert all(0 < t < 20 * ref.REFERENCE_S for t in times)


def test_times_are_divided_by_the_slowdown():
    assert run.at_reference([0.2, 0.3], [1.0, 1.5]) == [0.2, 0.3 / 1.5]
    assert run.setup_at_reference({"setup_s": 0.5, "setup_slowdown": 2.0}) == 0.25


def test_stable_rank_counts_every_word():
    from expect import StableWords, is_stable

    sw = StableWords(2)
    words = [w for length in (2, 3, 4) for w in sw.words_of_length(length)]
    assert all(is_stable(w) for w in words)
    assert [sw.rank(w) for w in words] == list(range(len(words)))
