"""Benchmark of the sixthgroups engine: four seeded workloads, each run in
fresh single-threaded interpreters, one at a time.

    python3 bench/run.py --workload groups|coding|rado|cli|all \
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 runs the same work
untraced and traced and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import workload

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("groups", "coding", "rado", "cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_TIMED = (
    "words.reduce_word",
    "presentation.build",
    "presentation.dehn_reduce",
    "presentation.order",
    "presentation.cyclic_dehn_reduce",
    "presentation.equal",
    "reduction.aut_canonical_check",
    "reduction.is_homomorphism",
    "graphs.automorphisms",
    "coding.enumerate_to",
    "coding.code_of",
    "coding.word_of",
    "coding.star",
    "coding.sigma_ns_nonempty",
    "randomgraph.nth_prime",
    "randomgraph.prime_factors",
    "randomgraph.prime_index",
    "randomgraph.extension_witness",
    "randomgraph.embed_graph",
)
PER_LAYER = tuple(
    [(f"{layer}.{m}", u) for layer in _TIMED for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("presentation.dehn_reduce.letters_in", "count"),
        ("reduction.aut_canonical_check.found", "count"),
        ("coding.registered", "count"),
        ("coding.sigma_ns_nonempty.accepted", "count"),
        ("randomgraph.max_vertex", "count"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("machine.slowdown", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
)


def rounds_for(name, seconds):
    """The work of a run: whole rounds, fixed by the run length, never cut
    short by a clock.  Every run of a workload has at least 100 operations."""
    mod = workload.load(name)
    least = math.ceil(100 / mod.OPS_PER_ROUND)
    return max(least, round(seconds * mod.ROUNDS_PER_SECOND))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(name, seed, rounds, trace=0, mode="run"):
    cmd = [
        sys.executable, os.path.join(BENCH, "workload.py"),
        "--workload", name, "--seed", str(seed), "--rounds", str(rounds),
        "--trace", str(trace), "--mode", mode, "--results", RESULTS,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {name} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference(times, slowdowns):
    """Wall times at the reference speed (bench/reference.py)."""
    return [t / s for t, s in zip(times, slowdowns)]


def setup_at_reference(result):
    return result["setup_s"] / result["setup_slowdown"]


def end_to_end(name, seed, rounds):
    main = child(name, seed, rounds)
    setups = [setup_at_reference(main)] + [
        setup_at_reference(child(name, seed, rounds, mode="setup"))
        for _ in range(SETUP_SAMPLES - 1)
    ]
    lat = at_reference(main["latencies"], main["slowdowns"])
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return main, metrics


def per_layer(name, seed, rounds):
    if name == "cli":
        traced = child(name, seed, rounds, trace=1)
        base = sum(at_reference(traced["untraced_latencies"], traced["untraced_slowdowns"]))
    else:
        plain = child(name, seed, rounds)
        base = sum(at_reference(plain["latencies"], plain["slowdowns"]))
        traced = child(name, seed, rounds, trace=1)
    layers = dict(traced["layers"])
    layers["machine.slowdown"] = statistics.median(traced["slowdowns"])
    overhead = sum(at_reference(traced["latencies"], traced["slowdowns"])) / base - 1
    layers["trace.overhead_pct"] = overhead * 100
    metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER}
    return traced, metrics


def run_workload(name, seed, seconds, trace, rounds=None):
    rounds = rounds or rounds_for(name, seconds)
    main, metrics = (per_layer if trace else end_to_end)(name, seed, rounds)
    attempted = len(main["latencies"])
    failed = main["failed"] + main["wrong"]
    return {
        "correct": main["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="override the work of a run")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sixthgroups", "__init__.py")):
        sys.exit(f"no program source under {os.path.join(ROOT, 'src')}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.rounds)
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {str(res['correct']).lower()}")
        for key, m in res["metrics"].items():
            print(f"  {key}: {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
