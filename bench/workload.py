"""One workload in one fresh interpreter: the process that is measured.

    python bench/workload.py --workload NAME --seed N --rounds R
        --results DIR [--trace 0|1] [--mode run|setup]

The plan (every input, from the seed) is made before the set-up interval.
Set-up runs from just before the program is imported to the first timed
operation.  Each operation's inputs are materialised just before it and
its answer is checked right after it, or at the end for checks that need
sympy or networkx (imported only once peak RSS has been read), so neither
is timed.  Between operations, also outside their timing, the process
times the workload's reference (bench/reference.py), so that every wall
time can be read at the reference speed.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import reference
import spans

FAILED = object()
FLUSH_SPANS = 1 << 20  # bounds the traced run's memory


def load(name):
    return importlib.import_module(f"workload_{name}")


def reference_of(mod):
    return getattr(mod, "REFERENCE", reference.Loop)()


def timed_ops(mod, plan, state, tracer=None, run=None, ref=None):
    """Run every operation; returns (latencies, slowdowns, failed, records,
    wrong), where slowdowns[i] is the reference's time around operation i
    over its time at the reference speed."""
    run = run or mod.run
    ref = ref or reference_of(mod)
    latencies, slowdowns, records = [], [], []
    failed = wrong = 0
    before = ref.sample()
    pending = 0  # operations since the last sample
    for i, op in enumerate(plan["ops"]):
        kind = op[0]
        inp = mod.prepare(plan, state, i)
        t0 = time.perf_counter()
        try:
            out = run(state, kind, inp)
        except Exception as exc:
            out, error = FAILED, exc
        latencies.append(time.perf_counter() - t0)
        pending += 1
        # Short operations share a sample, which bounds the time spent
        # sampling.
        if sum(latencies[-pending:]) >= ref.EVERY_S or i == len(plan["ops"]) - 1:
            after = ref.sample()
            slowdowns.extend([(before + after) / 2 / ref.REFERENCE_S] * pending)
            before, pending = after, 0
        if out is FAILED:
            failed += 1
            traceback.print_exception(error, file=sys.stderr)
            continue
        if tracer is not None:
            if hasattr(mod, "after"):
                mod.after(state, kind, tracer)
            if tracer.pending() > FLUSH_SPANS:
                tracer.flush()
        if mod.CHECK_AT_END:
            records.append((i, mod.record(inp, out)))
        elif not verdict(mod.check, plan, kind, inp, out):
            wrong += 1
    return latencies, slowdowns, failed, records, wrong


def verdict(check, *args):
    """A checker that cannot read an answer counts it as wrong."""
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def check_records(mod, plan, state, records):
    """Number of wrong answers among the records kept for the end."""
    return sum(not verdict(mod.check_record, plan, state, i, rec) for i, rec in records)


def layer_metrics(tracer):
    tracer.close()
    out = {}
    for name, row in tracer.summary().items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_ms"] = row["self_ms"]
    out.update(tracer.extra)
    return out


def spans_path(args):
    """Spans of the last traced run of a workload: <path>.bin and .json."""
    os.makedirs(args.results, exist_ok=True)
    return os.path.join(args.results, f"spans-{args.workload}")


def run_in_process(args, mod, plan):
    tracer = spans.Tracer(spans_path(args)) if args.trace else None
    ref = reference_of(mod)
    before = ref.sample()
    t0 = time.perf_counter()
    if tracer is not None:
        spans.install(tracer)
    state = mod.setup(plan)
    setup_s = time.perf_counter() - t0
    setup_slowdown = (before + ref.sample()) / 2 / ref.REFERENCE_S
    if args.mode == "setup":
        return {"setup_s": setup_s, "setup_slowdown": setup_slowdown}
    latencies, slowdowns, failed, records, wrong = timed_ops(mod, plan, state, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wrong += check_records(mod, plan, state, records)
    result = {
        "setup_s": setup_s,
        "setup_slowdown": setup_slowdown,
        "latencies": latencies,
        "slowdowns": slowdowns,
        "peak_rss_kb": peak_kb,
        "failed": failed,
        "wrong": wrong,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
    return result


def run_cli(args, mod, plan):
    """Untraced: fresh processes.  Traced: cli.main in-process, untraced and
    then traced, plus bare-interpreter and import-only processes."""
    state = mod.setup(plan)
    try:
        ref = reference_of(mod)
        before = ref.sample()
        setup_s = mod.measure_setup(state)
        setup_slowdown = (before + ref.sample()) / 2 / ref.REFERENCE_S
        if args.mode == "setup":
            return {"setup_s": setup_s, "setup_slowdown": setup_slowdown}
        if not args.trace:
            latencies, slowdowns, failed, records, wrong = timed_ops(mod, plan, state)
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            wrong += check_records(mod, plan, state, records)
            return {
                "setup_s": setup_s,
                "setup_slowdown": setup_slowdown,
                "latencies": latencies,
                "slowdowns": slowdowns,
                "peak_rss_kb": peak_kb,
                "failed": failed,
                "wrong": wrong,
            }
        from sixthgroups import cli

        def in_process(state, kind, inp):
            return mod.run_in_process(cli.main, inp)

        # In-process calls run no interpreter start-up: the loop is their
        # reference.
        plain, plain_slowdowns, _, _, _ = timed_ops(
            mod, plan, state, run=in_process, ref=reference.Loop()
        )
        tracer = spans.Tracer(spans_path(args))
        spans.install(tracer)
        traced, slowdowns, failed, records, wrong = timed_ops(
            mod, plan, state, tracer, in_process, reference.Loop()
        )
        wrong += check_records(mod, plan, state, records)
        interpreter = mod.time_interpreter(state, "pass", 5)
        imported = mod.time_interpreter(state, "import sixthgroups.cli", 5)
        layers = layer_metrics(tracer)
        layers["cli.interpreter_ms"] = interpreter * 1e3
        layers["cli.import_ms"] = (imported - interpreter) * 1e3
        layers["cli.main_ms"] = statistics.median(plain) * 1e3
        return {
            "latencies": traced,
            "slowdowns": slowdowns,
            "untraced_latencies": plain,
            "untraced_slowdowns": plain_slowdowns,
            "failed": failed,
            "wrong": wrong,
            "layers": layers,
        }
    finally:
        mod.finish(state)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--results", required=True)
    args = ap.parse_args(argv)
    reference.pin()
    mod = load(args.workload)
    plan = mod.plan(args.seed, args.rounds)
    if args.workload == "cli":
        result = run_cli(args, mod, plan)
    else:
        result = run_in_process(args, mod, plan)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
