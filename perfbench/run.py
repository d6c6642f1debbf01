#!/usr/bin/env python3
"""Benchmark for bifree: one workload per run, every output checked.

    python3 perfbench/run.py --workload transforms --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. A run builds its seeded inputs, warms up the program, then
replays the input list in order, pass after pass, until ``--seconds`` have
passed and the current pass is complete. Between operations it collects
garbage outside the timed region. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
call into the layers is traced and the metrics are per-layer means per
operation. Result and span files go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (ROOT, SRC, WORKLOADS, child_env, run_child)  # noqa: E402

OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
INTERPRETER_SAMPLES = 5


def tail(values):
    """The highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def attempt(workload, inp, op, record):
    """Run one timed operation and check it; record (seconds, status)."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = op(inp)
    except Exception as exc:  # a failing operation is counted, not fatal
        record.append((time.perf_counter() - start, "failed", f"{type(exc).__name__}: {exc}"))
        return
    seconds = time.perf_counter() - start
    try:
        errors = workload.check(inp, out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    record.append((seconds, "wrong" if errors else "ok", "; ".join(errors[:3])))


def run_passes(workload, inputs, op, seconds):
    """Whole passes over the inputs until `seconds` have passed."""
    record = []
    start = time.perf_counter()
    while True:
        for inp in inputs:
            attempt(workload, inp, op, record)
        if time.perf_counter() - start >= seconds:
            return record


def prepare(workload, seed, work_dir):
    """Set-up as a user pays it: inputs, then a warm-up call."""
    inputs = workload.prepare(seed, work_dir)
    workload.warm_up(inputs)
    return inputs


def setup_seconds(args):
    """Median wall time of fresh processes from start to ready-to-time."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up process failed")
    return statistics.median(samples)


def interpreter_costs():
    """Median seconds for `python -c pass` and for `python -c 'import bifree'`."""
    env = child_env()
    bare, imported = [], []
    for _ in range(INTERPRETER_SAMPLES):
        bare.append(run_child([sys.executable, "-c", "pass"], OUT_DIR, env)[3])
        imported.append(run_child([sys.executable, "-c", "import bifree"], OUT_DIR, env)[3])
    return statistics.median(bare), statistics.median(imported)


def end_to_end(record, workload, setup_s):
    times = [seconds for seconds, _, _ in record]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail(times) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }


def gram_side(args, kwargs, result):
    d = args[1] if len(args) > 1 else kwargs["d"]
    return (d + 1) * (d + 2) // 2 - 1


GATES = ("levy_hincin.check_cpsd", "levy_hincin.check_cond_bounded",
         "levy_hincin.check_moment_2sequence")
TRACE_SIZES = {name: gram_side for name in GATES + ("levy_hincin.gns_reconstruct",)}
TRANSFORMS = tuple(f"cumulants.{n}" for n in (
    "moments_to_cumulants", "cumulants_to_moments", "moment_seq_to_cumulant_seq",
    "cumulant_seq_to_moment_seq", "chi_cumulant_values"))


def per_layer(tracer, commands, interpreter_s, import_s):
    """Per-operation means of the layer counters, by module name."""
    ops = max(tracer.ops, 1)
    ms = lambda seconds: seconds * 1e3 / ops
    out = {}
    for layer in ("partitions", "cumulants", "fock"):
        _, boundary, self_s, _ = tracer.totals(layer)
        out[f"{layer}.calls"] = (boundary / ops, "count")
        out[f"{layer}.self_ms"] = (ms(self_s), "ms")
    out["partitions.visited"] = (tracer.totals("partitions", (
        "partitions.enumerate_nc", "partitions.enumerate_bnc"))[3] / ops, "count")
    out["cumulants.entries"] = (tracer.totals("cumulants", TRANSFORMS)[3] / ops, "count")
    out["fock.entries"] = (tracer.totals("fock", (
        "fock.moment_table_from_model", "fock.vacuum_moment"))[3] / ops, "count")
    for layer in ("series", "convolution", "measures"):
        out[f"{layer}.self_ms"] = (ms(tracer.totals(layer)[2]), "ms")
    levy_self = tracer.totals("levy_hincin")[2]
    gates = tracer.totals("levy_hincin", GATES)[2]
    gns = tracer.totals("levy_hincin", ("levy_hincin.gns_reconstruct",))
    extract = tracer.totals("levy_hincin", ("levy_hincin.extract_levy_measures",))[2]
    out["levy_hincin.lh_ms"] = (ms(levy_self - gates - gns[2] - extract), "ms")
    out["levy_hincin.gates_ms"] = (ms(gates), "ms")
    out["levy_hincin.gns_ms"] = (ms(gns[2]), "ms")
    out["levy_hincin.extract_ms"] = (ms(extract), "ms")
    sized = tracer.totals("levy_hincin", TRACE_SIZES)
    out["levy_hincin.gram_size"] = (sized[3] / sized[1] if sized[1] else 0.0, "count")
    out["cli.interpreter_ms"] = (interpreter_s * 1e3, "ms")
    out["cli.import_ms"] = ((import_s - interpreter_s) * 1e3, "ms")
    out["cli.command_ms"] = ((statistics.mean(commands) - import_s) * 1e3 if commands else 0.0,
                             "ms")
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "bifree" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'bifree'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            prepare(workload, args.seed, work_dir)
            print("ready", flush=True)
            return 0
        return measure(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, work_dir) -> int:
    setup_s = None if args.trace else setup_seconds(args)
    inputs = prepare(workload, args.seed, work_dir)
    if args.trace:
        import bifree
        import bifree.cli  # noqa: F401  (loaded before wrapping so its names are rebound)
        from layertrace import Tracer
        interpreter_s, import_s = interpreter_costs()
        tracer = Tracer(TRACE_SIZES)
        tracer.install(bifree)
        record = run_passes(workload, inputs, lambda inp: workload.trace_op(inp, tracer),
                            args.seconds)
        metrics = per_layer(tracer, getattr(workload, "command_seconds", []),
                            interpreter_s, import_s)
    else:
        record = run_passes(workload, inputs, workload.op, args.seconds)
        metrics = end_to_end(record, workload, setup_s)

    failed = [r for r in record if r[1] != "ok"]
    correct = not any(status == "wrong" for _, status, _ in record)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": len(record), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "passes":
         len(record) // len(inputs), "op_seconds": [r[0] for r in record],
         "problems": sorted({r[2] for r in failed})}, indent=1))
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
    op_p50_ms = statistics.median(r[0] for r in record) * 1e3
    print(f"{args.workload:>15}  {len(record)} ops, {len(failed)} failed, "
          f"op median {op_p50_ms:.1f} ms{' under tracing' if args.trace else ''}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15}  {name:<24} {value:>12.4f} {unit}")
    for problem in sorted({r[2] for r in failed})[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
