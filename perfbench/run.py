#!/usr/bin/env python3
"""Layered benchmark of the flatunitary engine.

One workload, measured in this process:

    python3 perfbench/run.py --workload ratfun-quintic --seed 1 --seconds 32 --trace 0

Every workload, each in its own fresh process, untraced and then traced,
with a table of every metric and the tracing overhead:

    python3 perfbench/run.py --seed 1

Run from the root of a source tree; the library is imported from src/.
A run repeats set-up (a fresh import plus input generation) and a pass
over the workload's inputs until the next pass would end after
--seconds, and checks every output. It prints the metrics of
BENCHMARK.json: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics from spans around the library's entry points. The
last line of standard output is the result object; the line before it
holds the machine description and the raw pass and set-up times. The
exit code is 0 only when every output was correct.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

sys.path.insert(0, HERE)

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_library():
    """Import flatunitary from src/ afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "flatunitary" or n.startswith("flatunitary.")]:
        del sys.modules[name]
    fu = importlib.import_module("flatunitary")
    if not os.path.abspath(fu.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"flatunitary imported from {fu.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        fu=fu,
        cli=importlib.import_module("flatunitary.cli"),
        kernels=importlib.import_module("flatunitary._kernels"),
    )


def machine(lib, seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "backend": lib.kernels.BACKEND,
        "seed": seed,
    }


def measure(name, seed, seconds, trace):
    """Repeat set-up and pass until the next pass would end after `seconds`."""
    setup, run_pass, check = WORKLOADS[name]
    setup_times, walls, op_walls, op_cpus, tracers, layer_passes = [], [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # drop the previous pass's library and results, so that each pass
        # starts from the same heap
        gc.collect()
        # set-up is repeated before every pass, so that its samples spread
        # over the run; the pass uses the library of the last one
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            lib = import_library()
            inputs = setup(lib, seed)
            setup_times.append(time.perf_counter() - t)
        if trace:
            tracer = Tracer(pass_index=len(walls))
            tracer.install(layers.entries(lib))
            tracer.enabled = True
        t = time.perf_counter()
        records = run_pass(lib, inputs)
        walls.append(time.perf_counter() - t)
        if trace:
            tracer.enabled = False
            tracers.append(tracer)
            layer_passes.append(layers.pass_metrics(tracer))
        op_walls.append([r[-2] for r in records])
        op_cpus.append([r[-1] for r in records])
        attempted += len(records)
        failed += check(lib, inputs, records)
        if time.perf_counter() - started + max(walls) > seconds:
            break

    # the machine's speed drifts while a run lasts, and drift only ever
    # slows an operation down: each operation counts with its fastest
    # repeat in this run, and a pass is the sum of those
    best_wall = sum(min(op) for op in zip(*op_walls))
    if not trace:
        metrics = {
            "wall_s": best_wall,
            "cpu_s": sum(min(op) for op in zip(*op_cpus)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # counts come from the first pass; times are medians over passes
        metrics = {
            key: (
                value
                if layers.is_count(key) or key.endswith("_ratio")
                else statistics.median(p[key] for p in layer_passes)
            )
            for key, value in layer_passes[0].items()
        }
        metrics["trace.wall_s"] = best_wall
    detail = {
        "workload": name,
        "trace": trace,
        "machine": machine(lib, seed),
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_samples_s": setup_times,
        "failed_ratio": failed / attempted,
    }
    if trace:
        detail["bindings"] = tracers[0].bindings
        detail["trace_file"] = write_trace(tracers, name, seed, detail, layer_passes)
    return attempted, failed, metrics, detail


def write_trace(tracers, name, seed, detail, layer_passes):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        head = {k: detail[k] for k in ("workload", "machine", "passes", "bindings")}
        fh.write(json.dumps(head) + "\n")
        for tracer, per_layer in zip(tracers, layer_passes):
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"pass": tracer.pass_index, "metrics": per_layer}) + "\n")
    return os.path.relpath(path, ROOT)


def run_one(args, spec):
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed, values, detail = measure(
        args.workload, args.seed, args.seconds, args.trace
    )
    names = [m["name"] for m in metric_specs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) ^ set(values))
        print(f"perfbench: metrics do not match BENCHMARK.json: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args, spec):
    """Each workload in a fresh process, untraced then traced."""
    script = os.path.abspath(__file__)
    code = 0
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, script, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            if proc.returncode != 0:
                print(f"perfbench: {name} (trace {trace}) exited {proc.returncode}", file=sys.stderr)
                code = 1
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                continue
            summary.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
            print(f"== {name}  trace={trace}  attempted={result['attempted']}  "
                  f"failed={result['failed']}  "
                  f"failed_ratio={result['failed'] / result['attempted']:.4f}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']}")
        runs = summary.get(name, {})
        if len(runs) == 2:
            overhead = (runs["per_layer"]["metrics"]["trace.wall_s"]["value"]
                        - runs["end_to_end"]["metrics"]["wall_s"]["value"])
            print(f"  {'tracing overhead (trace.wall_s - wall_s)':42s} {overhead:>14.6g} s")
    attempted = sum(r["attempted"] for runs in summary.values() for r in runs.values())
    failed = sum(r["failed"] for runs in summary.values() for r in runs.values())
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "workloads": summary}))
    return code or (1 if failed else 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatunitary", "__init__.py")):
        print(f"perfbench: no flatunitary sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
