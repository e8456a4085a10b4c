#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

It checks that
  - every metric BENCHMARK.json names is emitted, with its unit, and no other;
  - a forced check failure is counted in `failed` and the failed fraction;
  - every wrapped layer reports a nonzero count on each workload that
    should exercise it (which catches a missed module binding), and zero on
    the workload that bypasses it;
  - every traced span's self time is >= 0 and <= its parent's duration;
  - run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark.
The exit code is 0 only if every check passes.
"""

import json
import shutil
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def units(line):
    return {k: v["unit"] for k, v in line["metrics"].items()}


def check_workload(name, tracer, spec, expect):
    import layers
    import workloads

    def fresh():
        return workloads.WORKLOADS[name](run.ROOT, 1, tiny=True)

    line, _, _ = run.execute(fresh(), 1, 0.0, None, tiny=True)
    expect(set(line) == RESULT_KEYS, f"{name}: result keys {sorted(line)}")
    expect(line["correct"], f"{name}: untraced tiny run failed its checks")
    expect(units(line) == spec["end_to_end"],
           f"{name}: end-to-end metrics {units(line)} != {spec['end_to_end']}")

    tracer.clear()
    line, detail, sp = run.execute(fresh(), 1, 0.0, tracer, tiny=True)
    expect(line["correct"], f"{name}: traced tiny run failed: {detail['count_drift']}")
    expect(units(line) == spec["per_layer"],
           f"{name}: per-layer metrics {units(line)} != {spec['per_layer']}")
    for rec in detail["task_records"]:
        if not rec["traced"]:
            continue
        counts = rec["span_counts"]
        for span in layers.EXERCISES[name]:
            expect(counts.get(span, 0) > 0, f"{name}: no call of {span} was traced")
        for span in layers.BYPASSES.get(name, ()):
            expect(counts.get(span, 0) == 0, f"{name}: {span} was called")
    for metrics, _, on, _ in layers.METRIC_MAP:
        if name in on:
            for metric in metrics:
                value = line["metrics"].get(metric, {}).get("value", 0)
                expect(value > 0, f"{name}: {metric} is 0")

    has_parent = sp["parent"] >= 0
    expect(bool((sp["self"] >= 0).all()), f"{name}: a span has negative self time")
    expect(bool((sp["self"][has_parent] <= sp["dur"][sp["parent"][has_parent]]).all()),
           f"{name}: a span's self time exceeds its parent's duration")

    wl = fresh()
    wl.check = lambda inp, out: ["forced failure"]
    line, detail, _ = run.execute(wl, 1, 0.0, None, tiny=True)
    expect(line["failed"] == line["attempted"] >= 1 and not line["correct"]
           and detail["failed_frac"] == 1.0,
           f"{name}: forced failure not counted ({line['failed']}/{line['attempted']})")


def check_bare_directory(expect):
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "steady-64",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py exited 0 without the program's sources")
    expect(not any(l.startswith("{") for l in proc.stdout.splitlines()),
           "run.py printed a result without the program's sources")


def main():
    raw = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {kind: {m["name"]: m["unit"] for m in raw[kind]}
            for kind in ("end_to_end", "per_layer")}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    tracer = run.prepare(trace=True)
    for name in run.WORKLOAD_NAMES:
        check_workload(name, tracer, spec, expect)
    check_bare_directory(expect)
    for message in problems:
        print(f"FAIL {message}")
    print("selftest: " + ("all checks passed" if not problems
                          else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
