#!/usr/bin/env python3
"""nsplab benchmark: three workloads through nsplab's public Python API.

    python3 perfbench/run.py --workload evolve-32 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the repository root: nsplab is imported from ./src, and files
go under ./.perfbench-work.  Each workload runs in its own process.  After
set-up, tasks run one after another until the next one would end after
`--seconds`; every task builds fresh inputs and its result is checked.
While an untraced task runs, a speed probe samples how fast the process
runs at that moment (see `SpeedProbe`).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, measured with nothing wrapped:

    setup_s      `import nsplab` plus the workload's set-up, up to the
                 first task; the import is timed 3 times in fresh
                 interpreters and the set-up 5 times, and their medians
                 are added
    task_ref     median over tasks of the task's wall time divided by the
                 mean time of the faster half of the speed probes taken
                 during that task: the task's cost in probe units, which
                 stays put when a shared host slows the process down
    peak_rss_mb  peak resident memory of the process

The summary line above it gives the raw figures: the median wall time of
a task (`task_s`) with its quartiles and the task count, the work units
per second of task time (`work_per_s`: Lawson steps on evolve-32, curve
samples on decay-lemma44, solves on steady-64), the median probe time,
and `failed/attempted` as the failed fraction.  With `--trace 1` the tasks
alternate untraced and traced, and the metrics are the per-layer ones of
the traced tasks (see layers.py), plus `trace.overhead_frac`.  The exit
code is 0 only if every task passed its checks.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("evolve-32", "decay-lemma44", "steady-64")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBE_PERIOD_S = 0.01   # wall time between two speed probes during a task
PROBE_BRACKET = 4       # probes taken right before and right after a task
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare(trace):
    """Cap library threads at the core count, import nsplab from ./src and,
    with `trace`, install the FFT counters first and wrap the layers after.
    Returns the tracer (switched off) or None."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    src = ROOT / "src"
    if not (src / "nsplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no nsplab sources under {src}")
    if not (ROOT / "configs" / "lemma44_p1.cfg").is_file():
        raise SystemExit(f"error: {ROOT / 'configs' / 'lemma44_p1.cfg'} is missing")
    sys.path.insert(0, str(src))
    tracer = None
    if trace:
        import numpy.fft
        import scipy.fft
        from tracer import Tracer
        tracer = Tracer()
        tracer.install_fft_counters((numpy.fft, scipy.fft))
    import nsplab
    if Path(nsplab.__file__).resolve().parent != (src / "nsplab").resolve():
        raise SystemExit(f"error: imported nsplab from {nsplab.__file__}, not {src}")
    if tracer is not None:
        import layers
        tracer.wrap("nsplab", layers.TARGETS)
        tracer.off()
    return tracer


def import_times():
    """`import nsplab` timed in fresh interpreters."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import nsplab; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S while a task
    runs, from a SIGALRM handler in the task's own thread.

    A shared host changes how fast this process runs by tens of percent
    from one second to the next.  The probe runs on the same CPU at the
    same moments as the task, so it slows when the task slows, and the
    task's time over the probe's time cancels most of that swing, while a
    change to nsplab moves the task alone.  Only the faster half of the
    probe times is averaged, which skips probes slowed by the cache misses
    that follow a large array operation.  The probes take well under 1% of
    a task.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400):
            acc += (i * i) % 7
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        for _ in range(PROBE_BRACKET):
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        """Stop sampling; returns the mean of the faster half of the probe
        times."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(PROBE_BRACKET):
            self.sample()
        return statistics.fmean(sorted(self.samples)[:len(self.samples) // 2])


def run_task(wl, index, tracer, probe):
    """One task: fresh inputs, the timed call, then its checks.  A traced
    task runs without the speed probe, whose samples would land in spans."""
    cycle0 = time.perf_counter()
    inp = wl.inputs(index)
    out = error = None
    gc.collect()                    # leave no garbage from the last task
    if tracer:
        root = tracer.start_task(index)
    else:
        probe.start()
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:        # a failing task is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    task_s = time.perf_counter() - t0
    rec = {"task": index, "traced": tracer is not None, "task_s": task_s}
    if tracer:
        tracer.stop_task(root)
    else:
        rec["probe_s"] = probe.stop()
    if error is None:
        try:
            rec["failures"] = wl.check(inp, out)
        except Exception as exc:    # a check that cannot run is a failure
            rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        rec["failures"] = [error]
    rec["work"] = 0 if rec["failures"] else wl.work(inp, out)
    if tracer:
        rec["extra"] = {"spectral.fft_points": tracer.fft_points,
                        **(wl.counts(out) if error is None else {})}
    wl.cleanup(inp)
    rec["cycle_s"] = time.perf_counter() - cycle0
    return rec


def measure(wl, seconds, tracer=None):
    """Set up, then run tasks until the next one would end after `seconds`.

    With a tracer, tasks alternate untraced and traced, so one run gives
    both the per-layer numbers and the tracing overhead."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    probe = SpeedProbe()
    tasks = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(tasks) % 2 == 1
        tasks.append(run_task(wl, len(tasks), tracer if traced else None, probe))
        elapsed = time.perf_counter() - start
        cycle = statistics.median(t["cycle_s"] for t in tasks)
        if len(tasks) >= (2 if tracer else 1) and elapsed + cycle > seconds:
            return setup_times, tasks


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(imports, setup_times, tasks):
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(imports) + statistics.median(setup_times)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "task_ref": {"value": statistics.median(t["task_s"] / t["probe_s"] for t in tasks),
                     "unit": "probes"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
    }


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_per_step"):
        return "1/step"
    return "count"


def per_layer(tracer, tasks):
    """Per-layer metrics of the traced tasks; also returns the counts that
    drifted between tasks, the spans and each name's median self time."""
    import layers
    sp = tracer.spans()
    traced = [t for t in tasks if t["traced"]]
    per_task = [layers.task_metrics(sp, tracer.names, t["task"], t["extra"])
                for t in traced]
    values, drift = layers.combine(per_task)
    traced_s = statistics.median(t["task_s"] for t in traced)
    untraced_s = statistics.median(t["task_s"] for t in tasks if not t["traced"])
    values["trace.task_s"] = traced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    self_s = {}
    for i, name in enumerate(tracer.names):
        per = [float(sp["self"][(sp["name"] == i) & (sp["task"] == t["task"])].sum()) * 1e-9
               for t in traced]
        if any(per):
            self_s[name] = statistics.median(per)
    for t in traced:
        t["span_counts"] = layers.span_counts(sp, tracer.names, t["task"])
    return metrics, drift, sp, self_s


def fingerprint():
    """Hash of the program and benchmark sources, to key recorded counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cross_run_drift(key, counts):
    """Compare this run's counts with an earlier run of the same seed and
    sources in this checkout; record them if there is none."""
    path = WORK / "counts" / f"{key}.json"
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        return sorted(k for k in counts if before.get(k) != counts[k])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True), encoding="utf-8")
    return []


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def execute(wl, seed, seconds, tracer, tiny=False):
    """Measure one workload; returns (result line, detail record, spans)."""
    import layers
    imports = import_times() if tracer is None else []
    setup_times, tasks = measure(wl, seconds, tracer)
    failed = sum(1 for t in tasks if t["failures"])
    times = [t["task_s"] for t in tasks]
    q1, q3 = quartiles(times)
    detail = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": tracer is not None, "tiny": tiny, "work_unit": wl.unit,
        "environment": environment(),
        "import_s": imports, "setup_repeat_s": setup_times,
        "tasks": len(tasks), "task_s": statistics.median(times),
        "task_s_q1": q1, "task_s_q3": q3,
        "work_per_s": sum(t["work"] for t in tasks) / sum(times),
        "probe_s": statistics.median(t["probe_s"] for t in tasks if not t["traced"]),
        "failed_frac": failed / len(tasks),
    }
    drift, sp = [], None
    if tracer is None:
        metrics = end_to_end(imports, setup_times, tasks)
    else:
        metrics, drift, sp, detail["self_s"] = per_layer(tracer, tasks)
        counts = {k: m["value"] for k, m in metrics.items() if k in layers.COUNTS}
        key = f"{wl.name}-seed{seed}{'-tiny' if tiny else ''}-{fingerprint()}"
        drift += [f"{k} (vs an earlier run)" for k in cross_run_drift(key, counts)]
    detail["count_drift"] = drift
    detail["task_records"] = [{k: v for k, v in t.items() if k != "extra"} for t in tasks]
    line = {"correct": failed == 0 and not drift, "attempted": len(tasks),
            "failed": failed, "metrics": metrics}
    return line, detail, sp


def write_records(detail, sp, names):
    stem = f"{detail['workload']}-seed{detail['seed']}-trace{int(detail['trace'])}"
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if sp is not None:
        import numpy as np
        np.savez_compressed(out / f"{stem}-spans.npz", names=np.array(names), **sp)
    return out / f"{stem}.json"


def summary_line(line, detail):
    m = line["metrics"]
    head = (f"{detail['workload']} seed {detail['seed']}: {detail['tasks']} tasks, "
            f"failed_frac {detail['failed_frac']:.3f}, task_s {detail['task_s']:.4f} s "
            f"(quartiles {detail['task_s_q1']:.4f}..{detail['task_s_q3']:.4f}), "
            f"work_per_s {detail['work_per_s']:.6g} {detail['work_unit']}/s, "
            f"probe {detail['probe_s'] * 1e6:.2f} us")
    body = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()
                     if "." not in k or k.startswith(("trace.", "spectral.fft_calls")))
    return f"{head}; {body}"


def run_all(args):
    """Every workload in its own process, one summary line each."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(lines[0] if lines else f"{name}: no result")
        ok = ok and proc.returncode == 0
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tracer = prepare(args.trace)
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    line, detail, sp = execute(wl, args.seed, args.seconds, tracer)
    path = write_records(detail, sp, tracer.names if tracer else [])
    failures = [f for t in detail["task_records"] for f in t["failures"]]
    for failure in sorted(set(failures)):
        print(f"{failures.count(failure)} task(s): {failure}", file=sys.stderr)
    for key in detail["count_drift"]:
        print(f"count drift: {key}", file=sys.stderr)
    print(summary_line(line, detail))
    print("environment: " + json.dumps(detail["environment"]))
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
