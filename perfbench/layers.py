"""Which nsplab functions are traced, and how spans become per-layer metrics.

The layers are nsplab's modules.  Each target below is wrapped from the
benchmark's side (`tracer.Tracer.wrap`); nothing in the program changes.
FFTs are counted on `numpy.fft` and `scipy.fft` themselves, so a later
move from `fftn` to `rfftn`, or to `scipy.fft`, is still counted.
"""

from __future__ import annotations

import statistics

import numpy as np

# (span name, module, attribute or Class.method)
TARGETS = (
    ("spectral.transform", "nsplab.spectral", "transform"),
    ("spectral.inverse_transform", "nsplab.spectral", "inverse_transform"),
    ("spectral.dealias", "nsplab.spectral", "dealias"),
    ("spectral.sobolev_norm", "nsplab.spectral", "sobolev_norm"),
    ("spectral.grad_norm", "nsplab.spectral", "grad_norm"),
    ("spectral.lp_norm", "nsplab.spectral", "lp_norm"),
    ("thermo.h_prime", "nsplab.thermo", "PressureLaw.h_prime"),
    ("thermo.h_prime", "nsplab.thermo", "GammaLaw.h_prime"),
    ("thermo.remainder", "nsplab.thermo", "remainder"),
    ("steady.solve_steady", "nsplab.steady", "solve_steady"),
    ("steady.verify_steady", "nsplab.steady", "verify_steady"),
    ("semigroup.expm2", "nsplab.semigroup", "expm2"),
    ("semigroup.decay_curve", "nsplab.semigroup", "decay_curve"),
    ("semigroup.fit_exponent", "nsplab.semigroup", "fit_exponent"),
    ("evolution.integrator_init", "nsplab.evolution", "Integrator.__init__"),
    ("evolution.step", "nsplab.evolution", "Integrator.step"),
    ("evolution.nonlinear_terms", "nsplab.evolution", "nonlinear_terms"),
    ("evolution.evolve", "nsplab.evolution", "evolve"),
    ("pipeline.run_pipeline", "nsplab.pipeline", "run_pipeline"),
    ("pipeline.run_decay_query", "nsplab.pipeline", "run_decay_query"),
    ("pipeline.write_csv", "nsplab.pipeline", "write_csv"),
    ("config.from_file", "nsplab.config", "ExperimentConfig.from_file"),
    ("arrayio.write_field", "nsplab.arrayio", "write_field"),
)

NORMS = ("spectral.sobolev_norm", "spectral.grad_norm", "spectral.lp_norm")

# Span names each workload must reach at least once.  A target bound in
# several modules (expm2 in semigroup and evolution, inverse_transform in
# spectral, steady and evolution) shows 0 here if a binding was missed.
EXERCISES = {
    "evolve-32": ("fft", "spectral.transform", "spectral.inverse_transform",
                  "spectral.dealias", *NORMS, "thermo.h_prime",
                  "thermo.remainder", "semigroup.expm2",
                  "evolution.integrator_init", "evolution.step",
                  "evolution.nonlinear_terms", "evolution.evolve"),
    "decay-lemma44": ("semigroup.expm2", "semigroup.decay_curve",
                      "semigroup.fit_exponent", "pipeline.run_pipeline",
                      "pipeline.run_decay_query", "pipeline.write_csv",
                      "config.from_file", "thermo.h_prime"),
    "steady-64": ("fft", "spectral.transform", "spectral.inverse_transform",
                  "spectral.dealias", "spectral.sobolev_norm",
                  "spectral.lp_norm", "thermo.h_prime", "steady.solve_steady",
                  "steady.verify_steady", "arrayio.write_field"),
}

# Span names a workload must never reach: the mechanism it bypasses.
BYPASSES = {
    "decay-lemma44": ("fft", "evolution.step", "steady.solve_steady"),
    "steady-64": ("semigroup.expm2", "evolution.step"),
}

# The layer -> metric -> workload map, written before any measurement:
# (per-layer metrics, end-to-end metrics they should move, workloads they
# move on, workloads on which no change is predicted).
METRIC_MAP = (
    (("spectral.fft_calls", "spectral.fft_points", "spectral.fft_s"),
     ("task_ref",), ("evolve-32", "steady-64"), ("decay-lemma44",)),
    (("spectral.transform_calls", "spectral.inverse_transform_calls",
      "spectral.dealias_calls", "spectral.dealias_s"),
     ("task_ref",), ("evolve-32",), ("decay-lemma44",)),
    (("spectral.norm_calls", "spectral.norm_s"),
     ("task_ref",), ("evolve-32", "steady-64"), ("decay-lemma44",)),
    (("semigroup.expm2_calls", "semigroup.expm2_s", "semigroup.decay_curve_s",
      "semigroup.fit_exponent_s"),
     ("task_ref",), ("decay-lemma44",), ("steady-64",)),
    (("evolution.integrator_init_s",),
     ("task_ref",), ("evolve-32",), ("steady-64", "decay-lemma44")),
    (("evolution.steps", "evolution.step_s", "evolution.nonlinear_terms_calls",
      "evolution.nonlinear_terms_s", "evolution.fft_calls_per_step"),
     ("task_ref",), ("evolve-32",), ("steady-64", "decay-lemma44")),
    (("thermo.h_prime_calls", "thermo.remainder_calls"),
     ("task_ref",), ("evolve-32",), ("decay-lemma44",)),
    (("steady.picard_iterations", "steady.solve_s", "steady.verify_s"),
     ("task_ref", "setup_s"), ("steady-64",), ("decay-lemma44",)),
    (("pipeline.run_decay_query_s", "pipeline.write_csv_s", "config.load_s"),
     (), ("decay-lemma44",), ()),
    (("arrayio.write_field_s",), (), ("steady-64",), ()),
)

# Per-task counts that must repeat exactly across tasks and runs of a seed.
COUNTS = ("spectral.fft_calls", "spectral.fft_forward_calls",
          "spectral.fft_inverse_calls", "spectral.fft_points",
          "spectral.transform_calls", "spectral.inverse_transform_calls",
          "spectral.dealias_calls", "spectral.norm_calls",
          "semigroup.expm2_calls", "evolution.steps",
          "evolution.nonlinear_terms_calls", "evolution.fft_calls_per_step",
          "thermo.h_prime_calls", "thermo.remainder_calls",
          "steady.picard_iterations", "trace.spans")


def is_fft(name):
    return name.startswith(("numpy.fft.", "scipy.fft."))


def _group_ids(names, members):
    if members == "fft":
        return [i for i, n in enumerate(names) if is_fft(n)]
    return [i for i, n in enumerate(names) if n in members]


def task_metrics(sp, names, task, extra):
    """Per-layer metrics of one traced task.

    sp: arrays from `Tracer.spans()`; extra: counts the tracer or the
    workload measured directly (`spectral.fft_points`,
    `steady.picard_iterations`).  A group's time sums the spans whose
    parent is outside the group, so nested calls are not counted twice.
    """
    name, parent, dur = sp["name"], sp["parent"], sp["dur"]
    in_task = np.flatnonzero(sp["task"] == task)
    task_names = name[in_task]

    def group(members):
        idx = in_task[np.isin(task_names, _group_ids(names, members))]
        outer = ~np.isin(parent[idx], idx)
        return len(idx), float(dur[idx][outer].sum()) * 1e-9

    def count(members):
        return group(members)[0]

    def seconds(members):
        return group(members)[1]

    fft_ids = _group_ids(names, "fft")
    inverse = [names[i] for i in fft_ids if names[i].rsplit(".", 1)[1].startswith("i")]
    step_ids = _group_ids(names, ("evolution.step",))
    step_durs = dur[in_task[np.isin(task_names, step_ids)]] * 1e-9
    steps = len(step_durs)

    # FFTs made inside a step: walk each span's ancestry up to the task root
    inside_step = np.zeros(len(in_task), dtype=bool)
    anc = parent[in_task]
    while (live := anc >= 0).any():
        inside_step[live] |= np.isin(name[anc[live]], step_ids)
        anc[live] = parent[anc[live]]
    ffts_in_steps = int(np.count_nonzero(inside_step & np.isin(task_names, fft_ids)))

    return {
        "spectral.fft_calls": count("fft"),
        "spectral.fft_forward_calls": count("fft") - count(inverse),
        "spectral.fft_inverse_calls": count(inverse),
        "spectral.fft_points": extra["spectral.fft_points"],
        "spectral.fft_s": seconds("fft"),
        "spectral.transform_calls": count(("spectral.transform",)),
        "spectral.inverse_transform_calls": count(("spectral.inverse_transform",)),
        "spectral.dealias_calls": count(("spectral.dealias",)),
        "spectral.dealias_s": seconds(("spectral.dealias",)),
        "spectral.norm_calls": count(NORMS),
        "spectral.norm_s": seconds(NORMS),
        "semigroup.expm2_calls": count(("semigroup.expm2",)),
        "semigroup.expm2_s": seconds(("semigroup.expm2",)),
        "semigroup.decay_curve_s": seconds(("semigroup.decay_curve",)),
        "semigroup.fit_exponent_s": seconds(("semigroup.fit_exponent",)),
        "evolution.integrator_init_s": seconds(("evolution.integrator_init",)),
        "evolution.steps": steps,
        "evolution.step_s": float(np.median(step_durs)) if steps else 0.0,
        "evolution.nonlinear_terms_calls": count(("evolution.nonlinear_terms",)),
        "evolution.nonlinear_terms_s": seconds(("evolution.nonlinear_terms",)),
        "evolution.fft_calls_per_step": ffts_in_steps / steps if steps else 0.0,
        "thermo.h_prime_calls": count(("thermo.h_prime",)),
        "thermo.remainder_calls": count(("thermo.remainder",)),
        "steady.picard_iterations": extra.get("steady.picard_iterations", 0),
        "steady.solve_s": seconds(("steady.solve_steady",)),
        "steady.verify_s": seconds(("steady.verify_steady",)),
        "pipeline.run_decay_query_s": seconds(("pipeline.run_decay_query",)),
        "pipeline.write_csv_s": seconds(("pipeline.write_csv",)),
        "config.load_s": seconds(("config.from_file",)),
        "arrayio.write_field_s": seconds(("arrayio.write_field",)),
        "trace.spans": len(in_task),
    }


def combine(per_task):
    """Median over tasks; returns (metrics, names of counts that drifted)."""
    out, drift = {}, []
    for key in per_task[0]:
        vals = [m[key] for m in per_task]
        if key in COUNTS:
            if len(set(vals)) > 1:
                drift.append(key)
            out[key] = vals[0]
        else:
            out[key] = statistics.median(vals)
    return out, drift


def span_counts(sp, names, task):
    """Calls per span name in one task, with all FFT variants as 'fft'."""
    counts = {}
    ids, n = np.unique(sp["name"][sp["task"] == task], return_counts=True)
    for i, c in zip(ids, n):
        key = "fft" if is_fft(names[i]) else names[i]
        counts[key] = counts.get(key, 0) + int(c)
    return counts
