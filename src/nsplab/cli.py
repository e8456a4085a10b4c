"""Command-line interface.

Subcommands: ``steady``, ``linear-decay``, ``evolve``, ``fit``, ``run``,
``verify``.  ``steady`` and ``evolve`` translate their flags into an
`ExperimentConfig` and run the same pipeline as ``run``.  All numeric output
uses 17-significant-digit rendering so the values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .config import ExperimentConfig
from .pipeline import run_decay_query, run_pipeline, write_csv
from .semigroup import LinearDecayQuery, fit_exponent

__all__ = ["main"]


def _add_steady_args(p):
    """Grid, fluid and doping flags, shared by steady and evolve."""
    p.add_argument("--dim", type=int)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--mu-prime", type=float)
    p.add_argument("--doping", default="gaussian-bump",
                   choices=["flat", "gaussian-bump", "cosine"])
    p.add_argument("--amplitude", type=float)
    p.add_argument("--center", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mode", type=int)


# argparse dest -> the (section, key) of the ExperimentConfig it sets.  A
# flag left unset is not written, so the config's defaults apply to it.
_CONFIG_KEYS = {
    "dim": ("grid", "dim"), "n": ("grid", "n"), "length": ("grid", "length"),
    "gamma": ("fluid", "gamma"), "mu": ("fluid", "mu"),
    "mu_prime": ("fluid", "mu_prime"),
    "doping": ("doping", "preset"), "amplitude": ("doping", "amplitude"),
    "center": ("doping", "center"), "sigma": ("doping", "sigma"),
    "mode": ("doping", "mode"),
    "tol": ("solver", "tol"), "max_iter": ("solver", "max_iter"),
    "r": ("solver", "r"),
    "initial": ("initial", "preset"),
    "initial_amplitude": ("initial", "amplitude"),
    "initial_mode": ("initial", "mode"), "seed": ("initial", "seed"),
    "band": ("initial", "band"),
    "dt": ("evolve", "dt"), "t_end": ("evolve", "t_end"),
    "report_every": ("evolve", "report_every"), "k": ("evolve", "k"),
    "snapshots": ("evolve", "snapshots"),
    "output": ("output", "directory"),
}


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig()
    for dest, (section, key) in _CONFIG_KEYS.items():
        if hasattr(args, dest):
            config.sections.setdefault(section, {})[key] = str(getattr(args, dest))
    return config


def _emit(obj):
    print(json.dumps(obj, indent=2, default=float))


def _run(config, output_dir=None, stage=None):
    """Run the pipeline and print its stage summaries, the keys of `stage`
    at the top level.  Exit code 0 iff every stage that ran passed its
    check: the steady density bounds and each decay fit."""
    summary = run_pipeline(config, output_dir=output_dir)
    stages = summary["stages"]
    others = {name: body for name, body in stages.items() if name != stage}
    _emit(stages.get(stage, {}) | others
          | {"output_dir": summary["output_dir"]})
    ok = all(entry["passed"] for entry in stages.get("decay", {}).values())
    ok = ok and stages.get("steady", {}).get("bounds_ok", True)
    return 0 if ok else 1


def cmd_stage(args):
    return _run(_config_from_args(args), stage=args.command)


def cmd_linear_decay(args):
    query = LinearDecayQuery(ell=args.ell, p=args.p, q=args.q,
                             component=args.component, parts=args.parts)
    times = np.geomspace(args.t_min, args.t_max, args.samples)
    curve, _, report = run_decay_query(
        query, times, window=(args.t_min, args.t_max),
        tolerance=args.tolerance, label="cli", mode=args.mode, r=args.r)
    if args.output:
        write_csv(args.output, ["t", "norm"], curve)
    _emit({name: value for name, value in asdict(report).items()
           if name not in ("label", "curve_file")} | {"csv": args.output})
    return 0 if report.passed else 1


def cmd_fit(args):
    rows = []
    with open(args.csv, "r", encoding="utf-8") as fh:
        fh.readline()                       # the header
        for lineno, line in enumerate(fh, start=2):
            try:
                if line.strip():            # blank lines are skipped
                    t, v = map(float, line.split(","))
                    rows.append((t, v))
            except ValueError:
                raise ValueError(f"{args.csv}, line {lineno}: expected "
                                 f"'t,norm', got {line.strip()!r}") from None
    window = None
    if args.t_min is not None or args.t_max is not None:
        window = (args.t_min if args.t_min is not None else -np.inf,
                  args.t_max if args.t_max is not None else np.inf)
    fit = fit_exponent(rows, window)
    _emit({"slope": fit.slope, "stderr": fit.stderr,
           "residual_rms": fit.residual_rms, "n": fit.n,
           "is_power_law": fit.is_power_law})
    return 0


def cmd_run(args):
    return _run(ExperimentConfig.from_file(args.config), args.output)


def cmd_verify(args):
    from .acceptance import run_acceptance
    ok, _ = run_acceptance(skip_slow=args.fast)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nsplab",
        description="Viscous plasma flow around doped steady states: "
                    "steady solves, linear decay rates, nonlinear evolution.")
    sub = parser.add_subparsers(dest="command", required=True)

    # unset flags of steady and evolve stay out of the namespace
    p = sub.add_parser("steady", help="solve for a steady state",
                       argument_default=argparse.SUPPRESS)
    _add_steady_args(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_stage)

    p = sub.add_parser("linear-decay", help="decay curve of the linear flow")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--ell", type=float, default=0.0)
    p.add_argument("--component", default="velocity",
                   choices=["density", "velocity"])
    p.add_argument("--parts", default="both",
                   choices=["both", "compressible", "incompressible"])
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--mode", default="lemma", choices=["lemma", "theorem"])
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--output", default=None, help="CSV output path")
    p.set_defaults(fn=cmd_linear_decay)

    p = sub.add_parser("evolve", help="nonlinear evolution of a perturbation",
                       argument_default=argparse.SUPPRESS)
    _add_steady_args(p)
    p.add_argument("--initial", default="random-smooth",
                   choices=["mode", "random-smooth"])
    p.add_argument("--initial-amplitude", type=float)
    p.add_argument("--initial-mode", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--band", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--report-every", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--snapshots", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_stage)

    p = sub.add_parser("fit", help="fit a power-law exponent to a CSV curve")
    p.add_argument("--csv", required=True)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("run", help="run a full config-driven pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="run all acceptance gates")
    p.add_argument("--fast", action="store_true",
                   help="skip the long-running gate groups")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
