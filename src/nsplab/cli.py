"""Command-line interface.

Subcommands: ``steady``, ``linear-decay``, ``evolve``, ``fit``, ``run``,
``verify``.  Each flag of ``steady``, ``evolve`` and ``linear-decay`` has
the config key it sets as its dest (see `build_parser`).  All numeric output
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
from .semigroup import fit_exponent

__all__ = ["main"]


def _add_steady_args(p):
    """Grid, fluid and doping flags, shared by steady and evolve."""
    p.add_argument("--dim", type=int, dest="grid.dim")
    p.add_argument("--n", type=int, default=32, dest="grid.n")
    p.add_argument("--length", type=float, dest="grid.length")
    p.add_argument("--gamma", type=float, dest="fluid.gamma")
    p.add_argument("--mu", type=float, dest="fluid.mu")
    p.add_argument("--mu-prime", type=float, dest="fluid.mu_prime")
    p.add_argument("--doping", default="gaussian-bump", dest="doping.preset",
                   choices=["flat", "gaussian-bump", "cosine"])
    p.add_argument("--amplitude", type=float, dest="doping.amplitude")
    p.add_argument("--center", type=float, dest="doping.center")
    p.add_argument("--sigma", type=float, dest="doping.sigma")
    p.add_argument("--mode", type=int, dest="doping.mode")


def _config_from_args(args) -> ExperimentConfig:
    """The set flags, each under the "section.key" of its dest, in flag
    order; an unset flag is None and keeps the config's default."""
    config = ExperimentConfig()
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.rsplit(".", 1)
            config.sections.setdefault(section, {})[key] = str(value)
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
    """Run the flags' [decay.cli] section; print its report, write its curve."""
    curve, _, report = run_decay_query(
        **_config_from_args(args).decay_kwargs("cli"))
    if args.output:
        write_csv(args.output, ["t", "norm"], curve)
    _emit({name: value for name, value in asdict(report).items()
           if name not in ("label", "refinement_error", "tail_share",
                           "curve_file")} | {"csv": args.output})
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

    # each flag of steady, evolve and linear-decay sets the config key that
    # is its dest; --output comes last, as the [output] section does
    p = sub.add_parser("steady", help="solve for a steady state")
    _add_steady_args(p)
    p.add_argument("--tol", type=float, dest="solver.tol")
    p.add_argument("--max-iter", type=int, dest="solver.max_iter")
    p.add_argument("--r", type=float, dest="solver.r")
    p.add_argument("--output", dest="output.directory")
    p.set_defaults(fn=cmd_stage)

    p = sub.add_parser("linear-decay", help="decay curve of the linear flow")
    key = "decay.cli."
    p.add_argument("--p", type=float, dest=key + "p")
    p.add_argument("--q", type=float, dest=key + "q")
    p.add_argument("--ell", type=float, dest=key + "ell")
    p.add_argument("--component", dest=key + "component",
                   choices=["density", "velocity"])
    p.add_argument("--parts", dest=key + "parts",
                   choices=["both", "compressible", "incompressible"])
    p.add_argument("--t-min", type=float, dest=key + "t_min")
    p.add_argument("--t-max", type=float, dest=key + "t_max")
    p.add_argument("--samples", type=int, default=60, dest=key + "samples")
    p.add_argument("--tolerance", type=float, dest=key + "tolerance")
    p.add_argument("--mode", dest=key + "mode", choices=["lemma", "theorem"])
    p.add_argument("--r", type=float, dest=key + "r")
    p.add_argument("--output", help="CSV output path")
    p.set_defaults(fn=cmd_linear_decay)

    p = sub.add_parser("evolve", help="nonlinear evolution of a perturbation")
    _add_steady_args(p)
    p.add_argument("--initial", default="random-smooth", dest="initial.preset",
                   choices=["mode", "random-smooth"])
    p.add_argument("--initial-amplitude", type=float, dest="initial.amplitude")
    p.add_argument("--initial-mode", type=int, dest="initial.mode")
    p.add_argument("--seed", type=int, dest="initial.seed")
    p.add_argument("--band", type=int, dest="initial.band")
    p.add_argument("--dt", type=float, dest="evolve.dt")
    p.add_argument("--t-end", type=float, default=10.0, dest="evolve.t_end")
    p.add_argument("--report-every", type=int, dest="evolve.report_every")
    p.add_argument("--k", type=int, dest="evolve.k")
    p.add_argument("--snapshots", action="store_true", default=None,
                   dest="evolve.snapshots")
    p.add_argument("--output", dest="output.directory")
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
