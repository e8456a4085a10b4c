"""Command-line interface.

Subcommands: ``steady``, ``linear-decay``, ``evolve``, ``fit``, ``run``,
``verify``.  All numeric output uses 17-significant-digit rendering so the
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .arrayio import write_field
from .config import ExperimentConfig
from .evolution import DiagnosticsConfig, evolve
from .pipeline import (run_decay_query, run_pipeline, write_csv,
                       write_energy_csv)
from .semigroup import LinearDecayQuery, fit_exponent
from .spectral import Grid
from .steady import doping_from_name, solve_steady, verify_steady
from .thermo import FluidParams, GammaLaw

__all__ = ["main"]


def _add_grid_args(p):
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--length", type=float, default=2.0 * np.pi)


def _add_fluid_args(p):
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--mu-prime", type=float, default=0.0)


def _add_doping_args(p):
    p.add_argument("--doping", default="gaussian-bump",
                   choices=["flat", "gaussian-bump", "cosine"])
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--center", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--mode", type=int, default=1)


def _build_doping(args, grid):
    if args.doping == "flat":
        return doping_from_name(grid, "flat")
    if args.doping == "gaussian-bump":
        kw = {"amplitude": args.amplitude}
        if args.center is not None:
            kw["center"] = args.center
        if args.sigma is not None:
            kw["sigma"] = args.sigma
        return doping_from_name(grid, "gaussian-bump", **kw)
    return doping_from_name(grid, "cosine", amplitude=args.amplitude,
                            mode=args.mode)


def _build_fluid(args, rho_bar):
    return FluidParams(law=GammaLaw(args.gamma), mu=args.mu,
                       mu_prime=args.mu_prime, rho_bar=rho_bar)


def _emit(obj):
    print(json.dumps(obj, indent=2, default=float))


def cmd_steady(args):
    grid = Grid(dim=args.dim, n=args.n, length=args.length)
    doping = _build_doping(args, grid)
    params = _build_fluid(args, doping.b_bar)
    ss = solve_steady(params, doping, tol=args.tol, max_iter=args.max_iter)
    report = verify_steady(params, ss, doping, r=args.r)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_field(outdir / "rho_s.nspf", ss.rho_s)
    write_field(outdir / "phi_s.nspf", ss.phi_s)
    _emit({
        "doping": doping.descriptor,
        "rho_bar": ss.rho_bar,
        "iterations": ss.iterations,
        "residual_l2": ss.residual_l2,
        "bounds_ok": report.bounds_ok,
        "grad_rho_hk": report.grad_rho_hk,
        "w2r_over_lr": report.ratio_w2r_lr,
        "files": [str(outdir / "rho_s.nspf"), str(outdir / "phi_s.nspf")],
    })
    return 0 if report.bounds_ok else 1


def cmd_linear_decay(args):
    q = np.inf if args.q in ("inf", "Inf") else float(args.q)
    query = LinearDecayQuery(ell=args.ell, p=args.p, q=q,
                             component=args.component, parts=args.parts,
                             profile_name=args.profile)
    times = np.geomspace(args.t_min, args.t_max, args.samples)
    curve, fit, report = run_decay_query(
        query, times, window=(args.t_min, args.t_max),
        tolerance=args.tolerance, label="cli", mode=args.mode, r=args.r)
    if args.output:
        write_csv(args.output, ["t", "norm"], curve)
    _emit({
        "ell": query.ell, "p": query.p, "q": float(query.q),
        "component": query.component, "parts": query.parts,
        "fitted_slope": fit.slope, "fitted_stderr": fit.stderr,
        "residual_rms": fit.residual_rms,
        "target": report.target, "tolerance": report.tolerance,
        "passed": report.passed,
        "csv": args.output,
    })
    return 0 if report.passed else 1


def cmd_evolve(args):
    grid = Grid(dim=args.dim, n=args.n, length=args.length)
    doping = _build_doping(args, grid)
    params = _build_fluid(args, doping.b_bar)
    ss = solve_steady(params, doping)

    from .evolution import random_smooth_state, single_mode_state
    if args.initial == "mode":
        initial = single_mode_state(grid, mode=args.initial_mode,
                                    amplitude=args.initial_amplitude)
    else:
        initial = random_smooth_state(grid, seed=args.seed,
                                      amplitude=args.initial_amplitude,
                                      band=args.band)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    snapshots = []
    last_state = [initial]

    def snapshot(state, rep):
        last_state[0] = state
        if args.snapshots:
            name = f"state_{len(snapshots):04d}"
            write_field(outdir / f"{name}_rho.nspf", state.rho)
            write_field(outdir / f"{name}_u.nspf", state.u)
            snapshots.append(name)

    _, reports = evolve(initial, ss, params, t_end=args.t_end, dt=args.dt,
                        report_every=args.report_every,
                        diagnostics=DiagnosticsConfig(k=args.k),
                        snapshot_cb=snapshot)
    write_energy_csv(outdir / "energy.csv", reports)
    write_field(outdir / "final_rho.nspf", last_state[0].rho)
    write_field(outdir / "final_u.nspf", last_state[0].u)
    _emit({
        "t_end": reports[-1].t,
        "energy_lhs_initial": reports[0].energy_lhs,
        "energy_lhs_final": reports[-1].energy_lhs,
        "script_n_final": reports[-1].script_n,
        "output_dir": str(outdir),
    })
    return 0


def cmd_fit(args):
    rows = []
    with open(args.csv, "r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            t, v = line.strip().split(",")
            rows.append((float(t), float(v)))
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
    config = ExperimentConfig.from_file(args.config)
    summary = run_pipeline(config, output_dir=args.output)
    _emit(summary["stages"] | {"output_dir": summary["output_dir"]})
    decays = summary["stages"].get("decay", {})
    ok = all(entry["passed"] for entry in decays.values()) if decays else True
    return 0 if ok else 1


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

    p = sub.add_parser("steady", help="solve for a steady state")
    _add_grid_args(p)
    _add_fluid_args(p)
    _add_doping_args(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--r", type=float, default=1.2)
    p.add_argument("--output", default="out")
    p.set_defaults(fn=cmd_steady)

    p = sub.add_parser("linear-decay", help="decay curve of the linear flow")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", default="2")
    p.add_argument("--ell", type=float, default=0.0)
    p.add_argument("--component", default="velocity",
                   choices=["density", "velocity"])
    p.add_argument("--parts", default="both",
                   choices=["both", "compressible", "incompressible"])
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--profile", default="gaussian")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--mode", default="lemma", choices=["lemma", "theorem"])
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--output", default=None, help="CSV output path")
    p.set_defaults(fn=cmd_linear_decay)

    p = sub.add_parser("evolve", help="nonlinear evolution of a perturbation")
    _add_grid_args(p)
    _add_fluid_args(p)
    _add_doping_args(p)
    p.add_argument("--initial", default="random-smooth",
                   choices=["mode", "random-smooth"])
    p.add_argument("--initial-amplitude", type=float, default=1e-3)
    p.add_argument("--initial-mode", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--band", type=int, default=3)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--report-every", type=int, default=10)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--snapshots", action="store_true")
    p.add_argument("--output", default="out")
    p.set_defaults(fn=cmd_evolve)

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
