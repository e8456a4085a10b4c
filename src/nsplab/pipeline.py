"""End-to-end experiment pipeline: steady solve, nonlinear evolution,
linear decay curves with fitted exponents, CSV/JSON/binary outputs and a
content-hash manifest."""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .arrayio import write_field
from .config import ExperimentConfig
from .evolution import (DiagnosticsConfig, EnergyReport, evolve,
                        initial_data_size)
from .semigroup import (LinearDecayQuery, decay_curve, fit_exponent,
                        shared_exponentials)
from .steady import solve_steady, verify_steady

__all__ = [
    "HypothesisError",
    "target_exponent",
    "DecayReport",
    "render_float",
    "write_csv",
    "write_energy_csv",
    "run_pipeline",
    "run_decay_query",
]


class HypothesisError(ValueError):
    """A requested rate lies outside the hypotheses of the decay estimates."""


def target_exponent(ell: float, p: float, r: float | None = None,
                    q: float = 2.0, component: str = "velocity",
                    mode: str = "theorem") -> float:
    """Closed-formula decay exponent for the requested norm.

    mode="lemma": the linear-semigroup L^p -> L^q rates, valid for
    1 <= p <= 2 and 2 <= q <= inf:

        velocity: -(3/2)(1/p - 1/q) - ell/2
        density:  -(3/2)(1/p - 1/q) - ell/2 - 1/2

    mode="theorem": the nonlinear rates with zeta = (3/2)(1/max(p, r) - 1/2),
    valid for 1 <= p < 3/2 and 1 < r < 3/2:

        density (0 <= ell <= 1/2):  -zeta - ell/2 - 1/2
        velocity (0 <= ell <= 3/2): -zeta - ell/2
        q = inf (ell = 0):          -zeta - 3/4

    Raises HypothesisError naming the violated condition.
    """
    if ell < 0:
        raise HypothesisError(f"derivative order ell = {ell} must be >= 0")
    if component not in ("density", "velocity"):
        raise HypothesisError(f"component must be density/velocity, got {component!r}")

    if mode == "lemma":
        if not 1.0 <= p <= 2.0:
            raise HypothesisError(f"lemma mode requires 1 <= p <= 2, got p = {p}")
        if not q >= 2.0:
            raise HypothesisError(f"lemma mode requires q >= 2, got q = {q}")
        base = -1.5 * (1.0 / p - 1.0 / q) - 0.5 * ell
        return base - 0.5 if component == "density" else base

    if mode == "theorem":
        if r is None:
            raise HypothesisError("theorem mode requires the index r")
        if not 1.0 <= p < 1.5:
            raise HypothesisError(f"theorem mode requires 1 <= p < 3/2, got p = {p}")
        if not 1.0 < r < 1.5:
            raise HypothesisError(f"theorem mode requires 1 < r < 3/2, got r = {r}")
        zeta = DiagnosticsConfig(p=p, r=r).zeta
        if q == np.inf:
            if ell != 0.0:
                raise HypothesisError("q = inf rate is stated for ell = 0 only")
            return -zeta - 0.75
        if q != 2.0:
            raise HypothesisError(f"theorem mode targets q = 2 or inf, got q = {q}")
        if component == "density":
            if not 0.0 <= ell <= 0.5:
                raise HypothesisError(
                    f"density rate requires 0 <= ell <= 1/2, got ell = {ell}")
            return -zeta - 0.5 * ell - 0.5
        if not 0.0 <= ell <= 1.5:
            raise HypothesisError(
                f"velocity rate requires 0 <= ell <= 3/2, got ell = {ell}")
        return -zeta - 0.5 * ell

    raise HypothesisError(f"mode must be 'lemma' or 'theorem', got {mode!r}")


@dataclass
class DecayReport:
    label: str
    ell: float
    p: float
    q: float
    component: str
    parts: str
    fitted_slope: float
    fitted_stderr: float
    residual_rms: float
    target: float
    tolerance: float
    passed: bool
    curve_file: str | None = None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def render_float(x: float) -> str:
    """17-significant-digit decimal rendering (round-trips any float64)."""
    return f"{float(x):.17g}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else render_float(cell)
                for cell in row) + "\n")


def write_energy_csv(path, reports):
    """One row per `EnergyReport`, its fields as the columns."""
    header = [f.name for f in fields(EnergyReport)]
    write_csv(path, header,
              [[getattr(rep, name) for name in header] for rep in reports])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_state(outdir: Path, stem: str, state, produced):
    for part in ("rho", "u"):
        name = f"{stem}_{part}.nspf"
        write_field(outdir / name, getattr(state, part))
        produced.append(name)


def _write_manifest(outdir: Path, produced, status, failure=None):
    manifest = {
        "status": status,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "files": {name: _sha256(outdir / name) for name in sorted(produced)},
    }
    if failure is not None:
        manifest["failure"] = failure
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def run_decay_query(query: LinearDecayQuery, times, params=None,
                    window=None, tolerance=0.05, label="query",
                    mode="lemma", r=None):
    """Compute a decay curve, fit its exponent and compare with the target."""
    curve = decay_curve(query, times, params)
    fit = fit_exponent(curve, window)
    target = target_exponent(query.ell, query.p, r=r, q=query.q,
                             component=query.component, mode=mode)
    report = DecayReport(
        label=label, ell=query.ell, p=query.p, q=float(query.q),
        component=query.component, parts=query.parts,
        fitted_slope=fit.slope, fitted_stderr=fit.stderr,
        residual_rms=fit.residual_rms, target=target, tolerance=tolerance,
        passed=abs(fit.slope - target) <= tolerance)
    return curve, fit, report


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: ExperimentConfig, output_dir=None) -> dict:
    """Run every stage the config declares, in deterministic order:
    steady solve, then nonlinear evolution, then each decay query with its
    exponent fit.  Every produced file is recorded in manifest.json with
    its SHA-256; on a stage failure a partial manifest is still written
    with the failure cause."""
    outdir = Path(output_dir if output_dir is not None
                  else config.get("output", "directory", str, "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    produced = []
    summary = {"stages": {}}

    config.to_file(outdir / "config_echo.cfg")
    produced.append("config_echo.cfg")

    try:
        ss = None
        if config.has("grid"):
            grid = config.build_grid()
            doping = config.build_doping(grid)
            params = config.build_fluid(doping)
            ss = solve_steady(
                params, doping,
                tol=config.get("solver", "tol", float, 1e-10),
                max_iter=config.get("solver", "max_iter", int, 200),
                relaxation=config.get("solver", "relaxation", float, 1.0),
                newton=config.get("solver", "newton", bool, False))
            write_field(outdir / "rho_s.nspf", ss.rho_s)
            write_field(outdir / "phi_s.nspf", ss.phi_s)
            produced += ["rho_s.nspf", "phi_s.nspf"]
            report = verify_steady(params, ss, doping,
                                   r=config.get("solver", "r", float, 1.2))
            with open(outdir / "steady.json", "w", encoding="utf-8") as fh:
                json.dump({"residual_l2": ss.residual_l2,
                           "iterations": ss.iterations,
                           "residual_history": ss.residual_history,
                           "report": asdict(report)}, fh, indent=2)
                fh.write("\n")
            produced.append("steady.json")
            summary["stages"]["steady"] = {
                "doping": doping.descriptor, "rho_bar": ss.rho_bar,
                "iterations": ss.iterations, "residual_l2": ss.residual_l2,
                "bounds_ok": report.bounds_ok,
                "grad_rho_hk": report.grad_rho_hk,
                "w2r_over_lr": report.ratio_w2r_lr,
                "files": [str(outdir / "rho_s.nspf"),
                          str(outdir / "phi_s.nspf")]}

        if config.has("evolve"):
            if ss is None:
                raise ValueError("evolution requires [grid]/[doping] sections")
            initial = config.build_initial(grid)
            diag = DiagnosticsConfig(
                k=config.get("evolve", "k", int, 4),
                p=config.get("evolve", "p", float, 1.0),
                r=config.get("evolve", "r", float, 1.2))
            dt = config.get("evolve", "dt", float)
            t_end = config.get("evolve", "t_end", float, required=True)
            snapshots = config.get("evolve", "snapshots", bool, False)
            last, index = [initial], itertools.count()

            def snapshot(state, rep):
                last[0] = state
                if snapshots:
                    _write_state(outdir, f"state_{next(index):04d}", state,
                                 produced)

            _, reports = evolve(
                initial, ss, params, t_end, dt=dt,
                report_every=config.get("evolve", "report_every", int, 10),
                diagnostics=diag, snapshot_cb=snapshot)
            write_energy_csv(outdir / "energy.csv", reports)
            produced.append("energy.csv")
            _write_state(outdir, "final", last[0], produced)
            final = reports[-1]
            summary["stages"]["evolve"] = {
                "t_end": final.t,
                "energy_lhs_initial": reports[0].energy_lhs,
                "energy_lhs_final": final.energy_lhs,
                "script_n_final": final.script_n,
                "k0": initial_data_size(initial, diag)}

        decay_reports = []
        # queries on one fluid, times and node count share their exponentials
        with shared_exponentials():
            for label, query in config.decay_queries():
                sect = f"decay.{label}"
                t_min = config.get(sect, "t_min", float, 1e2)
                t_max = config.get(sect, "t_max", float, 1e4)
                samples = config.get(sect, "samples", int, 40)
                tol = config.get(sect, "tolerance", float, 0.05)
                r = config.get(sect, "r", float)
                mode = config.get(sect, "mode", str, "lemma")
                times = np.geomspace(t_min, t_max, samples)
                curve, fit, rep = run_decay_query(
                    query, times, window=(t_min, t_max), tolerance=tol,
                    label=label, mode=mode, r=r)
                fname = f"decay_{label}.csv"
                write_csv(outdir / fname, ["t", "norm"], curve)
                rep.curve_file = fname
                produced.append(fname)
                decay_reports.append(rep)
        if decay_reports:
            with open(outdir / "decay.json", "w", encoding="utf-8") as fh:
                json.dump([asdict(r) for r in decay_reports], fh, indent=2)
                fh.write("\n")
            produced.append("decay.json")
            summary["stages"]["decay"] = {
                r.label: {"fitted": r.fitted_slope, "target": r.target,
                          "passed": r.passed}
                for r in decay_reports}
    except Exception as exc:
        summary["manifest"] = _write_manifest(
            outdir, produced, "failed",
            failure=f"{type(exc).__name__}: {exc}")
        raise

    summary["manifest"] = _write_manifest(outdir, produced, "complete")
    summary["output_dir"] = str(outdir)
    return summary
