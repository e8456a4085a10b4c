"""The three workloads: inputs from the seed, one task, and its checks.

Each workload builds fresh inputs for every task (outside the timed
region), runs one task through nsplab's public API, and checks the result
against the tolerances of the acceptance gates in `nsplab.acceptance`.
`tiny=True` shrinks every size so the self-test finishes in seconds.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

import nsplab
from nsplab.config import ExperimentConfig
from nsplab.evolution import DiagnosticsConfig
from nsplab.spectral import laplacian


class Workload:
    """One workload: `setup()` once, then per task `inputs()`, the timed
    `run()`, `check()` (a list of failures) and `cleanup()`."""

    name = ""
    unit = ""

    def work(self, inp, out):
        """Work units one successful task completes."""
        return 1

    def counts(self, out):
        """Counts read from the task's return value rather than from spans."""
        return {"steady.picard_iterations": 0}

    def cleanup(self, inp):
        pass


class EvolveWorkload(Workload):
    """evolve-32: the README's `evolve` example, shortened to t = 2.5.

    FFT-bound: each Lawson step makes about 61 transforms, and every task
    also builds the `Integrator` propagators (65,534 scalar `expm2`).
    """

    name = "evolve-32"
    unit = "steps"

    def __init__(self, root, seed, tiny=False):
        self.seed = seed
        self.n = 8 if tiny else 32
        self.dt = 0.05
        self.t_end = 0.1 if tiny else 2.5
        self.report_every = 1 if tiny else 10
        self.steps = int(round(self.t_end / self.dt))

    def setup(self):
        """The steady state the perturbation runs around."""
        grid = nsplab.Grid(dim=3, n=self.n)
        doping = nsplab.cosine_doping(grid, amplitude=0.05)
        self.params = nsplab.FluidParams(law=nsplab.GammaLaw(2.0),
                                         rho_bar=doping.b_bar)
        self.ss = nsplab.solve_steady(self.params, doping)
        self.grid = grid

    def inputs(self, task):
        # a new state per task: Field caches its spectrum, so a reused
        # initial state would change the FFT count of later tasks
        initial = nsplab.random_smooth_state(self.grid, seed=self.seed,
                                             amplitude=1e-2)
        return {"initial": initial, "snapshots": []}

    def run(self, inp):
        def snapshot(state, report):
            inp["snapshots"].append((state, report))

        nsplab.evolve(inp["initial"], self.ss, self.params, self.t_end,
                      dt=self.dt, report_every=self.report_every,
                      diagnostics=DiagnosticsConfig(k=4), snapshot_cb=snapshot)

    def check(self, inp, out):
        fails = []
        snaps = inp["snapshots"]
        if not snaps:
            return ["no report was emitted"]
        for state, _ in snaps:
            mean = abs(state.rho.mean())
            if not mean <= 1e-12:
                fails.append(f"t={state.t:.3f}: |mean rho| {mean:.3e} > 1e-12")
            phi = state.potential()
            defect = laplacian(phi).values - (state.rho.values - state.rho.values.mean())
            pois = float(np.sqrt(np.sum(defect ** 2) * state.grid.cell_volume))
            if not pois <= 1e-10:
                fails.append(f"t={state.t:.3f}: Poisson defect {pois:.3e} > 1e-10")
            low = float(np.min(state.rho.values + self.ss.rho_s.values))
            if not low > 0:
                fails.append(f"t={state.t:.3f}: minimum total density {low:.3e}")
        lhs = [rep.energy_lhs for _, rep in snaps]
        if not max(lhs) <= 50.0 * lhs[0]:
            fails.append(f"max/initial energy {max(lhs) / lhs[0]:.2f} > 50")
        t_final = snaps[-1][1].t
        if not abs(t_final - self.t_end) <= 1e-9 * self.t_end:
            fails.append(f"final report at t={t_final!r}, not {self.t_end}")
        return fails

    def work(self, inp, out):
        return self.steps


_TINY_DECAY = """
[decay.velocity]
ell = 0
p = 1
q = 2
component = velocity
t_min = 100
t_max = 1000
samples = 10
tolerance = 0.1
"""


class DecayWorkload(Workload):
    """decay-lemma44: `run_pipeline` on the bundled configs/lemma44_p1.cfg.

    Four curves of 60 samples with node-doubling refinement: 230,400
    scalar `expm2` calls and no FFT.  It has no random input.
    """

    name = "decay-lemma44"
    unit = "curve_samples"

    def __init__(self, root, seed, tiny=False):
        self.root = Path(root)
        self.tiny = tiny
        self.config_path = self.root / "configs" / "lemma44_p1.cfg"
        self.workdir = self.root / ".perfbench-work" / "tmp"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.tiny:
            self.config_path = self.workdir / "tiny_decay.cfg"
            self.config_path.write_text(_TINY_DECAY, encoding="utf-8")
        if not ExperimentConfig.from_file(self.config_path).decay_queries():
            raise ValueError(f"{self.config_path} declares no decay query")

    def inputs(self, task):
        return {"outdir": Path(tempfile.mkdtemp(prefix="decay-", dir=self.workdir))}

    def run(self, inp):
        config = ExperimentConfig.from_file(self.config_path)
        summary = nsplab.run_pipeline(config, inp["outdir"])
        inp["config"] = config
        return summary

    def check(self, inp, out):
        fails = []
        config = inp["config"]
        if out["manifest"]["status"] != "complete":
            fails.append(f"manifest status {out['manifest']['status']!r}")
        stages = out["stages"].get("decay", {})
        for label, _ in config.decay_queries():
            sect = f"decay.{label}"
            tol = config.get(sect, "tolerance", float, 0.05)
            got = stages.get(label)
            if got is None:
                fails.append(f"{label}: no result")
                continue
            if not (got["passed"] and abs(got["fitted"] - got["target"]) <= tol):
                fails.append(f"{label}: slope {got['fitted']:.4f} vs target "
                             f"{got['target']} (tol {tol})")
            rows = (inp["outdir"] / f"decay_{label}.csv").read_text().splitlines()
            samples = config.get(sect, "samples", int, 40)
            if len(rows) != samples + 1:
                fails.append(f"{label}: {len(rows) - 1} curve rows, expected {samples}")
        return fails

    def work(self, inp, out):
        config = inp["config"]
        return sum(config.get(f"decay.{label}", "samples", int, 40)
                   for label, _ in config.decay_queries())

    def cleanup(self, inp):
        shutil.rmtree(inp["outdir"], ignore_errors=True)


class SteadyWorkload(Workload):
    """steady-64: `solve_steady`, `verify_steady` and two `write_field`
    calls, as `nsplab steady` does.

    gamma = 1.4 so h' varies and Picard needs 7 sweeps (gamma = 2 converges
    in one).  Its 4 MiB scalar fields exceed the per-core L2, unlike the
    0.5-1.5 MiB vector fields of evolve-32.
    """

    name = "steady-64"
    unit = "solves"

    def __init__(self, root, seed, tiny=False):
        # 16^3 cannot resolve the full-size bump to the 1e-10 residual gate
        self.n, self.amplitude, self.sigma = (16, 0.01, 2.0) if tiny else (64, 0.3, None)
        self.workdir = Path(root) / ".perfbench-work" / "tmp"
        rng = np.random.default_rng(seed)
        self.center = float(rng.uniform(0.0, 2.0 * np.pi))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.grid = nsplab.Grid(dim=3, n=self.n)

    def inputs(self, task):
        doping = nsplab.gaussian_bump_doping(self.grid, amplitude=self.amplitude,
                                             center=self.center, sigma=self.sigma)
        params = nsplab.FluidParams(law=nsplab.GammaLaw(1.4), rho_bar=doping.b_bar)
        outdir = Path(tempfile.mkdtemp(prefix="steady-", dir=self.workdir))
        return {"doping": doping, "params": params, "outdir": outdir}

    def run(self, inp):
        params, doping, outdir = inp["params"], inp["doping"], inp["outdir"]
        ss = nsplab.solve_steady(params, doping, tol=1e-11)
        report = nsplab.verify_steady(params, ss, doping)
        nsplab.write_field(outdir / "rho_s.nspf", ss.rho_s)
        nsplab.write_field(outdir / "phi_s.nspf", ss.phi_s)
        return ss, report

    def check(self, inp, out):
        ss, report = out
        fails = []
        if not report.residual_l2 < 1e-10:
            fails.append(f"steady residual {report.residual_l2:.3e} >= 1e-10")
        if not report.bounds_ok:
            fails.append(f"rho in [{report.rho_min:.6f}, {report.rho_max:.6f}] "
                         f"outside b in [{report.b_min:.6f}, {report.b_max:.6f}]")
        for fname, field in (("rho_s.nspf", ss.rho_s), ("phi_s.nspf", ss.phi_s)):
            back = nsplab.read_field(inp["outdir"] / fname)
            if not np.array_equal(back.values, field.values):
                fails.append(f"{fname} does not read back bit-exactly")
        return fails

    def counts(self, out):
        return {"steady.picard_iterations": out[0].iterations}

    def cleanup(self, inp):
        shutil.rmtree(inp["outdir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (EvolveWorkload, DecayWorkload, SteadyWorkload)}
