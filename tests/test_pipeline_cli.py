import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsplab.arrayio import read_field
from nsplab.cli import main
from nsplab.config import ConfigError, ExperimentConfig
from nsplab.pipeline import (HypothesisError, render_float, run_pipeline,
                             target_exponent, write_csv)
from nsplab.semigroup import QuadratureError
from nsplab.spectral import Grid
from nsplab.steady import gaussian_bump_doping

REPO = Path(__file__).resolve().parents[1]
BUNDLED = REPO / "configs" / "lemma44_p1.cfg"


SAMPLE = """\
# comment
[grid]
dim = 2
n = 16

[fluid]
gamma = 2.0

[doping]
preset = cosine
amplitude = 0.05

[initial]
preset = random-smooth
seed = 3
amplitude = 0.01

[evolve]
dt = 0.1
t_end = 0.5
report_every = 5

[decay.vel]
ell = 0
p = 1
component = velocity
t_min = 100
t_max = 1000
samples = 15
"""

# a non-flat doping, so the reference density (its mean) is not 1
BUMP = """\
[grid]
dim = 2
n = 16

[fluid]
gamma = 1.4

[doping]
preset = gaussian-bump
amplitude = 0.3
"""
BUMP_FLAGS = ["--dim", "2", "--n", "16", "--gamma", "1.4",
              "--doping", "gaussian-bump", "--amplitude", "0.3"]


class TestConfig:
    def test_parse_and_access(self):
        cfg = ExperimentConfig.parse(SAMPLE)
        assert cfg.get("grid", "n", int) == 16
        assert cfg.get("fluid", "gamma", float) == 2.0
        assert cfg.get("missing", "key", default="x") == "x"
        labels = [label for label, _ in cfg.decay_queries()]
        assert labels == ["vel"]

    def test_round_trip_lossless(self):
        cfg = ExperimentConfig.parse(SAMPLE)
        again = ExperimentConfig.parse(cfg.render())
        assert again.sections == cfg.sections
        assert again.render() == cfg.render()

    def test_seventeen_digit_floats_survive(self):
        x = 0.1 + 0.2
        text = f"[a]\nv = {render_float(x)}\n"
        cfg = ExperimentConfig.parse(text)
        assert cfg.get("a", "v", float) == x
        assert ExperimentConfig.parse(cfg.render()).get("a", "v", float) == x

    def test_parse_errors(self):
        with pytest.raises(ConfigError, match="outside any section"):
            ExperimentConfig.parse("k = v\n")
        with pytest.raises(ConfigError, match="duplicate section"):
            ExperimentConfig.parse("[a]\n[a]\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            ExperimentConfig.parse("[a]\nk = 1\nk = 2\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            ExperimentConfig.parse("[a]\nnonsense\n")

    def test_required_key(self):
        cfg = ExperimentConfig.parse("[grid]\ndim = 2\n")
        with pytest.raises(ConfigError, match="grid.n"):
            cfg.build_grid()

    def test_bundled_config_parses(self):
        cfg = ExperimentConfig.from_file(BUNDLED)
        queries = dict(cfg.decay_queries())
        assert set(queries) == {"density", "velocity", "density_halfderiv",
                                "velocity_threehalf"}


class TestRenderFloat:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_float(self, x):
        assert float(render_float(x)) == x

    def test_csv_rendering(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1.0 / 3.0, "text"]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].split(",")[0] == render_float(1.0 / 3.0)


class TestTargetExponent:
    def test_hypothesis_violations_are_named(self):
        with pytest.raises(HypothesisError, match="1 <= p < 3/2"):
            target_exponent(0.0, 1.6, r=1.2)
        with pytest.raises(HypothesisError, match="1 < r < 3/2"):
            target_exponent(0.0, 1.0, r=1.5)
        with pytest.raises(HypothesisError, match="requires the index r"):
            target_exponent(0.0, 1.0)
        with pytest.raises(HypothesisError, match="0 <= ell <= 1/2"):
            target_exponent(1.0, 1.0, r=1.2, component="density")
        with pytest.raises(HypothesisError, match="0 <= ell <= 3/2"):
            target_exponent(2.0, 1.0, r=1.2, component="velocity")
        with pytest.raises(HypothesisError, match="lemma mode requires"):
            target_exponent(0.0, 3.0, mode="lemma")

    def test_lemma_values(self):
        assert target_exponent(0.0, 1.0, q=2.0, mode="lemma") == -0.75
        assert target_exponent(0.0, 1.0, q=2.0, component="density",
                               mode="lemma") == -1.25
        assert target_exponent(1.0, 2.0, q=np.inf, mode="lemma") == pytest.approx(
            -1.5 * 0.5 - 0.5)

    def test_theorem_monotone_in_r(self):
        slow = target_exponent(0.0, 1.0, r=1.45, component="density")
        fast = target_exponent(0.0, 1.0, r=1.05, component="density")
        assert fast < slow


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pipe")
    cfg = ExperimentConfig.parse(SAMPLE)
    summary = run_pipeline(cfg, output_dir=outdir)
    return outdir, summary


class TestPipeline:
    def test_stages_ran(self, result):
        _, summary = result
        assert summary["stages"]["steady"]["residual_l2"] < 1e-10
        assert "evolve" in summary["stages"]
        assert summary["stages"]["decay"]["vel"]["passed"]

    def test_outputs_exist_and_manifest_hashes_match(self, result):
        outdir, summary = result
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert set(manifest["files"]) >= {"rho_s.nspf", "phi_s.nspf",
                                          "steady.json", "energy.csv",
                                          "decay_vel.csv", "decay.json",
                                          "config_echo.cfg"}
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert actual == digest, name
        steady = json.loads((outdir / "steady.json").read_text())
        assert len(steady["residual_history"]) == steady["iterations"] >= 1
        assert steady["residual_history"][-1] == steady["residual_l2"]

    def test_binary_fields_readable(self, result):
        outdir, _ = result
        rho = read_field(outdir / "rho_s.nspf")
        assert rho.grid.n == 16 and rho.grid.dim == 2

    def test_deterministic_rerun(self, result, tmp_path):
        outdir, _ = result
        cfg = ExperimentConfig.parse(SAMPLE)
        run_pipeline(cfg, output_dir=tmp_path)
        first = json.loads((outdir / "manifest.json").read_text())["files"]
        second = json.loads((tmp_path / "manifest.json").read_text())["files"]
        assert first == second

    def test_partial_manifest_on_failure(self, tmp_path):
        bad = SAMPLE.replace("t_end = 0.5", "t_end = 200").replace(
            "preset = random-smooth\nseed = 3\namplitude = 0.01",
            "preset = mode\nmode = 1\namplitude = 1.5").replace(
            "dt = 0.1", "dt = 2.0")
        cfg = ExperimentConfig.parse(bad)
        with pytest.raises(Exception):
            run_pipeline(cfg, output_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "failure" in manifest
        assert "rho_s.nspf" in manifest["files"]

    def test_divergent_query_fails_by_name(self, tmp_path):
        cfg = ExperimentConfig.parse(
            "[decay.vel]\np = 2\ncomponent = velocity\n")
        with pytest.raises(QuadratureError):
            run_pipeline(cfg, output_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"].startswith(
            "QuadratureError: velocity integral diverges at xi -> 0")
        assert "decay_vel.csv" not in manifest["files"]


class TestCli:
    def test_linear_decay_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        rc = main(["linear-decay", "--p", "1", "--q", "2", "--ell", "0",
                   "--component", "density", "--t-min", "100",
                   "--t-max", "1000", "--samples", "15",
                   "--output", str(csv)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert abs(payload["fitted_slope"] + 1.25) < 0.05
        assert payload["target"] == -1.25
        assert csv.exists()

    def test_fit_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        t = np.geomspace(1, 100, 20)
        write_csv(csv, ["t", "norm"], [(ti, 2.0 * ti ** -0.5) for ti in t])
        rc = main(["fit", "--csv", str(csv)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == pytest.approx(-0.5, abs=1e-10)

    def test_steady_subcommand(self, tmp_path, capsys):
        rc = main(["steady", "--dim", "2", "--n", "16",
                   "--doping", "cosine", "--amplitude", "0.05",
                   "--output", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual_l2"] < 1e-10
        assert (tmp_path / "rho_s.nspf").exists()
        assert set(payload) >= {"doping", "rho_bar", "iterations",
                                "residual_l2", "bounds_ok", "grad_rho_hk",
                                "w2r_over_lr", "files"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["files"]) == {"config_echo.cfg", "rho_s.nspf",
                                          "phi_s.nspf", "steady.json"}

    def test_steady_matches_run(self, tmp_path, capsys):
        # [fluid] has no rho_bar: the reference density is the mean doping
        cfg_path = tmp_path / "bump.cfg"
        cfg_path.write_text(BUMP)
        assert main(["run", "--config", str(cfg_path),
                     "--output", str(tmp_path / "run")]) == 0
        run = json.loads(capsys.readouterr().out)["steady"]
        assert main(["steady", *BUMP_FLAGS,
                     "--output", str(tmp_path / "steady")]) == 0
        steady = json.loads(capsys.readouterr().out)
        b_bar = gaussian_bump_doping(Grid(dim=2, n=16), amplitude=0.3).b_bar
        assert steady["rho_bar"] == run["rho_bar"] == b_bar != 1.0
        for name in ("rho_s.nspf", "phi_s.nspf"):
            assert ((tmp_path / "steady" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes())

    def test_evolve_subcommand(self, tmp_path, capsys):
        rc = main(["evolve", "--dim", "2", "--n", "16",
                   "--doping", "flat", "--initial", "random-smooth",
                   "--initial-amplitude", "1e-3", "--dt", "0.1",
                   "--t-end", "0.5", "--output", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "energy.csv").exists()
        assert (tmp_path / "final_rho.nspf").exists()
        assert (tmp_path / "final_u.nspf").exists()
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"t_end", "energy_lhs_initial",
                                "energy_lhs_final", "script_n_final",
                                "output_dir"}

    def test_evolve_manifest_and_snapshots(self, tmp_path, capsys):
        rc = main(["evolve", "--dim", "2", "--n", "16", "--doping", "cosine",
                   "--amplitude", "0.05", "--dt", "0.1", "--t-end", "0.5",
                   "--snapshots", "--output", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        # reports at t = 0 and t = 0.5; the final state is the last one
        assert set(manifest["files"]) >= {
            "final_rho.nspf", "final_u.nspf", "energy.csv", "steady.json",
            "state_0000_rho.nspf", "state_0001_u.nspf"}
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest, name
        assert (manifest["files"]["final_u.nspf"]
                == manifest["files"]["state_0001_u.nspf"])

    def test_evolve_failure_leaves_partial_manifest(self, tmp_path):
        # the blow-up of TestPipeline.test_partial_manifest_on_failure
        with pytest.raises(Exception):
            main(["evolve", "--dim", "2", "--n", "16", "--doping", "cosine",
                  "--amplitude", "0.05", "--initial", "mode",
                  "--initial-amplitude", "1.5", "--dt", "2.0",
                  "--t-end", "200", "--report-every", "5",
                  "--output", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "failure" in manifest
        assert "rho_s.nspf" in manifest["files"]

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SAMPLE)
        rc = main(["run", "--config", str(cfg_path),
                   "--output", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"steady", "evolve", "decay", "output_dir"}

    def test_doping_key_the_preset_does_not_take(self, tmp_path):
        cfg_path = tmp_path / "flat.cfg"
        cfg_path.write_text(BUMP.replace("gaussian-bump", "flat"))
        want = "doping preset 'flat' takes no key 'amplitude'"
        with pytest.raises(ConfigError, match=want):
            main(["run", "--config", str(cfg_path),
                  "--output", str(tmp_path / "run")])
        with pytest.raises(ConfigError, match=want):
            main(["steady", "--dim", "2", "--n", "16", "--doping", "flat",
                  "--amplitude", "0.1", "--output", str(tmp_path / "steady")])
        for sub in ("run", "steady"):
            manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
            assert manifest["failure"] == f"ConfigError: {want}"

    def test_exit_code_rule(self, tmp_path, capsys):
        # 0 iff every stage that ran passed its check.  A bump in a wide
        # box is under-resolved on 16^2 and leaves the doping range.
        wide = ["--length", "50"]
        assert main(["steady", *BUMP_FLAGS, *wide,
                     "--output", str(tmp_path / "s")]) == 1
        assert not json.loads(capsys.readouterr().out)["bounds_ok"]
        assert main(["evolve", *BUMP_FLAGS, *wide, "--dt", "0.1",
                     "--t-end", "0.1", "--output", str(tmp_path / "e")]) == 1
        cases = [(BUMP, 0), (BUMP.replace("n = 16", "n = 16\nlength = 50"), 1),
                 (SAMPLE.replace("samples = 15", "samples = 15\ntolerance = 0"),
                  1)]
        for i, (text, want) in enumerate(cases):
            cfg_path = tmp_path / f"{i}.cfg"
            cfg_path.write_text(text)
            assert main(["run", "--config", str(cfg_path),
                         "--output", str(tmp_path / str(i))]) == want, text
