import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsplab.arrayio import read_field
from nsplab.cli import _config_from_args, build_parser, main
from nsplab.config import ConfigError, ExperimentConfig
from nsplab.pipeline import (HypothesisError, render_float, run_pipeline,
                             target_exponent, write_csv)
from nsplab.semigroup import (LinearDecayQuery, QuadratureError,
                              decay_curve)
from nsplab.spectral import Grid
from nsplab.steady import gaussian_bump_doping
from nsplab.thermo import FluidParams, GammaLaw

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

    def test_decay_kwargs(self):
        cfg = ExperimentConfig.parse(SAMPLE + "mode = theorem\nr = 1.3\n")
        kwargs = cfg.decay_kwargs("vel")
        assert kwargs.pop("query") == dict(cfg.decay_queries())["vel"]
        times = kwargs.pop("times")
        np.testing.assert_array_equal(times, np.geomspace(100.0, 1000.0, 15))
        assert kwargs == {"window": (100.0, 1000.0), "tolerance": 0.05,
                          "mode": "theorem", "r": 1.3, "label": "vel"}

    def test_q_inf(self):
        cfg = ExperimentConfig.parse("[decay.sup]\nq = inf\n")
        [(_, query)] = cfg.decay_queries()
        assert query.q == np.inf

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
        assert 0 <= steady["truncation_defect"] <= steady["residual_l2"]
        assert 0 <= steady["galerkin_residual"] <= steady["residual_l2"]
        assert steady["resolved"] is True

    def test_decay_json_reports_quadrature_health(self, result):
        outdir, summary = result
        [report] = json.loads((outdir / "decay.json").read_text())
        assert 0.0 <= report["refinement_error"] < 1e-6
        assert 0.0 < report["tail_share"] < 1e-9
        assert set(summary["stages"]["decay"]["vel"]) == {"fitted", "target",
                                                         "passed"}

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

    def test_removed_solver_keys_are_ignored(self, tmp_path):
        # newton and relaxation configure nothing any more; a config that
        # still sets them runs to the same steady state
        legacy = BUMP + "\n[solver]\nnewton = true\nrelaxation = 0.5\n"
        for name, text in (("plain", BUMP), ("legacy", legacy)):
            run_pipeline(ExperimentConfig.parse(text), output_dir=tmp_path / name)
        assert ((tmp_path / "legacy" / "rho_s.nspf").read_bytes()
                == (tmp_path / "plain" / "rho_s.nspf").read_bytes())

    @pytest.mark.parametrize("text,name", [
        (SAMPLE.replace("report_every = 5", "report_every = 5\nreport_evry = 1"),
         "key evolve.report_evry"),
        (SAMPLE + "sample = 20\n", "key decay.vel.sample"),
        (SAMPLE + "\n[solver]\ntolerance = 1e-3\n", "key solver.tolerance"),
        (SAMPLE + "\n[evolution]\nt_end = 1\n", "section [evolution]")],
        ids=["evolve", "decay", "solver", "section"])
    def test_unknown_key_fails_before_any_stage(self, tmp_path, text, name):
        with pytest.raises(ConfigError, match=re.escape(f"unknown {name}")):
            run_pipeline(ExperimentConfig.parse(text), output_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failure"] == f"ConfigError: unknown {name}"
        assert set(manifest["files"]) == {"config_echo.cfg"}

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

    def test_decay_reads_fluid(self, tmp_path):
        # no [grid]: the decay fluid is [fluid] around rho_bar = 1
        cfg = ExperimentConfig.parse(
            "[fluid]\ngamma = 1.4\nmu = 0.5\n[decay.v]\np = 1\nsamples = 20\n")
        run_pipeline(cfg, output_dir=tmp_path)
        rows = (tmp_path / "decay_v.csv").read_text().splitlines()[1:]
        got = [tuple(float(x) for x in row.split(",")) for row in rows]
        want = decay_curve(LinearDecayQuery(p=1.0), np.geomspace(1e2, 1e4, 20),
                           FluidParams(law=GammaLaw(1.4), mu=0.5))
        assert got == want
        assert got[0] == (100.0, pytest.approx(0.10418, abs=1e-5))


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
        assert "refinement_error" not in payload and "tail_share" not in payload
        assert abs(payload["fitted_slope"] + 1.25) < 0.05
        assert payload["target"] == -1.25
        assert csv.exists()

    def test_linear_decay_outside_hypotheses_fails_first(self, monkeypatch):
        # the target is checked before the curve: no mode exponential runs
        import nsplab.semigroup
        calls = []

        def counted(*args, _fn=nsplab.semigroup.expm2, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nsplab.semigroup, "expm2", counted)
        with pytest.raises(HypothesisError, match="requires the index r"):
            main(["linear-decay", "--p", "1.4", "--mode", "theorem"])
        assert calls == []
        main(["linear-decay", "--t-max", "1000", "--samples", "15"])
        assert calls

    def test_linear_decay_q_inf(self, capsys):
        main(["linear-decay", "--q", "inf", "--t-max", "1000",
              "--samples", "15"])
        assert json.loads(capsys.readouterr().out)["q"] == np.inf
        # each flag sets its [decay.cli] key; only --samples has a default
        flags = ["linear-decay", "--q", "inf", "--mode", "theorem",
                 "--p", "1.2", "--r", "1.3"]
        config = _config_from_args(build_parser().parse_args(flags))
        assert config.sections == {"decay.cli": {
            "p": "1.2", "q": "inf", "samples": "60", "mode": "theorem",
            "r": "1.3"}}
        rc = main(flags)
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == np.inf and payload["p"] == 1.2
        assert payload["target"] == target_exponent(0.0, 1.2, r=1.3,
                                                    q=np.inf)
        assert rc == (0 if payload["passed"] else 1)

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        fits = [line for line in lines
                if line.startswith("[PASS] decay fit ")
                and "runtime" not in line]
        assert len(fits) == 12
        assert all("(tol 0.01)" in line for line in fits)
        assert not any(line.startswith("[FAIL]") for line in lines)

    def test_fit_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        t = np.geomspace(1, 100, 20)
        write_csv(csv, ["t", "norm"], [(ti, 2.0 * ti ** -0.5) for ti in t])
        rc = main(["fit", "--csv", str(csv)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == pytest.approx(-0.5, abs=1e-10)

    def test_fit_skips_blank_lines_and_names_bad_rows(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        t = np.geomspace(1, 100, 20)
        write_csv(csv, ["t", "norm"], [(ti, 2.0 * ti ** -0.5) for ti in t])
        rows = csv.read_text().splitlines()
        csv.write_text("\n".join(rows[:5] + [""] + rows[5:]) + "\n\n")
        assert main(["fit", "--csv", str(csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 20
        assert payload["slope"] == pytest.approx(-0.5, abs=1e-10)
        csv.write_text("\n".join(rows[:3] + ["2,0.5,7"] + rows[3:]) + "\n")
        with pytest.raises(ValueError,
                           match=r"c\.csv, line 4: expected 't,norm', got '2,0.5,7'"):
            main(["fit", "--csv", str(csv)])

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
        flags = ["--dim", "2", "--n", "16", "--doping", "cosine",
                 "--amplitude", "0.05", "--dt", "0.1", "--t-end", "0.5",
                 "--snapshots", "--output", str(tmp_path)]
        rc = main(["evolve", *flags])
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
        # the config keys follow the flag definitions, not the command line
        echo = (tmp_path / "config_echo.cfg").read_text()
        assert echo == (
            "[grid]\ndim = 2\nn = 16\n\n[doping]\npreset = cosine\n"
            "amplitude = 0.05\n\n[initial]\npreset = random-smooth\n\n"
            "[evolve]\ndt = 0.1\nt_end = 0.5\nsnapshots = True\n\n"
            f"[output]\ndirectory = {tmp_path}\n")
        reordered = ["--output", str(tmp_path), "--snapshots",
                     "--t-end", "0.5", "--dt", "0.1", "--amplitude", "0.05",
                     "--doping", "cosine", "--n", "16", "--dim", "2"]
        assert sorted(reordered) == sorted(flags)
        assert main(["evolve", *reordered]) == 0
        assert (tmp_path / "config_echo.cfg").read_text() == echo
        again = json.loads((tmp_path / "manifest.json").read_text())
        assert again["files"] == manifest["files"]

    def test_run_names_a_bad_max_iter(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(BUMP + "\n[solver]\nmax_iter = 0\n")
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            main(["run", "--config", str(cfg_path),
                  "--output", str(tmp_path / "out")])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"] == (
            "ValueError: max_iter must be at least 1, got 0")
        assert set(manifest["files"]) == {"config_echo.cfg"}

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

    def test_run_names_an_unreachable_t_end(self, tmp_path):
        cfg_path = tmp_path / "inf.cfg"
        cfg_path.write_text(SAMPLE.replace("t_end = 0.5", "t_end = inf"))
        with pytest.raises(ValueError, match="t_end must be finite"):
            main(["run", "--config", str(cfg_path),
                  "--output", str(tmp_path / "out")])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failure"] == (
            "ValueError: t_end must be finite and nonnegative, got inf")

    def test_run_transforms_on_the_half_grid_only(self, tmp_path, monkeypatch):
        # the steady solve, verify_steady, the evolution and its reports:
        # no scipy.fft call and no full-grid transform: every complex pass
        # runs on the half grid, a forward one of `dealias` on its 2/3 ball
        import numpy.fft
        import scipy.fft
        shapes = {"fft": [], "ifft": [], "scipy.fft": []}
        for mod, name, seen in ((numpy.fft, "fft", shapes["fft"]),
                                (numpy.fft, "ifft", shapes["ifft"]),
                                *((scipy.fft, name, shapes["scipy.fft"])
                                  for name in ("fft", "ifft", "rfft", "irfft",
                                               "fftn", "ifftn", "rfftn",
                                               "irfftn"))):
            def counted(x, *args, _fn=getattr(mod, name), _seen=seen,
                        **kwargs):
                _seen.append(np.shape(x))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
        cfg_path = tmp_path / "cube.cfg"
        cfg_path.write_text(BUMP.replace("dim = 2", "dim = 3")
                            + "\n[initial]\npreset = random-smooth\nseed = 3\n"
                            "\n[evolve]\ndt = 0.1\nt_end = 0.3\n"
                            "report_every = 1\n")
        assert main(["run", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "steady.json").exists()
        assert (tmp_path / "out" / "energy.csv").read_text().count("\n") == 5
        assert shapes["scipy.fft"] == []
        assert {shape[-1] for shape in shapes["fft"]} == {16 // 2 + 1,
                                                          16 // 3 + 1}
        assert shapes["ifft"] and all(shape[-1] == 16 // 2 + 1
                                      for shape in shapes["ifft"])

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
        # a key of another preset, a misspelt key and the preset's grid
        cases = [("flat", BUMP.replace("gaussian-bump", "flat"), "amplitude"),
                 ("gaussian-bump", BUMP.replace("amplitude", "amplitud"),
                  "amplitud"),
                 ("gaussian-bump", BUMP + "grid = 1\n", "grid")]
        for i, (preset, text, key) in enumerate(cases):
            cfg_path = tmp_path / f"{i}.cfg"
            cfg_path.write_text(text)
            want = f"doping preset {preset!r} takes no key {key!r}"
            with pytest.raises(ConfigError, match=want):
                main(["run", "--config", str(cfg_path),
                      "--output", str(tmp_path / f"run{i}")])
            manifest = json.loads(
                (tmp_path / f"run{i}" / "manifest.json").read_text())
            assert manifest["failure"] == f"ConfigError: {want}"
        want = "doping preset 'flat' takes no key 'amplitude'"
        with pytest.raises(ConfigError, match=want):
            main(["steady", "--dim", "2", "--n", "16", "--doping", "flat",
                  "--amplitude", "0.1", "--output", str(tmp_path / "steady")])
        manifest = json.loads((tmp_path / "steady" / "manifest.json").read_text())
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
