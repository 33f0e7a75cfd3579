"""Closed-loop scenario harness, metrics, CSV round-trips, config, CLI."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dflsim
import dflsim.cli
import dflsim.dataset
import dflsim.mpc as mpc
import dflsim.scenario as scenario
from dflsim.cli import main as cli_main
from dflsim.config import ConfigError, load_bundle
from dflsim.dataset import (NormStats, TrainingConfig, denormalize,
                            load_dataset_csv, normalize, save_dataset_csv,
                            settled_state)
from dflsim.engine import (ControlInput, EngineParams, EngineStallError,
                           step_engine)
from dflsim.errors import DflsimError, FileFormatError, SolverError, StallError
from dflsim.fan import (KGF, FanGeometry, fan_power, solve_operating_point,
                        thrust_from_power)
from dflsim.lpv import LPV_CSV_HEADER, build_lpv, save_lpv_trace
from dflsim.mpc import MpcConfig
from dflsim.networks import (MODEL_KINDS, compare_models, init_mlp,
                             load_blocks, load_model, load_rbf, mape,
                             rbf_forward, save_blocks, save_model, train_rbf)
from dflsim.scenario import (CONTROLLER_KINDS, STATE_NOISE_SPAN, ScenarioConfig,
                             compute_metrics, load_trajectory_csv,
                             relative_error, run_scenario, save_trajectory_csv)
from dflsim.tables import read_table
from test_lpv import lpv_bytes

P = EngineParams()
G = FanGeometry()

# each failure kind: its exit status, its stderr label and its built-in base
EXIT_KINDS = {ConfigError: (2, "config error", ValueError),
              StallError: (3, "plant stall", RuntimeError),
              SolverError: (4, "solver failure", RuntimeError),
              FileFormatError: (5, "bad input file", ValueError)}


def failure_types(cls=DflsimError):
    """Every class below ``cls``, found by walking its subclasses."""
    for sub in cls.__subclasses__():
        yield sub
        yield from failure_types(sub)


@pytest.fixture(scope="module")
def trained_rbf(stock_dataset):
    return train_rbf(stock_dataset, TrainingConfig())


@pytest.fixture
def plant_calls(monkeypatch):
    """Every plant interval the excitation or the closed loop runs, recorded."""
    calls = []

    def counting(*args):
        calls.append(args)
        return step_engine(*args)

    monkeypatch.setattr(dflsim.dataset, "step_engine", counting)
    monkeypatch.setattr(scenario, "step_engine", counting)
    return calls


class TestRelativeError:
    def test_exact_match(self):
        assert relative_error(80.0, 80.0) == 0.0

    def test_one_percent(self):
        assert relative_error(80.8, 80.0) == pytest.approx(1.0, rel=1e-12)

    def test_series_on_ramp(self):
        ref = np.linspace(10.0, 80.0, 50)
        actual = ref * 1.02 - 0.5
        expected = (actual - ref) / ref * 100.0
        assert np.allclose(relative_error(actual, ref), expected, rtol=1e-14)


class TestOpenLoop:
    def test_settles_to_equilibrium_matching_power_route(self):
        # constant feasible input; the settled thrust must agree with the
        # power-matching route through thrust_from_power within 0.1 %
        scen = ScenarioConfig(steps=60, noise_std=0.0, init_tps=35.0,
                              init_m_fi=0.0032)
        records, _ = run_scenario(P, G, MpcConfig(), scen,
                                  controller="open-loop")
        last = records[-1]
        assert abs(last.n - records[-10].n) < 1e-6          # settled
        p_b = fan_power(last.n * G.pulley_ratio,
                        solve_operating_point(last.n * G.pulley_ratio, G).torque
                        ) / G.transmission_eff
        t_power_route, _ = thrust_from_power(p_b, G)
        t_settled = last.thrust_true * KGF
        assert abs(t_power_route - t_settled) / t_settled < 1e-3


class TestClosedLoopShort:
    def test_regulation_at_equilibrium_with_zero_noise(self, trained_rbf):
        # constant references equal to the settled outputs: errors stay ~0
        scen = ScenarioConfig(steps=40, noise_std=0.0, thrust_idle=10.0,
                              thrust_hover=10.0, ramp_start=1, ramp_end=2,
                              lam_rich=0.82, lam_eff=0.82, lam_step_at=9999)
        records, _ = run_scenario(P, G, MpcConfig(), scen, controller="ampc",
                                  rbf=trained_rbf)
        t_err = relative_error(np.array([r.thrust_true for r in records[5:]]),
                               np.array([r.thrust_ref for r in records[5:]]))
        l_err = relative_error(np.array([r.lam_true for r in records[5:]]),
                               np.array([r.lam_ref for r in records[5:]]))
        assert np.max(np.abs(t_err)) < 1.0
        assert np.max(np.abs(l_err)) < 0.5

    def test_inputs_respect_box_every_step(self, trained_rbf):
        scen = ScenarioConfig(steps=80, ramp_end=60)
        cfg = MpcConfig()
        records, _ = run_scenario(P, G, cfg, scen, controller="ampc",
                                  rbf=trained_rbf)
        for r in records:
            assert cfg.tps_bounds[0] <= r.tps <= cfg.tps_bounds[1]
            assert cfg.mf_bounds[0] <= r.m_fi <= cfg.mf_bounds[1]

    def test_rbf_required_for_closed_loop(self, plant_calls):
        with pytest.raises(ValueError):
            run_scenario(P, G, MpcConfig(), ScenarioConfig(steps=5),
                         controller="ampc")
        assert plant_calls == []

    def test_warmup_stall_raises_scenario_error(self):
        from dflsim.scenario import ScenarioStallError
        scen = ScenarioConfig(steps=10, init_tps=5.0, init_m_fi=0.0055)
        with pytest.raises(ScenarioStallError):
            run_scenario(P, G, MpcConfig(), scen, controller="open-loop")

    def test_unknown_controller_rejected(self, plant_calls):
        with pytest.raises(ValueError):
            run_scenario(P, G, MpcConfig(), ScenarioConfig(steps=5),
                         controller="pid")
        assert plant_calls == []


SHORT = ScenarioConfig(steps=12, ramp_start=2, ramp_end=8, lam_step_at=10)


class TestControllerPath:
    """One per-step function per run, chosen from ``CONTROLLER_KINDS``."""

    def test_ampc_step_bound_at_call_time(self, trained_rbf, monkeypatch):
        # the benchmark times the control step by rebinding
        # dflsim.scenario.ampc_step; a step captured at import would miss it
        plain, _ = run_scenario(P, G, MpcConfig(), SHORT, rbf=trained_rbf)
        calls = []

        def counting(*args):
            calls.append(args)
            return mpc.ampc_step(*args)

        monkeypatch.setattr(scenario, "ampc_step", counting)
        wrapped, _ = run_scenario(P, G, MpcConfig(), SHORT, rbf=trained_rbf)
        assert len(calls) == SHORT.steps
        assert wrapped == plain

    def test_reference_windows_hold_the_last_step(self, trained_rbf, monkeypatch):
        # step k previews steps k+1..k+n2, each clamped to the last step
        scen = ScenarioConfig(steps=12, ramp_start=2, ramp_end=7, lam_step_at=9)
        cfg = MpcConfig()
        windows = []

        def recording(x_meas, y_meas, refs, *args, **kwargs):
            windows.append(np.array(refs))
            return mpc.ampc_step(x_meas, y_meas, refs, *args, **kwargs)

        monkeypatch.setattr(scenario, "ampc_step", recording)
        run_scenario(P, G, cfg, scen, rbf=trained_rbf)
        schedule = scen.references(0)
        assert len(windows) == scen.steps
        for k, refs in enumerate(windows):
            idx = np.minimum(np.arange(k + 1, k + 1 + cfg.n2), scen.steps - 1)
            assert refs.tobytes() == schedule[idx].tobytes()

    @pytest.mark.parametrize("controller", CONTROLLER_KINDS)
    def test_lpv_trace_and_solver_fields(self, trained_rbf, controller, tmp_path):
        trace = []
        records, _ = run_scenario(P, G, MpcConfig(), SHORT,
                                  controller=controller, rbf=trained_rbf,
                                  lpv_trace=trace)
        assert len(records) == SHORT.steps
        if controller == "ampc":
            # the written trace's row k is stamped with step k's time
            save_lpv_trace(trace, tmp_path / "lpv_trace.csv")
            rows = read_table(tmp_path / "lpv_trace.csv", LPV_CSV_HEADER)
            assert rows[:, 0].tolist() == [r.time for r in records]
        elif controller == "linear-mpc":
            u0 = ControlInput(SHORT.init_tps, SHORT.init_m_fi)
            state = settled_state(P, G, u0)
            frozen = build_lpv(trained_rbf, G, state.as_vector(),
                               np.array([u0.tps, u0.m_fi]))
            assert len(trace) == 1
            assert lpv_bytes(trace[0]) == lpv_bytes(frozen)
        else:
            assert trace == []
            assert all(r.cost == 0.0 and r.qp_iterations == 0
                       for r in records)


class TestNoiseAudit:
    @staticmethod
    def record_measurements(monkeypatch):
        """The list that gets each step's (x_meas, y_meas), captured by
        wrapping the per-step function ``scenario._step_function`` returns."""
        measured = []
        make_step = scenario._step_function

        def recording(*args):
            step = make_step(*args)

            def recorded(x_meas, y_meas, *rest):
                measured.append((x_meas, y_meas))
                return step(x_meas, y_meas, *rest)
            return recorded

        monkeypatch.setattr(scenario, "_step_function", recording)
        return measured

    def test_injected_variance_matches_configured_level(self, monkeypatch):
        # 1000 open-loop steps: sample variance of the injected noise within
        # 10 % of (0.005 * span)^2 per channel, the output spans from the
        # limits and the [Q_eng, n] spans from STATE_NOISE_SPAN
        measured = self.record_measurements(monkeypatch)
        scen = ScenarioConfig(steps=1000, seed=42)
        cfg = MpcConfig()
        records, _ = run_scenario(P, G, cfg, scen, controller="open-loop")
        noise_t = np.array([r.thrust_meas - r.thrust_true for r in records]) * KGF
        noise_l = np.array([r.lam_meas - r.lam_true for r in records])
        var_t_expect = (0.005 * (cfg.thrust_bounds[1] - cfg.thrust_bounds[0])) ** 2
        var_l_expect = (0.005 * (cfg.lambda_bounds[1] - cfg.lambda_bounds[0])) ** 2
        assert abs(noise_t.var() - var_t_expect) / var_t_expect < 0.1
        assert abs(noise_l.var() - var_l_expect) / var_l_expect < 0.1
        # the state measured at step k is the one recorded after step k - 1
        noise_x = np.array([x_meas for x_meas, _ in measured[1:]])[:, :2] \
            - np.array([[r.q_eng, r.n] for r in records[:-1]])
        var_x_expect = (0.005 * np.array(STATE_NOISE_SPAN)) ** 2
        assert np.all(abs(noise_x.var(axis=0) - var_x_expect) / var_x_expect < 0.1)

    def test_noise_is_the_per_step_draws(self, monkeypatch):
        # the oracle: each step draws its [thrust, lambda] output normals,
        # then its [Q_eng, n] state normals, from the episode's generator
        measured = self.record_measurements(monkeypatch)
        scen = ScenarioConfig(steps=30, noise_std=0.01)
        cfg = MpcConfig()
        records, _ = run_scenario(P, G, cfg, scen, controller="open-loop")
        rng = np.random.default_rng(scen.seed)
        lam_scale = scen.noise_std * (cfg.lambda_bounds[1] - cfg.lambda_bounds[0])
        state_scale = scen.noise_std * np.array(STATE_NOISE_SPAN)
        assert len(measured) == len(records) == scen.steps
        for k, (r, (x_meas, y_meas)) in enumerate(zip(records, measured)):
            eps_y, eps_x = rng.normal(size=2), rng.normal(size=2)
            assert r.lam_meas == y_meas[1] == r.lam_true + eps_y[1] * lam_scale
            if k > 0:
                before = records[k - 1]
                assert x_meas[0] == before.q_eng + eps_x[0] * state_scale[0]
                assert x_meas[1] == before.n + eps_x[1] * state_scale[1]


class TestTrajectoryCsv:
    def test_round_trip_and_metric_consistency(self, trained_rbf, tmp_path):
        scen = ScenarioConfig(steps=60, ramp_end=40, lam_step_at=50,
                              settle_margin=5)
        cfg = MpcConfig()
        records, metrics = run_scenario(P, G, cfg, scen, controller="ampc",
                                        rbf=trained_rbf)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(records, path)
        back = load_trajectory_csv(path)
        metrics_again = compute_metrics(back, cfg, scen)
        assert metrics == metrics_again

    def test_reload_preserves_values_exactly(self, trained_rbf, tmp_path):
        scen = ScenarioConfig(steps=30, ramp_end=20)
        records, _ = run_scenario(P, G, MpcConfig(), scen, controller="ampc",
                                  rbf=trained_rbf)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(records, path)
        back = load_trajectory_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.thrust_true == b.thrust_true
            assert a.lam_meas == b.lam_meas
            assert a.m_fi == b.m_fi

    def test_same_seed_byte_identical(self, trained_rbf, tmp_path):
        scen = ScenarioConfig(steps=50, ramp_end=35, seed=7)
        paths = []
        for name in ("a.csv", "b.csv"):
            records, _ = run_scenario(P, G, MpcConfig(), scen,
                                      controller="ampc", rbf=trained_rbf)
            path = tmp_path / name
            save_trajectory_csv(records, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def loop_references(scen, preview):
    """The per-step loop that ``ScenarioConfig.references`` replaced, kept as
    its oracle: thrust and lambda schedules stacked, the last row repeated
    ``preview`` times."""
    thrust = np.empty(scen.steps)
    for k in range(scen.steps):
        if k < scen.ramp_start:
            frac = 0.0
        elif k >= scen.ramp_end:
            frac = 1.0
        else:
            frac = (k - scen.ramp_start) / (scen.ramp_end - scen.ramp_start)
        thrust[k] = (scen.thrust_idle
                     + (scen.thrust_hover - scen.thrust_idle) * frac) * KGF
    lam = np.full(scen.steps, scen.lam_rich)
    lam[scen.lam_step_at:] = scen.lam_eff
    refs = np.stack([thrust, lam], axis=1)
    return np.concatenate([refs, refs[-1:].repeat(preview, axis=0)])


class TestReferences:
    def test_thrust_profile_shape(self):
        scen = ScenarioConfig()
        ref = scen.references(0)[:, 0] / KGF
        assert ref[0] == 10.0
        assert ref[scen.ramp_start] == 10.0
        assert ref[scen.ramp_end] == 80.0
        assert ref[-1] == 80.0
        mid = (scen.ramp_start + scen.ramp_end) // 2
        assert 10.0 < ref[mid] < 80.0

    def test_lambda_profile_steps_once(self):
        scen = ScenarioConfig()
        ref = scen.references(0)[:, 1]
        assert ref[scen.lam_step_at - 1] == scen.lam_rich
        assert ref[scen.lam_step_at] == scen.lam_eff

    @pytest.mark.parametrize("preview", [1, 8])
    @pytest.mark.parametrize("steps", [1, 5, 40, 250])
    def test_matches_the_step_loop(self, steps, preview):
        # the stock ramp, a zero-length one at and after the start, one that
        # ends past the last step; the retarget inside, at and past the end
        for (ramp_start, ramp_end), lam_step_at in itertools.product(
                [(10, 100), (0, 0), (3, 3), (2, steps + 5)],
                [150, 0, steps // 2, steps, steps + 3]):
            scen = ScenarioConfig(steps=steps, ramp_start=ramp_start,
                                  ramp_end=ramp_end, lam_step_at=lam_step_at)
            ref = scen.references(preview)
            assert ref.shape == (steps + preview, 2)
            assert ref.tobytes() == loop_references(scen, preview).tobytes()


class TestConfig:
    def test_defaults_without_file(self):
        bundle = load_bundle(None)
        assert bundle.plant.stoich_afr == 14.7
        assert bundle.mpc.n2 == 8
        assert bundle.training.sample_count == 1000

    def test_file_overrides(self, tmp_path):
        ini = tmp_path / "conf.ini"
        ini.write_text("[scenario]\nsteps = 42\nseed = 99\n"
                       "[mpc]\nnc = 2\nthrust_bounds = 0,1000\n"
                       "[plant]\ninertia = 0.3\n")
        bundle = load_bundle(ini)
        assert bundle.scenario.steps == 42
        assert bundle.scenario.seed == 99
        assert bundle.mpc.nc == 2
        assert bundle.mpc.thrust_bounds == (0.0, 1000.0)
        assert bundle.plant.inertia == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[plant]\nwarp_drive = 9\n")
        with pytest.raises(ConfigError):
            load_bundle(ini)

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[warp]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_bundle(ini)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_bundle(tmp_path / "absent.ini")

    def test_invalid_value_reported(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[plant]\ninertia = smooth\n")
        with pytest.raises(ConfigError):
            load_bundle(ini)

    def test_fan_operating_point_left_to_the_stages(self):
        # train, compare-models and report never run the fan, so loading a
        # config solves no operating point; gen-data and simulate solve it
        assert "hover" not in vars(load_bundle(None).fan)


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(
        "[training]\nsample_count = 300\nn_train = 285\nseed = 11\n"
        "mlp_epochs = 50\nelman_epochs = 10\n"
        "[scenario]\nsteps = 40\nramp_start = 4\nramp_end = 24\n"
        "lam_step_at = 32\nsettle_margin = 4\n")
    return path


@pytest.fixture(scope="module")
def rbf_stage(small_ini, tmp_path_factory):
    """``gen-data`` and ``train --model rbf`` on ``small_ini``, run once; a
    test that reads the files copies the directory instead of writing here."""
    out = tmp_path_factory.mktemp("stage") / "out"
    for argv in (["gen-data"], ["train", "--model", "rbf"]):
        assert cli_main(argv + ["--config", str(small_ini),
                                "--out", str(out)]) == 0
    return out


class TestCli:
    def test_gen_data_and_train_and_simulate(self, small_ini, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["gen-data", "--config", str(small_ini),
                         "--out", str(out)]) == 0
        assert (out / "dataset.csv").exists()
        assert cli_main(["train", "--model", "rbf", "--config", str(small_ini),
                         "--out", str(out)]) == 0
        assert (out / "rbf_model.txt").exists()
        assert cli_main(["simulate", "--controller", "ampc", "--config",
                         str(small_ini), "--out", str(out)]) == 0
        assert (out / "trajectory_ampc.csv").exists()
        assert (out / "metrics_ampc.json").exists()

    def test_report_reproduces_metrics(self, small_ini, rbf_stage, tmp_path):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        cli_main(["simulate", "--controller", "ampc", "--config",
                  str(small_ini), "--out", str(out)])
        assert cli_main(["report", str(out / "trajectory_ampc.csv"),
                         "--config", str(small_ini), "--out", str(out)]) == 0
        with open(out / "metrics_ampc.json") as fh:
            sim_metrics = json.load(fh)
        with open(out / "metrics_report.json") as fh:
            rep_metrics = json.load(fh)
        assert sim_metrics == rep_metrics
        lines = (out / "relative_errors.csv").read_text().splitlines()
        assert lines[0] == "step,thrust_rel_err_pct,lambda_rel_err_pct"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            [str(k) for k in range(40)]

    def test_check_jacobian_passes(self, small_ini, rbf_stage, tmp_path):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        assert cli_main(["check-jacobian", "--config", str(small_ini),
                         "--out", str(out), "--points", "20"]) == 0

    def test_non_finite_model_weight_exits_5(self, small_ini, rbf_stage,
                                             tmp_path, capsys):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        model = out / "rbf_model.txt"
        lines = model.read_text().splitlines(keepends=True)
        row = lines.index(next(ln for ln in lines if ln.startswith("# LW "))) + 1
        lines[row] = "nan " + lines[row].split(" ", 1)[1]
        model.write_text("".join(lines))
        for argv in (["check-jacobian"], ["simulate", "--controller", "ampc"]):
            assert cli_main(argv + ["--config", str(small_ini),
                                    "--out", str(out)]) == 5
            assert "block LW row 1, column 1 holds nan" in capsys.readouterr().err
        assert not (out / "trajectory_ampc.csv").exists()

    def test_check_jacobian_fails_on_a_non_finite_error(self, small_ini, rbf_stage,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        monkeypatch.setattr(dflsim.cli, "assoc_jacobian",
                            lambda rbf, p: np.full((3, 4), np.nan))
        assert cli_main(["check-jacobian", "--config", str(small_ini),
                         "--out", str(out), "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert "error over 3 points: nan" in captured.out
        assert "FAIL" in captured.err and "PASS" not in captured.out

    def test_train_uses_the_loaded_config(self, stock_dataset, tmp_path):
        data = tmp_path / "dataset.csv"
        save_dataset_csv(stock_dataset, data)
        out = tmp_path / "out"
        assert cli_main(["train", "--model", "rbf", "--data", str(data),
                         "--out", str(out)]) == 0
        expected = tmp_path / "expected_rbf.txt"
        save_model(train_rbf(stock_dataset, load_bundle(None).training),
                   expected)
        assert (out / "rbf_model.txt").read_bytes() == expected.read_bytes()

    def test_compare_models_honours_training_config(self, tmp_path):
        ini = tmp_path / "centers.ini"
        ini.write_text("[training]\nsample_count = 300\nn_train = 285\n"
                       "seed = 11\nrbf_centers = 20\nmlp_epochs = 5\n"
                       "elman_epochs = 2\n")
        out = tmp_path / "out"
        for argv in (["gen-data"], ["train", "--model", "rbf"],
                     ["train", "--model", "mlp"], ["train", "--model", "elman"],
                     ["compare-models"]):
            assert cli_main(argv + ["--config", str(ini), "--out", str(out)]) == 0
        with open(out / "mape_report.json") as fh:
            reported = json.load(fh)["rbf"]
        ds = load_dataset_csv(out / "dataset.csv", n_train=285)
        model = load_rbf(out / "rbf_model.txt")
        stats = ds.stats
        val_in = normalize(ds.val_inputs, stats.in_min, stats.in_max)
        pred = denormalize(np.array([rbf_forward(model, p) for p in val_in]),
                           stats.out_min, stats.out_max)
        trained = mape(pred, ds.val_targets)
        assert np.allclose(reported, trained, rtol=1e-12, atol=0.0)
        lines = (out / "prediction_errors.csv").read_text().splitlines()
        assert lines[0] == "sample," + ",".join(
            f"{m}_{n}" for m in ("mlp", "elman", "rbf")
            for n in ("torque", "speed", "afr"))
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            [str(i) for i in range(15)]

    def test_compare_models_scores_the_trained_models(self, tmp_path,
                                                      monkeypatch, capsys):
        ini = tmp_path / "tiny.ini"
        ini.write_text("[training]\nsample_count = 300\nn_train = 285\n"
                       "seed = 11\nmlp_epochs = 5\nelman_epochs = 2\n")
        trained = tmp_path / "trained"
        assert cli_main(["gen-data", "--config", str(ini),
                         "--out", str(trained)]) == 0
        # with only dataset.csv present there is nothing to score
        assert cli_main(["compare-models", "--config", str(ini),
                         "--out", str(trained)]) == 5
        assert "mlp_model.txt" in capsys.readouterr().err
        assert not (trained / "mape_report.json").exists()
        for kind in ("rbf", "mlp", "elman"):
            assert cli_main(["train", "--model", kind, "--config", str(ini),
                             "--out", str(trained)]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("compare-models retrained a saved model")

        for name in ("train_rbf", "train_mlp", "train_elman"):
            monkeypatch.setattr(f"dflsim.cli.{name}", no_training)
        assert cli_main(["compare-models", "--config", str(ini),
                         "--out", str(trained)]) == 0
        scored = compare_models(
            load_dataset_csv(trained / "dataset.csv", n_train=285),
            *(load_model(trained / f"{kind}_model.txt", cls)
              for kind, cls in MODEL_KINDS.items()))
        with open(trained / "mape_report.json") as fh:
            assert json.load(fh) == {m: [float(v) for v in vals]
                                     for m, vals in scored.mape_table.items()}

    def test_compare_models_scales_by_each_models_own_stats(self, tmp_path):
        # models trained on one dataset, scored on another whose STATS differ
        ini = tmp_path / "tiny.ini"
        ini.write_text("[training]\nsample_count = 300\nn_train = 285\n"
                       "seed = 11\nmlp_epochs = 5\nelman_epochs = 2\n")
        out, other = tmp_path / "out", tmp_path / "other"
        for argv in (["gen-data"], ["train", "--model", "rbf"],
                     ["train", "--model", "mlp"], ["train", "--model", "elman"]):
            assert cli_main(argv + ["--config", str(ini), "--out", str(out)]) == 0
        assert cli_main(["gen-data", "--config", str(ini), "--seed", "12",
                         "--out", str(other)]) == 0
        assert cli_main(["compare-models", "--config", str(ini), "--out", str(out),
                         "--data", str(other / "dataset.csv")]) == 0
        with open(out / "mape_report.json") as fh:
            reported = json.load(fh)["rbf"]
        ds = load_dataset_csv(other / "dataset.csv", n_train=285)
        model = load_rbf(out / "rbf_model.txt")

        def rbf_mape(st):
            val_in = normalize(ds.val_inputs, st.in_min, st.in_max)
            pred = np.array([rbf_forward(model, p) for p in val_in])
            return mape(denormalize(pred, st.out_min, st.out_max), ds.val_targets)

        assert np.allclose(reported, rbf_mape(model.stats), rtol=1e-12, atol=0.0)
        assert not np.allclose(reported, rbf_mape(ds.stats), rtol=1e-6, atol=0.0)

    def test_compare_models_on_model_of_the_wrong_kind_exit_code(
            self, small_ini, rbf_stage, tmp_path, capsys):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        for kind in ("mlp", "elman"):
            shutil.copy(out / "rbf_model.txt", out / f"{kind}_model.txt")
        assert cli_main(["compare-models", "--config", str(small_ini),
                         "--out", str(out)]) == 5
        assert "mlp_model.txt" in capsys.readouterr().err
        assert not (out / "mape_report.json").exists()

    def test_gen_data_stall_exit_code(self, tmp_path):
        ini = tmp_path / "stall.ini"
        ini.write_text("[plant]\nstall_speed = 1000.0\n"
                       "[training]\nsample_count = 50\nn_train = 45\n")
        assert cli_main(["gen-data", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("dt_int", ["0.05", "0.1"])
    def test_too_coarse_substep_exit_code(self, tmp_path, dt_int, capsys):
        # an RK4 stage drives the manifold pressure below zero; the fuel
        # delay is one substep, as stock at 0.05 s
        ini = tmp_path / "coarse.ini"
        ini.write_text(f"[plant]\ndt_int = {dt_int}\ninjection_delay = {dt_int}\n")
        assert cli_main(["gen-data", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 4
        assert "dt_int is too coarse" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_singular_qp_exit_code(self, trained_rbf, tmp_path, capsys):
        # the model's A is unstable in the climb, so its powers up to A^15
        # drive the 16-step condensed QP singular in floating point: E cannot
        # be inverted; at 17 steps E inverts, but the Hessian on the running
        # input sums has no Cholesky factor
        save_model(trained_rbf, tmp_path / "rbf_model.txt")
        for n2 in (16, 17):
            ini = tmp_path / f"long{n2}.ini"
            ini.write_text(f"[mpc]\nn2 = {n2}\n")
            out = tmp_path / f"o{n2}"
            assert cli_main(["simulate", "--controller", "ampc", "--config", str(ini),
                             "--model-file", str(tmp_path / "rbf_model.txt"),
                             "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("solver failure: ") and "singular" in err
            assert err.count("\n") == 1
            assert not (out / "trajectory_ampc.csv").exists()

    def test_non_finite_cost_exit_code(self, trained_rbf, tmp_path, capsys,
                                       monkeypatch):
        save_model(trained_rbf, tmp_path / "rbf_model.txt")
        solve = scenario.ampc_step

        def nan_cost(*args, **kwargs):
            u_cmd, sol, lpv = solve(*args, **kwargs)
            return u_cmd, replace(sol, cost=float("nan")), lpv

        monkeypatch.setattr(scenario, "ampc_step", nan_cost)
        assert cli_main(["simulate", "--controller", "ampc",
                         "--model-file", str(tmp_path / "rbf_model.txt"),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == "solver failure: solver produced a non-finite cost at step 0\n"

    def test_stray_error_in_a_stage_propagates(self, tmp_path, monkeypatch):
        # exit 4 names the solver failures; any other error is a fault of
        # the program, which main does not turn into an exit status
        def unfinished(*args):
            raise NotImplementedError("stage left unfinished")

        monkeypatch.setattr(dflsim.cli, "generate_dataset", unfinished)
        with pytest.raises(NotImplementedError, match="unfinished"):
            cli_main(["gen-data", "--out", str(tmp_path / "o")])

    def test_diverged_training_exit_code(self, tmp_path):
        ini = tmp_path / "diverge.ini"
        ini.write_text("[training]\nsample_count = 300\nn_train = 285\n"
                       "seed = 11\nmlp_lr = 1.0e6\nmlp_epochs = 20\n")
        assert cli_main(["gen-data", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 0
        assert cli_main(["train", "--model", "mlp", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 4

    def test_plant_runs_only_recorded_intervals(self, plant_calls, tmp_path):
        # both starts are solved for, not integrated
        assert cli_main(["gen-data", "--out", str(tmp_path / "o")]) == 0
        assert len(plant_calls) == TrainingConfig().sample_count
        del plant_calls[:]
        run_scenario(P, G, MpcConfig(), SHORT, controller="open-loop")
        assert len(plant_calls) == SHORT.steps

    @pytest.mark.parametrize("command", [["train", "--model", "rbf"],
                                         ["compare-models"]])
    def test_data_without_validation_rows_exit_code(self, small_ini, tmp_path,
                                                    command, capsys):
        # a 300-row file read at the stock n_train = 950
        short = tmp_path / "short"
        assert cli_main(["gen-data", "--config", str(small_ini),
                         "--out", str(short)]) == 0
        data = short / "dataset.csv"
        assert cli_main(command + ["--data", str(data),
                                   "--out", str(tmp_path / "o")]) == 5
        assert f"{data}: 300 rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_stall_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "stall.ini"
        ini.write_text("[scenario]\nsteps = 10\ninit_tps = 5.0\n"
                       "init_m_fi = 0.0055\n")
        out = tmp_path / "o"
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(ini), "--out", str(out)]) == 3
        # no stable start, so no step ran and there is no trajectory to keep
        assert not (out / "trajectory_open-loop.csv").exists()
        assert "partial trajectory" not in capsys.readouterr().err

    def test_mid_run_stall_writes_partial_trajectory(self, tmp_path,
                                                     monkeypatch):
        def stall_at_step_3(state, *args):
            if len(calls) == 3:
                raise EngineStallError("stalled")
            calls.append(state)
            return step_engine(state, *args)

        calls = []
        monkeypatch.setattr(scenario, "step_engine", stall_at_step_3)
        ini = tmp_path / "short.ini"
        ini.write_text("[scenario]\nsteps = 10\n")
        out = tmp_path / "o"
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(ini), "--out", str(out)]) == 3
        assert len(load_trajectory_csv(out / "trajectory_open-loop.csv")) == 3

    def test_simulate_on_mlp_model_file_exit_code(self, tmp_path):
        stats = NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                          out_min=-np.ones(3), out_max=np.ones(3))
        path = tmp_path / "mlp_model.txt"
        save_model(init_mlp(stats, hidden=4, seed=0), path)
        assert cli_main(["simulate", "--controller", "ampc", "--model-file",
                         str(path), "--out", str(tmp_path / "o")]) == 5

    def test_compare_models_on_mlp_file_without_stats_exit_code(self,
                                                                 tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text("[training]\nsample_count = 60\nn_train = 57\n")
        out = tmp_path / "out"
        assert cli_main(["gen-data", "--config", str(ini),
                         "--out", str(out)]) == 0
        m = init_mlp(load_dataset_csv(out / "dataset.csv", n_train=57).stats,
                     hidden=4, seed=0)
        # the block set an MLP file had before the STATS block existed
        save_blocks(out / "mlp_model.txt",
                    {"IW": m.iw, "LW": m.lw, "B1": m.b1, "B2": m.b2})
        assert cli_main(["compare-models", "--config", str(ini),
                         "--out", str(out)]) == 5

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[plant]\nbogus = 1\n")
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("ini_bytes", [
        pytest.param(b"[training]\nseed = 1\n[training]\nseed = 2\n", id="duplicate-section"),
        pytest.param(b"[training]\nseed = 1\nseed = 2\n", id="duplicate-key"),
        pytest.param(b"seed = 1\n", id="no-section-header"),
        pytest.param(b"[training]\nseed\n", id="line-without-equals"),
        pytest.param(b"[training]\nseed = \xff1\n", id="not-utf-8"),
        # a value is read as written, with no interpolation
        pytest.param(b"[training]\nseed = %(x)s\n", id="interpolation"),
    ])
    def test_malformed_ini_exit_code(self, tmp_path, ini_bytes, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(ini_bytes)
        out = tmp_path / "o"
        assert cli_main(["gen-data", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cls", sorted(failure_types(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_failure_type_exit_code(self, tmp_path, monkeypatch, capsys, cls):
        # every failure type, found by discovery, maps through its kind alone
        kinds = [kind for kind in EXIT_KINDS if issubclass(cls, kind)]
        assert len(kinds) == 1
        code, label, builtin = EXIT_KINDS[kinds[0]]
        assert (cls.exit_code, cls.label) == (code, label)
        assert issubclass(cls, builtin)
        exc = cls.__new__(cls)      # a leaf's __init__ may take more than a message
        Exception.__init__(exc, f"{cls.__name__} in a stage")

        def failing(args):
            raise exc

        monkeypatch.setattr(dflsim.cli, "cmd_gen_data", failing)
        assert cli_main(["gen-data", "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{label}: {cls.__name__} in a stage\n"

    def test_failure_types_found_by_discovery(self):
        assert {cls.__name__ for cls in failure_types()} == {
            "ConfigError", "StallError", "SolverError", "FileFormatError",
            "EngineStallError", "ScenarioStallError", "SubstepTooCoarseError",
            "InflowConvergenceError", "SingularQpError", "TrainingDivergedError",
            "NonFiniteCostError"}

    @pytest.mark.parametrize("command, ini_text", [
        (["gen-data"], "[plant]\ndt_int = 0.003\n"),
        # the fuel in transit must be the previous command alone
        (["gen-data"], "[plant]\ninjection_delay = 0.15\n"),
        # the stock 50 ms delay is 12.5 substeps of 4 ms
        (["gen-data"], "[plant]\ndt_int = 0.004\n"),
    ])
    def test_control_interval_not_whole_substeps_exit_code(self, tmp_path,
                                                           command, ini_text):
        bad = tmp_path / "bad.ini"
        bad.write_text(ini_text)
        assert cli_main(command + ["--config", str(bad),
                                   "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize("argv", [
        # a command offers no flag that it would ignore
        pytest.param(["report", "trajectory.csv", "--seed", "3"],
                     id="report --seed"),
        # the data and the excitation seed matter only to gen-data
        pytest.param(["train", "--model", "rbf", "--seed", "3"],
                     id="train --seed"),
        pytest.param(["compare-models", "--seed", "3"],
                     id="compare-models --seed"),
        pytest.param(["simulate", "--data", "dataset.csv"],
                     id="simulate --data"),
        pytest.param(["check-jacobian", "--data", "dataset.csv"],
                     id="check-jacobian --data"),
        # an audit of no point proves nothing
        pytest.param(["check-jacobian", "--points", "0"],
                     id="check-jacobian --points 0"),
        pytest.param(["check-jacobian", "--points", "-5"],
                     id="check-jacobian --points -5"),
    ])
    def test_unread_or_invalid_flag_exit_code(self, tmp_path, argv):
        with pytest.raises(SystemExit) as info:
            cli_main(argv + ["--out", str(tmp_path / "o")])
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--controller", "ampc", "--model-file", "{missing}"],
        ["check-jacobian", "--model-file", "{missing}"],
        ["train", "--model", "rbf", "--data", "{missing}"],
        ["compare-models", "--data", "{missing}"],
        ["report", "{missing}"],
    ])
    def test_missing_input_file_exit_code(self, tmp_path, argv, capsys):
        # a stage never remakes the file the stage before it should have written
        missing = str(tmp_path / "typo.txt")
        assert cli_main([a.format(missing=missing) for a in argv]
                        + ["--out", str(tmp_path / "o")]) == 5
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "rbf", "--data", "{bad}"],
        ["compare-models", "--data", "{bad}"],
        ["report", "{bad}"],
        ["simulate", "--controller", "ampc", "--model-file", "{bad}"],
    ])
    def test_input_file_not_utf8_exit_code(self, tmp_path, argv, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"step,thrust_ref\xb0\n0,1.0\n")
        assert cli_main([a.format(bad=bad) for a in argv]
                        + ["--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err == f"bad input file: {bad}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "rbf", "--data", "{folder}"],
        ["simulate", "--controller", "ampc", "--model-file", "{folder}"],
    ])
    def test_input_path_is_a_directory_exit_code(self, tmp_path, argv, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert cli_main([a.format(folder=folder) for a in argv]
                        + ["--out", str(tmp_path / "o")]) == 5
        assert f"{folder}: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, ini_text", [
        (["gen-data", "--seed", "-1"], ""),
        (["train", "--model", "mlp"], "[training]\nmodel_seed = -1\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\nseed = -3\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\ninit_m_fi = 0\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\nsteps = -1\n"),
        # inf times a row with no penalty is nan once a limit is crossed
        (["simulate", "--controller", "ampc"], "[mpc]\nsoft_weight = inf\n"),
    ])
    def test_negative_seed_exit_code(self, tmp_path, command, ini_text):
        ini = tmp_path / "seed.ini"
        ini.write_text(ini_text)
        assert cli_main(command + ["--config", str(ini),
                                   "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("training", [
        "sample_count = 0",
        "sample_count = 60\nn_train = 0",
        "sample_count = 60\nn_train = 60",      # no validation row left
        "mlp_hidden = 0",
        "elman_epochs = 0",
    ])
    def test_bad_training_sizes_exit_code(self, tmp_path, training):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[training]\n{training}\n")
        assert cli_main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize("key", ["init_n = 37.0", "init_manifold = 5.7e4",
                                     "warmup_steps = 200"])
    def test_removed_start_keys_exit_code(self, tmp_path, key):
        # the start is solved from the held input; no key sets its state
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[scenario]\n{key}\n")
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, key", [
        # the control interval is fixed at the models' step
        ("scenario", "dt = 0.1"),
        ("scenario", "dt = 0.1005"),
        ("scenario", "dt = 0.2"),
        # the closed-form power map holds at every fan speed
        ("fan", "n_fan_max = 250"),
        # the momentum disc is always the blade annulus
        ("fan", "disc_area = 0.3"),
        # the cost runs over every predicted step, from the first on
        ("mpc", "n1 = 1"),
        # the input box is the identification region; lambda is undefined at
        # zero fuel, and the region keeps the fuel positive
        ("mpc", "tps_bounds = 10,80"),
        ("mpc", "mf_bounds = -0.001,0.0055"),
        # the state noise scales by the fixed STATE_NOISE_SPAN
        ("scenario", "q_span = 30"),
        ("scenario", "n_span = 300"),
        # with noisy targets no fit reaches an MSE target, so every fit runs
        # all its epochs
        ("training", "mse_target = 1e-4"),
        # the RBF fit's settings are constants of dflsim.networks
        ("training", "rbf_neighbors = 0"),
        ("training", "rbf_overlap = 4.0"),
        ("training", "ridge = 1e-8"),
        ("training", "lms_passes = 1"),
        ("training", "lms_rate = 0.005"),
    ])
    def test_removed_fixed_keys_exit_code(self, tmp_path, section, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{key}\n")
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_reversed_mpc_bounds_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mpc]\nthrust_bounds = 1000,0\n")
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["thrust_bounds = 0, inf",
                                     "thrust_bounds = -inf, 1500",
                                     "lambda_bounds = 0.68, inf",
                                     "lambda_bounds = -inf, 1.26"])
    def test_infinite_output_bound_exit_code(self, plant_calls, rbf_stage,
                                             tmp_path, key):
        # an infinite span zeroes the tracking weight and makes the output
        # noise infinite, so it is refused before the first plant interval
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[mpc]\n{key}\n")
        assert cli_main(["simulate", "--controller", "ampc", "--config",
                         str(bad), "--out", str(out)]) == 2
        assert plant_calls == []
        assert not (out / "trajectory_ampc.csv").exists()

    @pytest.mark.parametrize("section, key", [
        ("plant", "gamma = 1.0"),
        ("plant", "ambient_pressure = 0"),
        ("plant", "ambient_pressure = -101325"),
        ("plant", "ambient_temp = 0"),
        ("plant", "gas_constant = 0"),
        ("plant", "manifold_volume = 0"),
        ("plant", "manifold_temp = 0"),
        ("plant", "eta_speed_ref = 0"),
        # the power and the air flow scale with these: no operating point at zero
        ("plant", "eta_peak = -0.33"),
        ("plant", "volumetric_eff = 0"),
        ("plant", "throttle_area_max = 0"),
        ("plant", "displacement = 0"),
        ("fan", "air_density = 0"),
        ("fan", "transmission_eff = 0"),
        # an efficiency above one would make the belt a power source
        ("fan", "transmission_eff = 1.5"),
        # the metrics divide by each reference level
        ("scenario", "lam_rich = 0"),
        ("scenario", "lam_eff = -1"),
        ("scenario", "thrust_idle = 0"),
        ("scenario", "thrust_hover = inf"),
        # the noise scales the measurement, so it must be a finite magnitude
        ("scenario", "noise_std = nan"),
        ("scenario", "noise_std = -0.01"),
        # solved from the geometry, not read from the file
        ("fan", "hover = 1"),
        # the blade loads scale with the blade factor, cl_max and the lift
        # slope, the duct gain takes the cube root of the area ratio, and the
        # power curve divides by k_P
        ("fan", "blade_factor = 0"),
        ("fan", "outlet_area_ratio = -1"),
        ("fan", "cl_max = 0"),
        ("fan", "lift_slope = 0"),
        # a twist whose blades push down: refused where simulate solves the fan
        ("fan", "twist_root = -0.5\ntwist_tip = -0.5"),
        ("plant", "injection_delay = inf"),
        # the metrics slice the trajectory at the step indices
        ("scenario", "settle_margin = -200"),
        ("scenario", "ramp_start = 60\nramp_end = 20"),
        ("scenario", "lam_step_at = -1"),
    ])
    def test_parameter_the_models_divide_by_exit_code(self, tmp_path, section, key):
        # the plant and the fan divide by each of these, and by gamma - 1
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{key}\n")
        assert cli_main(["simulate", "--controller", "open-loop", "--config",
                         str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, ini_text", [
        # a stalled plant or a noise-free dataset would hide the bad value
        (["gen-data"], "[plant]\neta_peak = nan\n"),
        (["gen-data"], "[plant]\ninertia = inf\n"),
        (["gen-data"], "[training]\nsnr_db = nan\n"),
        (["gen-data"], "[training]\nsnr_db = -inf\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\ninit_tps = inf\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\ninit_tps = nan\n"),
        (["simulate", "--controller", "open-loop"], "[scenario]\ninit_m_fi = inf\n"),
        # NaN is no value for any number, a pair's included
        (["simulate", "--controller", "ampc"], "[mpc]\nsoft_weight = nan\n"),
        (["simulate", "--controller", "ampc"], "[mpc]\nlambda_bounds = nan, 1.26\n"),
        # an infinite rate diverges on its first step; a zero rate trains
        # nothing, and a negative one climbs the error
        (["train", "--model", "mlp"], "[training]\nmlp_lr = inf\n"),
        (["train", "--model", "mlp"], "[training]\nmlp_lr = 0\n"),
        (["train", "--model", "elman"], "[training]\nelman_lr = -0.01\n"),
    ])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, command, ini_text):
        bad = tmp_path / "bad.ini"
        bad.write_text(ini_text)
        out = tmp_path / "o"
        assert cli_main(command + ["--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize("command", [
        ["gen-data"], ["simulate", "--controller", "open-loop"]])
    def test_out_naming_a_file_exit_code(self, plant_calls, tmp_path, command,
                                         below, capsys):
        # refused before the stage runs a single plant interval
        taken = tmp_path / "out"
        taken.write_bytes(b"not a directory\n")
        out = taken / below
        assert cli_main(command + ["--out", str(out)]) == 2
        assert taken.read_bytes() == b"not a directory\n"
        assert plant_calls == []
        assert capsys.readouterr().err == \
            f"config error: --out {out} is not a directory\n"

    @pytest.mark.parametrize("lw_rows, stats_rows", [
        # a third STATS row
        (["0.5", "0.5", "0.5"], ["-1 -1 -1 -1 -1 -1 -1", "1 1 1 1 1 1 1",
                                 "1 1 1 1 1 1 1"]),
        # LW with a column for a second center the file does not have
        (["0.5 0.5", "0.5 0.5", "0.5 0.5"],
         ["-1 -1 -1 -1 -1 -1 -1", "1 1 1 1 1 1 1"]),
        # an input whose maximum is its minimum
        (["0.5", "0.5", "0.5"], ["-1 -1 -1 -1 -1 -1 -1", "1 -1 1 1 1 1 1"]),
    ])
    def test_simulate_on_misshapen_rbf_file_exit_code(self, tmp_path, lw_rows,
                                                      stats_rows):
        path = tmp_path / "rbf_model.txt"
        path.write_text("\n".join(
            ["# CENTERS 1 4", "0 0 0 0", "# RADII 1 1", "1",
             f"# LW 3 {len(lw_rows[0].split())}", *lw_rows,
             f"# STATS {len(stats_rows)} 7", *stats_rows]) + "\n")
        assert cli_main(["simulate", "--controller", "ampc", "--model-file",
                         str(path), "--out", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("command", [["check-jacobian"],
                                         ["simulate", "--controller", "ampc"]])
    def test_stock_model_with_an_input_of_no_span_exit_code(
            self, stock_rbf, tmp_path, command, capsys):
        # the loader refuses the file, so neither the audit nor the
        # controller ever divides by the zero span
        path = tmp_path / "rbf_model.txt"
        save_model(stock_rbf, path)
        blocks = load_blocks(path)
        blocks["STATS"][1, 0] = blocks["STATS"][0, 0]
        save_blocks(path, blocks)
        out = tmp_path / "o"
        assert cli_main(command + ["--model-file", str(path),
                                   "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"{path}: STATS column 1, an input, has maximum" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_train_refuses_a_split_that_leaves_an_input_no_span(self, tmp_path,
                                                                capsys):
        # one training row gives every column a zero span, and load_model
        # would refuse each model trained on it
        ini = tmp_path / "one_row.ini"
        ini.write_text("[training]\nsample_count = 5\nn_train = 1\n")
        out = tmp_path / "o"
        assert cli_main(["gen-data", "--config", str(ini), "--out", str(out)]) == 0
        capsys.readouterr()
        for kind in MODEL_KINDS:
            assert cli_main(["train", "--model", kind, "--config", str(ini),
                             "--out", str(out)]) == 5
            err = capsys.readouterr().err
            assert f"{out / 'dataset.csv'}: over its 1 training rows, column 1, " \
                "an input, has maximum" in err
        assert sorted(p.name for p in out.iterdir()) == ["dataset.csv"]

    def test_train_rbf_reports_the_fitted_center_count(self, tmp_path, capsys):
        # k-means places at most one center per training row
        ini = tmp_path / "capped.ini"
        ini.write_text("[training]\nsample_count = 60\nn_train = 57\n"
                       "rbf_centers = 80\n")
        out = tmp_path / "o"
        for argv in (["gen-data"], ["train", "--model", "rbf"]):
            assert cli_main(argv + ["--config", str(ini), "--out", str(out)]) == 0
        assert "trained rbf: 57 centers" in capsys.readouterr().out
        assert load_rbf(out / "rbf_model.txt").centers.shape == (57, 4)

    @pytest.mark.parametrize("code, argv, ini_text", [
        # --out names a file, which keeps its bytes
        pytest.param(2, ["gen-data"], None, id="2-out-names-a-file"),
        # the held start input has no stable operating point
        pytest.param(3, ["simulate", "--controller", "open-loop"],
                     "[scenario]\ninit_tps = 5.0\ninit_m_fi = 0.0055\n",
                     id="3-stall-at-start"),
        # an RK4 stage drives the manifold pressure below zero
        pytest.param(4, ["gen-data"], "[plant]\ndt_int = 0.05\n",
                     id="4-substep-too-coarse"),
        # the stage before never wrote the model file
        pytest.param(5, ["simulate", "--controller", "ampc", "--model-file",
                         "missing.txt"], None, id="5-missing-model-file"),
    ])
    def test_process_exit_status(self, tmp_path, code, argv, ini_text):
        """A separate process carries ``main``'s return as its exit status."""
        out = tmp_path / "out"
        if code == 2:
            out.write_bytes(b"not a directory\n")
        if ini_text is not None:
            (tmp_path / "case.ini").write_text(ini_text)
            argv = argv + ["--config", "case.ini"]
        src = str(Path(dflsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "dflsim.cli", *argv,
                               "--out", "out"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        if code == 2:
            assert proc.stderr == "config error: --out out is not a directory\n"
            assert out.read_bytes() == b"not a directory\n"
        else:
            assert not any(out.glob("*"))

    def test_lpv_dump(self, small_ini, rbf_stage, tmp_path):
        out = shutil.copytree(rbf_stage, tmp_path / "out")
        assert cli_main(["simulate", "--controller", "ampc", "--config",
                         str(small_ini), "--out", str(out), "--dump-lpv"]) == 0
        trace = (out / "lpv_trace_ampc.csv").read_text().splitlines()
        assert len(trace) == 41  # header + one model per step
