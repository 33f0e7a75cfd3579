"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The suite regenerates the default dataset, trains the
models, and runs the closed-loop scenarios, so it takes a few minutes.
"""

import numpy as np
import pytest

from dflsim.cli import main as cli_main
from dflsim.config import load_bundle
from dflsim.dataset import normalize
from dflsim.engine import ControlInput, EngineParams, make_initial_state, \
    step_engine, friction_power, cylinder_air_flow, normalized_afr
from dflsim.fan import (FanGeometry, duct_ratio, solve_operating_point,
                        thrust_from_power)
from dflsim.lpv import assoc_jacobian, build_lpv
from dflsim.mpc import hildreth
from dflsim.networks import compare_models, rbf_forward, train_elman, train_mlp
from dflsim.scenario import run_scenario
from test_engine import combustion_power


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {description}  {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(None)


@pytest.fixture(scope="module")
def dataset(stock_dataset):
    return stock_dataset


@pytest.fixture(scope="module")
def rbf(stock_rbf):
    return stock_rbf


@pytest.fixture(scope="module")
def ampc_run(bundle, rbf):
    return run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                        controller="ampc", rbf=rbf)


@pytest.fixture(scope="module")
def linear_run(bundle, rbf):
    return run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                        controller="linear-mpc", rbf=rbf)


def test_criterion_1_jacobian_exactness(rbf):
    rng = np.random.default_rng(2024)
    worst = 0.0
    step = 1e-5
    for _ in range(100):
        p = rng.uniform(-1.0, 1.0, 4)
        jac = assoc_jacobian(rbf, p)
        fd = np.empty((3, 4))
        for j in range(4):
            dp = np.zeros(4)
            dp[j] = step
            fd[:, j] = (rbf_forward(rbf, p + dp)
                        - rbf_forward(rbf, p - dp)) / (2.0 * step)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(jac - fd))) / scale)
    _report(1, "derivative network matches finite differences (<= 1e-6)",
            worst <= 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_2_lpv_structure(bundle, rbf):
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        x0 = np.array([rng.uniform(3.0, 35.0), rng.uniform(40.0, 105.0),
                       rng.uniform(0.75, 1.15)])
        u0 = np.array([rng.uniform(15.0, 70.0), rng.uniform(0.0013, 0.005)])
        lpv = build_lpv(rbf, bundle.fan, x0, u0)
        ok = ok and np.array_equal(lpv.a[:, 0], np.zeros(3))
        ok = ok and lpv.c[0, 2] == 0.0
        ok = ok and np.array_equal(lpv.c[1], np.array([0.0, 0.0, 1.0]))
    _report(2, "structural zeros of A and C hold exactly at 100 points", ok)


def test_criterion_3_first_order_validity(bundle, rbf):
    from dflsim.dataset import denormalize
    rng = np.random.default_rng(99)
    stats = rbf.stats
    span = stats.in_max - stats.in_min
    ratios = []
    for _ in range(50):
        x0 = np.array([rng.uniform(4.0, 32.0), rng.uniform(42.0, 100.0),
                       rng.uniform(0.8, 1.1)])
        u0 = np.array([rng.uniform(20.0, 65.0), rng.uniform(0.0015, 0.0048)])
        lpv = build_lpv(rbf, bundle.fan, x0, u0)
        p0 = np.array([u0[0], u0[1], x0[1], x0[2]])
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)

        def remainder(scale):
            dp = direction * span * scale
            y0 = denormalize(rbf_forward(rbf, normalize(p0, stats.in_min,
                                                        stats.in_max)),
                             stats.out_min, stats.out_max)
            y1 = denormalize(rbf_forward(rbf, normalize(p0 + dp, stats.in_min,
                                                        stats.in_max)),
                             stats.out_min, stats.out_max)
            pred = lpv.a @ np.array([0.0, dp[2], dp[3]]) + lpv.b @ dp[:2]
            return float(np.linalg.norm(y1 - y0 - pred))

        r1, r2 = remainder(1e-4), remainder(5e-5)
        if r1 > 1e-13:
            ratios.append(r1 / max(r2, 1e-300))
    med = float(np.median(ratios))
    _report(3, "Taylor remainder shrinks >= 3.5x when perturbation halves",
            med >= 3.5, f"median ratio {med:.2f} over {len(ratios)} points")


def test_criterion_4_model_comparison(bundle, dataset, rbf):
    tr = bundle.training
    report = compare_models(dataset, train_mlp(dataset, tr)[0],
                            train_elman(dataset, tr)[0], rbf)
    rbf_mape = report.mape_table["rbf"]
    elman_mape = report.mape_table["elman"]
    within = bool(np.all(rbf_mape <= 2.5))
    beats = bool(np.all(rbf_mape < elman_mape))
    detail = (f"rbf={np.round(rbf_mape, 3)} "
              f"elman={np.round(elman_mape, 3)} "
              f"mlp={np.round(report.mape_table['mlp'], 3)}")
    _report(4, "RBF validation MAPE <= 2.5% per output and beats Elman",
            within and beats, detail)


def test_criterion_5_closed_loop_tracking(bundle, ampc_run):
    records, metrics = ampc_run
    ts = metrics["thrust_steady"]
    ls = metrics["lambda_steady"]
    thrust_ok = max(abs(ts["min"]), abs(ts["max"])) <= 5.0
    lam_ok = max(abs(ls["min"]), abs(ls["max"])) <= 3.5
    cfg = bundle.mpc
    box_ok = all(cfg.tps_bounds[0] <= r.tps <= cfg.tps_bounds[1]
                 and cfg.mf_bounds[0] <= r.m_fi <= cfg.mf_bounds[1]
                 for r in records)
    detail = (f"thrust [{ts['min']:.2f},{ts['max']:.2f}]% "
              f"lambda [{ls['min']:.2f},{ls['max']:.2f}]%")
    _report(5, "steady tracking within +-5% thrust / +-3.5% lambda, inputs in box",
            thrust_ok and lam_ok and box_ok, detail)


def test_criterion_6_baseline_contrast(ampc_run, linear_run):
    _, ampc_metrics = ampc_run
    lin_records, lin_metrics = linear_run
    ampc_lam_mae = ampc_metrics["lambda_steady"]["mae"]
    lin_lam_mae = lin_metrics["lambda_steady"]["mae"]
    lam_contrast = lin_lam_mae >= 2.0 * ampc_lam_mae
    ramp = lin_metrics["thrust_ramp"]
    ramp_diverges = ramp is not None and (ramp["min"] < -10.0
                                          or ramp["max"] > 10.0)
    detail = (f"lambda mae linear {lin_lam_mae:.2f}% vs ampc "
              f"{ampc_lam_mae:.2f}%; linear ramp "
              f"[{ramp['min']:.1f},{ramp['max']:.1f}]%")
    _report(6, "frozen-model MPC degrades 2x in lambda or diverges on ramp",
            lam_contrast or ramp_diverges, detail)


def test_criterion_7_plant_properties():
    params = EngineParams()
    geom = FanGeometry()
    # engine equilibrium power balance
    u = ControlInput(tps=40.0, m_fi=0.0032)
    state = make_initial_state(params, n=70.0, manifold_pressure=7.2e4,
                               m_fi=u.m_fi)
    for _ in range(600):
        state = step_engine(state, u, 8000.0, params)
    m_as = cylinder_air_flow(state.manifold_pressure, state.n, params)
    lam_burn = normalized_afr(m_as, u.m_fi, params.stoich_afr)
    p_comb = combustion_power(u.m_fi, lam_burn, state.n, params)
    balance = abs(p_comb - friction_power(state.n, params) - 8000.0) / 8000.0
    balance_ok = balance <= 1e-6
    # fan grid convergence
    coarse = solve_operating_point(90.0, geom)
    fine = solve_operating_point(90.0, FanGeometry(element_count=64))
    t_rel = abs(fine.thrust_unducted - coarse.thrust_unducted) \
        / coarse.thrust_unducted
    q_rel = abs(fine.torque - coarse.torque) / coarse.torque
    grid_ok = t_rel < 0.005 and q_rel < 0.005
    # duct ratio exactness
    duct_ok = duct_ratio(geom) == 1.26
    # power inversion round trip
    rt_ok = True
    for p_b in (2.0e3, 1.0e4, 3.0e4):
        _, n_fan = thrust_from_power(p_b, geom)
        resid = abs(solve_operating_point(n_fan, geom).power
                    - p_b * geom.transmission_eff) / (p_b * geom.transmission_eff)
        rt_ok = rt_ok and resid <= 1e-6
    detail = (f"balance {balance:.1e}, grid {max(t_rel, q_rel):.2e}, "
              f"duct {duct_ratio(geom)!r}, round-trip ok={rt_ok}")
    _report(7, "plant property suite (balance, grid, duct, inversion)",
            balance_ok and grid_ok and duct_ok and rt_ok, detail)


def test_criterion_8_solver_audit():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = 6
        a = rng.normal(size=(n, n))
        e = a @ a.T + n * np.eye(n)
        f = rng.normal(size=n)
        z_free = -np.linalg.solve(e, f)
        s = rng.normal(size=(12, n))[:n]     # bounds on S z, S a random map
        margin = rng.uniform(0.5, 2.0, 12)
        z, _, _, _, _ = hildreth(e, f, s, s @ z_free - margin[:n], s @ z_free + margin[n:])
        worst = max(worst, float(np.max(np.abs(z - z_free))))
    interior_ok = worst <= 1e-8
    # constructed active-constraint fixture: clamp with positive multiplier
    z, lam, _, kkt, _ = hildreth(np.array([[2.0]]), np.array([-4.0]), np.eye(1),
                                 np.array([-np.inf]), np.array([1.0]))
    clamp_ok = abs(z[0] - 1.0) <= 1e-6 and lam[0] > 0.0 and kkt <= 1e-6
    _report(8, "QP solver equals dense solve when interior; clamps correctly",
            interior_ok and clamp_ok,
            f"worst interior err {worst:.2e}, clamp z={z[0]:.8f}")


# Stock AMPC episode, every 25th step: (tps, m_fi, thrust_true kgf, lam_true).
# Criterion 9 compares two runs of one tree; these pin the episode across
# commits.  A change that moves them on purpose re-freezes them and records
# the largest shift in CHANGES.md.
FROZEN_AMPC = {
    0: (19.507917817310133, 0.0012402424130946463, 10.037092158518412,
        0.8188458918968433),
    25: (28.68285849134213, 0.002159195234247681, 15.83538582390202,
         0.8580014703905063),
    50: (44.860426987436206, 0.004224057518549106, 49.71868178404786,
         0.8434134851030942),
    75: (53.469697012280626, 0.004839837174034319, 56.55871045600833,
         0.82030507854888),
    100: (43.99753062471672, 0.004990554875410092, 81.09980466312429,
          0.8155274866803103),
    125: (45.92185904376791, 0.0050955804176932625, 80.18324475701515,
          0.8236605832591399),
    150: (55.12924843030264, 0.004601404751867772, 79.11111253859177,
          0.9858277756816997),
    175: (70.63535283099661, 0.00485901615716837, 79.74669092397014,
          1.0015670984495002),
    200: (63.78273860274448, 0.00479487572079322, 80.46704324176527,
          0.9994978540451119),
    225: (65.49805260521298, 0.004824023367944269, 79.80314913029913,
          1.0018851023572866),
}
# criterion 5's segment statistics, percent: (min, max, mae)
FROZEN_SEGMENTS = {
    "thrust_steady": (-2.16476470233971, 1.0878386369368265,
                      0.6408434525041052),
    "lambda_steady": (-0.482174480303188, 0.5256116194630733,
                      0.18274945252717104),
}


def test_stock_ampc_closed_loop_frozen(ampc_run):
    records, metrics = ampc_run
    assert len(records) == 250
    for step, expected in FROZEN_AMPC.items():
        r = records[step]
        got = (r.tps, r.m_fi, r.thrust_true, r.lam_true)
        assert got == pytest.approx(expected, rel=1e-9), f"step {step}"
    for name, expected in FROZEN_SEGMENTS.items():
        seg = metrics[name]
        got = (seg["min"], seg["max"], seg["mae"])
        assert got == pytest.approx(expected, rel=1e-9), name


def test_criterion_9_determinism(tmp_path, bundle, dataset, rbf):
    from dflsim.networks import save_model
    model_path = tmp_path / "rbf_model.txt"
    save_model(rbf, model_path)
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["simulate", "--controller", "ampc", "--seed", "7",
                         "--out", str(out), "--model-file", str(model_path)])
        assert code == 0
        outputs.append((out / "trajectory_ampc.csv").read_bytes())
    _report(9, "repeated simulate runs produce byte-identical trajectories",
            outputs[0] == outputs[1],
            f"{len(outputs[0])} bytes each")
