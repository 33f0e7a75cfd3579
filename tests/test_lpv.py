"""Derivative network and LPV assembly."""

from dataclasses import fields, replace

import numpy as np
import pytest

import dflsim.lpv
from dflsim.config import load_bundle
from dflsim.dataset import NormStats, TrainingConfig
from dflsim.engine import CONTROL_DT
from dflsim.fan import FanGeometry, ducted_thrust_at_crank_speed, thrust_jacobian
from dflsim.lpv import (LPV_CSV_HEADER, LpvModel, assoc_jacobian, build_lpv,
                        save_lpv_trace)
from dflsim.mpc import condensed_map
from dflsim.networks import (RbfModel, load_rbf, rbf_forward, save_model,
                             train_rbf)
from dflsim.scenario import run_scenario
from dflsim.tables import read_table

G = FanGeometry()


def random_rbf(seed=0, centers=12):
    rng = np.random.default_rng(seed)
    stats = NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                      out_min=-np.ones(3), out_max=np.ones(3))
    return RbfModel(centers=rng.uniform(-1, 1, (centers, 4)),
                    radii=rng.uniform(0.4, 1.6, centers),
                    lw=rng.normal(size=(3, centers)), stats=stats)


@pytest.fixture(scope="module")
def trained_rbf(seed19_dataset):
    return train_rbf(seed19_dataset, TrainingConfig())


def rescale_jacobian(j_norm, stats):
    """A normalized-space Jacobian in physical units, the scales derived
    from ``stats`` on every call."""
    out_scale = 0.5 * (stats.out_max - stats.out_min)        # dy_phys/dy_norm
    in_scale = 2.0 / (stats.in_max - stats.in_min)           # dp_norm/dx_phys
    return j_norm * out_scale[:, None] * in_scale[None, :]


def oracle_assoc_jacobian(rbf, p):
    """``assoc_jacobian`` with every radius term derived on every call."""
    diff = p - rbf.centers
    phi = np.exp(-(diff * diff).sum(axis=1) / rbf.radii ** 2)
    stack = (phi * (-2.0 / rbf.radii ** 2))[:, None] * diff
    return rbf.lw @ stack


def oracle_build_lpv(rbf, geom, x0, u0):
    """``build_lpv`` with nothing cached on the model: the operating point
    normalized with array arithmetic, the Jacobian rescaled by
    ``rescale_jacobian``, the fan sensitivities taken at numpy scalars and C
    written entry by entry into zeros."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    p_phys = np.array([u0[0], u0[1], x0[1], x0[2]])
    p_norm = 2.0 * (p_phys - rbf.stats.in_min) / (rbf.stats.in_max
                                                  - rbf.stats.in_min) - 1.0
    j_phys = rescale_jacobian(oracle_assoc_jacobian(rbf, p_norm), rbf.stats)
    a = np.zeros((3, 3))
    a[:, 1:] = j_phys[:, 2:]
    b = j_phys[:, :2].copy()
    dt_dq, dt_dn = thrust_jacobian(x0[0], x0[1], geom)
    c = np.zeros((2, 3))
    c[0, 0] = dt_dq
    c[0, 1] = dt_dn
    c[1, 2] = 1.0
    return LpvModel(a=a, b=b, c=c, x0=x0, u0=u0)


def lpv_bytes(lpv):
    """Every field of an ``LpvModel``: each array's shape, dtype and bytes."""
    return [(f.name, np.shape(v), np.asarray(v).dtype, np.asarray(v).tobytes())
            for f in fields(lpv) for v in [getattr(lpv, f.name)]]


def first_move_gain(lpv, config):
    """The unconstrained first move per unit tracking error, span-scaled: rows
    0-1 of E^-1 * 2 G'Q applied to an error held over the horizon, with the
    error in output spans and the move in input spans."""
    layout = config.layout
    g = condensed_map(lpv, config)
    e_mat = 2.0 * (g.T @ (layout.q_diag[:, None] * g) + layout.r_mat)
    held = np.tile(np.eye(2), (config.n2, 1))
    k = np.linalg.solve(e_mat, 2.0 * g.T @ (layout.q_diag[:, None] * held))[:2]
    return k * layout.w_u[:2, None] / layout.w_y[None, :2]


def fd_jacobian(model, p, step=1e-5):
    fd = np.empty((3, 4))
    for j in range(4):
        dp = np.zeros(4)
        dp[j] = step
        fd[:, j] = (rbf_forward(model, p + dp)
                    - rbf_forward(model, p - dp)) / (2.0 * step)
    return fd


class TestAssocJacobian:
    def test_zero_row_at_center_of_single_center_model(self):
        stats = NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                          out_min=-np.ones(3), out_max=np.ones(3))
        c = np.array([[0.3, -0.3, 0.5, 0.0]])
        m = RbfModel(centers=c, radii=np.array([0.8]),
                     lw=np.array([[1.0], [2.0], [-1.0]]), stats=stats)
        assert np.array_equal(assoc_jacobian(m, c[0]), np.zeros((3, 4)))

    def test_zero_weights_give_zero_jacobian(self):
        m = random_rbf(1)
        m = RbfModel(m.centers, m.radii, np.zeros_like(m.lw), m.stats)
        p = np.array([0.2, 0.1, -0.4, 0.6])
        assert np.array_equal(assoc_jacobian(m, p), np.zeros((3, 4)))

    def test_matches_finite_differences_random_model(self):
        m = random_rbf(7)
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = rng.uniform(-1, 1, 4)
            jac = assoc_jacobian(m, p)
            fd = fd_jacobian(m, p)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(jac - fd)) / scale < 1e-6

    def test_keystone_hundred_points(self, trained_rbf):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(-1, 1, 4)
            jac = assoc_jacobian(trained_rbf, p)
            fd = fd_jacobian(trained_rbf, p)
            scale = max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, np.max(np.abs(jac - fd)) / scale)
        assert worst < 1e-6

    def test_vanishes_far_from_all_centers(self):
        m = random_rbf(3, centers=6)
        peak = np.max([np.max(np.abs(assoc_jacobian(m, c)))
                       for c in m.centers]) + np.max(np.abs(m.lw))
        far = m.centers[0] + 10.0 * m.radii.max() * np.ones(4) / 2.0
        assert np.max(np.abs(assoc_jacobian(m, far))) < 1e-10 * peak


def lpv_jacobian(j, stats, monkeypatch):
    """The physical-unit Jacobian ``build_lpv`` assembles (B, then A's speed
    and lambda columns) when the network's normalized Jacobian is ``j``
    under ``stats``."""
    monkeypatch.setattr("dflsim.lpv.assoc_jacobian", lambda rbf, p: j)
    rbf = RbfModel(centers=np.zeros((1, 4)), radii=np.ones(1),
                   lw=np.zeros((3, 1)), stats=stats)
    lpv = build_lpv(rbf, G, np.array([15.0, 70.0, 0.9]), np.array([35.0, 0.003]))
    return np.hstack([lpv.b, lpv.a[:, 1:]])


class TestRescaleJacobian:
    """``build_lpv`` carries a normalized-space Jacobian into physical units
    by the chain rule."""

    def test_identity_stats_unchanged(self, monkeypatch):
        stats = NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                          out_min=-np.ones(3), out_max=np.ones(3))
        j = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(lpv_jacobian(j, stats, monkeypatch), j)

    def test_input_scaling_divides_columns(self, monkeypatch):
        k = 4.0
        stats = NormStats(in_min=-k * np.ones(4) / 2, in_max=k * np.ones(4) / 2,
                          out_min=-np.ones(3), out_max=np.ones(3))
        j = np.ones((3, 4))
        assert np.allclose(lpv_jacobian(j, stats, monkeypatch),
                           np.ones((3, 4)) * 2 / k, rtol=1e-14)

    def test_round_trip(self, monkeypatch):
        rng = np.random.default_rng(8)
        stats = NormStats(in_min=rng.uniform(-5, -1, 4),
                          in_max=rng.uniform(1, 5, 4),
                          out_min=rng.uniform(-9, -1, 3),
                          out_max=rng.uniform(1, 9, 3))
        j = rng.normal(size=(3, 4))
        j_phys = lpv_jacobian(j, stats, monkeypatch)
        back = j_phys / (0.5 * (stats.out_max - stats.out_min))[:, None] \
            / (2.0 / (stats.in_max - stats.in_min))[None, :]
        assert np.max(np.abs(back - j)) < 1e-12
        assert j_phys.tobytes() == rescale_jacobian(j, stats).tobytes()


class TestModelFile:
    """A model drives the controller by its field values alone: the stock
    model in memory and read back from its file give the same bits."""

    def test_saved_stock_model_drives_the_same_episodes(self, stock_rbf,
                                                        tmp_path):
        path = tmp_path / "rbf_model.txt"
        save_model(stock_rbf, path)
        loaded = load_rbf(path)
        rng = np.random.default_rng(4)
        for p in rng.uniform(-1, 1, (20, 4)):
            assert assoc_jacobian(loaded, p).tobytes() \
                == assoc_jacobian(stock_rbf, p).tobytes()
        b = load_bundle(None)
        for controller in ("ampc", "linear-mpc"):
            runs = [run_scenario(b.plant, b.fan, b.mpc, b.scenario,
                                 controller=controller, rbf=rbf)[0]
                    for rbf in (stock_rbf, loaded)]
            assert runs[0] == runs[1]


class TestBuildLpv:
    def test_structural_zeros_everywhere(self, trained_rbf):
        rng = np.random.default_rng(55)
        for _ in range(25):
            x0 = np.array([rng.uniform(3, 35), rng.uniform(40, 100),
                           rng.uniform(0.8, 1.1)])
            u0 = np.array([rng.uniform(20, 70), rng.uniform(0.0015, 0.005)])
            lpv = build_lpv(trained_rbf, G, x0, u0)
            assert np.array_equal(lpv.a[:, 0], np.zeros(3))
            assert lpv.c[0, 2] == 0.0
            assert np.array_equal(lpv.c[1], np.array([0.0, 0.0, 1.0]))
            assert np.all(np.isfinite(lpv.a))
            assert np.all(np.isfinite(lpv.b))
            assert np.all(np.isfinite(lpv.c))

    def test_deterministic_and_pure(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u0 = np.array([35.0, 0.003])
        a = build_lpv(trained_rbf, G, x0, u0)
        b = build_lpv(trained_rbf, G, x0, u0)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)

    def test_first_order_taylor_remainder_shrinks(self, trained_rbf):
        # the one-step prediction must be the exact linearization of the
        # network: halving the perturbation shrinks the remainder ~4x
        from dflsim.dataset import denormalize, normalize
        rng = np.random.default_rng(77)
        stats = trained_rbf.stats
        ratios = []
        for _ in range(20):
            x0 = np.array([rng.uniform(5, 30), rng.uniform(45, 95),
                           rng.uniform(0.82, 1.08)])
            u0 = np.array([rng.uniform(25, 60), rng.uniform(0.002, 0.0045)])
            lpv = build_lpv(trained_rbf, G, x0, u0)
            p0 = np.array([u0[0], u0[1], x0[1], x0[2]])
            direction = rng.normal(size=4)
            direction /= np.linalg.norm(direction)
            span = stats.in_max - stats.in_min

            def remainder(scale):
                dp = direction * span * scale
                p_pert = p0 + dp
                y0 = denormalize(rbf_forward(trained_rbf,
                                             normalize(p0, stats.in_min,
                                                       stats.in_max)),
                                 stats.out_min, stats.out_max)
                y1 = denormalize(rbf_forward(trained_rbf,
                                             normalize(p_pert, stats.in_min,
                                                       stats.in_max)),
                                 stats.out_min, stats.out_max)
                dx = np.array([0.0, dp[2], dp[3]])
                du = dp[:2]
                pred = lpv.a @ dx + lpv.b @ du
                return np.linalg.norm(y1 - y0 - pred)

            r1, r2 = remainder(1e-3), remainder(5e-4)
            if r1 > 1e-12:
                ratios.append(r1 / max(r2, 1e-300))
        assert np.median(ratios) > 3.5

    def test_steady_point_zero_increment_prediction(self, trained_rbf):
        x0 = np.array([12.0, 65.0, 0.9])
        u0 = np.array([30.0, 0.0028])
        lpv = build_lpv(trained_rbf, G, x0, u0)
        assert np.array_equal(lpv.a @ np.zeros(3) + lpv.b @ np.zeros(2),
                              np.zeros(3))

    def test_csv_row_shape(self, trained_rbf, tmp_path):
        lpv = build_lpv(trained_rbf, G, np.array([12.0, 65.0, 0.9]),
                        np.array([30.0, 0.0028]))
        path = tmp_path / "lpv_trace.csv"
        save_lpv_trace([lpv] * 3, path)
        rows = read_table(path, LPV_CSV_HEADER)
        assert rows.shape == (3, len(LPV_CSV_HEADER.split(",")))
        assert rows[:, 0].tolist() == [k * CONTROL_DT for k in range(3)]


class TestBuildLpvOracle:
    """Float arithmetic, the scales' operation order and one-literal C change
    no byte of any model."""

    def test_stock_episode(self, stock_rbf, stock_qps):
        geom = load_bundle(None).fan
        for lpv, *_ in stock_qps:
            oracle = oracle_build_lpv(stock_rbf, geom, lpv.x0, lpv.u0)
            assert lpv_bytes(lpv) == lpv_bytes(oracle)

    def test_random_points(self, trained_rbf):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x0 = np.array([rng.uniform(-5, 40), rng.uniform(20, 120),
                           rng.uniform(0.6, 1.3)])
            u0 = np.array([rng.uniform(0, 95), rng.uniform(0.0005, 0.006)])
            assert lpv_bytes(build_lpv(trained_rbf, G, x0, u0)) \
                == lpv_bytes(oracle_build_lpv(trained_rbf, G, x0, u0))


class TestStockEpisodeFidelity:
    """What the stock AMPC episode's models are, recorded as observed today
    so that a change to the identification moves these values visibly."""

    def test_spectral_radius_census(self, stock_rbf):
        bundle = load_bundle(None)
        trace = []
        run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                     controller="ampc", rbf=stock_rbf, lpv_trace=trace)
        radius = np.array([np.abs(np.linalg.eigvals(lpv.a)).max() for lpv in trace])
        assert len(radius) == bundle.scenario.steps == 250
        unstable = np.flatnonzero(radius > 1.0)
        # the RBF's A leaves the unit circle at 80 steps, every step of the
        # idle start among them
        assert len(unstable) == 80
        assert set(range(25)) <= set(unstable)
        assert radius.max() == pytest.approx(1.7892118, rel=1e-6)

    def test_longer_blades_leave_an_offset_the_first_move_barely_sees(self, stock_rbf):
        # 10 % longer blades: a standing thrust deficit, and at the last step
        # a first-move gain K that nearly ignores one error direction.  The
        # stock noise gives the offset [-9.70, 2.31] %; K's singular values
        # 0.51 and 2.6e-5 are the noise-free episode's (at the stock geometry
        # its last step gives 1.02 and 0.43, and 0.99 and 0.43 with noise)
        bundle = load_bundle(None)
        observed = []
        for noise_std in (bundle.scenario.noise_std, 0.0):
            trace = []
            _, metrics = run_scenario(bundle.plant, FanGeometry(blade_radius=0.385),
                                      bundle.mpc, replace(bundle.scenario, noise_std=noise_std),
                                      controller="ampc", rbf=stock_rbf, lpv_trace=trace)
            sigma = np.linalg.svd(first_move_gain(trace[-1], bundle.mpc), compute_uv=False)
            observed.append((metrics["thrust_steady"]["min"],
                             metrics["thrust_steady"]["max"], *sigma))
        assert observed[0] == pytest.approx((-9.7034423, 2.3138228, 0.50656096, 2.4095389e-3),
                                            rel=1e-6)
        assert observed[1] == pytest.approx((-9.6461275, 1.3513369, 0.51475292, 2.6083427e-5),
                                            rel=1e-6)

    def test_thrust_row_from_the_plant_map_collapses_the_loop(self, stock_rbf, monkeypatch):
        # C's thrust row from the plant's own map T(n), (0, 2 T(n)/n), reads
        # thrust off the RBF's speed row, whose input gains are the model's
        # worst: the loop idles about 90 % below the reference.  So C keeps
        # the power map
        monkeypatch.setattr(dflsim.lpv, "thrust_jacobian", lambda q_eng, n, geom: (
            0.0, 2.0 * ducted_thrust_at_crank_speed(n, geom) / n))
        bundle = load_bundle(None)
        _, metrics = run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                                  controller="ampc", rbf=stock_rbf)
        steady = metrics["thrust_steady"]
        assert (steady["min"], steady["max"], metrics["thrust_ramp"]["mae"]) \
            == pytest.approx((-90.635933, -89.301625, 73.126504), rel=1e-6)
