"""Dataset generation, normalization, and persistence."""

import numpy as np
import pytest

import dflsim.dataset
from dflsim.dataset import (CSV_HEADER, MF_RANGE, TPS_RANGE, TrainingConfig,
                            _tps_for_lambda, compute_stats, denormalize,
                            generate_dataset, load_dataset_csv, normalize,
                            save_dataset_csv, settled_state)
from dflsim.engine import (ControlInput, EngineParams, EngineStallError,
                           air_mass_flow, make_initial_state, step_engine)
from dflsim.fan import FanGeometry, fan_load_power

P = EngineParams()
G = FanGeometry()


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(P, G, TrainingConfig(sample_count=400, n_train=380,
                                                 seed=11, snr_db=5.0))


@pytest.fixture(scope="module")
def small_clean():
    """``small_dataset`` without noise: the excitation draws come before the
    noise draw, so the plant path is the same."""
    return generate_dataset(P, G, TrainingConfig(sample_count=400, n_train=380,
                                                 seed=11, snr_db=np.inf))


class TestNormalize:
    def test_column_min_maps_to_minus_one(self):
        x = np.array([[2.0, 10.0], [4.0, 30.0], [3.0, 20.0]])
        lo, hi = x.min(axis=0), x.max(axis=0)
        y = normalize(x, lo, hi)
        assert y.min(axis=0) == pytest.approx([-1.0, -1.0])

    def test_column_max_maps_to_plus_one(self):
        x = np.array([[2.0, 10.0], [4.0, 30.0]])
        y = normalize(x, x.min(axis=0), x.max(axis=0))
        assert y.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, (50, 4))
        lo, hi = x.min(axis=0), x.max(axis=0)
        back = denormalize(normalize(x, lo, hi), lo, hi)
        assert np.max(np.abs(back - x)) < 1e-12


class TestGenerateDataset:
    def test_shapes_and_split(self, small_dataset):
        ds = small_dataset
        assert ds.inputs.shape == (400, 4)
        assert ds.targets.shape == (400, 3)
        assert ds.n_train == 380

    def test_default_split_is_950_50(self):
        ds = generate_dataset(P, G, TrainingConfig(seed=5, snr_db=np.inf))
        assert ds.n_train == 950
        assert len(ds.val_inputs) == 50

    def test_inputs_respect_bounds(self, small_dataset):
        ds = small_dataset
        assert ds.inputs[:, 0].min() >= 5.0 and ds.inputs[:, 0].max() <= 90.0
        assert ds.inputs[:, 1].min() >= 0.0011 and ds.inputs[:, 1].max() <= 0.0055
        assert ds.inputs[:, 2].min() > 0.0
        assert ds.inputs[:, 3].min() > 0.0

    def test_normalized_train_columns_lie_in_unit_box(self, small_dataset):
        ds = small_dataset
        y = normalize(ds.train_inputs, ds.stats.in_min, ds.stats.in_max)
        assert y.min() >= -1.0 - 1e-12 and y.max() <= 1.0 + 1e-12

    def test_infinite_snr_means_clean_targets(self, small_clean):
        # every target row, training rows included, is the plant state the
        # next input row starts from
        ds = small_clean
        assert np.array_equal(ds.targets[:-1, 1:], ds.inputs[1:, 2:])

    def test_same_seed_identical(self):
        tr = TrainingConfig(sample_count=200, n_train=190, seed=17, snr_db=5.0)
        a = generate_dataset(P, G, tr)
        b = generate_dataset(P, G, tr)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_noise_snr_within_half_db(self, stock_dataset):
        ds = stock_dataset
        clean = generate_dataset(P, G, TrainingConfig(seed=123, snr_db=np.inf)
                                 ).train_targets
        noise = ds.train_targets - clean
        snr = 10.0 * np.log10(clean.var(axis=0) / noise.var(axis=0))
        assert np.all(np.abs(snr - 5.0) < 0.5)

    def test_noise_only_on_training_rows(self, small_dataset, small_clean):
        ds = small_dataset
        assert np.array_equal(ds.inputs, small_clean.inputs)
        assert np.array_equal(ds.val_targets, small_clean.val_targets)
        assert not np.any(ds.train_targets == small_clean.train_targets)

    def test_targets_are_one_step_ahead(self, small_dataset, small_clean):
        # consecutive samples chain: state columns of the next input row
        # equal the previous clean target's speed and lambda
        ds = small_dataset
        n_next = small_clean.targets[:-1, 1]
        lam_next = small_clean.targets[:-1, 2]
        assert np.allclose(ds.inputs[1:, 2], n_next, rtol=0, atol=1e-12)
        assert np.allclose(ds.inputs[1:, 3], lam_next, rtol=0, atol=1e-12)

    # rows of the stock ``gen-data`` set (seed 123, 5 dB on rows 0..949);
    # they guard the whole excitation loop, start and noise draw included
    STOCK_ROWS = {
        0: ([20.13249380716609, 0.00125, 38.00753249572613, 0.8513732494607028],
            [-7.358574358279296, 33.73061314403237, 0.8483586142677405]),
        1: ([18.246838585433437, 0.00125, 38.010718018867436, 0.8574801292784509],
            [2.007648259431098, 37.19899242792845, 0.7415780767358736]),
        499: ([88.71300617266174, 0.004755768219443136, 95.83780878594834,
               0.9571343417902234],
              [36.27878349230255, 93.49292463942152, 0.9594513560905832]),
        999: ([39.9071510553798, 0.0038835028832192677, 109.19823224378,
               0.9019002034175629],
              [15.904033825696692, 108.40038665545687, 0.9730190393176762]),
    }

    @pytest.mark.parametrize("row", sorted(STOCK_ROWS))
    def test_stock_dataset_rows_frozen(self, stock_dataset, row):
        inputs, targets = self.STOCK_ROWS[row]
        assert stock_dataset.inputs[row] == pytest.approx(inputs, rel=1e-12, abs=0)
        assert stock_dataset.targets[row] == pytest.approx(targets, rel=1e-12, abs=0)


def held_open_loop(u, steps=600):
    """Oracle: ``steps`` plant intervals under ``u`` held, from 37 rev/s and
    57 kPa with the delay line full of ``u.m_fi``."""
    state = make_initial_state(P, n=37.0, manifold_pressure=5.7e4, m_fi=u.m_fi)
    for _ in range(steps):
        state = step_engine(state, u, fan_load_power(state.n, G), P)
    return state


class TestSettledState:
    @pytest.mark.parametrize("u", [
        ControlInput(19.5, 0.00124), ControlInput(20.0, 0.00125),
        ControlInput(90.0, 0.0055), ControlInput(90.0, 0.0011),
    ], ids=["scenario-start", "gen-data-start", "full-fuel", "lean"])
    def test_matches_held_open_loop(self, u):
        oracle, root = held_open_loop(u), settled_state(P, G, u)
        assert (root.n, root.manifold_pressure, root.q_eng, root.lam) == \
            pytest.approx((oracle.n, oracle.manifold_pressure, oracle.q_eng,
                           oracle.lam), rel=1e-11, abs=0)

    def test_stall_raises_on_both_paths(self):
        u = ControlInput(5.0, 0.0055)   # too little air to burn the fuel
        with pytest.raises(EngineStallError):
            held_open_loop(u)
        with pytest.raises(EngineStallError):
            settled_state(P, G, u)

    def test_singular_jacobian_raises_stall(self, monkeypatch):
        # no air path at all: the pressure rate is zero everywhere
        for name in ("air_mass_flow", "cylinder_air_flow"):
            monkeypatch.setattr(dflsim.dataset, name, lambda *args: 0.0)
        with pytest.raises(EngineStallError, match="singular"):
            settled_state(P, G, ControlInput(20.0, 0.00125))

    def test_unstable_root_raises_stall(self, monkeypatch):
        # a load that falls steeply with speed keeps the root but makes it
        # repel: there the speed rate grows with speed
        u = ControlInput(20.0, 0.00125)
        n0 = settled_state(P, G, u).n
        monkeypatch.setattr(dflsim.dataset, "fan_load_power", lambda n, geom:
                            fan_load_power(n0, geom) * (11.0 - 10.0 * n / n0))
        with pytest.raises(EngineStallError, match="no stable"):
            settled_state(P, G, u)


class TestCsvRoundTrip:
    def test_header_and_reload(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset_csv(small_dataset, path)
        with open(path) as fh:
            assert fh.readline().strip() == CSV_HEADER
        back = load_dataset_csv(path, n_train=small_dataset.n_train)
        assert np.array_equal(back.inputs, small_dataset.inputs)
        assert np.array_equal(back.targets, small_dataset.targets)

    def test_stats_rebuilt_from_train_split(self, small_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset_csv(small_dataset, path)
        back = load_dataset_csv(path, n_train=small_dataset.n_train)
        assert np.array_equal(back.stats.in_min, small_dataset.stats.in_min)
        assert np.array_equal(back.stats.out_max, small_dataset.stats.out_max)


def test_compute_stats_uses_train_rows_only():
    inputs = np.vstack([np.zeros((3, 4)), np.full((1, 4), 99.0)])
    targets = np.vstack([np.ones((3, 3)), np.full((1, 3), -99.0)])
    inputs[1] = 2.0
    stats = compute_stats(inputs, targets, n_train=3)
    assert stats.in_max.max() == 2.0
    assert stats.out_min.min() == 1.0


def tps_for_lambda_bisection(lam, m_fi, n, params):
    """Oracle: 60 bisection steps on the throttle's air mass flow."""
    m_as = lam * params.stoich_afr * m_fi
    p_m = (m_as * params.gas_constant * params.manifold_temp
           / (params.volumetric_eff * params.displacement * max(n, 1.0)))
    p_m = min(p_m, 0.985 * params.ambient_pressure)
    lo, hi = 0.0, 100.0
    if air_mass_flow(hi, p_m, params) <= m_as:
        return TPS_RANGE[1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if air_mass_flow(mid, p_m, params) < m_as:
            lo = mid
        else:
            hi = mid
    return min(max(0.5 * (lo + hi), TPS_RANGE[0]), TPS_RANGE[1])


def test_throttle_inverse_matches_bisection():
    clamped = {TPS_RANGE[0]: 0, TPS_RANGE[1]: 0}
    interior = 0
    for lam in np.linspace(0.7, 1.3, 7):
        for m_fi in (1e-5, *np.linspace(*MF_RANGE, 9)):   # 1e-5: idle-clamp
            for n in (0.5, 5.0, 20.0, 45.0, 80.0, 120.0, 160.0, 220.0):
                tps = _tps_for_lambda(lam, m_fi, n, P)
                oracle = tps_for_lambda_bisection(lam, m_fi, n, P)
                assert tps == pytest.approx(oracle, rel=1e-12, abs=0.0)
                if tps in clamped:
                    clamped[tps] += 1
                else:
                    interior += 1
    # the grid reaches both clamps and the closed form between them
    assert interior > 0 and min(clamped.values()) > 0
