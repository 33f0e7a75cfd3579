"""Network models: forward maps, gradients, training, persistence."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from dflsim.dataset import (Dataset, NormStats, TrainingConfig, compute_stats,
                            normalize)
from dflsim.networks import (ElmanModel, MlpModel, RbfModel,
                             TrainingDivergedError, _kmeans, _mlp_gradients,
                             _phi_matrix, elman_forward, elman_sequence_outputs,
                             init_elman, init_mlp, load_model, load_rbf, mape,
                             mlp_forward, rbf_fit_centers, rbf_forward,
                             rbf_train_weights, save_model, train_elman,
                             train_mlp, train_rbf)
from dflsim.tables import FileFormatError, load_blocks, save_blocks


def toy_stats():
    return NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                     out_min=-np.ones(3), out_max=np.ones(3))


def rbf_phi(p, center, radius):
    """One Gaussian activation, read off ``_phi_matrix``."""
    return float(_phi_matrix(np.atleast_2d(p), np.atleast_2d(center),
                             np.array([radius]))[0, 0])


def make_dataset(inputs, targets, n_train=None):
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if n_train is None:
        n_train = len(inputs)
    stats = compute_stats(inputs, targets, n_train)
    return Dataset(inputs=inputs, targets=targets, n_train=n_train, stats=stats)


class TestMlpForward:
    def test_zero_weights_give_output_bias(self):
        m = MlpModel(iw=np.zeros((26, 4)), lw=np.zeros((3, 26)),
                     b1=np.zeros(26), b2=np.array([0.3, -0.1, 2.0]),
                     stats=toy_stats())
        assert np.array_equal(mlp_forward(m, np.ones(4))[0], m.b2)

    def test_linear_in_output_layer(self):
        rng = np.random.default_rng(0)
        m = MlpModel(iw=rng.normal(size=(26, 4)), lw=rng.normal(size=(3, 26)),
                     b1=rng.normal(size=26), b2=rng.normal(size=3),
                     stats=toy_stats())
        doubled = MlpModel(m.iw, 2.0 * m.lw, m.b1, 2.0 * m.b2, m.stats)
        p = rng.normal(size=4)
        assert np.allclose(mlp_forward(doubled, p)[0],
                           2.0 * mlp_forward(m, p)[0], rtol=1e-12)

    def test_frozen_fixture_by_hand(self):
        # tiny 2-hidden-unit net evaluated with explicit scalar arithmetic
        iw = np.array([[0.5, -0.25, 0.1, 0.0], [0.0, 0.3, -0.2, 0.6]])
        lw = np.array([[1.0, -1.0], [0.5, 0.25], [0.0, 2.0]])
        b1 = np.array([0.1, -0.2])
        b2 = np.array([0.05, 0.0, -0.5])
        m = MlpModel(iw, lw, b1, b2, toy_stats())
        p = np.array([0.2, -0.4, 0.6, 0.8])
        h1 = np.tanh(0.5 * 0.2 + (-0.25) * (-0.4) + 0.1 * 0.6 + 0.1)
        h2 = np.tanh(0.3 * (-0.4) + (-0.2) * 0.6 + 0.6 * 0.8 - 0.2)
        expected = np.array([1.0 * h1 - 1.0 * h2 + 0.05,
                             0.5 * h1 + 0.25 * h2,
                             2.0 * h2 - 0.5])
        assert np.allclose(mlp_forward(m, p)[0], expected, rtol=1e-14)


class TestMlpTraining:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = init_mlp(toy_stats(), hidden=6, seed=2)
        p = rng.uniform(-1, 1, (3, 4))
        y = rng.uniform(-1, 1, (3, 3))
        g_iw, g_lw, g_b1, g_b2, _ = _mlp_gradients(model, p, y)

        def loss(m):
            h = np.tanh(p @ m.iw.T + m.b1)
            return float(np.mean((h @ m.lw.T + m.b2 - y) ** 2))

        h = 1e-6
        for grad, attr in ((g_iw, "iw"), (g_lw, "lw"), (g_b1, "b1"), (g_b2, "b2")):
            arr = getattr(model, attr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = {f: getattr(model, f).copy()
                          for f in ("iw", "lw", "b1", "b2")}
                bumped[attr][idx] += h
                up = loss(MlpModel(bumped["iw"], bumped["lw"], bumped["b1"],
                                   bumped["b2"], model.stats))
                bumped[attr][idx] -= 2 * h
                dn = loss(MlpModel(bumped["iw"], bumped["lw"], bumped["b1"],
                                   bumped["b2"], model.stats))
                fd = (up - dn) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_converges_on_linear_toy_problem(self):
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1, 1, (60, 4))
        w_true = rng.uniform(-0.4, 0.4, (3, 4))
        targets = inputs @ w_true.T
        ds = make_dataset(inputs, targets)
        trained, losses = train_mlp(ds, TrainingConfig(
            mlp_hidden=8, model_seed=3, mlp_lr=0.5, mlp_epochs=6000))
        assert losses[-1] <= 1e-4

    def test_loss_trend_nonincreasing_by_windows(self):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1, 1, (80, 4))
        targets = np.tanh(inputs[:, :3]) * 0.5
        ds = make_dataset(inputs, targets)
        _, losses = train_mlp(ds, TrainingConfig(mlp_hidden=8, model_seed=0,
                                                 mlp_epochs=600))
        # averaged over 50-epoch windows the loss must not increase
        w = 50
        means = [losses[i:i + w].mean() for i in range(0, len(losses) - w, w)]
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_divergence_raises(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, (20, 4))
        ds = make_dataset(inputs, rng.uniform(-1, 1, (20, 3)))
        with pytest.raises(TrainingDivergedError):
            train_mlp(ds, TrainingConfig(mlp_hidden=6, model_seed=0,
                                         mlp_lr=500.0, mlp_epochs=500))


class TestElman:
    def test_zero_recurrence_matches_mlp_style_forward(self):
        rng = np.random.default_rng(2)
        m = ElmanModel(iw=rng.normal(size=(5, 4)), lw1=np.zeros((5, 5)),
                       lw2=rng.normal(size=(3, 5)), b1=rng.normal(size=5),
                       b2=rng.normal(size=3), stats=toy_stats())
        p = rng.normal(size=4)
        out, ctx = elman_forward(m, p, np.ones(5))
        expected = m.lw2 @ np.tanh(m.iw @ p + m.b1) + m.b2
        assert np.allclose(out, expected, rtol=1e-12)
        assert np.allclose(ctx, np.tanh(m.iw @ p + m.b1), rtol=1e-12)

    def test_context_threading_matters(self):
        rng = np.random.default_rng(6)
        m = ElmanModel(iw=rng.normal(size=(5, 4)), lw1=rng.normal(size=(5, 5)),
                       lw2=rng.normal(size=(3, 5)), b1=rng.normal(size=5),
                       b2=rng.normal(size=3), stats=toy_stats())
        p1, p2 = rng.normal(size=4), rng.normal(size=4)
        _, ctx = elman_forward(m, p1, np.zeros(5))
        threaded, _ = elman_forward(m, p2, ctx)
        independent, _ = elman_forward(m, p2, np.zeros(5))
        assert not np.allclose(threaded, independent)

    def test_frozen_fixture_by_hand(self):
        iw = np.array([[0.2, 0.0, -0.3, 0.1], [0.0, 0.4, 0.0, -0.2]])
        lw1 = np.array([[0.1, -0.1], [0.3, 0.2]])
        lw2 = np.array([[1.0, 0.0], [0.0, -1.0], [0.5, 0.5]])
        b1 = np.array([0.05, -0.05])
        b2 = np.array([0.0, 0.1, -0.1])
        m = ElmanModel(iw, lw1, lw2, b1, b2, toy_stats())
        p = np.array([0.5, -0.5, 0.25, 1.0])
        ctx = np.array([0.3, -0.6])
        a1 = np.tanh(0.2 * 0.5 - 0.3 * 0.25 + 0.1 * 1.0
                     + 0.1 * 0.3 - 0.1 * (-0.6) + 0.05)
        a2 = np.tanh(0.4 * (-0.5) - 0.2 * 1.0
                     + 0.3 * 0.3 + 0.2 * (-0.6) - 0.05)
        out, new_ctx = elman_forward(m, p, ctx)
        assert np.allclose(out, [a1, -a2 + 0.1, 0.5 * a1 + 0.5 * a2 - 0.1],
                           rtol=1e-14)
        assert np.allclose(new_ctx, [a1, a2], rtol=1e-14)

    def test_gradient_matches_finite_differences(self):
        # truncated-window training treats the stored context as a constant
        # input; the per-sample gradients must match finite differences of
        # that one-step loss
        rng = np.random.default_rng(14)
        m = init_elman(toy_stats(), hidden=5, seed=7)
        p = rng.uniform(-1, 1, 4)
        y = rng.uniform(-1, 1, 3)
        ctx = rng.uniform(-1, 1, 5)

        def loss(iw, lw1, lw2, b1, b2):
            a = np.tanh(iw @ p + lw1 @ ctx + b1)
            e = (lw2 @ a + b2) - y
            return float(e @ e) / 3.0

        a = np.tanh(m.iw @ p + m.lw1 @ ctx + m.b1)
        err = (m.lw2 @ a + m.b2) - y
        scale = 2.0 / 3.0
        back = (err @ m.lw2) * (1.0 - a * a)
        grads = {"iw": scale * np.outer(back, p),
                 "lw1": scale * np.outer(back, ctx),
                 "lw2": scale * np.outer(err, a),
                 "b1": scale * back, "b2": scale * err}
        h = 1e-6
        for attr, grad in grads.items():
            arr = getattr(m, attr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                fields = {f: getattr(m, f).copy()
                          for f in ("iw", "lw1", "lw2", "b1", "b2")}
                fields[attr][idx] += h
                up = loss(**fields)
                fields[attr][idx] -= 2 * h
                dn = loss(**fields)
                fd = (up - dn) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(9)
        inputs = rng.uniform(-1, 1, (80, 4))
        targets = 0.5 * inputs[:, :3]
        ds = make_dataset(inputs, targets)
        trained, losses = train_elman(ds, TrainingConfig(
            elman_hidden=6, model_seed=1, elman_lr=0.01, elman_epochs=60))
        assert losses[-1] < losses[0]


class TestRbf:
    def test_phi_peak_at_center(self):
        c = np.array([0.1, -0.2, 0.3, 0.4])
        assert rbf_phi(c, c, 0.7) == 1.0

    def test_phi_unit_distance(self):
        p = np.zeros(4)
        c = np.array([0.6, 0.0, 0.0, 0.8])  # distance 1 from p
        assert rbf_phi(p, c, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_phi_frozen_point(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        c = np.array([0.0, 0.0, 0.0, 0.0])
        s = 0.8
        # squared distance 0.5, radius^2 0.64 -> exp(-0.78125)
        assert rbf_phi(p, c, s) == pytest.approx(np.exp(-0.5 / 0.64),
                                                 rel=1e-14)

    def test_phi_bounded_in_unit_interval(self):
        # ranges chosen so the exponent stays clear of float underflow
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = rng.uniform(-1, 1, 4)
            c = rng.uniform(-1, 1, 4)
            s = rng.uniform(0.3, 3.0)
            v = rbf_phi(p, c, s)
            assert 0.0 < v <= 1.0
            if not np.array_equal(p, c):
                assert v < 1.0

    def test_forward_zero_weights(self):
        m = RbfModel(centers=np.zeros((5, 4)), radii=np.ones(5),
                     lw=np.zeros((3, 5)), stats=toy_stats())
        assert np.array_equal(rbf_forward(m, np.ones(4)), np.zeros(3))

    def test_forward_single_center_reduces_to_column(self):
        c = np.array([[0.25, -0.5, 0.0, 1.0]])
        lw = np.array([[2.0], [-1.0], [0.5]])
        m = RbfModel(centers=c, radii=np.array([0.9]), lw=lw, stats=toy_stats())
        p = np.array([0.0, 0.0, 0.5, 0.5])
        phi = rbf_phi(p, c[0], 0.9)
        assert np.allclose(rbf_forward(m, p), lw[:, 0] * phi, rtol=1e-14)

    def test_forward_linear_in_weights(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(-1, 1, (6, 4))
        radii = rng.uniform(0.3, 1.5, 6)
        lw1 = rng.normal(size=(3, 6))
        lw2 = rng.normal(size=(3, 6))
        p = rng.uniform(-1, 1, 4)
        a, b = 1.7, -0.6
        mixed = RbfModel(centers, radii, a * lw1 + b * lw2, toy_stats())
        m1 = RbfModel(centers, radii, lw1, toy_stats())
        m2 = RbfModel(centers, radii, lw2, toy_stats())
        assert np.allclose(rbf_forward(mixed, p),
                           a * rbf_forward(m1, p) + b * rbf_forward(m2, p),
                           rtol=1e-12)

    def test_forward_batch_matches_rows(self):
        rng = np.random.default_rng(4)
        m = RbfModel(rng.uniform(-1, 1, (6, 4)), rng.uniform(0.3, 1.5, 6),
                     rng.normal(size=(3, 6)), toy_stats())
        batch = rng.uniform(-1, 1, (5, 4))
        out = rbf_forward(m, batch)
        assert out.shape == (5, 3)
        assert rbf_forward(m, batch[0]).shape == (3,)
        for row, expected in zip(batch, out):
            phi = np.array([rbf_phi(row, c, s) for c, s in zip(m.centers, m.radii)])
            assert np.allclose(rbf_forward(m, row), m.lw @ phi, rtol=1e-13)
            assert np.allclose(expected, m.lw @ phi, rtol=1e-13)


def reference_kmeans(points, k, seed):
    """Lloyd's k-means with broadcast (N, K, D) distances and a per-cluster
    ``mean`` loop: the oracle ``_kmeans`` must match bit for bit."""
    rng = np.random.default_rng(seed)
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = points[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    for _ in range(100):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dist.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                worst = int(np.argmax(dist[np.arange(n), assign]))
                new_centers[j] = points[worst]
            else:
                new_centers[j] = members.mean(axis=0)
        if np.allclose(new_centers, centers, atol=1e-12):
            centers = new_centers
            break
        centers = new_centers
    dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return centers, dist.argmin(axis=1)


def assert_kmeans_matches_reference(points, k, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centers, assign = _kmeans(points, k, seed)
    ref_centers, ref_assign = reference_kmeans(points, k, seed)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(assign, ref_assign)
    return assign


class TestRbfFitting:
    def test_kmeans_assignment_matches_brute_force(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(-1, 1, (50, 4))
        centers, assign = _kmeans(points, 6, seed=0)
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(assign, dist.argmin(axis=1))

    def test_center_per_point_when_k_equals_n(self):
        rng = np.random.default_rng(22)
        inputs = rng.uniform(-1, 1, (30, 4))
        ds = make_dataset(inputs, np.zeros((30, 3)))
        centers, radii = rbf_fit_centers(ds, k=30, neighbors=2, seed=0,
                                         overlap=1.0)
        points = normalize(ds.train_inputs, ds.stats.in_min, ds.stats.in_max)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.max(d2.min(axis=1)) < 1e-16
        assert np.all(radii > 0.0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(23)
        inputs = rng.uniform(-1, 1, (60, 4))
        ds = make_dataset(inputs, np.zeros((60, 3)))
        c1, r1 = rbf_fit_centers(ds, k=8, neighbors=2, seed=5, overlap=4.0)
        c2, r2 = rbf_fit_centers(ds, k=8, neighbors=2, seed=5, overlap=4.0)
        assert np.array_equal(c1, c2) and np.array_equal(r1, r2)

    def test_synthesize_and_recover_weights(self):
        rng = np.random.default_rng(31)
        centers = rng.uniform(-1, 1, (10, 4))
        radii = rng.uniform(0.5, 1.5, 10)
        w_true = rng.normal(size=(3, 10))
        # inputs already in [-1,1]: use identity-stats dataset
        inputs = rng.uniform(-1, 1, (200, 4))
        phi = _phi_matrix(inputs, centers, radii)
        targets = phi @ w_true.T
        stats = NormStats(in_min=-np.ones(4), in_max=np.ones(4),
                          out_min=-np.ones(3), out_max=np.ones(3))
        ds = Dataset(inputs=inputs, targets=targets, n_train=200, stats=stats)
        model = RbfModel(centers, radii, np.zeros((3, 10)), stats)
        lw = rbf_train_weights(model, ds, ridge=1e-8, lms_passes=1,
                               lms_rate=0.05)
        assert np.max(np.abs(lw - w_true)) < 1e-6
        mse = float(np.mean((phi @ lw.T - targets) ** 2))
        assert mse <= 1e-12

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(32)
        inputs = rng.uniform(-1, 1, (50, 4))
        ds = make_dataset(inputs, np.zeros((50, 3)))
        centers, radii = rbf_fit_centers(ds, k=8, neighbors=2, seed=0,
                                         overlap=4.0)
        model = RbfModel(centers, radii, np.zeros((3, 8)), ds.stats)
        lw = rbf_train_weights(model, ds, ridge=1e-8, lms_passes=0,
                               lms_rate=0.05)
        assert np.max(np.abs(lw)) < 1e-12

    def test_normal_equations_residual_orthogonality(self):
        rng = np.random.default_rng(33)
        inputs = rng.uniform(-1, 1, (120, 4))
        targets = rng.normal(size=(120, 3))
        ds = make_dataset(inputs, targets)
        centers, radii = rbf_fit_centers(ds, k=10, neighbors=2, seed=0,
                                         overlap=4.0)
        model = RbfModel(centers, radii, np.zeros((3, 10)), ds.stats)
        lw = rbf_train_weights(model, ds, ridge=1e-8, lms_passes=0,
                               lms_rate=0.05)
        p = normalize(ds.train_inputs, ds.stats.in_min, ds.stats.in_max)
        y = normalize(ds.train_targets, ds.stats.out_min, ds.stats.out_max)
        phi = _phi_matrix(p, centers, radii)
        residual = phi @ lw.T - y
        assert np.max(np.abs(phi.T @ residual)) < 1e-6

    def test_training_mse_beats_zero_weights(self):
        rng = np.random.default_rng(34)
        inputs = rng.uniform(-1, 1, (100, 4))
        targets = rng.normal(size=(100, 3))
        ds = make_dataset(inputs, targets)
        # k-means seed model_seed + 1 = 1 (seed 0 would need model_seed -1)
        model = train_rbf(ds, TrainingConfig(rbf_centers=10, model_seed=0))
        p = normalize(ds.train_inputs, ds.stats.in_min, ds.stats.in_max)
        y = normalize(ds.train_targets, ds.stats.out_min, ds.stats.out_max)
        phi = _phi_matrix(p, model.centers, model.radii)
        assert np.mean((phi @ model.lw.T - y) ** 2) <= np.mean(y ** 2)


class TestCenterFitOracle:
    """``_sq_dist`` and the bincount Lloyd update keep the bits of the
    broadcast distances and the per-cluster means they replaced."""

    @pytest.mark.parametrize("model_seed", range(5))
    def test_stock_inputs(self, stock_dataset, model_seed):
        s = stock_dataset.stats
        points = normalize(stock_dataset.train_inputs, s.in_min, s.in_max)
        # train_rbf seeds k-means with model_seed + 1
        assert_kmeans_matches_reference(points, 25, model_seed + 1)

    @pytest.mark.parametrize("instance", range(30))
    def test_random_instances(self, instance):
        rng = np.random.default_rng(1000 + instance)
        n = int(rng.integers(20, 601))
        points = rng.uniform(-1, 1, (n, 4))
        if instance % 3 == 0:
            dup = rng.integers(n, size=n // 3)
            points[dup] = points[dup % 3]       # copies of rows 0-2
        assert_kmeans_matches_reference(points, int(rng.integers(2, 41)),
                                        seed=instance)

    def test_empty_clusters_reseeded_without_warning(self):
        # five distinct points for eight centers: the three seeded on a
        # repeat of the origin are left with no members
        points = np.vstack([np.zeros((6, 4)), np.eye(4)])
        assign = assert_kmeans_matches_reference(points, 8, seed=0)
        assert np.array_equal(np.bincount(assign, minlength=8),
                              [1, 1, 1, 1, 6, 0, 0, 0])

    def test_phi_matrix_matches_broadcast_form(self, stock_rbf):
        rng = np.random.default_rng(51)
        for p, c, r in [(rng.uniform(-1, 1, (300, 4)), stock_rbf.centers,
                         stock_rbf.radii),
                        (rng.uniform(-1, 1, (40, 4)), rng.uniform(-1, 1, (7, 4)),
                         rng.uniform(0.3, 2.0, 7))]:
            expected = np.exp(-((p[:, None] - c[None]) ** 2).sum(axis=2) / r ** 2)
            assert _phi_matrix(p, c, r).tobytes() == expected.tobytes()


class TestMape:
    def test_perfect_prediction(self):
        t = np.array([[10.0, 20.0, 0.5]])
        assert np.array_equal(mape(t, t), np.zeros(3))

    def test_one_percent_offset(self):
        t = np.array([[10.0, 20.0, 0.5], [40.0, 2.0, 0.9]])
        assert np.allclose(mape(1.01 * t, t), np.full(3, 1.0), rtol=1e-12)


class TestPersistence:
    def test_blocks_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(41)
        blocks = {"A": rng.normal(size=(3, 5)), "B VEC": rng.normal(size=(1, 7))}
        path = tmp_path / "blocks.txt"
        save_blocks(path, blocks)
        back = load_blocks(path)
        assert np.array_equal(back["A"], blocks["A"])
        assert np.array_equal(back["B VEC"], np.atleast_2d(blocks["B VEC"]))

    def test_rbf_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        inputs = rng.uniform(-1, 1, (80, 4))
        targets = rng.normal(size=(80, 3))
        ds = make_dataset(inputs, targets)
        model = train_rbf(ds, TrainingConfig(rbf_centers=7, model_seed=1))
        path = tmp_path / "rbf.txt"
        save_model(model, path)
        back = load_rbf(path)
        assert np.array_equal(back.centers, model.centers)
        assert np.array_equal(back.radii, model.radii)
        assert np.array_equal(back.lw, model.lw)
        assert np.array_equal(back.stats.in_min, model.stats.in_min)
        assert np.array_equal(back.stats.out_max, model.stats.out_max)


def trained_models():
    """One small trained model of each kind on the same random data."""
    rng = np.random.default_rng(43)
    ds = make_dataset(rng.uniform(-2, 3, (60, 4)), rng.normal(size=(60, 3)),
                      n_train=50)
    tr = TrainingConfig(model_seed=1, rbf_centers=6, mlp_hidden=5,
                        mlp_epochs=3, elman_hidden=4, elman_epochs=2)
    return ds, {"rbf": train_rbf(ds, tr), "mlp": train_mlp(ds, tr)[0],
                "elman": train_elman(ds, tr)[0]}


def forward(model, p):
    if isinstance(model, RbfModel):
        return rbf_forward(model, p)
    if isinstance(model, MlpModel):
        return mlp_forward(model, p)[0]
    return elman_sequence_outputs(model, p)[0]


class TestModelFiles:
    @pytest.mark.parametrize("kind", ["rbf", "mlp", "elman"])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        ds, models = trained_models()
        model = models[kind]
        path = tmp_path / f"{kind}_model.txt"
        save_model(model, path)
        back = load_model(path)
        assert type(back) is type(model)
        for f in fields(model):
            if f.name == "stats":
                for name in ("in_min", "in_max", "out_min", "out_max"):
                    assert np.array_equal(getattr(back.stats, name),
                                          getattr(model.stats, name))
            else:
                value = getattr(model, f.name)
                assert getattr(back, f.name).shape == value.shape
                assert np.array_equal(getattr(back, f.name), value)
        p = normalize(ds.inputs, ds.stats.in_min, ds.stats.in_max)
        assert np.array_equal(forward(back, p), forward(model, p))

    def test_blocks_in_declaration_order_with_stats_last(self, tmp_path):
        _, models = trained_models()
        path = tmp_path / "elman_model.txt"
        save_model(models["elman"], path)
        assert list(load_blocks(path)) == ["IW", "LW1", "LW2", "B1", "B2", "STATS"]

    def test_file_without_stats_rejected(self, tmp_path):
        _, models = trained_models()
        m = models["mlp"]
        path = tmp_path / "mlp_model.txt"
        save_blocks(path, {"IW": m.iw, "LW": m.lw, "B1": m.b1, "B2": m.b2})
        with pytest.raises(ValueError, match="mlp_model.txt"):
            load_model(path)

    def test_load_rbf_rejects_mlp_file(self, tmp_path):
        _, models = trained_models()
        path = tmp_path / "mlp_model.txt"
        save_model(models["mlp"], path)
        with pytest.raises(ValueError, match="mlp_model.txt"):
            load_rbf(path)

    @pytest.mark.parametrize("kind, wanted", [("rbf", MlpModel),
                                              ("rbf", ElmanModel),
                                              ("mlp", ElmanModel)])
    def test_load_model_rejects_another_kind(self, kind, wanted, tmp_path):
        _, models = trained_models()
        path = tmp_path / f"{kind}_model.txt"
        save_model(models[kind], path)
        with pytest.raises(FileFormatError,
                           match=f"{kind}_model.txt.*no {wanted.__name__} file"):
            load_model(path, wanted)
        assert type(load_model(path, type(models[kind]))) is type(models[kind])

    @pytest.mark.parametrize("kind, block, alter", [
        ("rbf", "STATS", lambda m: np.vstack([m, m[:1]])),
        ("rbf", "STATS", lambda m: m[:, :-1]),
        ("mlp", "STATS", lambda m: np.hstack([m, m[:, :1]])),
        ("rbf", "LW", lambda m: np.hstack([m, m[:, :1]])),
        ("rbf", "RADII", lambda m: np.hstack([m, m[:, :1]])),
        ("rbf", "CENTERS", lambda m: m[:-1]),
        ("mlp", "LW", lambda m: m[:, :-1]),
        ("mlp", "B1", lambda m: m[:, :-1]),
        ("mlp", "B2", lambda m: np.vstack([m, m])),
        ("elman", "LW1", lambda m: m[:, :-1]),
        ("elman", "LW2", lambda m: m[:, :-1]),
        ("elman", "B1", lambda m: np.hstack([m, m[:, :1]])),
    ])
    def test_blocks_that_do_not_chain_rejected(self, kind, block, alter,
                                               tmp_path):
        _, models = trained_models()
        path = tmp_path / f"{kind}_model.txt"
        save_model(models[kind], path)
        blocks = load_blocks(path)
        blocks[block] = alter(blocks[block])
        save_blocks(path, blocks)
        with pytest.raises(FileFormatError, match=f"{kind}_model.txt"):
            load_model(path)

    @pytest.mark.parametrize("column, kind, rel, alter", [
        (1, "input", "not above", lambda col: col[[0, 0]]),    # max set to min
        (5, "output", "below", lambda col: col[::-1]),         # min and max swapped
    ])
    def test_stats_without_a_span_rejected(self, column, kind, rel, alter,
                                           tmp_path):
        _, models = trained_models()
        path = tmp_path / "rbf_model.txt"
        save_model(models["rbf"], path)
        blocks = load_blocks(path)
        blocks["STATS"][:, column] = alter(blocks["STATS"][:, column])
        save_blocks(path, blocks)
        with pytest.raises(FileFormatError, match=f"rbf_model.txt: STATS column "
                           f"{column + 1}, an {kind}, has maximum .* {rel} its"):
            load_model(path)
