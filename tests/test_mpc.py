"""Receding-horizon optimizer: prediction, cost, QP solver, step contracts."""

from dataclasses import fields, replace

import numpy as np
import pytest

import dflsim.mpc as mpc
from dflsim.config import load_bundle
from dflsim.dataset import MF_RANGE, TPS_RANGE, TrainingConfig, generate_dataset
from dflsim.fan import KGF, FanGeometry, ducted_thrust_at_crank_speed
from dflsim.lpv import LpvModel, build_lpv
from dflsim.mpc import (CROSSING_MARGIN, HorizonSolution, MpcConfig, SingularQpError,
                        ampc_step, condensed_map, cost, hildreth, mpc_step, solve_qp)
from dflsim.networks import train_rbf
from dflsim.scenario import run_scenario

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays
except ImportError:         # only the property test needs it
    st = None

G = FanGeometry()
CFG = MpcConfig()


def toy_lpv(seed=0):
    rng = np.random.default_rng(seed)
    a = np.zeros((3, 3))
    a[:, 1:] = rng.uniform(-0.4, 0.6, (3, 2))
    b = rng.uniform(-0.5, 0.5, (3, 2))
    c = np.array([[rng.uniform(5, 15), rng.uniform(1, 4), 0.0],
                  [0.0, 0.0, 1.0]])
    return LpvModel(a=a, b=b, c=c, x0=np.zeros(3), u0=np.zeros(2))


def simulate_horizon(lpv, y0, du_seq, n2):
    """Reference velocity-form simulation, one step at a time.

    dx(k+1) = A dx(k) + B du(k), y(k+1) = y(k) + C dx(k+1) from dx(0) = 0,
    with the inputs held once the increment sequence runs out.
    """
    du_seq = np.atleast_2d(du_seq)
    dx = np.zeros(3)
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((n2, 2))
    for k in range(n2):
        du = du_seq[k] if k < len(du_seq) else np.zeros(2)
        dx = lpv.a @ dx + lpv.b @ du
        y = y + lpv.c @ dx
        out[k] = y
    return out


def predict(lpv, y0, du_seq, n2):
    """Absolute predictions y0 + G*du over n2 steps, G from ``condensed_map``."""
    du_seq = np.atleast_2d(du_seq)
    g = condensed_map(lpv, MpcConfig(n2=n2, nc=len(du_seq)))
    return np.asarray(y0, dtype=float) + (g @ du_seq.ravel()).reshape(n2, 2)


def overshoot_case():
    """(lpv, y0, refs, u_prev) whose unpenalised optimum breaks the thrust limit.

    The reference is the toy model's answer to one throttle cut that gains
    300 N, so the optimum overshoots the thrust limit and the fuel increment
    runs into its lower box edge.
    """
    lpv = toy_lpv(2)
    y0 = np.array([1450.0, 0.95])
    step = simulate_horizon(lpv, np.zeros(2), [[1.0, 0.0]], CFG.n2)
    return lpv, y0, y0 + 300.0 / step[-1, 0] * step, np.array([90.0, 0.003])


def binding_case():
    """(lpv, y0, refs, u_prev) whose plain QP binds the throttle's upper box
    edge and crosses the lambda limit on every row; from its free minimiser,
    past the throttle's box and past a limit on 14 rows, the active set stops
    on box bounds and on free targets and releases bounds of both kinds."""
    lpv = toy_lpv(0)
    y0 = np.array([1400.0, 0.95])
    step = simulate_horizon(lpv, np.zeros(2), [[1.0, 0.0]], CFG.n2)
    return lpv, y0, y0 + 300.0 / step[-1, 0] * step, np.array([88.0, 0.003])


def late_crossing_case():
    """(lpv, y0, refs, u_prev) whose plain QP pushes rows past the thrust
    limit, and whose quadratic model pulling only those rows pushes other
    rows past it: ``newton_solve_qp`` needs its line search here, and the
    active set stops on such a row's target before it releases any bound."""
    lpv = toy_lpv(2)
    y0 = np.array([1200.0, 0.95])
    step = simulate_horizon(lpv, np.zeros(2), [[1.0, 0.0]], CFG.n2)
    return lpv, y0, y0 + 100.0 / step[-1, 0] * step, np.array([88.0, 0.003])


def rich_lambda_case():
    """(lpv, y0, refs, u_prev) whose reference asks for lambda below its lower
    limit: the free minimiser's trail crosses it on two rows, one of whose
    held targets is released, and the next step pushes the first row past
    it, so that row's free target stops the step and is held."""
    y0 = np.array([100.0, 0.7])
    return toy_lpv(2), y0, np.tile(y0 + [200.0, -0.1], (CFG.n2, 1)), np.array([45.0, 0.003])


def two_sided_case():
    """(lpv, y0, refs, u_prev) whose references ask for lambda above its
    upper limit: under ``soft_weight`` 1e4 the first lambda row's target is
    released from the upper limit and later stops a step at the lower one,
    as do four more rows' targets."""
    a = np.zeros((3, 3))
    a[:, 1:] = [[-0.108, 0.581], [-0.284, 0.368], [0.361, 0.126]]
    lpv = LpvModel(a=a, b=np.array([[-0.021, 0.326], [0.349, 0.248], [-0.204, 0.429]]),
                   c=np.array([[7.01, 2.2, 0.0], [0.0, 0.0, 1.0]]),
                   x0=np.zeros(3), u0=np.zeros(2))
    refs = np.array([[1771.2, 1.366], [1743.3, 1.271], [1896.6, 1.330], [1416.4, 1.225],
                     [1866.7, 1.324], [1871.5, 1.261], [1736.6, 1.394], [1545.9, 1.354]])
    return lpv, np.array([1710.5, 1.315]), refs, np.array([53.06, 0.00207])


def oracle_condensed_map(lpv, nc, n2):
    """G placed block column by block column into zeros, the step responses
    from a loop over the Markov parameters and ``np.cumsum``."""
    markov = np.empty((n2, 2, 2))
    a_pow_b = lpv.b
    for i in range(n2):
        markov[i] = lpv.c @ a_pow_b
        a_pow_b = lpv.a @ a_pow_b
    step = np.cumsum(markov, axis=0)
    g = np.zeros((n2, 2, nc, 2))
    for k in range(nc):
        g[k:, :, k, :] = step[:n2 - k]
    return g.reshape(2 * n2, 2 * nc)


def running_sums(nc):
    """S of the running input sums u - u_prev = S @ du, stacked over nc moves."""
    return np.kron(np.tril(np.ones((nc, nc))), np.eye(2))


def box_bounds(config, u_prev):
    """(lower, upper) of S @ du: the input box less ``u_prev``, stacked over Nc."""
    lower = np.array([config.tps_bounds[0], config.mf_bounds[0]]) - u_prev
    upper = np.array([config.tps_bounds[1], config.mf_bounds[1]]) - u_prev
    return np.tile(lower, config.nc), np.tile(upper, config.nc)


def plain_qp_solution(lpv, y0, refs, u_prev, config):
    """The tracking QP without any soft-limit term, condensed through
    ``oracle_condensed_map`` and solved by one ``hildreth`` call on the box
    alone."""
    layout = config.layout
    g = oracle_condensed_map(lpv, config.nc, config.n2)
    y0_s = np.tile(y0, config.n2)
    ref_s = refs[:config.n2].ravel()
    e_mat = 2.0 * (g.T @ (layout.q_diag[:, None] * g) + layout.r_mat)
    f_vec = 2.0 * g.T @ (layout.q_diag * (y0_s - ref_s))
    z, _, steps, _, capped = hildreth(e_mat, f_vec, running_sums(config.nc),
                                      *box_bounds(config, u_prev))
    return HorizonSolution(du=z.reshape(config.nc, 2),
                           cost=cost(config, ref_s, y0_s + g @ z, z),
                           iterations=steps, capped=capped)


def objective(lpv, y0, refs, du, config):
    """Tracking, moves and rho times every row's squared excess past its
    limit, at the increments ``du``."""
    layout = config.layout
    y = np.tile(y0, config.n2) + oracle_condensed_map(lpv, config.nc, config.n2) @ np.ravel(du)
    excess = np.maximum(y - layout.y_hi, 0.0) + np.maximum(layout.y_lo - y, 0.0)
    return (cost(config, refs[:config.n2].ravel(), y, np.ravel(du))
            + float(layout.rho @ excess ** 2))


def reference_minimiser(lpv, y0, refs, u_prev, config, iterations=3000):
    """The least objective over the input box by accelerated projected
    gradient (FISTA with a restart whenever the objective rises), in the
    cumulative inputs v = u - u_prev, where the box is simple bounds, each
    scaled by the root of its Hessian diagonal."""
    layout = config.layout
    nc, n2 = config.nc, config.n2
    to_du = np.linalg.inv(running_sums(nc))
    g = oracle_condensed_map(lpv, nc, n2) @ to_du
    r = to_du.T @ layout.r_mat @ to_du
    weight = layout.q_diag + layout.rho
    scale = 1.0 / np.sqrt(np.diag(g.T @ (weight[:, None] * g) + r))
    g, r = g * scale, r * np.outer(scale, scale)
    lower, upper = box_bounds(config, u_prev)
    lower, upper = lower / scale, upper / scale
    y0_s, ref_s = np.tile(y0, n2), refs[:n2].ravel()

    def value_and_gradient(s):
        y = y0_s + g @ s
        over, under = np.maximum(y - layout.y_hi, 0.0), np.maximum(layout.y_lo - y, 0.0)
        value = (layout.q_diag @ (y - ref_s) ** 2 + s @ r @ s
                 + layout.rho @ (over ** 2 + under ** 2))
        return value, 2.0 * (g.T @ (layout.q_diag * (y - ref_s)
                                    + layout.rho * (over - under)) + r @ s)

    step = 0.5 / np.linalg.eigvalsh(g.T @ (weight[:, None] * g) + r).max()
    s = np.clip(np.zeros(2 * nc), lower, upper)
    best, momentum, t = value_and_gradient(s)[0], s, 1.0
    for _ in range(iterations):
        trial = np.clip(momentum - step * value_and_gradient(momentum)[1], lower, upper)
        value = value_and_gradient(trial)[0]
        if value > best:
            momentum, t = s, 1.0
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = trial + (t - 1.0) / t_next * (trial - s)
        s, best, t = trial, value, t_next
    return best


def newton_line_minimum(layout, g, z, z_model, y, ref_s):
    """The least-objective point of the segment from ``z`` (stacked trail ``y``)
    to ``z_model``.  The objective's slope along it never decreases and is
    linear between the kinks where a row meets a limit, so interpolating its
    values there to zero is exact (Keerthi & DeCoste, JMLR 6, 2005)."""
    d = z_model - z
    gd = g @ d
    past = np.concatenate([y - layout.y_hi, y - layout.y_lo])
    turn = np.concatenate([gd, gd])
    flips = (past > 0.0) != (past + turn > 0.0)
    ts = np.concatenate([[0.0], np.sort(-past[flips] / turn[flips]), [1.0]])
    trail = y + ts[:, None] * gd
    excess = np.maximum(trail - layout.y_hi, 0.0) - np.maximum(layout.y_lo - trail, 0.0)
    slope = (layout.q_diag * (trail - ref_s) + layout.rho * excess) @ gd \
        + (z + ts[:, None] * d) @ layout.r_mat @ d
    return z + np.interp(0.0, slope, ts) * d


def newton_solve_qp(lpv, y0, refs, u_prev, config):
    """The increments of ``solve_qp``'s soft-limit solver before the targets,
    a semismooth Newton loop (Hintermueller, Ito & Kunisch, SIAM J. Optim.
    13(3), 2002): each round pulls the rows more than ``CROSSING_MARGIN``
    past a limit toward it and minimises that quadratic model in the box by
    ``hildreth`` on the box alone, the first round pulling none; a minimiser
    whose crossing rows are not the pulled ones gives way to
    ``newton_line_minimum``, and the loop ends when the crossing rows repeat."""
    layout = config.layout
    top, bottom = layout.y_hi + CROSSING_MARGIN, layout.y_lo - CROSSING_MARGIN
    g = condensed_map(lpv, config)
    y0_s = np.asarray(y0, dtype=float)[layout.y_index]
    ref_s = np.asarray(refs, dtype=float)[:config.n2].ravel()
    bounds = (layout.box - u_prev).reshape(2, -1)
    weight, rhs = layout.q_diag, layout.q_diag * (y0_s - ref_s)
    side = np.zeros(len(y0_s), dtype=np.int8)   # +1 / -1: pulled to the upper / lower limit
    z = y_pred = None
    while True:
        e_mat = 2.0 * (g.T @ (weight[:, None] * g) + layout.r_mat)
        z_new = hildreth(e_mat, 2.0 * g.T @ rhs, layout.s_mat, bounds[0], bounds[1])[0]
        y_new = y0_s + g @ z_new
        crossing = (y_new > top).view(np.int8) - (y_new < bottom).view(np.int8)
        if z is not None and np.count_nonzero(crossing != side):
            z_new = newton_line_minimum(layout, g, z, z_new, y_pred, ref_s)
            y_new = y0_s + g @ z_new
            crossing = (y_new > top).view(np.int8) - (y_new < bottom).view(np.int8)
        z, y_pred = z_new, y_new
        if not np.count_nonzero(crossing != side):
            return z.reshape(config.nc, 2)
        side = crossing
        pen = layout.rho * (side != 0)
        limit = np.where(side > 0, layout.y_hi, layout.y_lo)
        weight = layout.q_diag + pen
        rhs = layout.q_diag * (y0_s - ref_s) + pen * (y0_s - limit)


def assert_projected_gradient(lpv, y0, refs, u_prev, config, du):
    """The optimality certificate of the objective, whatever solver found
    ``du``: in the running sums v = S du, where the box is simple bounds, the
    gradient vanishes on each entry inside the box and points out of it on
    each entry within 1e-12 of the span of a bound, to 1e-9 of the largest
    sum of absolute terms that makes up an entry of the gradient, plus the
    pull of rows up to ``CROSSING_MARGIN`` past a limit, whose targets stay
    free, plus the rounding of the trail y = y0 + G du that the gradient is
    computed from: 2*Nc + 1 machine epsilons of the sum of the absolute terms
    of each row, times the row's weight.  The gradient's sum of absolute terms
    counts each row's error after its cancellation, so it misses that
    rounding, which a pull of ``soft_weight`` 1e4 or gains far below the
    output's size can make the larger.  The bound is never below the smallest
    normal float: at subnormal gains every product underflows, and the
    gradient and its scale lose all their relative precision."""
    layout = config.layout
    g = oracle_condensed_map(lpv, config.nc, config.n2)
    s_mat = running_sums(config.nc)
    to_v = np.linalg.inv(s_mat).T
    du = np.ravel(du)
    y = np.tile(y0, config.n2) + g @ du
    rows = 2.0 * (layout.q_diag * (y - refs[:config.n2].ravel())
                  + layout.rho * (y - np.clip(y, layout.y_lo, layout.y_hi)))
    grad = to_v @ (g.T @ rows + 2.0 * layout.r_mat @ du)
    scale = np.abs(to_v) @ (np.abs(g.T) @ np.abs(rows) + 2.0 * np.abs(layout.r_mat) @ np.abs(du))
    lower, upper = box_bounds(config, u_prev)
    v, span = s_mat @ du, upper - lower
    outward = np.where(v - lower <= 1e-12 * span, np.minimum(grad, 0.0),
                       np.where(upper - v <= 1e-12 * span, np.maximum(grad, 0.0), grad))
    margin = np.abs(to_v) @ np.abs(g.T) @ (2.0 * CROSSING_MARGIN * layout.rho)
    weight = layout.q_diag + layout.rho * (y != np.clip(y, layout.y_lo, layout.y_hi))
    terms = np.tile(np.abs(y0), config.n2) + np.abs(g) @ np.abs(du)
    rounding = np.abs(to_v) @ np.abs(g.T) @ (2.0 * weight * (len(du) + 1)
                                             * np.finfo(float).eps * terms)
    bound = 1e-9 * scale.max() + margin.max() + rounding.max()
    assert np.abs(outward).max() <= max(bound, np.finfo(float).tiny)


def assert_reference_minimum(lpv, y0, refs, u_prev, config):
    """``solve_qp`` meets the projected-gradient certificate, its objective
    is the reference minimiser's to 1e-9, and ``cost`` is that objective."""
    sol = solve_qp(lpv, y0, refs, u_prev, config)
    value = objective(lpv, y0, refs, sol.du, config)
    best = reference_minimiser(lpv, y0, refs, u_prev, config)
    assert value == pytest.approx(best, rel=1e-9)
    assert sol.cost == pytest.approx(value, rel=1e-12)
    assert_projected_gradient(lpv, y0, refs, u_prev, config, sol.du)


def solution_bytes(sol):
    """Every field of a ``HorizonSolution``, floats as their bytes."""
    return (sol.du.tobytes(), np.float64(sol.cost).tobytes(), sol.iterations,
            sol.capped)


def output_violation(predicted, config=CFG):
    lo = np.array([config.thrust_bounds[0], config.lambda_bounds[0]])
    hi = np.array([config.thrust_bounds[1], config.lambda_bounds[1]])
    return float(np.sum(np.maximum(predicted - hi, 0.0)
                        + np.maximum(lo - predicted, 0.0)))


@pytest.fixture(scope="module")
def trained_rbf(seed19_dataset):
    return train_rbf(seed19_dataset, TrainingConfig())


class TestPredictHorizon:
    def test_zero_increments_hold_measured_output(self):
        lpv = toy_lpv()
        y0 = np.array([700.0, 0.9])
        pred = predict(lpv, y0, np.zeros((3, 2)), 8)
        assert np.allclose(pred, np.tile(y0, (8, 1)), rtol=0, atol=1e-14)

    def test_single_increment_matches_matrix_powers(self):
        lpv = toy_lpv(3)
        y0 = np.zeros(2)
        du = np.zeros((3, 2))
        du[0] = [1.3, -0.7]
        pred = predict(lpv, y0, du, 8)
        # per-step differences must equal C A^(k-1) B du
        diffs = np.vstack([pred[0], np.diff(pred, axis=0)])
        a_pow = np.eye(3)
        for k in range(8):
            expected = lpv.c @ a_pow @ lpv.b @ du[0]
            assert np.allclose(diffs[k], expected, rtol=1e-12, atol=1e-12)
            a_pow = lpv.a @ a_pow

    def test_superposition(self):
        lpv = toy_lpv(5)
        rng = np.random.default_rng(2)
        y0 = rng.normal(size=2)
        du1 = rng.normal(size=(3, 2))
        du2 = rng.normal(size=(3, 2))
        base = predict(lpv, y0, np.zeros((3, 2)), 8)
        p1 = predict(lpv, y0, du1, 8)
        p2 = predict(lpv, y0, du2, 8)
        p12 = predict(lpv, y0, du1 + du2, 8)
        assert np.allclose(p12, p1 + p2 - base, rtol=1e-12)


class TestCondensedMap:
    @pytest.mark.parametrize("nc,n2", [(1, 1), (2, 5), (3, 8), (8, 8)])
    def test_columns_match_step_simulation(self, nc, n2):
        for seed in range(5):
            lpv = toy_lpv(seed)
            g = condensed_map(lpv, MpcConfig(n2=n2, nc=nc))
            assert g.shape == (2 * n2, 2 * nc)
            for col in range(2 * nc):
                du = np.zeros((nc, 2))
                du[col // 2, col % 2] = 1.0
                ref = simulate_horizon(lpv, np.zeros(2), du, n2).ravel()
                assert np.max(np.abs(g[:, col] - ref)) \
                    <= 1e-12 * np.max(np.abs(ref))

    def test_prediction_matches_step_simulation(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            lpv = toy_lpv(seed)
            y0 = np.array([rng.uniform(200, 1200), rng.uniform(0.7, 1.2)])
            du = rng.normal(size=(3, 2))
            ref = simulate_horizon(lpv, y0, du, 8)
            pred = predict(lpv, y0, du, 8)
            assert np.allclose(pred, ref, rtol=1e-12, atol=0.0)


class TestCondensedMapOracle:
    """The gather through one index must place every block bit for bit where
    the zeros-and-slices loop put it."""

    def test_stock_episode_models(self, stock_qps):
        for lpv, *_ in stock_qps:
            assert condensed_map(lpv, CFG).tobytes() \
                == oracle_condensed_map(lpv, CFG.nc, CFG.n2).tobytes()

    @pytest.mark.parametrize("nc", [1, 2, 3, 4])
    def test_random_models(self, nc):
        rng = np.random.default_rng(nc)
        for n2 in range(nc, 13):
            for _ in range(5):
                lpv = LpvModel(a=rng.normal(size=(3, 3)),
                               b=rng.normal(size=(3, 2)) * 10.0 ** rng.uniform(-3, 3),
                               c=rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-1, 3),
                               x0=np.zeros(3), u0=np.zeros(2))
                assert condensed_map(lpv, MpcConfig(n2=n2, nc=nc)).tobytes() \
                    == oracle_condensed_map(lpv, nc, n2).tobytes()


if st is not None:
    @st.composite
    def lpv_and_horizons(draw):
        """A model with A's first column zero, as ``build_lpv`` pins it, and
        horizons 1 <= nc <= n2 <= 10."""
        a = np.zeros((3, 3))
        a[:, 1:] = draw(arrays(np.float64, (3, 2), elements=st.floats(-1.5, 1.5)))
        lpv = LpvModel(a=a,
                       b=draw(arrays(np.float64, (3, 2), elements=st.floats(-10, 10))),
                       c=draw(arrays(np.float64, (2, 3), elements=st.floats(-1e3, 1e3))),
                       x0=np.zeros(3), u0=np.zeros(2))
        n2 = draw(st.integers(1, 10))
        return lpv, draw(st.integers(1, n2)), n2

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(case=lpv_and_horizons())
    def test_condensed_map_matches_step_simulation(case):
        """Column 2k+s of the map is the step simulation's answer to a unit
        increment of input s at step k; each entry agrees to 1e-12 of the
        same sum over |A|, |B| and |C|, and is exactly zero above the block
        diagonal."""
        lpv, nc, n2 = case
        magnitude = LpvModel(a=np.abs(lpv.a), b=np.abs(lpv.b), c=np.abs(lpv.c),
                             x0=lpv.x0, u0=lpv.u0)
        units = np.eye(2 * nc).reshape(2 * nc, nc, 2)
        ref = np.column_stack([simulate_horizon(lpv, np.zeros(2), du, n2).ravel()
                               for du in units])
        bound = np.column_stack([
            simulate_horizon(magnitude, np.zeros(2), du, n2).ravel() for du in units])
        g = condensed_map(lpv, MpcConfig(n2=n2, nc=nc))
        assert g.shape == (2 * n2, 2 * nc)
        assert np.all(np.abs(g - ref) <= 1e-12 * bound)


class TestCost:
    def test_zero_at_perfect_tracking(self):
        refs = np.tile([800.0, 1.0], (8, 1))
        assert cost(CFG, refs, refs.copy(), np.zeros((3, 2))) == 0.0

    def test_quadratic_scaling(self):
        refs = np.tile([800.0, 1.0], (8, 1))
        pred1 = refs + np.array([20.0, 0.02])
        pred2 = refs + np.array([40.0, 0.04])
        z1 = cost(CFG, refs, pred1, np.zeros((3, 2)))
        z2 = cost(CFG, refs, pred2, np.zeros((3, 2)))
        assert z2 == pytest.approx(4.0 * z1, rel=1e-12)

    def test_two_step_hand_fixture(self):
        # N2=2, Nc=1 toy horizon computed with explicit arithmetic
        cfg = MpcConfig(n2=2, nc=1)
        refs = np.array([[100.0, 1.0], [110.0, 1.0]])
        pred = np.array([[90.0, 0.95], [105.0, 1.01]])
        du = np.array([[2.0, 0.0004]])
        w_t = 1.0 / (150.0 * KGF)
        w_l = 1.0 / (1.26 - 0.68)
        w_tps = 1.0 / 85.0
        w_mf = 1.0 / 0.0044
        track = ((10.0 * w_t) ** 2 + (0.05 * w_l) ** 2
                 + (5.0 * w_t) ** 2 + (0.01 * w_l) ** 2)
        moves = (2.0 * w_tps) ** 2 + (0.0004 * w_mf) ** 2
        expected = 0.8 * track + 0.5 * moves
        assert cost(cfg, refs, pred, du) == pytest.approx(expected, rel=1e-12)


class TestHildreth:
    def test_matches_dense_solution_on_interior_instances(self):
        # margins of 0.5 to 2 keep S times the free minimizer inside the bounds
        rng = np.random.default_rng(0)
        s_mat = running_sums(3)
        for _ in range(100):
            n = 6
            a = rng.normal(size=(n, n))
            e = a @ a.T + n * np.eye(n)
            f = rng.normal(size=n)
            z_free = -np.linalg.solve(e, f)
            margin = rng.uniform(0.5, 2.0, 2 * n)
            v = s_mat @ z_free
            z, lam, steps, _, capped = hildreth(e, f, s_mat, v - margin[:n], v + margin[n:])
            assert not capped and steps == 0 and not lam.any()
            assert np.max(np.abs(z - z_free)) < 1e-8

    def test_active_constraint_clamps_with_positive_multiplier(self):
        # min (z-2)^2 subject to z <= 1: optimum z=1, multiplier 2
        z, lam, steps, kkt, capped = hildreth(np.array([[2.0]]), np.array([-4.0]),
                                              np.eye(1), np.array([-np.inf]),
                                              np.array([1.0]))
        assert z[0] == 1.0
        assert lam[0] == pytest.approx(2.0, rel=1e-15)
        assert kkt == 0.0 and steps == 1 and not capped

    def test_two_sided_box_fixture(self):
        # min 0.5 z'Ez + f'z with box -1 <= z <= 1 in 2-D, optimum outside
        e = np.array([[2.0, 0.0], [0.0, 2.0]])
        f = np.array([-6.0, 0.5])   # unconstrained optimum (3, -0.25)
        z, lam, _, kkt, capped = hildreth(e, f, np.eye(2), -np.ones(2), np.ones(2))
        assert z.tolist() == [1.0, -0.25]
        assert lam.tolist() == [4.0, 0.0]
        assert kkt == 0.0 and not capped

    def test_bound_released_when_its_multiplier_turns_negative(self):
        # the free minimizer (-1, 3) clipped to the box holds z1 at its lower
        # bound -0.5 and z2 at its upper bound 1; the first step finds z1's
        # multiplier negative and releases it, the second moves z1 to its
        # minimum 0.5 with z2 held, where z2's multiplier is positive
        e = np.array([[2.0, 1.5], [1.5, 2.0]])
        f = -e @ np.array([-1.0, 3.0])
        z, lam, steps, _, capped = hildreth(e, f, np.eye(2), np.array([-0.5, -1.0]),
                                            np.ones(2))
        z_held = -(f[0] + e[0, 1]) / e[0, 0]
        assert z[1] == 1.0 and z[0] == pytest.approx(z_held, rel=1e-15)
        assert lam[0] == 0.0 and lam[1] > 0.0
        assert steps == 2 and not capped

    def test_singular_hessian_raises_typed_error(self):
        e = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularQpError, match="singular"):
            hildreth(e, np.ones(2), np.eye(2), -np.ones(2), np.ones(2))
        assert issubclass(SingularQpError, RuntimeError)

    @pytest.mark.parametrize("e_mat", [np.diag([2.0, -1.0]),
                                       np.array([[0.0, 1.0], [1.0, 0.0]])])
    def test_indefinite_hessian_raises_typed_error(self, e_mat):
        # E inverts, but it is not positive definite, so a bound-held point
        # need not be a minimum; the free minimizer leaves the box
        with pytest.raises(SingularQpError, match="singular in floating point"):
            hildreth(e_mat, np.array([-4.0, 1.0]), np.eye(2), -np.ones(2), np.ones(2))
        # inside a wider box the free minimizer's trail is past a limit, so
        # the active set starts with that row's target held, and still raises
        rows = (np.eye(2), np.zeros(2), -np.ones(2), np.ones(2), np.ones(2))
        with pytest.raises(SingularQpError, match="singular in floating point"):
            hildreth(e_mat, np.array([-4.0, 1.0]), np.eye(2), -5.0 * np.ones(2),
                     5.0 * np.ones(2), rows)


class TestSolveQp:
    def test_zero_error_keeps_input(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u_prev = np.array([35.0, 0.003])
        lpv = build_lpv(trained_rbf, G, x0, u_prev)
        y0 = np.array([500.0, 0.9])
        refs = np.tile(y0, (CFG.n2, 1))
        sol = solve_qp(lpv, y0, refs, u_prev, CFG)
        assert np.max(np.abs(sol.du)) < 1e-9
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_cost_never_worse_than_no_move(self, trained_rbf):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x0 = np.array([rng.uniform(5, 30), rng.uniform(45, 95),
                           rng.uniform(0.82, 1.05)])
            u_prev = np.array([rng.uniform(25, 60), rng.uniform(0.002, 0.0045)])
            lpv = build_lpv(trained_rbf, G, x0, u_prev)
            y0 = np.array([ducted_thrust_at_crank_speed(x0[1], G), x0[2]])
            refs = np.tile(y0 * rng.uniform(0.9, 1.1, 2), (CFG.n2, 1))
            sol = solve_qp(lpv, y0, refs, u_prev, CFG)
            pred0 = predict(lpv, y0, np.zeros((CFG.nc, 2)), CFG.n2)
            z0 = cost(CFG, refs, pred0, np.zeros((CFG.nc, 2)))
            assert sol.cost <= z0 + 1e-12

    def test_unconstrained_matches_normal_equations(self):
        # small tracking errors keep the optimum interior; compare against
        # the dense closed-form solution of the same condensed quadratic,
        # which tracks every predicted row
        lpv = toy_lpv(4)
        y0 = np.array([700.0, 0.9])
        u_prev = np.array([45.0, 0.003])
        for cfg in (CFG, MpcConfig(n2=5, nc=2)):
            refs = np.tile(y0 + np.array([3.0, 0.002]), (cfg.n2, 1))
            sol = solve_qp(lpv, y0, refs, u_prev, cfg)

            g = condensed_map(lpv, cfg)
            w_y = np.tile(cfg.layout.w_y[:2], cfg.n2)
            q = cfg.eps * w_y ** 2
            r = cfg.xi * np.tile(cfg.layout.w_u[:2], cfg.nc) ** 2
            e = 2.0 * (g.T @ (q[:, None] * g) + np.diag(r))
            f = 2.0 * g.T @ (q * (np.tile(y0, cfg.n2) - refs.ravel()))
            z_dense = -np.linalg.solve(e, f)
            assert np.max(np.abs(sol.du.ravel() - z_dense)) < 1e-8

    def test_soft_output_limits_pull_prediction_back(self):
        # the tracking QP alone overshoots the thrust limit; the soft limits
        # pull the predicted trail back toward it
        lpv, y0, refs, u_prev = overshoot_case()
        sol = solve_qp(lpv, y0, refs, u_prev, CFG)
        plain = plain_qp_solution(lpv, y0, refs, u_prev, CFG)
        first = simulate_horizon(lpv, y0, plain.du, CFG.n2)
        assert first[:, 0].max() > CFG.thrust_bounds[1]
        predicted = y0 + (condensed_map(lpv, CFG) @ sol.du.ravel()).reshape(CFG.n2, 2)
        assert output_violation(predicted) < output_violation(first)
        assert sol.cost == pytest.approx(104.143456828, rel=1e-9)
        assert_reference_minimum(lpv, y0, refs, u_prev, CFG)

    def test_iterations_count_every_round(self, monkeypatch):
        # one ``hildreth`` call steps through the box bounds and the targets
        # alike; its steps are the solution's iterations and its cap is the
        # solution's
        lpv, y0, refs, u_prev = binding_case()
        steps = []

        def counted(*args):
            result = hildreth(*args)
            steps.append(result[2])
            return result

        monkeypatch.setattr(mpc, "hildreth", counted)
        sol = solve_qp(lpv, y0, refs, u_prev, CFG)
        assert steps == [24]
        assert sol.iterations == 24
        assert not sol.capped
        monkeypatch.setattr(mpc, "hildreth", lambda *args: (*hildreth(*args)[:4], True))
        assert solve_qp(lpv, y0, refs, u_prev, CFG).capped

    @pytest.mark.parametrize("name, side", [("thrust_bounds", 1), ("thrust_bounds", 0),
                                            ("lambda_bounds", 1), ("lambda_bounds", 0)])
    @pytest.mark.parametrize("offset, stages", [
        (0.0, 1), (4.5e-13, 1), (2.0e-12, 2)])
    def test_crossing_needs_more_than_1e12_past_a_limit(self, name, side, offset, stages):
        # the reference is the measured output, so the free minimiser is no
        # move at all and its trail is the measured output exactly: within
        # the margin it is the solution (one stage), past it the active set
        # runs from the crossing rows held (two stages)
        assert CROSSING_MARGIN == 1e-12
        channel = ("thrust_bounds", "lambda_bounds").index(name)
        limit = getattr(CFG, name)[side]
        y0 = np.array([700.0, 0.9])
        y0[channel] = limit + offset if side else limit - offset
        refs, u_prev = np.tile(y0, (CFG.n2, 1)), np.array([45.0, 0.003])
        sol = solve_qp(toy_lpv(), y0, refs, u_prev, CFG)
        assert 1 + (sol.iterations > 0) == stages and not sol.capped
        if stages == 1:
            assert not sol.du.any() and sol.cost == 0.0
        else:
            # the cost is the objective, which counts what stays past the limit
            assert sol.cost > 0.0
            assert sol.cost == pytest.approx(objective(toy_lpv(), y0, refs, sol.du, CFG),
                                             rel=1e-12)


class TestSolveQpOracle:
    """Every stock step solves the plain tracking QP, and every soft step
    ends at the minimiser of the objective."""

    def test_stock_episode(self, stock_qps):
        for lpv, y0, refs, u_prev, sol in stock_qps:
            assert solution_bytes(sol) == solution_bytes(
                plain_qp_solution(lpv, y0, refs, u_prev, CFG))
        # the episode also runs the active-set steps, not only interior optima
        assert any(sol.iterations for *_, sol in stock_qps)

    @pytest.mark.parametrize("case", [binding_case, late_crossing_case, rich_lambda_case])
    @pytest.mark.parametrize("cfg", [
        CFG, MpcConfig(soft_weight=10.0), MpcConfig(soft_weight=0.0),
        MpcConfig(n2=5, nc=2)])
    def test_matches_reference_minimiser(self, case, cfg):
        assert_reference_minimum(*case(), cfg)

    @pytest.mark.parametrize("case", [
        overshoot_case, late_crossing_case, binding_case, rich_lambda_case])
    def test_one_call_holds_the_limits(self, case, monkeypatch):
        # one ``hildreth`` call, whose Hessian is in the increments alone and
        # whose rows are the trail and the limits, reaches the Newton loop's
        # minimiser
        lpv, y0, refs, u_prev = case()
        calls = []

        def counted(*args):
            calls.append(args)
            return hildreth(*args)

        monkeypatch.setattr(mpc, "hildreth", counted)
        sol = solve_qp(lpv, y0, refs, u_prev, CFG)
        (e_mat, f_vec, _, _, _, rows), = calls
        assert e_mat.shape == (2 * CFG.nc,) * 2 and len(f_vec) == 2 * CFG.nc
        g, y0_s, y_lo, y_hi, rho = rows
        assert np.array_equal(g, condensed_map(lpv, CFG))
        assert np.array_equal(y0_s, np.tile(y0, CFG.n2))
        layout = CFG.layout
        assert all(a is b for a, b in zip((y_lo, y_hi, rho),
                                          (layout.y_lo, layout.y_hi, layout.rho)))
        newton = newton_solve_qp(lpv, y0, refs, u_prev, CFG)
        assert objective(lpv, y0, refs, sol.du, CFG) == pytest.approx(
            objective(lpv, y0, refs, newton, CFG), rel=1e-12)

    def test_held_set_at_other_limits_is_no_cycle(self):
        # the same rows held at other limits are another QP, of lower
        # objective: only a repeat of rows and limits together is a cycle
        cfg = MpcConfig(soft_weight=1e4)
        lpv, y0, refs, u_prev = two_sided_case()
        assert not solve_qp(lpv, y0, refs, u_prev, cfg).capped
        assert_reference_minimum(lpv, y0, refs, u_prev, cfg)

    @pytest.mark.parametrize("cfg", [
        MpcConfig(n2=5, nc=2), MpcConfig(soft_weight=10.0), MpcConfig(soft_weight=0.0),
        # limits so wide that no predicted row crosses one
        MpcConfig(thrust_bounds=(0.0, 1.0e6), lambda_bounds=(-1.0e3, 1.0e3))])
    def test_overshoot_case_under_other_configs(self, cfg):
        assert_reference_minimum(*overshoot_case(), cfg)


def recorded_episode(rbf, config, controller, seed=None):
    """The stock scenario under ``config``, at scenario seed ``seed`` if given:
    (records, steps), each step's solve_qp arguments, its solution and the
    (arguments, result) of every ``hildreth`` call."""
    bundle = load_bundle(None, {} if seed is None else {"scenario.seed": seed})
    steps = []
    solve, solve_box = mpc.solve_qp, mpc.hildreth

    def recording_hildreth(*args):
        steps[-1][2].append((args, solve_box(*args)))
        return steps[-1][2][-1][1]

    def recording_solve(*args):
        steps.append([args, None, []])
        steps[-1][1] = solve(*args)
        return steps[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc, "hildreth", recording_hildreth)
        patch.setattr(mpc, "solve_qp", recording_solve)
        records, _ = run_scenario(bundle.plant, bundle.fan, config, bundle.scenario,
                                  controller=controller, rbf=rbf)
    return records, steps


class TestSoftLimitsClosedLoop:
    @pytest.mark.parametrize("controller", ["ampc", "linear-mpc"])
    def test_stock_episode_solves_one_round_per_step(self, stock_rbf, controller):
        records, steps = recorded_episode(stock_rbf, CFG, controller)
        assert len(records) == len(steps) == 250
        assert all(len(models) == 1 for *_, models in steps)

    @staticmethod
    def capped_thrust_episode(rbf, n2):
        """The stock AMPC episode at horizon ``n2`` under a 75 kgf cap, below
        the 80 kgf hover reference, so the soft limit binds through the climb
        and the hover: (config, the steps whose solution holds some row's
        target, the largest active-set step count of a step).  Each of its 250
        steps makes one ``hildreth`` call, each plan holds the input box
        uncapped, each soft step meets the projected-gradient certificate, and
        the steady thrust stays near the cap."""
        cfg = replace(CFG, n2=n2, thrust_bounds=(0.0, 75.0 * KGF))
        records, steps = recorded_episode(rbf, cfg, "ampc")
        assert len(records) == 250
        assert all(len(qp_calls) == 1 for *_, qp_calls in steps)
        # a soft step's one call holds a target, of positive multiplier
        soft = [step for step in steps if (step[2][0][1][1][2 * cfg.nc:] > 0.0).any()]
        for (lpv, y0, refs, u_prev, _), sol, _ in steps:
            assert_plan_in_box(u_prev, sol.du, cfg)
            assert not sol.capped
        for (lpv, y0, refs, u_prev, _), sol, _ in soft:
            assert_projected_gradient(lpv, y0, refs, u_prev, cfg, sol.du)
        steady = [rec.thrust_true for rec in records[130:]]
        assert 73.0 < min(steady) and max(steady) < 76.5
        return cfg, soft, max(sol.iterations for _, sol, _ in steps)

    def test_thrust_cap_below_hover(self, stock_rbf):
        # the one call reaches the Newton loop's minimiser on every soft step
        cfg, soft, steps = self.capped_thrust_episode(stock_rbf, 8)
        assert len(soft) == 161 and steps == 14
        for (lpv, y0, refs, u_prev, _), sol, _ in soft:
            newton = newton_solve_qp(lpv, y0, refs, u_prev, cfg)
            assert objective(lpv, y0, refs, sol.du, cfg) == pytest.approx(
                objective(lpv, y0, refs, newton, cfg), rel=1e-12)

    def test_thrust_cap_at_long_horizon(self, stock_rbf):
        # at n2 = 12 the condensed Hessian's condition number passes 1e19
        _, soft, steps = self.capped_thrust_episode(stock_rbf, 12)
        assert len(soft) == 168 and steps == 21

    @pytest.mark.parametrize("controller, cap_kgf", [("ampc", 75.0), ("linear-mpc", 60.0)])
    def test_capped_replay_matches_newton(self, stock_rbf, controller, cap_kgf):
        # every QP of the episode, soft or not: one uncapped ``hildreth``
        # call at the Newton loop's minimiser
        cfg = replace(CFG, thrust_bounds=(0.0, cap_kgf * KGF))
        records, steps = recorded_episode(stock_rbf, cfg, controller)
        assert len(records) == len(steps) == 250
        for (lpv, y0, refs, u_prev, _), sol, qp_calls in steps:
            assert len(qp_calls) == 1 and not sol.capped
            newton = newton_solve_qp(lpv, y0, refs, u_prev, cfg)
            assert objective(lpv, y0, refs, sol.du, cfg) == pytest.approx(
                objective(lpv, y0, refs, newton, cfg), rel=1e-12)

    def test_thrust_cap_on_a_small_training_set(self, monkeypatch):
        # the console run of CI's 300-sample config under a 75 kgf cap: its
        # LPV models reach an eigenvalue of 8.26, so the condensed Hessians
        # reach entries of 1e22, and a re-solve in the increments and the
        # targets together failed the Cholesky check at step 19
        bundle = load_bundle(None, {
            "training.sample_count": 300, "training.n_train": 285, "training.seed": 11,
            "scenario.steps": 40, "scenario.ramp_start": 4, "scenario.ramp_end": 24,
            "scenario.lam_step_at": 32, "scenario.settle_margin": 4,
            "mpc.thrust_bounds": (0.0, 75.0 * KGF)})
        rbf = train_rbf(generate_dataset(bundle.plant, bundle.fan, bundle.training),
                        bundle.training)
        calls = []

        def counted(*args):
            result = hildreth(*args)
            calls[-1].append((len(args[1]), (result[1][len(args[1]):] > 0.0).any()))
            return result

        def solve(*args):
            calls.append([])
            return solve_qp(*args)

        monkeypatch.setattr(mpc, "hildreth", counted)
        monkeypatch.setattr(mpc, "solve_qp", solve)
        records, _ = run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                                  controller="ampc", rbf=rbf)
        assert len(records) == len(calls) == 40
        # one call a step, in the increments alone, and 36 steps hold a row's target
        assert all(len(step) == 1 for step in calls)
        assert {n for (n, _), in calls} == {2 * bundle.mpc.nc}
        assert sum(held for (_, held), in calls) == 36


if st is not None:
    @st.composite
    def soft_limit_qp(draw):
        """(lpv, y0, refs, u_prev, config): a toy model of ``toy_lpv``'s
        ranges, outputs and references within reach of the limits, any
        input in the box, and one of five configs."""
        floats = st.floats
        a = np.zeros((3, 3))
        a[:, 1:] = draw(arrays(np.float64, (3, 2), elements=floats(-0.4, 0.6)))
        c = np.zeros((2, 3))
        c[0, :2] = draw(floats(5.0, 15.0)), draw(floats(1.0, 4.0))
        c[1, 2] = 1.0
        lpv = LpvModel(a=a, b=draw(arrays(np.float64, (3, 2), elements=floats(-0.5, 0.5))),
                       c=c, x0=np.zeros(3), u0=np.zeros(2))
        cfg = draw(st.sampled_from([CFG, MpcConfig(soft_weight=10.0), MpcConfig(soft_weight=0.0),
                                    MpcConfig(soft_weight=1e4), MpcConfig(n2=5, nc=2)]))
        near = np.array([draw(st.sampled_from(cfg.thrust_bounds)),
                         draw(st.sampled_from(cfg.lambda_bounds))])
        spread = np.array([300.0, 0.1])
        y0 = near + spread * draw(arrays(np.float64, 2, elements=floats(-1.0, 1.0)))
        refs = y0 + spread * draw(arrays(np.float64, (cfg.n2, 2), elements=floats(-1.0, 1.0)))
        u_prev = np.array([draw(floats(*TPS_RANGE)), draw(floats(*MF_RANGE))])
        return lpv, y0, refs, u_prev, cfg

    def subnormal_case(gain, y0, refs):
        """A shrunk draw of ``soft_limit_qp`` whose gains are all the
        subnormal ``gain``, at the stock config."""
        c = np.array([[5.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        lpv = LpvModel(a=np.zeros((3, 3)), b=np.full((3, 2), gain), c=c,
                       x0=np.zeros(3), u0=np.zeros(2))
        return (lpv, np.array(y0), np.tile(refs, (CFG.n2, 1)),
                np.array([TPS_RANGE[0], 0.00390625]), CFG)

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(case=soft_limit_qp())
    # the certificate's products underflow at these gains
    @example(case=subnormal_case(2.2250738585e-313, [0.0, 0.68], [300.0, 0.68 + 0.1]))
    @example(case=subnormal_case(5e-324, [0.0, 1.26 + 0.1], [0.0, 1.26 + 0.1]))
    @example(case=subnormal_case(5e-324, [-300.0, 0.68 - 0.1], [-300.0, 0.68 - 0.1]))
    def test_solve_qp_meets_projected_gradient_certificate(case):
        """``cost`` is the objective at du, the plan holds the input box, du
        meets the projected-gradient certificate, no held set recurs, and
        one ``hildreth`` call solves in the increments alone."""
        lpv, y0, refs, u_prev, cfg = case
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return hildreth(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpc, "hildreth", counted)
            sol = solve_qp(lpv, y0, refs, u_prev, cfg)
        assert sol.cost == pytest.approx(objective(lpv, y0, refs, sol.du, cfg), rel=1e-12)
        assert_plan_in_box(u_prev, sol.du, cfg)
        assert_projected_gradient(lpv, y0, refs, u_prev, cfg, sol.du)
        assert not sol.capped
        assert calls == [2 * cfg.nc]


def assert_plan_in_box(u_prev, du, config):
    """Every running input sum u_prev + cumsum(du) lies in the input box to
    1e-12 of each channel's span."""
    lower = np.array([config.tps_bounds[0], config.mf_bounds[0]])
    upper = np.array([config.tps_bounds[1], config.mf_bounds[1]])
    plan = u_prev + np.cumsum(du, axis=0)
    excess = np.maximum(plan - upper, 0.0) + np.maximum(lower - plan, 0.0)
    assert np.all(excess <= 1e-12 * (upper - lower))


def box_rows(s_mat, lower, upper):
    """(M, gamma) of the box lower <= S z <= upper as rows M z <= gamma, an
    (upper, lower) pair per entry, the order Hildreth's sweep visited them."""
    m_mat = np.stack([s_mat, -s_mat], axis=1).reshape(2 * len(s_mat), -1)
    return m_mat, np.stack([upper, -lower], axis=1).ravel()


def reference_hildreth(e_mat, f_vec, m_mat, gamma):
    """Hildreth's dual coordinate ascent for min 0.5 z'Ez + f'z subject to
    M z <= gamma, the box solver of ``solve_qp`` before the active-set method:
    (z, multipliers, sweeps).  The free minimizer is returned when no row
    exceeds gamma by more than 1e-8; the sweep stops after one that moves no
    multiplier by more than 1e-8 times the largest, or after 500."""
    e_inv = np.linalg.inv(e_mat)
    z_free = -e_inv @ f_vec
    lam = np.zeros(len(gamma))
    if (m_mat @ z_free - gamma).max() <= 1e-8:
        return z_free, lam, 0
    p_mat = m_mat @ e_inv @ m_mat.T
    d_vec = gamma + m_mat @ e_inv @ f_vec
    for sweeps in range(1, 501):
        delta = 0.0
        for i in range(len(gamma)):
            w = -(d_vec[i] + p_mat[i] @ lam - p_mat[i, i] * lam[i]) / p_mat[i, i]
            delta = max(delta, abs(max(0.0, w) - lam[i]))
            lam[i] = max(0.0, w)
        if delta <= 1e-8 * max(1.0, float(np.max(np.abs(lam)))):
            break
    return -e_inv @ (f_vec + m_mat.T @ lam), lam, sweeps


def kkt_on_active_set(e_mat, f_vec, m_mat, gamma, active):
    """The exact minimizer with the rows ``active`` held as equalities, from
    one solve of the KKT system."""
    rows = m_mat[active]
    kkt = np.block([[e_mat, rows.T], [rows, np.zeros((len(rows), len(rows)))]])
    return np.linalg.solve(kkt, np.concatenate([-f_vec, gamma[active]]))[:len(f_vec)]


@pytest.fixture(scope="module")
def stock_box_qps(stock_rbf):
    """(arguments, result) of every ``hildreth`` call that meets the box in
    the stock AMPC episodes at scenario seeds 7 and 3 and in the stock
    linear-MPC episode."""
    calls = []
    for controller, seed in (("ampc", 7), ("ampc", 3), ("linear-mpc", 7)):
        _, steps = recorded_episode(stock_rbf, CFG, controller, seed)
        calls += [call for *_, qp_calls in steps for call in qp_calls if call[1][2]]
    return calls


class TestBoxOracle:
    """The active-set method is exact where Hildreth's sweep stopped on a
    tolerance, and the plans it makes hold the input box."""

    def test_stock_box_qps_match_kkt_on_hildreth_active_set(self, stock_box_qps):
        assert len(stock_box_qps) == 8 + 8 + 63
        for (e_mat, f_vec, s_mat, lower, upper, _), (z, lam, steps, _, capped) \
                in stock_box_qps:
            m_mat, gamma = box_rows(s_mat, lower, upper)
            active = reference_hildreth(e_mat, f_vec, m_mat, gamma)[1] > 0.0
            z_ref = kkt_on_active_set(e_mat, f_vec, m_mat, gamma, active)
            assert np.max(np.abs(z - z_ref)) <= 1e-11 * np.max(np.abs(z_ref))
            # no row's target is held; the held bounds are the rows Hildreth's
            # sweep kept active, and S z meets each to rounding
            assert not lam[len(z):].any()
            held = lam[:len(z)] > 0.0
            assert np.array_equal(held, active.reshape(-1, 2).any(axis=1))
            v, span = s_mat @ z, upper - lower
            assert np.all(np.maximum(v - upper, lower - v) <= 1e-15 * span)
            assert np.all(np.minimum(upper - v, v - lower)[held] <= 1e-15 * span[held])
            assert np.all(lam >= 0.0) and 1 <= steps <= 3 and not capped

    @pytest.mark.parametrize("n2", [8, 12, 13])
    def test_plans_hold_the_input_box(self, stock_rbf, n2):
        # at n2 = 12 and 13 the condensed Hessian's condition number passes
        # 1e19; Hildreth's sweep left plans up to a third of the span outside
        cfg = replace(CFG, n2=n2)
        records, steps = recorded_episode(stock_rbf, cfg, "ampc")
        assert len(records) == 250
        for (_, _, _, u_prev, _), sol, _ in steps:
            assert_plan_in_box(u_prev, sol.du, cfg)
            assert not sol.capped


if st is not None:
    @st.composite
    def box_qp(draw):
        """(E, f, lower, upper): E = A A' + c I strictly convex in 1 to 8
        unknowns, and a box of widths 0.1 to 3 that may hold the free
        minimizer or not."""
        n = draw(st.integers(1, 8))
        a = draw(arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0)))
        e = a @ a.T + draw(st.floats(0.1, 5.0)) * np.eye(n)
        f = draw(arrays(np.float64, n, elements=st.floats(-20.0, 20.0)))
        lower = draw(arrays(np.float64, n, elements=st.floats(-2.0, 1.0)))
        return e, f, lower, lower + draw(arrays(np.float64, n, elements=st.floats(0.1, 3.0)))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(qp=box_qp())
    def test_box_qp_meets_its_optimality_conditions(qp):
        """Each held entry sits exactly on its bound with a non-negative
        multiplier, each free entry lies in the box with a gradient within
        1e-12 of the problem's scale, and the step bound is never reached."""
        e, f, lower, upper = qp
        z, lam, steps, kkt, capped = hildreth(e, f, np.eye(len(f)), lower, upper)
        assert not capped and steps < 3 ** len(f)
        grad = e @ z + f
        scale = float((np.abs(e) @ np.abs(z) + np.abs(f)).max())
        held = lam > 0.0
        assert np.all(lam >= 0.0)
        assert np.all((z == lower) | (z == upper) | ~held)
        assert np.array_equal(lam[held], np.where(z == upper, -grad, grad)[held])
        assert np.all((lower <= z) & (z <= upper))
        assert np.all(np.abs(grad[~held]) <= 1e-12 * scale)
        assert kkt <= 1e-12 * scale


class TestHorizonLayout:
    def test_arrays_are_read_only(self):
        arrays = [v for v in vars(CFG.layout).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 11
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_built_once_per_config_and_not_a_field(self):
        cfg = MpcConfig(nc=2)
        assert cfg.layout is cfg.layout
        assert cfg.layout.q_diag.shape == (2 * cfg.n2,)
        # a field would become an [mpc] key that the INI loader cannot convert
        assert "layout" not in {f.name for f in fields(MpcConfig)}
        assert cfg == MpcConfig(nc=2) and hash(cfg) == hash(MpcConfig(nc=2))

    @pytest.mark.parametrize("nc", [1, 2, 3, 4])
    def test_box_rows_match_kron_stack_oracle(self, nc):
        # S sums the moves per channel, and S^-1 takes exact differences of
        # the running sums, the map ``hildreth`` returns through
        layout = MpcConfig(nc=nc).layout
        assert layout.s_mat.tobytes() == running_sums(nc).tobytes()
        differences = np.kron(np.eye(nc) - np.eye(nc, k=-1), np.eye(2))
        assert np.array_equal(np.linalg.inv(layout.s_mat), differences)
        rng = np.random.default_rng(nc)
        for _ in range(5):
            u_prev = np.array([rng.uniform(5.0, 90.0),
                               rng.uniform(0.0011, 0.0055)])
            lower, upper = box_bounds(MpcConfig(nc=nc), u_prev)
            assert (layout.box - u_prev).tobytes() == lower.tobytes() + upper.tobytes()


class TestControllerSteps:
    def test_steady_state_returns_previous_input(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u_prev = np.array([35.0, 0.003])
        y0 = np.array([ducted_thrust_at_crank_speed(70.0, G), 0.9])
        refs = np.tile(y0, (CFG.n2, 1))
        u_cmd, sol, _ = ampc_step(x0, y0, refs, trained_rbf, G,
                                  CFG, u_prev)
        assert u_cmd.tps == pytest.approx(u_prev[0], abs=1e-6)
        assert u_cmd.m_fi == pytest.approx(u_prev[1], abs=1e-9)

    def test_thrust_step_opens_throttle_and_fuel(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u_prev = np.array([35.0, 0.003])
        y0 = np.array([ducted_thrust_at_crank_speed(70.0, G), 0.9])
        refs = np.tile(y0 + np.array([150.0, 0.0]), (CFG.n2, 1))
        u_cmd, sol, _ = ampc_step(x0, y0, refs, trained_rbf, G,
                                  CFG, u_prev)
        # more thrust at constant lambda needs more fuel and more air
        assert u_cmd.m_fi > u_prev[1]
        assert u_cmd.tps >= u_prev[0]

    def test_saturating_demand_clamps_to_box_exactly(self, trained_rbf):
        x0 = np.array([30.0, 100.0, 1.0])
        u_prev = np.array([88.0, 0.0054])
        y0 = np.array([ducted_thrust_at_crank_speed(100.0, G), 1.0])
        refs = np.tile(np.array([y0[0] + 2000.0, 1.0]), (CFG.n2, 1))
        u_cmd = None
        for _ in range(6):
            u_cmd, sol, _ = ampc_step(x0, y0, refs, trained_rbf,
                                      G, CFG, u_prev)
            u_prev = np.array([u_cmd.tps, u_cmd.m_fi])
        assert u_cmd.m_fi == CFG.mf_bounds[1]
        assert u_cmd.tps <= CFG.tps_bounds[1]

    def test_inputs_always_inside_box(self, trained_rbf):
        rng = np.random.default_rng(3)
        u_prev = np.array([30.0, 0.0025])
        x0 = np.array([12.0, 60.0, 0.9])
        y0 = np.array([ducted_thrust_at_crank_speed(60.0, G), 0.9])
        for _ in range(25):
            refs = np.tile(y0 * rng.uniform(0.2, 3.0, 2), (CFG.n2, 1))
            u_cmd, _, _ = ampc_step(x0, y0, refs, trained_rbf, G,
                                    CFG, u_prev)
            assert CFG.tps_bounds[0] <= u_cmd.tps <= CFG.tps_bounds[1]
            assert CFG.mf_bounds[0] <= u_cmd.m_fi <= CFG.mf_bounds[1]
            u_prev = np.array([u_cmd.tps, u_cmd.m_fi])

    def test_receding_horizon_applies_first_increment_only(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u_prev = np.array([35.0, 0.003])
        y0 = np.array([ducted_thrust_at_crank_speed(70.0, G), 0.9])
        refs = np.tile(y0 + np.array([80.0, 0.01]), (CFG.n2, 1))
        u_cmd, sol, _ = ampc_step(x0, y0, refs, trained_rbf, G,
                                  CFG, u_prev)
        applied = np.array([u_cmd.tps, u_cmd.m_fi])
        assert np.allclose(applied, u_prev + sol.du[0], atol=1e-12)
        # later increments exist but do not reach the plant
        assert sol.du.shape == (CFG.nc, 2)

    def test_linear_step_uses_frozen_model(self, trained_rbf):
        x_init = np.array([10.0, 50.0, 0.85])
        u_prev = np.array([25.0, 0.002])
        frozen = build_lpv(trained_rbf, G, x_init, u_prev)
        x_meas, y_meas = np.array([25.0, 90.0, 1.0]), np.array([700.0, 1.0])
        refs = np.tile([720.0, 1.0], (CFG.n2, 1))
        u1, s1 = mpc_step(frozen, y_meas, refs, u_prev, CFG)
        u2, s2, relinearized = ampc_step(x_meas, y_meas, refs, trained_rbf, G, CFG, u_prev)
        # frozen gains differ from the relinearized ones
        assert not np.allclose(s1.du, s2.du)
        # on the model ampc_step built, mpc_step is the same step
        u3, s3 = mpc_step(relinearized, y_meas, refs, u_prev, CFG)
        assert u3 == u2 and np.array_equal(s3.du, s2.du)

    def test_determinism(self, trained_rbf):
        x0 = np.array([15.0, 70.0, 0.9])
        u_prev = np.array([35.0, 0.003])
        y0 = np.array([620.0, 0.9])
        refs = np.tile(y0 + np.array([60.0, 0.05]), (CFG.n2, 1))
        a = ampc_step(x0, y0, refs, trained_rbf, G, CFG, u_prev)
        b = ampc_step(x0, y0, refs, trained_rbf, G, CFG, u_prev)
        assert a[0] == b[0]
        assert np.array_equal(a[1].du, b[1].du)


class TestConfigValidation:
    def test_horizon_ordering(self):
        with pytest.raises(ValueError):
            MpcConfig(nc=0)
        with pytest.raises(ValueError):
            MpcConfig(nc=9, n2=8)

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            MpcConfig(eps=0.0)
        with pytest.raises(ValueError):
            MpcConfig(xi=float("nan"))

    @pytest.mark.parametrize("bounds", [(5.0,), (5.0, 50.0, 90.0)])
    def test_bounds_are_pairs(self, bounds):
        with pytest.raises(ValueError):
            MpcConfig(thrust_bounds=bounds)

    @pytest.mark.parametrize("name", ["thrust_bounds", "lambda_bounds"])
    def test_bounds_reject_nan(self, name):
        with pytest.raises(ValueError):
            MpcConfig(**{name: (float("nan"), 1.0)})
        with pytest.raises(ValueError):
            MpcConfig(**{name: (0.0, float("nan"))})

    @pytest.mark.parametrize("name", ["thrust_bounds", "lambda_bounds"])
    def test_bounds_need_lower_below_upper(self, name):
        lower, upper = getattr(CFG, name)
        with pytest.raises(ValueError):
            MpcConfig(**{name: (upper, lower)})
        with pytest.raises(ValueError):
            MpcConfig(**{name: (lower, lower)})

    def test_list_bounds_become_a_hashable_tuple(self):
        cfg = MpcConfig(lambda_bounds=[0.68, 1.26])
        assert cfg.lambda_bounds == (0.68, 1.26)
        assert type(cfg.lambda_bounds) is tuple
        assert cfg == CFG and hash(cfg) == hash(CFG)

    @pytest.mark.parametrize("end", ["lower", "upper", "both"])
    @pytest.mark.parametrize("name", ["thrust_bounds", "lambda_bounds"])
    def test_output_bounds_must_be_finite(self, name, end):
        # an infinite limit makes its tracking weight 1/span exactly 0 and its
        # measurement noise, span times noise_std, infinite
        lower, upper = getattr(CFG, name)
        pair = (-np.inf if end != "upper" else lower,
                np.inf if end != "lower" else upper)
        with pytest.raises(ValueError, match="finite"):
            MpcConfig(**{name: pair})

    @pytest.mark.parametrize("name", ["tps_bounds", "mf_bounds"])
    def test_input_bounds_finite(self, name):
        # the input box is the identification region, a class constant that
        # no config or INI key can set, so it stays finite with a positive
        # fuel floor
        box = {"tps_bounds": TPS_RANGE, "mf_bounds": MF_RANGE}[name]
        assert getattr(CFG, name) == box and MF_RANGE[0] > 0
        assert name not in {f.name for f in fields(MpcConfig)}
        with pytest.raises(TypeError):
            MpcConfig(**{name: (0.0, float("inf"))})

    @pytest.mark.parametrize("name", ["eps", "xi", "soft_weight"])
    def test_weights_must_be_finite(self, name):
        # an infinite weight makes the QP's Hessian or its penalty non-finite
        with pytest.raises(ValueError, match="finite"):
            MpcConfig(**{name: float("inf")})

    @pytest.mark.parametrize("weight", [-1.0, float("nan")])
    def test_soft_weight_non_negative(self, weight):
        with pytest.raises(ValueError):
            MpcConfig(soft_weight=weight)
        assert MpcConfig(soft_weight=0.0).soft_weight == 0.0
