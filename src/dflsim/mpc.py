"""Receding-horizon controller on the LPV prediction model.

The optimizer works in velocity form: decision variables are the input
increments over the control horizon, the predicted output trail starts at
the measured output, and state differences propagate through the frozen
per-step matrices.  The trail is linear in the increments through one
block lower-triangular Toeplitz map whose blocks are the step responses,
the cumulative sums of the Markov parameters C*A^i*B (L. Wang, Model
Predictive Control System Design and Implementation Using MATLAB, 2009,
ch. 1-3).  Tracking and move terms are scaled per channel by the
constraint spans so the weighting factors compare like with like.  The
condensed problem is a strictly convex QP in 2*Nc variables: input box
limits enter as hard linear inequalities handled by Hildreth dual
coordinate ascent, output limits as quadratic penalties activated by a
short working-set refinement loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ControlInput
from .fan import KGF, FanGeometry
from .lpv import LpvModel, build_lpv
from .networks import RbfModel


@dataclass(frozen=True)
class MpcConfig:
    n1: int = 1
    n2: int = 8
    nc: int = 3
    eps: float = 0.8                  # tracking weight
    xi: float = 0.5                   # move-suppression weight
    tps_bounds: tuple = (5.0, 90.0)            # %
    mf_bounds: tuple = (0.0011, 0.0055)        # kg/s
    thrust_bounds: tuple = (0.0, 150.0 * KGF)  # N
    lambda_bounds: tuple = (0.68, 1.26)
    soft_weight: float = 1.0e3        # output-violation penalty, times eps
    qp_max_iter: int = 500
    qp_tol: float = 1.0e-8

    def __post_init__(self):
        if not (1 <= self.n1 <= self.n2 and 1 <= self.nc <= self.n2):
            raise ValueError("need 1 <= N1 <= N2 and 1 <= Nc <= N2")
        if self.eps <= 0 or self.xi <= 0:
            raise ValueError("weights must be positive")

    @property
    def output_scale(self) -> np.ndarray:
        """1/span for [thrust, lambda]; makes the two error channels commensurate."""
        return np.array([1.0 / (self.thrust_bounds[1] - self.thrust_bounds[0]),
                         1.0 / (self.lambda_bounds[1] - self.lambda_bounds[0])])

    @property
    def input_scale(self) -> np.ndarray:
        """1/span for [tps, m_fi]."""
        return np.array([1.0 / (self.tps_bounds[1] - self.tps_bounds[0]),
                         1.0 / (self.mf_bounds[1] - self.mf_bounds[0])])

    @property
    def u_lower(self) -> np.ndarray:
        return np.array([self.tps_bounds[0], self.mf_bounds[0]])

    @property
    def u_upper(self) -> np.ndarray:
        return np.array([self.tps_bounds[1], self.mf_bounds[1]])


@dataclass(frozen=True)
class Measurement:
    """Sensor bundle fed to the controller each step (may carry noise)."""

    state: np.ndarray    # [Q_eng, n, lambda]
    output: np.ndarray   # [T_DF, lambda]


@dataclass(frozen=True)
class HorizonSolution:
    du: np.ndarray            # (Nc, 2) optimal input increments
    predicted: np.ndarray     # (N2, 2) absolute predicted outputs
    cost: float               # solver objective (tracking + moves + penalties)
    iterations: int
    kkt_residual: float
    active: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    capped: bool = False


def condensed_map(lpv: LpvModel, nc: int, n2: int) -> np.ndarray:
    """(2*n2, 2*nc) map from stacked increments to stacked output deviations.

    An increment applied at step k and held from then on moves the output
    j >= k steps later by the step response S(j-k) = sum_{i<=j-k} C A^i B,
    so block (j, k) of the map is S(j-k) and the blocks above the diagonal
    are zero.  Requires nc <= n2.
    """
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


def cost(config: MpcConfig, refs: np.ndarray, predicted: np.ndarray,
         du_seq: np.ndarray) -> float:
    """Tracking-plus-move objective over the horizon (span-scaled channels)."""
    rows = slice(config.n1 - 1, config.n2)
    err = (np.atleast_2d(refs)[rows] - np.atleast_2d(predicted)[rows]) \
        * config.output_scale
    moves = np.atleast_2d(du_seq)[:config.nc] * config.input_scale
    return config.eps * float(np.sum(err ** 2)) \
        + config.xi * float(np.sum(moves ** 2))


def hildreth(e_mat: np.ndarray, f_vec: np.ndarray, m_mat: np.ndarray,
             gamma: np.ndarray, max_iter: int = 500, tol: float = 1e-8):
    """Minimize 0.5 z'Ez + f'z subject to M z <= gamma, E positive definite.

    Dual coordinate ascent on the constraint multipliers; when the
    unconstrained minimizer is interior it is returned outright, which makes
    the interior case bit-identical to the dense closed-form solve.
    Returns (z, multipliers, iterations, kkt_residual, capped).
    """
    e_inv = np.linalg.inv(e_mat)
    z_free = -e_inv @ f_vec
    slack = m_mat @ z_free - gamma
    n_con = len(gamma)
    if np.all(slack <= tol):
        return z_free, np.zeros(n_con), 0, float(max(slack.max(), 0.0)), False

    p_mat = m_mat @ e_inv @ m_mat.T
    d_vec = gamma + m_mat @ e_inv @ f_vec
    lam = np.zeros(n_con)
    capped = True
    iterations = max_iter
    for it in range(1, max_iter + 1):
        delta = 0.0
        for i in range(n_con):
            if p_mat[i, i] <= 0.0:
                continue
            w = -(d_vec[i] + p_mat[i] @ lam - p_mat[i, i] * lam[i]) / p_mat[i, i]
            new = max(0.0, w)
            delta = max(delta, abs(new - lam[i]))
            lam[i] = new
        if delta <= tol * max(1.0, float(np.max(np.abs(lam)))):
            iterations = it
            capped = False
            break
    z = -e_inv @ (f_vec + m_mat.T @ lam)
    resid = m_mat @ z - gamma
    kkt = max(float(np.max(resid, initial=0.0)),
              float(np.max(np.abs(lam * resid), initial=0.0)))
    return z, lam, iterations, kkt, capped


def _box_constraints(config: MpcConfig, u_prev: np.ndarray):
    """Cumulative-increment box: lb <= u_prev + sum du <= ub at every step.

    Rows come in (upper, lower) pairs per step and channel; Hildreth's
    sweep visits them in this order.
    """
    nc = config.nc
    cum = np.kron(np.tril(np.ones((nc, nc))), np.eye(2))
    m_mat = np.stack([cum, -cum], axis=1).reshape(4 * nc, 2 * nc)
    gamma = np.stack([np.tile(config.u_upper - u_prev, nc),
                      np.tile(u_prev - config.u_lower, nc)], axis=1).ravel()
    return m_mat, gamma


def solve_qp(lpv: LpvModel, meas: Measurement, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig) -> HorizonSolution:
    """Condense the horizon into a 2*Nc-variable QP and solve it.

    The predicted trail is y0 + G*du with G from ``condensed_map``.  Output
    limits are enforced softly: rows predicted beyond a limit add quadratic
    pull-back terms toward it and the QP is re-solved, at most three
    refinement rounds.  The returned increments always satisfy the input
    box.
    """
    refs = np.atleast_2d(np.asarray(refs, dtype=float))
    u_prev = np.asarray(u_prev, dtype=float)
    y0 = np.asarray(meas.output, dtype=float)
    nc, n2 = config.nc, config.n2

    g = condensed_map(lpv, nc, n2)
    sel = slice(2 * (config.n1 - 1), 2 * n2)
    g_s = g[sel]
    y0_s = np.tile(y0, n2)[sel]
    ref_s = refs[:n2].ravel()[sel]

    w_y = np.tile(config.output_scale, n2)[sel]
    q_diag = config.eps * w_y ** 2
    r_diag = config.xi * np.tile(config.input_scale, nc) ** 2
    m_mat, gamma = _box_constraints(config, u_prev)

    y_lo = np.tile([config.thrust_bounds[0], config.lambda_bounds[0]], n2)[sel]
    y_hi = np.tile([config.thrust_bounds[1], config.lambda_bounds[1]], n2)[sel]
    rho = config.soft_weight * config.eps * w_y ** 2

    # rows penalised toward the upper / lower limit; np.where keeps an
    # infinite limit inert instead of turning 0*inf into nan
    over = under = np.zeros(len(y0_s), dtype=bool)
    for _ in range(3):
        pull = np.where(over, y0_s - y_hi, 0.0) + np.where(under, y0_s - y_lo, 0.0)
        weight = q_diag + rho * over + rho * under
        e_mat = 2.0 * (g_s.T @ (weight[:, None] * g_s) + np.diag(r_diag))
        f_vec = 2.0 * g_s.T @ (q_diag * (y0_s - ref_s) + rho * pull)
        z, _, iterations, kkt, capped = hildreth(
            e_mat, f_vec, m_mat, gamma, config.qp_max_iter, config.qp_tol)
        y_pred = y0_s + g_s @ z
        new_over = over | (y_pred > y_hi + 1e-12)
        new_under = under | (y_pred < y_lo - 1e-12)
        if np.array_equal(new_over, over) and np.array_equal(new_under, under):
            break
        over, under = new_over, new_under

    du = z.reshape(nc, 2)
    predicted = y0 + (g @ z).reshape(n2, 2)
    excess = np.where(over, y_pred - y_hi, 0.0) ** 2 \
        + np.where(under, y_pred - y_lo, 0.0) ** 2
    active = (m_mat @ z - gamma) > -1e-9
    return HorizonSolution(du=du, predicted=predicted,
                           cost=cost(config, refs, predicted, du) + float(rho @ excess),
                           iterations=iterations,
                           kkt_residual=kkt, active=active, capped=capped)


def _apply_first_move(u_prev: np.ndarray, solution: HorizonSolution,
                      config: MpcConfig) -> ControlInput:
    u = u_prev + solution.du[0]
    u = np.minimum(np.maximum(u, config.u_lower), config.u_upper)
    return ControlInput(tps=float(u[0]), m_fi=float(u[1]))


def ampc_step(meas: Measurement, refs: np.ndarray, rbf: RbfModel,
              geom: FanGeometry, config: MpcConfig, u_prev: np.ndarray,
              t: float = 0.0):
    """One adaptive step: relinearize at the measurement, optimize, apply.

    Returns (input to apply, horizon solution, the LPV model used).  Only
    the first increment of the optimal sequence ever reaches the plant.
    """
    lpv = build_lpv(rbf, geom, np.asarray(meas.state, dtype=float), u_prev, t=t)
    solution = solve_qp(lpv, meas, refs, u_prev, config)
    return _apply_first_move(u_prev, solution, config), solution, lpv


def linear_mpc_step(fixed_lpv: LpvModel, meas: Measurement, refs: np.ndarray,
                    config: MpcConfig, u_prev: np.ndarray):
    """Baseline with the prediction model frozen at its initial point."""
    solution = solve_qp(fixed_lpv, meas, refs, u_prev, config)
    return _apply_first_move(u_prev, solution, config), solution
