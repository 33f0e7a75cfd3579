"""Receding-horizon controller on the LPV prediction model.

The optimizer works in velocity form: decision variables are the input
increments over the control horizon, and the predicted output trail is
y0 + G*du from the measured output y0, with no free-response term
C*sum(A^m)*dx: adding one, with dx taken from consecutive measured
states, raised the ramp MAE from 8.6-12 % to 46-77 %.  G is one block
lower-triangular Toeplitz map whose blocks are the step responses, the
cumulative sums of the Markov parameters C*A^i*B (L. Wang, Model
Predictive Control System Design and Implementation Using MATLAB, 2009,
ch. 1-3).  Tracking and move terms are scaled per channel by the
constraint spans so the weighting factors compare like with like.  The
input box is a hard constraint, handled by Hildreth dual coordinate ascent;
the output limits add a penalty on the squared excess past each limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import MF_RANGE, TPS_RANGE
from .engine import ControlInput
from .fan import KGF, FanGeometry
from .lpv import LpvModel, build_lpv
from .networks import RbfModel


@dataclass(frozen=True)
class HorizonLayout:
    """Every array of the condensed QP that depends on the config alone, built
    once per config by ``MpcConfig.layout`` and read-only: every step shares it."""

    y_index: np.ndarray         # y0[y_index] stacks the measured output over N2
    w_y: np.ndarray             # 1/span of [thrust, lambda] per stacked output row
    w_u: np.ndarray             # 1/span of [tps, m_fi] per stacked increment
    u_lower: np.ndarray
    u_upper: np.ndarray
    q_diag: np.ndarray          # tracking weight per stacked row
    r_mat: np.ndarray           # diagonal move-suppression weight
    rho: np.ndarray             # soft output-limit weight per stacked row
    y_lo: np.ndarray
    y_hi: np.ndarray
    m_mat: np.ndarray           # cumulative-increment box rows
    gamma_index: np.ndarray     # picks each box row's bound, see MpcConfig.layout
    toeplitz_index: np.ndarray  # gathers the condensed map, see MpcConfig.layout

    def gamma(self, u_prev: np.ndarray) -> np.ndarray:
        """Right-hand side of the box rows ``m_mat @ du <= gamma`` at ``u_prev``."""
        return np.concatenate([self.u_upper - u_prev,
                               u_prev - self.u_lower])[self.gamma_index]


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, weights and finite output limits.  The input box is the
    identification region, outside which the LPV model extrapolates."""

    n2: int = 8
    nc: int = 3
    eps: float = 0.8                  # tracking weight
    xi: float = 0.5                   # move-suppression weight
    tps_bounds: ClassVar[tuple] = TPS_RANGE    # %
    mf_bounds: ClassVar[tuple] = MF_RANGE      # kg/s, positive so lambda is defined
    thrust_bounds: tuple = (0.0, 150.0 * KGF)  # N
    lambda_bounds: tuple = (0.68, 1.26)
    soft_weight: float = 1.0e3        # output-violation penalty, times eps

    def __post_init__(self):
        if not 1 <= self.nc <= self.n2:
            raise ValueError("need 1 <= Nc <= N2")
        if not all(math.isfinite(w) and w > 0 for w in (self.eps, self.xi)):
            raise ValueError("weights eps and xi must be finite and positive")
        # tracking is scaled by 1/span and output noise by span, and the frozen
        # config hashes its fields: each limit is a finite (lower, upper) float pair
        for name in ("thrust_bounds", "lambda_bounds"):
            pair = tuple(float(v) for v in getattr(self, name))
            if len(pair) != 2 or not -math.inf < pair[0] < pair[1] < math.inf:
                raise ValueError(f"{name} needs two finite numbers, lower < upper: {pair}")
            object.__setattr__(self, name, pair)
        if not (math.isfinite(self.soft_weight) and self.soft_weight >= 0):
            raise ValueError("soft_weight must be finite and non-negative")

    @functools.cached_property
    def layout(self) -> HorizonLayout:
        """The read-only ``HorizonLayout`` of this config, built on first use.

        The cost runs over every predicted step: the fuel delay never exceeds
        one control interval, so the first predicted sample already responds
        to the first move.  The input box lb <= u_prev + sum du <= ub holds
        at every step of the control horizon.  Its rows come in (upper,
        lower) pairs per step and channel, the order Hildreth's sweep visits
        them; ``gamma_index`` picks that order out of [ub - u_prev,
        u_prev - lb], and the rows of ``m_mat`` follow it.

        ``toeplitz_index`` gathers the (2*n2, 2*nc) condensed map from the
        (n2+1, 2, 2) stack [0, S(0), ..., S(n2-1)]: entry (2j+r, 2k+s) picks
        S(j-k)[r, s] on and below the block diagonal, the zero block above.
        """
        nc, n2 = self.nc, self.n2
        w_y = np.tile([1.0 / (self.thrust_bounds[1] - self.thrust_bounds[0]),
                       1.0 / (self.lambda_bounds[1] - self.lambda_bounds[0])], n2)
        w_u = np.tile([1.0 / (self.tps_bounds[1] - self.tps_bounds[0]),
                       1.0 / (self.mf_bounds[1] - self.mf_bounds[0])], nc)
        pair_order = np.array([0, 2, 1, 3])
        signs = np.vstack([np.eye(2), -np.eye(2)])[pair_order]
        lag = np.arange(n2)[:, None, None, None] - np.arange(nc)[None, None, :, None]
        flat = 4 * (lag + 1) + 2 * np.arange(2)[None, :, None, None] + np.arange(2)
        arrays = dict(
            y_index=np.tile([0, 1], n2),
            w_y=w_y,
            w_u=w_u,
            u_lower=np.array([self.tps_bounds[0], self.mf_bounds[0]]),
            u_upper=np.array([self.tps_bounds[1], self.mf_bounds[1]]),
            q_diag=self.eps * w_y ** 2,
            r_mat=np.diag(self.xi * w_u ** 2),
            rho=self.soft_weight * self.eps * w_y ** 2,
            y_lo=np.tile([self.thrust_bounds[0], self.lambda_bounds[0]], n2),
            y_hi=np.tile([self.thrust_bounds[1], self.lambda_bounds[1]], n2),
            m_mat=np.kron(np.tril(np.ones((nc, nc))), signs),
            gamma_index=np.tile(pair_order, nc),
            toeplitz_index=np.where(lag >= 0, flat, 0).reshape(2 * n2, 2 * nc))
        for arr in arrays.values():
            arr.flags.writeable = False
        return HorizonLayout(**arrays)


@dataclass(frozen=True)
class Measurement:
    """Sensor bundle fed to the controller each step (may carry noise)."""

    state: np.ndarray    # [Q_eng, n, lambda]
    output: np.ndarray   # [T_DF, lambda]


@dataclass(frozen=True)
class HorizonSolution:
    du: np.ndarray            # (Nc, 2) optimal input increments
    cost: float               # objective at du (tracking + moves + penalties)
    iterations: int           # Hildreth sweeps summed over every Newton round
    capped: bool              # some round hit the sweep cap


def condensed_map(lpv: LpvModel, config: MpcConfig) -> np.ndarray:
    """(2*n2, 2*nc) map from stacked increments to stacked output deviations.

    An increment applied at step k and held from then on moves the output
    j >= k steps later by the step response S(j-k) = sum_{i<=j-k} C A^i B,
    so block (j, k) of the map is S(j-k) and the blocks above the diagonal
    are zero, every block placed by one gather through ``layout.toeplitz_index``.
    """
    n2 = config.n2
    x = lpv.b
    a_pow_b = [x]
    for _ in range(1, n2):
        x = lpv.a.dot(x)    # the BLAS gemm call of ``@``, dispatched in fewer steps
        a_pow_b.append(x)
    steps = np.zeros((n2 + 1, 2, 2))
    np.add.accumulate(lpv.c @ a_pow_b, axis=0, out=steps[1:])
    return steps.ravel()[config.layout.toeplitz_index]


def cost(config: MpcConfig, refs: np.ndarray, predicted: np.ndarray,
         du_seq: np.ndarray) -> float:
    """Tracking-plus-move objective over the horizon (span-scaled channels)
    of the N2 ``refs`` against the N2 ``predicted`` outputs and the Nc
    increments ``du_seq``, each an array of (rows, 2) or stacked into one row."""
    layout = config.layout
    err = (refs - predicted).ravel() * layout.w_y
    moves = du_seq.ravel() * layout.w_u
    return float(config.eps * (err ** 2).sum() + config.xi * (moves ** 2).sum())


class SingularQpError(RuntimeError):
    """The condensed QP's Hessian E is singular in floating point."""


HILDRETH_MAX_SWEEPS = 500   # the sweep cap
HILDRETH_TOL = 1e-8          # the slack taken as met, and the sweeps' relative stopping move


def hildreth(e_mat: np.ndarray, f_vec: np.ndarray, m_mat: np.ndarray, gamma: np.ndarray):
    """Minimize 0.5 z'Ez + f'z subject to M z <= gamma, E positive definite.

    Dual coordinate ascent on the constraint multipliers; when the
    unconstrained minimizer is interior it is returned outright, which makes
    the interior case bit-identical to the dense closed-form solve.
    Returns (z, multipliers, iterations, kkt_residual, capped).  Raises
    SingularQpError when E is singular in floating point.
    """
    try:
        e_inv = np.linalg.inv(e_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularQpError(
            f"the condensed QP's Hessian is singular in floating point "
            f"(largest entry {np.abs(e_mat).max():.3g})") from exc
    z_free = -e_inv @ f_vec
    slack = m_mat @ z_free - gamma
    n_con = len(gamma)
    worst = slack.max()
    if worst <= HILDRETH_TOL:
        return z_free, np.zeros(n_con), 0, float(max(worst, 0.0)), False

    p_mat = m_mat @ e_inv @ m_mat.T
    if not np.diag(p_mat).min() > 0.0:      # a positive definite E makes it positive
        raise SingularQpError("the condensed QP's Hessian is singular in floating point (the "
                              f"dual's diagonal has an entry {np.diag(p_mat).min():.3g})")
    d_vec = gamma + m_mat @ e_inv @ f_vec
    lam = np.zeros(n_con)
    capped = False
    for iterations in range(1, HILDRETH_MAX_SWEEPS + 1):
        delta = 0.0
        for i in range(n_con):
            w = -(d_vec[i] + p_mat[i] @ lam - p_mat[i, i] * lam[i]) / p_mat[i, i]
            new = max(0.0, w)
            delta = max(delta, abs(new - lam[i]))
            lam[i] = new
        if delta <= HILDRETH_TOL * max(1.0, float(np.max(np.abs(lam)))):
            break
    else:
        capped = True
    z = -e_inv @ (f_vec + m_mat.T @ lam)
    resid = m_mat @ z - gamma
    kkt = max(float(np.max(resid, initial=0.0)),
              float(np.max(np.abs(lam * resid), initial=0.0)))
    return z, lam, iterations, kkt, capped


def line_minimum(layout: HorizonLayout, g: np.ndarray, z: np.ndarray,
                 z_model: np.ndarray, y: np.ndarray, ref_s: np.ndarray) -> np.ndarray:
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


def solve_qp(lpv: LpvModel, meas: Measurement, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig) -> HorizonSolution:
    """Minimise the horizon objective over the 2*Nc increments in the box.

    The trail is y0 + G*du (``condensed_map``); the objective adds rho times
    each row's squared excess past its limit.  A Newton round (Hintermueller,
    Ito & Kunisch, SIAM J. Optim. 13(3), 2002) pulls the rows more than 1e-12
    past a limit toward it and minimises that quadratic model in the box by
    ``hildreth``; the first round pulls none.  A minimiser whose crossing rows
    are not the pulled ones gives way to ``line_minimum``; the loop ends when
    the crossing rows repeat.  ``cost`` is the objective at du, ``iterations``
    sums every round's sweeps, and ``capped`` is set if a round hit the cap."""
    layout = config.layout
    top, bottom = layout.y_hi + 1e-12, layout.y_lo - 1e-12
    g = condensed_map(lpv, config)
    y0_s = np.asarray(meas.output, dtype=float)[layout.y_index]
    ref_s = np.asarray(refs, dtype=float)[:config.n2].ravel()
    gamma = layout.gamma(np.asarray(u_prev, dtype=float))

    weight, rhs = layout.q_diag, layout.q_diag * (y0_s - ref_s)
    side = np.zeros(len(y0_s), dtype=np.int8)   # +1 / -1: pulled to the upper / lower limit
    z, iterations, capped = None, 0, False
    while True:
        e_mat = 2.0 * (g.T @ (weight[:, None] * g) + layout.r_mat)
        f_vec = 2.0 * g.T @ rhs
        z_new, _, sweeps, _, round_capped = hildreth(e_mat, f_vec, layout.m_mat, gamma)
        iterations, capped = iterations + sweeps, capped or round_capped
        y_new = y0_s + g @ z_new
        crossing = (y_new > top).view(np.int8) - (y_new < bottom).view(np.int8)
        if z is not None and np.count_nonzero(crossing != side):
            z_new = line_minimum(layout, g, z, z_new, y_pred, ref_s)
            y_new = y0_s + g @ z_new
            crossing = (y_new > top).view(np.int8) - (y_new < bottom).view(np.int8)
        z, y_pred = z_new, y_new
        if not np.count_nonzero(crossing != side):
            break
        side = crossing
        pen = layout.rho * (side != 0)
        limit = np.where(side > 0, layout.y_hi, layout.y_lo)
        weight = layout.q_diag + pen
        rhs = layout.q_diag * (y0_s - ref_s) + pen * (y0_s - limit)

    total = cost(config, ref_s, y_pred, z)
    if np.count_nonzero(side):
        total += float(pen @ (y_pred - limit) ** 2)
    return HorizonSolution(du=z.reshape(config.nc, 2), cost=total,
                           iterations=iterations, capped=capped)


def mpc_step(lpv: LpvModel, meas: Measurement, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig):
    """Optimize on ``lpv``: (input to apply, horizon solution).  Only the
    first increment ever reaches the plant, clipped to the input box."""
    solution = solve_qp(lpv, meas, refs, u_prev, config)
    tps, m_fi = (u_prev + solution.du[0]).tolist()
    (tps_lo, tps_hi), (mf_lo, mf_hi) = config.tps_bounds, config.mf_bounds
    return ControlInput(tps=min(max(tps, tps_lo), tps_hi),
                        m_fi=min(max(m_fi, mf_lo), mf_hi)), solution


def ampc_step(meas: Measurement, refs: np.ndarray, rbf: RbfModel,
              geom: FanGeometry, config: MpcConfig, u_prev: np.ndarray,
              t: float = 0.0):
    """One adaptive step: relinearize at the measurement, then ``mpc_step``.

    Returns (input to apply, horizon solution, the LPV model used).
    """
    lpv = build_lpv(rbf, geom, np.asarray(meas.state, dtype=float), u_prev, t=t)
    return (*mpc_step(lpv, meas, refs, u_prev, config), lpv)
