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
input box is a hard bound on the running input sums, met exactly; the
output limits add a penalty on the squared excess past each limit, also
met exactly: one active set, ``hildreth``, holds the running sums in the
box and a target per trail row between its limits, and solves for the
increments alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import MF_RANGE, TPS_RANGE
from .engine import ControlInput
from .errors import SolverError
from .fan import KGF, FanGeometry
from .lpv import LpvModel, build_lpv
from .networks import RbfModel

CROSSING_MARGIN = 1e-12   # a trail row counts as past a limit only beyond this


@dataclass(frozen=True)
class HorizonLayout:
    """Every array of the condensed QP that depends on the config alone, built
    once per config by ``MpcConfig.layout`` and read-only: every step shares it."""

    y_index: np.ndarray         # y0[y_index] stacks the measured output over N2
    w_y: np.ndarray             # 1/span of [thrust, lambda] per stacked output row
    w_u: np.ndarray             # 1/span of [tps, m_fi] per stacked increment
    box: np.ndarray             # (2, nc, 2) input box, [lower, upper], per running sum
    q_diag: np.ndarray          # tracking weight per stacked row
    r_mat: np.ndarray           # diagonal move-suppression weight
    rho: np.ndarray             # soft output-limit weight per stacked row
    y_lo: np.ndarray
    y_hi: np.ndarray
    s_mat: np.ndarray           # kron(tril(ones(nc)), I2): s_mat @ du stacks u - u_prev
    toeplitz_index: np.ndarray  # gathers the condensed map, see MpcConfig.layout


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
        to the first move.  The input box lb <= u_prev + s_mat @ du <= ub
        holds at every step of the control horizon.

        ``toeplitz_index`` gathers the (2*n2, 2*nc) condensed map from the
        (n2+1, 2, 2) stack [0, S(0), ..., S(n2-1)]: entry (2j+r, 2k+s) picks
        S(j-k)[r, s] on and below the block diagonal, the zero block above.
        """
        nc, n2 = self.nc, self.n2
        w_y = np.tile([1.0 / (self.thrust_bounds[1] - self.thrust_bounds[0]),
                       1.0 / (self.lambda_bounds[1] - self.lambda_bounds[0])], n2)
        w_u = np.tile([1.0 / (self.tps_bounds[1] - self.tps_bounds[0]),
                       1.0 / (self.mf_bounds[1] - self.mf_bounds[0])], nc)
        lag = np.arange(n2)[:, None, None, None] - np.arange(nc)[None, None, :, None]
        flat = 4 * (lag + 1) + 2 * np.arange(2)[None, :, None, None] + np.arange(2)
        arrays = dict(
            y_index=np.tile([0, 1], n2),
            w_y=w_y,
            w_u=w_u,
            box=np.tile(np.array([self.tps_bounds, self.mf_bounds]).T[:, None], (1, nc, 1)),
            q_diag=self.eps * w_y ** 2,
            r_mat=np.diag(self.xi * w_u ** 2),
            rho=self.soft_weight * self.eps * w_y ** 2,
            y_lo=np.tile([self.thrust_bounds[0], self.lambda_bounds[0]], n2),
            y_hi=np.tile([self.thrust_bounds[1], self.lambda_bounds[1]], n2),
            s_mat=np.kron(np.tril(np.ones((nc, nc))), np.eye(2)),
            toeplitz_index=np.where(lag >= 0, flat, 0).reshape(2 * n2, 2 * nc))
        for arr in arrays.values():
            arr.flags.writeable = False
        return HorizonLayout(**arrays)


@dataclass(frozen=True)
class HorizonSolution:
    du: np.ndarray            # (Nc, 2) optimal input increments
    cost: float               # objective at du (tracking + moves + penalties)
    iterations: int           # active-set steps of the step's one ``hildreth`` call
    capped: bool              # that call's active set cycled


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


class SingularQpError(SolverError):
    """The condensed QP's Hessian is singular or indefinite in floating point."""


def hildreth(e_mat: np.ndarray, f_vec: np.ndarray, s_mat: np.ndarray,
             lower: np.ndarray, upper: np.ndarray, rows: tuple | None = None):
    """Minimize 0.5 z'Ez + f'z + sum(rho * dist(y, [y_lo, y_hi])**2) on the
    trail y = y0 + G z, subject to lower <= v = S z <= upper, for E positive
    definite and S invertible; ``rows`` is (G, y0, y_lo, y_hi, rho), or None
    for the box alone.  The name is the benchmark's ``mpc.hildreth`` span,
    after the dual sweep this replaced.

    A free minimizer -E^-1 f strictly inside the box, its trail nowhere more
    than ``CROSSING_MARGIN`` past a limit, is returned as it is, bit-identical
    to the dense solve.  Else the squared distance is the least (y - w)**2 over
    a target w in [y_lo, y_hi], and a primal active-set method on the bounds
    of v and w (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006,
    Alg. 16.3) starts from v clipped, each row past the margin held at the
    crossed limit.  A free target equals its row, so a step solves for the
    free v alone, on E plus the held rows' pulls; it stops on the first free
    bound in the way, a target's past the margin, and holds it.  At a minimum
    the held bound of most negative multiplier is released, and none negative
    ends it; a held set that recurs there is a cycle: ``capped``.  Returns
    (z, each held bound's multiplier, v's then w's, steps, the largest free
    gradient, capped); a singular or indefinite E raises SingularQpError.
    """
    n = len(f_vec)
    g, y0, y_lo, y_hi, rho = rows or (np.zeros((0, n)), *[np.zeros(0)] * 4)
    try:
        z_free = -np.linalg.inv(e_mat) @ f_vec
        v, y = s_mat @ z_free, y0 + g @ z_free
        past = np.maximum(y - y_hi, y_lo - y)     # how far each row is past a limit
        if (np.count_nonzero((lower < v) & (v < upper)) == n
                and not np.count_nonzero(past > CROSSING_MARGIN)):
            return z_free, np.zeros(n + len(y)), 0, 0.0, False
        s_inv = np.linalg.inv(s_mat)
        h_mat = s_inv.T @ e_mat @ s_inv     # the Hessian and the gradient at 0, in v
        c_vec = s_inv.T @ f_vec
        np.linalg.cholesky(h_mat)           # raises unless positive definite
        g_v, rho2 = g @ s_inv, 2.0 * rho    # the trail in v, and each row's pull
        lo, hi = np.concatenate([lower, y_lo]), np.concatenate([upper, y_hi])
        slack = np.repeat([0.0, CROSSING_MARGIN], [n, len(y)])   # targets stop past the margin
        x = np.clip(np.concatenate([v, y]), lo, hi)
        held = (x == lo) | (x == hi)
        held[n:] = past > CROSSING_MARGIN
        seen = set()
        for steps in itertools.count(1):
            pull = np.where(held[n:], rho2, 0.0)
            h_pull = h_mat + g_v.T @ (pull[:, None] * g_v)
            c_pull = c_vec + g_v.T @ (pull * (y0 - x[n:]))
            free, fixed = np.flatnonzero(~held[:n]), np.flatnonzero(held[:n])
            target = x.copy()
            target[free] = np.linalg.solve(h_pull[free[:, None], free],
                                           -c_pull[free] - h_pull[free[:, None], fixed] @ x[fixed])
            trail = y0 + g_v @ target[:n]
            target[n:] = np.where(held[n:], x[n:], trail)
            d = target - x
            bound = np.where(d > 0.0, hi, lo)
            blocked = np.abs(bound - x) + slack < np.abs(d)     # the bounds in the way
            if blocked.any():
                j = np.flatnonzero(blocked)[((bound - x)[blocked] / d[blocked]).argmin()]
                x = np.clip(x + (bound[j] - x[j]) / d[j] * d, lo, hi)
                x[j], held[j] = bound[j], True
                continue
            x = np.clip(target, lo, hi)
            grad = np.concatenate([h_pull @ x[:n] + c_pull, rho2 * (x[n:] - trail)])
            lam = np.where(held, np.where(x == hi, -grad, grad), 0.0)
            if lam.min() >= 0.0:
                break
            key = np.where(held, x, np.inf).tobytes()     # each held bound and its side
            if key in seen:
                break
            seen.add(key)
            held[lam.argmin()] = False
    except np.linalg.LinAlgError as exc:
        raise SingularQpError("the condensed QP's Hessian is singular in floating point "
                              f"({exc}, largest entry {np.abs(e_mat).max():.3g})") from exc
    return (s_inv @ x[:n], lam, steps, float(np.abs(grad[~held]).max(initial=0.0)),
            bool(lam.min() < 0.0))


def solve_qp(lpv: LpvModel, y_meas: np.ndarray, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig) -> HorizonSolution:
    """Minimise the horizon objective over the 2*Nc increments in the box by
    one ``hildreth`` call: tracking, moves and rho times each row's squared
    distance past its limits on the trail y0 + G*du (``condensed_map``) from
    the measured output ``y_meas`` = y0, [T_DF, lambda]; at
    ``soft_weight`` 0 no rows are passed.  ``cost`` is the objective at du,
    whose penalty is 0.0 on the free minimizer's interior shortcut, where no
    row is more than ``CROSSING_MARGIN`` past a limit."""
    layout = config.layout
    g = condensed_map(lpv, config)
    y0_s = np.asarray(y_meas, dtype=float)[layout.y_index]
    ref_s = np.asarray(refs, dtype=float)[:config.n2].ravel()
    lower, upper = (layout.box - u_prev).reshape(2, -1)     # the bounds of S @ du
    e_mat = 2.0 * (g.T @ (layout.q_diag[:, None] * g) + layout.r_mat)
    f_vec = 2.0 * g.T @ (layout.q_diag * (y0_s - ref_s))
    rows = (g, y0_s, layout.y_lo, layout.y_hi, layout.rho) if config.soft_weight else None
    z, _, iterations, _, capped = hildreth(e_mat, f_vec, layout.s_mat, lower, upper, rows)
    y_pred = y0_s + g @ z
    penalty = 0.0
    if iterations:
        penalty = float(layout.rho @ (y_pred - np.clip(y_pred, layout.y_lo, layout.y_hi)) ** 2)
    return HorizonSolution(du=z.reshape(config.nc, 2), cost=cost(config, ref_s, y_pred, z)
                           + penalty, iterations=iterations, capped=capped)


def mpc_step(lpv: LpvModel, y_meas: np.ndarray, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig):
    """Optimize on ``lpv`` from the measured output ``y_meas``: (input to
    apply, horizon solution).  Only the first increment ever reaches the
    plant; the plan already holds the input box, and clipping to it guards
    against rounding only."""
    solution = solve_qp(lpv, y_meas, refs, u_prev, config)
    tps, m_fi = (u_prev + solution.du[0]).tolist()
    (tps_lo, tps_hi), (mf_lo, mf_hi) = config.tps_bounds, config.mf_bounds
    return ControlInput(tps=min(max(tps, tps_lo), tps_hi),
                        m_fi=min(max(m_fi, mf_lo), mf_hi)), solution


def ampc_step(x_meas: np.ndarray, y_meas: np.ndarray, refs: np.ndarray,
              rbf: RbfModel, geom: FanGeometry, config: MpcConfig, u_prev: np.ndarray):
    """One adaptive step: relinearize at the measured state ``x_meas``,
    [Q_eng, n, lambda], then ``mpc_step`` from the measured output ``y_meas``.

    Returns (input to apply, horizon solution, the LPV model used).
    """
    lpv = build_lpv(rbf, geom, x_meas, u_prev)
    return (*mpc_step(lpv, y_meas, refs, u_prev, config), lpv)
