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
met exactly: an active set on targets bounded by the limits, each of whose
solves is the one box solver ``hildreth`` on the increments alone.
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
class Measurement:
    """Sensor bundle fed to the controller each step (may carry noise)."""

    state: np.ndarray    # [Q_eng, n, lambda]
    output: np.ndarray   # [T_DF, lambda]


@dataclass(frozen=True)
class HorizonSolution:
    du: np.ndarray            # (Nc, 2) optimal input increments
    cost: float               # objective at du (tracking + moves + penalties)
    iterations: int           # active-set steps summed over every ``hildreth`` call
    capped: bool              # an active set cycled: a ``hildreth`` call's or the targets'


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
    """The condensed QP's Hessian is singular or indefinite in floating point."""


def hildreth(e_mat: np.ndarray, f_vec: np.ndarray, s_mat: np.ndarray,
             lower: np.ndarray, upper: np.ndarray):
    """Minimize 0.5 z'Ez + f'z subject to lower <= v = S z <= upper, for E
    positive definite and S invertible.  The name is the benchmark's
    ``mpc.hildreth`` span, after the dual sweep this replaced.

    A free minimizer -E^-1 f strictly inside the bounds is returned as it is,
    bit-identical to the dense solve; else a primal active-set method on the
    bounds of v (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006,
    Alg. 16.3) starts from it clipped, holding the bounds it meets.  A step
    minimizes exactly over the free entries, or stops on the first bound in
    the way and holds it; at a minimum the held bound of most negative
    multiplier is released, and none negative ends it.  No held set recurs,
    so 3**len(v) steps mean a cycle: ``capped``.  Returns (z, each held
    bound's multiplier, steps, the largest free gradient, capped); a singular
    or indefinite E raises SingularQpError.
    """
    try:
        z_free = -np.linalg.inv(e_mat) @ f_vec
        v = s_mat @ z_free
        if ((lower < v) & (v < upper)).all():
            return z_free, np.zeros(len(v)), 0, 0.0, False
        s_inv = np.linalg.inv(s_mat)
        h_mat = s_inv.T @ e_mat @ s_inv     # the Hessian and the gradient at 0, in v
        c_vec = s_inv.T @ f_vec
        np.linalg.cholesky(h_mat)           # raises unless positive definite
        v = np.clip(v, lower, upper)
        held = (v == lower) | (v == upper)
        for steps in range(1, 3 ** len(v) + 1):
            free = ~held
            target = v.copy()
            target[free] = np.linalg.solve(h_mat[np.ix_(free, free)],
                                           -c_vec[free] - h_mat[np.ix_(free, held)] @ v[held])
            d = target - v
            bound = np.where(d > 0.0, upper, lower)
            blocked = np.abs(bound - v) < np.abs(d)     # the bounds in the way
            if blocked.any():
                j = np.flatnonzero(blocked)[((bound - v)[blocked] / d[blocked]).argmin()]
                target = v + (bound[j] - v[j]) / d[j] * d
                target[j] = bound[j]
                held[j] = True
            v = np.clip(target, lower, upper)
            grad = h_mat @ v + c_vec
            lam = np.where(held, np.where(v == upper, -grad, grad), 0.0)
            if not blocked.any():
                if lam.min() >= 0.0:
                    break
                held[lam.argmin()] = False
        capped = blocked.any() or lam.min() < 0.0   # the loop ran out short of a minimum
    except np.linalg.LinAlgError as exc:
        raise SingularQpError("the condensed QP's Hessian is singular in floating point "
                              f"({exc}, largest entry {np.abs(e_mat).max():.3g})") from exc
    return s_inv @ v, lam, steps, float(np.abs(grad[~held]).max(initial=0.0)), bool(capped)


def solve_qp(lpv: LpvModel, meas: Measurement, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig) -> HorizonSolution:
    """Minimise the horizon objective over the 2*Nc increments in the box.

    The trail is y0 + G*du (``condensed_map``); the objective adds rho times
    each row's squared distance past its limits, the least of rho*(y - w)**2
    over a target w in [y_lo, y_hi].  If the tracking QP's trail is more than
    1e-12 past a limit, a primal active-set method runs on the targets, from
    the crossing rows' targets held at the crossed limit.  A free target
    equals its row, which drops out, and a held one adds its pull, so each
    ``hildreth`` call solves for du alone, on the tracking Hessian plus the
    held rows' pulls.  A free target that would pass its limit stops the step
    there and is held; at a minimum every held target of negative multiplier
    is released.  With none negative, the KKT conditions of the convex QP in
    (du, w) hold, so du minimises the true objective:
      du minimises tracking plus the held pulls in the box, every free row lies
      within its limits, and every held row lies on or past its limit.
    Each step keeps the objective from rising; the same targets held at the
    same limits twice at a minimum are a cycle: ``capped``.  ``cost`` is the
    objective at du; ``iterations`` sums every call's active-set steps."""
    layout = config.layout
    g = condensed_map(lpv, config)
    y0_s = np.asarray(meas.output, dtype=float)[layout.y_index]
    ref_s = np.asarray(refs, dtype=float)[:config.n2].ravel()
    lower, upper = (layout.box - u_prev).reshape(2, -1)     # the bounds of S @ du

    e_mat = 2.0 * (g.T @ (layout.q_diag[:, None] * g) + layout.r_mat)
    f_vec = 2.0 * g.T @ (layout.q_diag * (y0_s - ref_s))
    z, _, iterations, _, capped = hildreth(e_mat, f_vec, layout.s_mat, lower, upper)
    y_pred = y0_s + g @ z
    top, bottom = layout.y_hi + 1e-12, layout.y_lo - 1e-12
    held = (y_pred > top) | (y_pred < bottom)
    penalty = 0.0
    if config.soft_weight and np.count_nonzero(held):
        y_lo, y_hi = layout.y_lo, layout.y_hi
        w, seen = np.clip(y_pred, y_lo, y_hi), set()
        while True:
            rows = np.flatnonzero(held)
            pull = 2.0 * layout.rho[rows, None] * g[rows]
            x, _, steps, _, cycled = hildreth(e_mat + g[rows].T @ pull,
                                             f_vec + pull.T @ (y0_s[rows] - w[rows]),
                                             layout.s_mat, lower, upper)
            iterations, capped = iterations + steps, capped or cycled
            d = np.where(held, 0.0, y0_s + g @ x - w)      # free targets follow their rows
            blocked = (w + d > top) | (w + d < bottom)
            if np.count_nonzero(blocked):
                bound = np.where(d > 0.0, y_hi, y_lo)
                j = np.flatnonzero(blocked)[((bound - w)[blocked] / d[blocked]).argmin()]
                t = (bound[j] - w[j]) / d[j]
                z, w = z + t * (x - z), np.clip(w + t * d, y_lo, y_hi)
                w[j], held[j] = bound[j], True
                continue
            z, w = x, np.clip(w + d, y_lo, y_hi)
            y_pred = y0_s + g @ z
            lam = np.where(held, layout.rho * np.where(w == y_hi, y_pred - w, w - y_pred), 0.0)
            key = np.where(held, w, np.inf).tobytes()       # each held target and its limit
            if lam.min() >= 0.0 or key in seen:
                capped = capped or lam.min() < 0.0
                break
            seen.add(key)
            held &= lam >= 0.0
        penalty = float(layout.rho @ (y_pred - np.clip(y_pred, y_lo, y_hi)) ** 2)
    return HorizonSolution(du=z.reshape(config.nc, 2), cost=cost(config, ref_s, y_pred, z)
                           + penalty, iterations=iterations, capped=capped)


def mpc_step(lpv: LpvModel, meas: Measurement, refs: np.ndarray,
             u_prev: np.ndarray, config: MpcConfig):
    """Optimize on ``lpv``: (input to apply, horizon solution).  Only the
    first increment ever reaches the plant; the plan already holds the input
    box, and clipping to it guards against rounding only."""
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
