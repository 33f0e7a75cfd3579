"""Closed-loop takeoff-preparation scenario and its metrics.

Couples the engine and fan plants at the 0.1 s control rate, feeds the
controller measurements with noise scaled by the output-limit spans and by
``STATE_NOISE_SPAN``, and logs every step to a trajectory record.
The reference schedule ramps thrust from idle to hover and steps the
air-fuel-ratio target from the rich power setting to stoichiometric once
thrust has stabilized.  A trajectory is a ``tables`` table of one
``TrajectoryRecord`` per row; ``lpv.save_lpv_trace`` writes the LPV trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import settled_state
from .engine import CONTROL_DT, ControlInput, EngineParams, EngineStallError, step_engine
from .errors import SolverError, StallError
from .fan import KGF, FanGeometry, ducted_thrust_at_crank_speed, fan_load_power
from .lpv import build_lpv
from .mpc import MpcConfig, ampc_step, mpc_step
from .networks import RbfModel
from .tables import read_table, write_table

CONTROLLER_KINDS = ("ampc", "linear-mpc", "open-loop")
STATE_NOISE_SPAN = (60.0, 150.0)          # N*m, rev/s: scale [Q_eng, n] noise


class NonFiniteCostError(SolverError):
    """A controller's horizon solution has a cost that is not finite."""


class ScenarioStallError(StallError):
    """Plant stalled mid-run; carries the partial trajectory."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class ScenarioConfig:
    dt: ClassVar[float] = CONTROL_DT      # s, the plant's control interval, not a key
    steps: int = 250
    thrust_idle: float = 10.0             # kgf
    thrust_hover: float = 80.0            # kgf
    ramp_start: int = 10                  # step index
    ramp_end: int = 100                   # step index, ramp finishes here
    lam_rich: float = 0.82
    lam_eff: float = 1.0
    lam_step_at: int = 150                # step index of the AFR retarget
    noise_std: float = 0.005              # std, normalized output units
    seed: int = 7
    settle_margin: int = 30               # steps allowed for transients in metrics
    init_tps: float = 19.5                # %
    init_m_fi: float = 0.00124            # kg/s

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("scenario steps must be at least 1")
        if self.seed < 0:
            raise ValueError("scenario seed must be non-negative")
        if not (0 < self.init_m_fi < np.inf and abs(self.init_tps) < np.inf):
            raise ValueError("init_m_fi must be finite and positive, and init_tps finite")
        # the metrics divide by each reference level
        for name in ("thrust_idle", "thrust_hover", "lam_rich", "lam_eff"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and non-negative")
        # the metrics slice the trajectory at these; past ``steps`` is allowed
        if min(self.ramp_start, self.lam_step_at, self.settle_margin) < 0 \
                or self.ramp_end < self.ramp_start:
            raise ValueError("ramp_start, lam_step_at and settle_margin must be "
                             "non-negative, and ramp_end >= ramp_start")

    def references(self, preview: int) -> np.ndarray:
        """The (steps + preview, 2) schedule of [thrust N, lambda]: row k is
        step k's, and the ``preview`` rows past the end repeat the last."""
        k = np.minimum(np.arange(self.steps + preview), self.steps - 1)
        ramp = np.maximum(k - self.ramp_start, 0) / max(self.ramp_end - self.ramp_start, 1)
        frac = np.where(k >= self.ramp_end, 1.0, ramp)
        thrust = (self.thrust_idle + (self.thrust_hover - self.thrust_idle) * frac) * KGF
        return np.stack([thrust, np.where(k < self.lam_step_at, self.lam_rich,
                                          self.lam_eff)], axis=1)


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    time: float
    thrust_ref: float       # kgf (reporting unit)
    lam_ref: float
    thrust_true: float      # kgf
    lam_true: float
    thrust_meas: float      # kgf
    lam_meas: float
    tps: float              # % applied
    m_fi: float             # kg/s applied
    q_eng: float            # N*m
    n: float                # rev/s
    cost: float
    qp_iterations: int


TRAJECTORY_HEADER = ("step,time_s,thrust_ref_kgf,lambda_ref,thrust_kgf,lambda,"
                     "thrust_meas_kgf,lambda_meas,tps_pct,m_fi_kg_s,q_eng_nm,"
                     "n_rev_s,cost,qp_iterations")


def relative_error(actual, reference):
    """Percent deviation of actual from reference."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return (actual - reference) / reference * 100.0


def _step_function(controller, rbf, geom, mpc, state, u0, lpv_trace):
    """The per-step controller ``(x_meas, y_meas, refs, u_prev) -> (input,
    solution, lpv)``.  ``ampc_step`` is looked up at each call, so rebinding it
    in this module reaches the loop; linear MPC's one model is its only trace row."""
    if controller == "ampc":
        return lambda x_meas, y_meas, refs, u_prev: ampc_step(
            x_meas, y_meas, refs, rbf, geom, mpc, u_prev)
    if controller == "linear-mpc":
        frozen = build_lpv(rbf, geom, state.as_vector(), u0)
        if lpv_trace is not None:
            lpv_trace.append(frozen)
        return lambda x_meas, y_meas, refs, u_prev: (
            *mpc_step(frozen, y_meas, refs, u_prev, mpc), None)
    return lambda x_meas, y_meas, refs, u_prev: (
        ControlInput(tps=u_prev[0], m_fi=u_prev[1]), None, None)


def run_scenario(params: EngineParams, geom: FanGeometry, mpc: MpcConfig,
                 scenario: ScenarioConfig, controller: str = "ampc",
                 rbf: RbfModel | None = None, lpv_trace: list | None = None):
    """Run the takeoff-preparation scenario and return (records, metrics).

    ``controller`` is one of ``CONTROLLER_KINDS``; the MPC kinds need the
    network model.  ``lpv_trace`` gets one model per AMPC step, the frozen
    model once under linear MPC, none open loop.  A plant stall raises
    ScenarioStallError with the partial trajectory attached.
    """
    if controller not in CONTROLLER_KINDS:
        raise ValueError(f"unknown controller kind {controller!r}")
    if controller != "open-loop" and rbf is None:
        raise ValueError("a trained RBF model is required for closed-loop runs")

    refs = scenario.references(mpc.n2)
    # row k: step k's [thrust, lambda] output noise, then its [Q_eng, n] noise
    noise = np.random.default_rng(scenario.seed).normal(size=(scenario.steps, 4)) \
        * (scenario.noise_std * np.array([
            mpc.thrust_bounds[1] - mpc.thrust_bounds[0],
            mpc.lambda_bounds[1] - mpc.lambda_bounds[0], *STATE_NOISE_SPAN]))

    u0 = ControlInput(tps=scenario.init_tps, m_fi=scenario.init_m_fi)
    try:
        state = settled_state(params, geom, u0)
    except EngineStallError as exc:
        raise ScenarioStallError(f"no stable start: {exc}", []) from exc
    u_prev = np.array([u0.tps, u0.m_fi])
    step = _step_function(controller, rbf, geom, mpc, state, u_prev, lpv_trace)

    records = []
    for k in range(scenario.steps):
        thrust_true = ducted_thrust_at_crank_speed(state.n, geom)
        y_true = np.array([thrust_true, state.lam])
        y_meas = y_true + noise[k, :2]
        x_meas = np.array([state.q_eng + noise[k, 2], state.n + noise[k, 3], y_meas[1]])
        u_cmd, sol, lpv = step(x_meas, y_meas, refs[k + 1:k + 1 + mpc.n2], u_prev)
        if lpv is not None and lpv_trace is not None:
            lpv_trace.append(lpv)
        cost_val, iters = (0.0, 0) if sol is None else (sol.cost, sol.iterations)
        if not np.isfinite(cost_val):
            raise NonFiniteCostError(f"solver produced a non-finite cost at step {k}")

        try:
            state = step_engine(state, u_cmd, fan_load_power(state.n, geom), params)
        except EngineStallError as exc:
            raise ScenarioStallError(f"plant stalled at step {k}: {exc}",
                                     records) from exc
        u_prev = np.array([u_cmd.tps, u_cmd.m_fi])
        records.append(TrajectoryRecord(
            step=k, time=k * CONTROL_DT, thrust_ref=refs[k, 0] / KGF, lam_ref=refs[k, 1],
            thrust_true=thrust_true / KGF, lam_true=y_true[1],
            thrust_meas=y_meas[0] / KGF, lam_meas=y_meas[1],
            tps=u_cmd.tps, m_fi=u_cmd.m_fi, q_eng=state.q_eng, n=state.n,
            cost=cost_val, qp_iterations=iters))

    return records, compute_metrics(records, mpc, scenario)


def _segment_stats(err):
    if len(err) == 0:
        return None
    return {"count": int(len(err)), "min": float(err.min()),
            "max": float(err.max()), "mean": float(err.mean()),
            "mae": float(np.abs(err).mean())}


def compute_metrics(records, mpc: MpcConfig, scenario: ScenarioConfig) -> dict:
    """Per-segment relative-error statistics from a trajectory.

    The thrust steady segment starts a settle margin after the ramp ends;
    the rich-lambda segment additionally stops a preview horizon before the
    lambda retarget (the controller sees future references, so it leaves the
    old setpoint deliberately); the efficient-lambda segment starts a settle
    margin after the retarget.
    """
    t_true = np.array([r.thrust_true for r in records])
    t_ref = np.array([r.thrust_ref for r in records])
    lam_true = np.array([r.lam_true for r in records])
    lam_ref = np.array([r.lam_ref for r in records])
    n_rec = len(records)

    t_err = relative_error(t_true, t_ref)
    lam_err = relative_error(lam_true, lam_ref)

    steady_from = min(scenario.ramp_end + scenario.settle_margin, n_rec)
    rich_to = max(min(scenario.lam_step_at - mpc.n2, n_rec), steady_from)
    eff_from = min(scenario.lam_step_at + scenario.settle_margin, n_rec)

    metrics = {
        "steps": n_rec,
        "thrust_ramp": _segment_stats(t_err[scenario.ramp_start:
                                            min(scenario.ramp_end, n_rec)]),
        "thrust_steady": _segment_stats(t_err[steady_from:]),
        "lambda_rich_steady": _segment_stats(lam_err[steady_from:rich_to]),
        "lambda_eff_steady": _segment_stats(lam_err[eff_from:]),
    }
    lam_joint = np.concatenate([lam_err[steady_from:rich_to],
                                lam_err[eff_from:]])
    metrics["lambda_steady"] = _segment_stats(lam_joint)
    return metrics


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def save_trajectory_csv(records, path) -> None:
    # vars() keeps declaration order without astuple's per-cell deep copy
    write_table(path, TRAJECTORY_HEADER, (vars(r).values() for r in records))


def load_trajectory_csv(path):
    return [TrajectoryRecord(int(row[0]), *row[1:-1], int(row[-1]))
            for row in read_table(path, TRAJECTORY_HEADER).tolist()]
