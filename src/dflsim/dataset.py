"""Identification data for the engine network models.

Excites the coupled engine + fan plant with multi-level pseudo-random input
steps, records one-step (input, state) -> next-state pairs one
``engine.CONTROL_DT`` apart, and adds Gaussian noise of a prescribed SNR to
the training targets.  Columns are min/max normalized to [-1, 1] using
training-split statistics only.  The dataset CSV is a ``tables`` table with
the ``CSV_HEADER`` columns.  ``TrainingConfig``, the [training] section,
lives here so that the excitation and the ``networks`` trainers take it whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (TWO_PI, ControlInput, EngineParams, EngineStallError,
                     _outputs, air_mass_flow, cylinder_air_flow, friction_power,
                     make_initial_state, step_engine, thermal_efficiency)
from .fan import FanGeometry, fan_load_power
from .tables import FileFormatError, read_table, write_table

CSV_HEADER = "tps,m_fi,n,lambda,Q_next,n_next,lambda_next"

TPS_RANGE = (5.0, 90.0)
MF_RANGE = (0.0011, 0.0055)
MAX_SEGMENT_RETRIES = 400     # stalled segments redrawn before a stall is raised
SETTLE_START = (37.0, 5.7e4)  # rev/s, Pa: where every equilibrium search starts


@dataclass(frozen=True)
class TrainingConfig:
    sample_count: int = 1000
    n_train: int = 950
    snr_db: float = 5.0
    seed: int = 123                 # dataset excitation seed
    model_seed: int = 0             # network initialization seed
    rbf_centers: int = 25
    mlp_hidden: int = 26
    mlp_lr: float = 0.1
    mlp_epochs: int = 5000
    elman_hidden: int = 12
    elman_lr: float = 0.01
    elman_epochs: int = 1000

    def __post_init__(self):
        if not 1 <= self.n_train < self.sample_count:
            raise ValueError("training needs 1 <= n_train < sample_count, so that "
                             "at least one validation row is left")
        if min(self.rbf_centers, self.mlp_hidden, self.elman_hidden,
               self.mlp_epochs, self.elman_epochs) < 1:
            raise ValueError("center, hidden-size and epoch counts must be positive")
        if min(self.seed, self.model_seed) < 0:
            raise ValueError("seed and model_seed must be non-negative")
        if not self.snr_db > -math.inf:     # +inf is a noise-free dataset
            raise ValueError("snr_db must be a number above -inf")
        if not all(0 < lr < math.inf for lr in (self.mlp_lr, self.elman_lr)):
            raise ValueError("mlp_lr and elman_lr must be finite and positive")


@dataclass(frozen=True)
class NormStats:
    """Per-column affine map to [-1, 1], frozen from the training split."""

    in_min: np.ndarray
    in_max: np.ndarray
    out_min: np.ndarray
    out_max: np.ndarray

    def span_fault(self) -> str | None:
        """The first column no model can be scaled by, described, or None:
        an input needs a maximum above its minimum, an output one not below
        it.  Columns count inputs first, as ``STATS`` and the dataset CSV do."""
        n_in = len(self.in_min)
        mins, maxs = np.r_[self.in_min, self.out_min], np.r_[self.in_max, self.out_max]
        bad = np.flatnonzero(np.r_[maxs[:n_in] <= mins[:n_in],
                                   maxs[n_in:] < mins[n_in:]])
        if not bad.size:
            return None
        k = int(bad[0])
        kind, rel = ("input", "not above") if k < n_in else ("output", "below")
        return (f"column {k + 1}, an {kind}, has maximum {float(maxs[k])!r} "
                f"{rel} its minimum {float(mins[k])!r}")


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray          # (N, 4): tps %, m_fi kg/s, n rev/s, lambda
    targets: np.ndarray         # (N, 3): Q N*m, n rev/s, lambda (train rows noisy)
    n_train: int
    stats: NormStats

    @property
    def train_inputs(self):
        return self.inputs[:self.n_train]

    @property
    def train_targets(self):
        return self.targets[:self.n_train]

    @property
    def val_inputs(self):
        return self.inputs[self.n_train:]

    @property
    def val_targets(self):
        return self.targets[self.n_train:]


def normalize(x: np.ndarray, col_min: np.ndarray, col_max: np.ndarray) -> np.ndarray:
    """Affine map of columns onto [-1, 1]; constant columns map to 0."""
    span = np.asarray(col_max) - np.asarray(col_min)
    safe = np.where(span == 0.0, 1.0, span)
    y = 2.0 * (x - col_min) / safe - 1.0
    return np.where(span == 0.0, 0.0, y)


def denormalize(y: np.ndarray, col_min: np.ndarray, col_max: np.ndarray) -> np.ndarray:
    """Inverse of :func:`normalize`."""
    return col_min + 0.5 * (y + 1.0) * (col_max - col_min)


def compute_stats(inputs: np.ndarray, targets: np.ndarray, n_train: int) -> NormStats:
    tr_in = inputs[:n_train]
    tr_out = targets[:n_train]
    return NormStats(in_min=tr_in.min(axis=0), in_max=tr_in.max(axis=0),
                     out_min=tr_out.min(axis=0), out_max=tr_out.max(axis=0))


def _tps_for_lambda(lam: float, m_fi: float, n: float, params: EngineParams) -> float:
    """Static throttle position that would hold a target lambda at speed n.

    Inverts the speed-density flow for the needed manifold pressure, then the
    throttle area's 1 - cos law in closed form for the throttle.  Used only
    to shape the excitation signal.
    """
    m_as = lam * params.stoich_afr * m_fi
    p_m = (m_as * params.gas_constant * params.manifold_temp
           / (params.volumetric_eff * params.displacement * max(n, 1.0)))
    p_m = min(p_m, 0.985 * params.ambient_pressure)
    ratio = min(m_as / air_mass_flow(90.0, p_m, params), 1.0)  # 1: full open
    tps = 90.0 * (2.0 / math.pi) * math.acos(1.0 - ratio)
    return min(max(tps, TPS_RANGE[0]), TPS_RANGE[1])


def settled_state(params: EngineParams, geom: FanGeometry, u0: ControlInput):
    """The plant at rest under ``u0`` held, ``u0.m_fi`` in transit: the
    zero of the speed and manifold-pressure rates, by Newton's method from
    ``SETTLE_START`` with each step halved until speed stays above the stall
    floor and pressure inside (1 Pa, ambient).  A singular Jacobian, a step
    that cannot stay inside, or no converged full step at a stable root (a
    negative trace and positive determinant put both eigenvalues of the 2x2
    Jacobian in the left half-plane) raises EngineStallError."""
    if not u0.m_fi > 0.0:
        raise EngineStallError(f"no operating point without fuel under {u0}")
    gain = params.gas_constant * params.manifold_temp / params.manifold_volume

    def rates(x):
        n, p_man, omega = x[0], x[1], TWO_PI * x[0]
        q_eng = _outputs(n, omega, p_man, u0.m_fi, u0.m_fi, params)[0]
        return np.array([(q_eng * omega - fan_load_power(n, geom))
                         / (params.inertia * omega * TWO_PI),
                         gain * (air_mass_flow(u0.tps, p_man, params)
                                 - cylinder_air_flow(p_man, n, params))])

    x = np.array(SETTLE_START)
    for _ in range(50):
        f = rates(x)
        jac = np.column_stack([(rates(x + d) - f) / d[i]
                               for i, d in enumerate(np.diag(1.5e-8 * x))])
        det = np.linalg.det(jac)
        if not abs(det) > 0.0:
            raise EngineStallError(f"singular rate Jacobian under {u0}")
        step, t = np.linalg.solve(jac, -f), 1.0
        while not (params.stall_speed < x[0] + t * step[0]
                   and 1.0 < x[1] + t * step[1] < params.ambient_pressure):
            t *= 0.5
            if t < 1e-9:
                raise EngineStallError(f"no operating point above stall under {u0}")
        x = x + t * step
        if np.all(abs(step) <= 1e-10 * x) and np.trace(jac) < 0.0 < det:
            return make_initial_state(params, x[0], x[1], u0.m_fi)
    raise EngineStallError(f"no stable operating point under {u0}")


def generate_dataset(params: EngineParams, geom: FanGeometry,
                     tr: TrainingConfig) -> Dataset:
    """Excite the coupled plant and assemble the ``tr.sample_count``-row
    identification dataset from ``tr.seed``.

    Input levels hold 0.5 to 3 s.  The fuel rate performs a reflected random
    walk over its box (with occasional jumps) and each segment draws a fresh
    air-fuel-ratio target; the throttle tracks that target through the static
    air-path inverse with per-step dither, which keeps the mixture
    combustible while still covering the admissible input region.  Segments
    that stall the engine are rolled back and redrawn.  Gaussian white noise
    at ``tr.snr_db`` (per-column signal variance over noise variance) is
    added to the first ``tr.n_train`` (training) targets.
    """
    sample_count, n_train, snr_db = tr.sample_count, tr.n_train, tr.snr_db
    rng = np.random.default_rng(tr.seed)
    state = settled_state(params, geom, ControlInput(tps=20.0, m_fi=0.00125))

    inputs = np.empty((sample_count, 4))
    targets = np.empty((sample_count, 3))
    mf_lo, mf_hi = MF_RANGE
    mf_span = mf_hi - mf_lo
    filled = 0
    retries = 0

    def run_segment(hold, lam_target, m_fi, dither):
        """Advance one held segment, one sample per control interval."""
        nonlocal state, filled
        for j in range(hold):
            if filled >= sample_count:
                break
            tps = _tps_for_lambda(lam_target, m_fi, state.n, params)
            tps = min(max(tps + float(dither[j]), TPS_RANGE[0]), TPS_RANGE[1])
            inputs[filled] = (tps, m_fi, state.n, state.lam)
            state = step_engine(state, ControlInput(tps=tps, m_fi=m_fi),
                                fan_load_power(state.n, geom), params)
            targets[filled] = (state.q_eng, state.n, state.lam)
            filled += 1

    # coverage prologue: a deterministic bottom-up sweep of fuel levels and
    # mixture targets, guaranteeing support along the whole trim manifold
    # (the random walk below is biased toward higher torque and would
    # otherwise starve the idle corner)
    prologue_mf = (0.00125, 0.0016, 0.0021, 0.0027, 0.0033, 0.0040, 0.0047,
                   0.0054)
    prologue_lam = (0.82, 1.05, 0.92, 1.15, 0.85, 1.0, 0.88, 1.1)
    for m_fi, lam_target in zip(prologue_mf, prologue_lam):
        run_segment(12, lam_target, m_fi, rng.uniform(-1.5, 1.5, size=12))

    m_fi = prologue_mf[-1]
    while filled < sample_count:
        hold = int(rng.integers(5, 16))                      # 0.5 .. 1.5 s
        step_frac = 0.35 if rng.uniform() < 0.12 else 0.15
        # slight upward bias keeps torque's coefficient of variation low,
        # which keeps the injected-noise floor small relative to torque
        m_fi_new = m_fi + float(rng.uniform(-step_frac, step_frac + 0.08)) * mf_span
        if m_fi_new > mf_hi:
            m_fi_new = 2.0 * mf_hi - m_fi_new
        if m_fi_new < mf_lo:
            m_fi_new = 2.0 * mf_lo - m_fi_new
        lam_target = float(rng.uniform(0.78, 1.18))
        # keep combustion above friction plus a torque margin at the current
        # speed, otherwise downward fuel steps produce engine-braking samples
        # whose near-zero torque wrecks percentage metrics
        q_margin = 2.0  # N*m
        eta = thermal_efficiency(lam_target, state.n, params)
        p_need = friction_power(state.n, params) + TWO_PI * state.n * q_margin
        mf_floor = p_need / (params.lower_heating_value * max(eta, 1e-3)
                             * (1.0 - params.fuel_loss_coeff))
        m_fi_new = max(m_fi_new, min(mf_floor, mf_hi))
        m_fi_new = min(max(m_fi_new, mf_lo), mf_hi)
        dither = rng.uniform(-1.5, 1.5, size=hold)

        checkpoint = (state, filled, m_fi)
        m_fi = m_fi_new
        try:
            run_segment(hold, lam_target, m_fi, dither)
        except EngineStallError:
            state, filled, m_fi = checkpoint
            retries += 1
            if retries > MAX_SEGMENT_RETRIES:
                raise
            continue

    if np.isfinite(snr_db):
        noise_std = targets[:n_train].std(axis=0) / 10.0 ** (snr_db / 20.0)
        targets[:n_train] += rng.normal(size=(n_train, 3)) * noise_std

    stats = compute_stats(inputs, targets, n_train)
    return Dataset(inputs=inputs, targets=targets, n_train=n_train, stats=stats)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write the dataset as CSV (training-row targets keep their noise)."""
    write_table(path, CSV_HEADER, np.hstack([dataset.inputs, dataset.targets]))


def load_dataset_csv(path, n_train: int) -> Dataset:
    """Read a dataset CSV that has rows after the first ``n_train`` (training)
    ones; normalization stats are rebuilt from the training rows."""
    data = read_table(path, CSV_HEADER)
    if len(data) <= n_train:
        raise FileFormatError(f"{path}: {len(data)} rows leave no validation "
                              f"row after n_train = {n_train}")
    inputs, targets = data[:, :4], data[:, 4:]
    stats = compute_stats(inputs, targets, n_train)
    return Dataset(inputs=inputs, targets=targets, n_train=n_train, stats=stats)
