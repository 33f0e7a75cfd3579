"""Mean-value model of a two-stroke spark-ignition engine.

Cycle-averaged dynamics only: crankshaft speed driven by the balance of
combustion power against friction and load, an isothermal intake manifold
fed through a compressible-orifice throttle, speed-density cylinder
induction, and a pure transport delay between fuel injection and torque
production.  States are advanced with fixed-step RK4 at ``dt_int`` inside
each control interval.

All internal math is SI (rad/s, Pa, W, N*m); crankshaft speed crosses the
module boundary in rev/s because that is the unit the rest of the pipeline
works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

TWO_PI = 2.0 * math.pi


class EngineStallError(RuntimeError):
    """Crankshaft speed fell below the stall floor during integration."""


@dataclass(frozen=True)
class EngineParams:
    """Physical constants and sub-model coefficients for the engine plant."""

    # energy path
    lower_heating_value: float = 44.0e6   # Hu, J/kg
    fuel_loss_coeff: float = 0.25         # kf, scavenging short-circuit fraction
    inertia: float = 0.22                 # kg*m^2, engine + fan referred to crankshaft
    injection_delay: float = 0.05         # tau_d, s
    stoich_afr: float = 14.7              # L_th, kg air / kg fuel

    # thermal efficiency map: eta = eta_peak * (1 - curv*(lam - lam_opt)^2)
    #                               * (1 + speed_gain*(n/n_ref - 1)), clamped >= 0
    eta_peak: float = 0.33
    eta_lambda_opt: float = 1.0
    eta_lambda_curv: float = 1.2
    eta_speed_gain: float = 0.5
    eta_speed_ref: float = 140.0          # rev/s
    eta_speed_floor: float = 0.2          # lower clamp on the speed factor

    # friction power P_f = pf1*n + pf2*n^2 with n in rev/s
    friction_lin: float = 170.0           # W/(rev/s)
    friction_quad: float = 0.7            # W/(rev/s)^2

    # air path
    throttle_area_max: float = 1.1e-3     # Cd*A at full throttle, m^2
    manifold_volume: float = 3.0e-3       # m^3
    manifold_temp: float = 330.0          # K
    ambient_pressure: float = 101325.0    # Pa
    ambient_temp: float = 298.0           # K
    gas_constant: float = 287.0           # J/(kg*K)
    gamma: float = 1.4
    displacement: float = 0.85e-3         # m^3 swept per rev (two-stroke)
    volumetric_eff: float = 0.78

    # integration
    dt_int: float = 1.0e-3                # s
    stall_speed: float = 10.0             # rev/s, below this we raise

    def __post_init__(self):
        if self.lower_heating_value <= 0 or self.inertia <= 0:
            raise ValueError("Hu and inertia must be positive")
        if not 0.0 <= self.fuel_loss_coeff < 1.0:
            raise ValueError("fuel loss coefficient must lie in [0, 1)")
        if self.injection_delay < 0 or self.stoich_afr <= 0 or self.dt_int <= 0:
            raise ValueError("tau_d >= 0, L_th > 0 and dt_int > 0 required")


@dataclass(frozen=True)
class ControlInput:
    """Engine command: throttle position (percent) and fuel rate (kg/s)."""

    tps: float      # % of full throttle, 5..90 in closed loop
    m_fi: float     # kg/s, 0.0011..0.0055 in closed loop


@dataclass(frozen=True)
class EngineState:
    """Engine state exposed to the controller plus internal carriers.

    ``q_eng``/``n``/``lam`` are the controller-visible triple; manifold
    pressure and the fuel transport buffer are internal to the plant.
    """

    q_eng: float                 # N*m
    n: float                     # rev/s
    lam: float                   # normalized AFR, dimensionless
    manifold_pressure: float     # Pa
    fuel_buffer: np.ndarray = field(repr=False)      # kg/s ring, oldest-first semantics via index
    buffer_index: int = 0

    def as_vector(self) -> np.ndarray:
        """State triple [Q_eng, n, lambda] used by the prediction model."""
        return np.array([self.q_eng, self.n, self.lam])


def make_initial_state(params: EngineParams, n: float, manifold_pressure: float,
                       m_fi: float) -> EngineState:
    """Build a state with the delay line pre-filled at a constant fuel rate."""
    buf_len = max(1, math.ceil(params.injection_delay / params.dt_int))
    buf = np.full(buf_len, m_fi)
    lam = normalized_afr(cylinder_air_flow(manifold_pressure, n, params), m_fi,
                         params.stoich_afr)
    omega = TWO_PI * n
    q = engine_torque_from_power(combustion_power(m_fi, lam, n, params),
                                 friction_power(n, params), omega)
    return EngineState(q_eng=q, n=n, lam=lam, manifold_pressure=manifold_pressure,
                       fuel_buffer=buf, buffer_index=0)


# ---------------------------------------------------------------------------
# sub-models
# ---------------------------------------------------------------------------

def throttle_area(tps: float, params: EngineParams) -> float:
    """Effective orifice area (Cd*A, m^2) for a throttle position in percent.

    Smooth 1 - cos shape: zero area at 0 %, full area at 90 %.
    """
    frac = min(max(tps, 0.0), 100.0) / 90.0
    return params.throttle_area_max * (1.0 - math.cos(0.5 * math.pi * min(frac, 1.0)))


def _flow_function(pressure_ratio: float, gamma: float) -> float:
    """Compressible-orifice flow function Psi(p_down/p_up), choked below critical."""
    pr_crit = (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))
    if pressure_ratio >= 1.0:
        return 0.0
    if pressure_ratio <= pr_crit:
        return math.sqrt(gamma * (2.0 / (gamma + 1.0)) ** ((gamma + 1.0) / (gamma - 1.0)))
    a = pressure_ratio ** (2.0 / gamma)
    b = pressure_ratio ** ((gamma + 1.0) / gamma)
    return math.sqrt(2.0 * gamma / (gamma - 1.0) * (a - b))


def air_mass_flow(tps: float, manifold_pressure: float, n: float,
                  params: EngineParams) -> float:
    """Air mass flow (kg/s) past the throttle into the intake path.

    Compressible orifice from ambient into the manifold; monotone
    nondecreasing in throttle position at fixed conditions.  ``n`` is
    accepted for interface symmetry (the orifice itself is speed-free;
    speed enters through the manifold pressure it helps set).
    """
    if manifold_pressure <= 0.0:
        raise ValueError("manifold pressure must be positive")
    psi = _flow_function(manifold_pressure / params.ambient_pressure, params.gamma)
    density_term = params.ambient_pressure / math.sqrt(
        params.gas_constant * params.ambient_temp)
    return throttle_area(tps, params) * density_term * psi


def cylinder_air_flow(manifold_pressure: float, n: float, params: EngineParams) -> float:
    """Speed-density induction flow (kg/s) out of the manifold into the cylinder."""
    rho_man = manifold_pressure / (params.gas_constant * params.manifold_temp)
    return params.volumetric_eff * params.displacement * max(n, 0.0) * rho_man


def friction_power(n: float, params: EngineParams) -> float:
    """Friction loss P_f (W), quadratic in crankshaft speed (rev/s)."""
    n = max(n, 0.0)
    return params.friction_lin * n + params.friction_quad * n * n


def normalized_afr(m_as: float, m_f: float, stoich_afr: float) -> float:
    """lambda = m_as / (m_f * L_th); unity at stoichiometry."""
    if m_f <= 0.0:
        raise ValueError("fuel flow must be positive to define lambda")
    return m_as / (m_f * stoich_afr)


def thermal_efficiency(lam: float, n: float, params: EngineParams) -> float:
    """Indicated thermal efficiency: concave in lambda, mild speed trend."""
    lam_factor = 1.0 - params.eta_lambda_curv * (lam - params.eta_lambda_opt) ** 2
    speed_factor = 1.0 + params.eta_speed_gain * (n / params.eta_speed_ref - 1.0)
    speed_factor = max(speed_factor, params.eta_speed_floor)
    return max(params.eta_peak * lam_factor * speed_factor, 0.0)


def combustion_power(delayed_fuel_rate: float, lam: float, n: float,
                     params: EngineParams) -> float:
    """Indicated power Hu * eta_i * (1 - kf) * m_f(t - tau_d), W."""
    eta = thermal_efficiency(lam, n, params)
    return (params.lower_heating_value * eta * (1.0 - params.fuel_loss_coeff)
            * max(delayed_fuel_rate, 0.0))


def engine_torque_from_power(p_comb: float, p_fric: float, omega: float) -> float:
    """Brake torque (N*m) at angular speed omega (rad/s)."""
    return (p_comb - p_fric) / omega


def delayed_combustion_power(m_f_delayed: float, m_as: float, n: float,
                             params: EngineParams) -> float:
    """Combustion power of the delayed charge: efficiency at its own mixture."""
    if m_f_delayed <= 0.0:
        return 0.0
    lam_burn = normalized_afr(m_as, m_f_delayed, params.stoich_afr)
    return combustion_power(m_f_delayed, lam_burn, n, params)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _derivatives(omega: float, p_man: float, tps: float, m_f_delayed: float,
                 load_power: float, params: EngineParams):
    """Right-hand side for [omega, p_manifold]."""
    n = omega / TWO_PI
    m_at = air_mass_flow(tps, p_man, n, params)
    m_as = cylinder_air_flow(p_man, n, params)
    p_comb = delayed_combustion_power(m_f_delayed, m_as, n, params)
    p_fric = friction_power(n, params)
    domega = (p_comb - p_fric - load_power) / (params.inertia * omega)
    dp_man = (params.gas_constant * params.manifold_temp / params.manifold_volume
              * (m_at - m_as))
    return domega, dp_man


def step_engine(state: EngineState, u: ControlInput, load_power: float,
                params: EngineParams, dt: float) -> EngineState:
    """Advance the engine by one control interval under a held input.

    RK4 at ``params.dt_int`` on [omega, p_manifold]; the fuel delay line is
    advanced one slot per substep, so the commanded rate reaches the torque
    term exactly ceil(tau_d/dt_int) substeps later.  Raises EngineStallError
    (infeasible load / fuel starvation) if speed falls through the floor.
    """
    n_sub = int(round(dt / params.dt_int))
    if n_sub < 1 or abs(n_sub * params.dt_int - dt) > 1e-9 * dt:
        raise ValueError("dt_int must divide the control interval")

    omega = TWO_PI * state.n
    p_man = state.manifold_pressure
    buf = state.fuel_buffer.copy()
    idx = state.buffer_index
    buf_len = buf.shape[0]
    h = params.dt_int
    omega_floor = TWO_PI * params.stall_speed

    m_f_delayed = buf[idx]
    for _ in range(n_sub):
        # consume the delayed slot, then overwrite it with the current command
        m_f_delayed = buf[idx]
        buf[idx] = u.m_fi
        idx = (idx + 1) % buf_len

        k1 = _derivatives(omega, p_man, u.tps, m_f_delayed, load_power, params)
        k2 = _derivatives(omega + 0.5 * h * k1[0], p_man + 0.5 * h * k1[1],
                          u.tps, m_f_delayed, load_power, params)
        k3 = _derivatives(omega + 0.5 * h * k2[0], p_man + 0.5 * h * k2[1],
                          u.tps, m_f_delayed, load_power, params)
        k4 = _derivatives(omega + h * k3[0], p_man + h * k3[1],
                          u.tps, m_f_delayed, load_power, params)
        omega += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p_man += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        p_man = min(max(p_man, 1.0), params.ambient_pressure)

        if omega < omega_floor:
            raise EngineStallError(
                f"engine stalled at {omega / TWO_PI:.2f} rev/s (load infeasible)")

    n = omega / TWO_PI
    m_as = cylinder_air_flow(p_man, n, params)
    lam = normalized_afr(m_as, u.m_fi, params.stoich_afr)
    p_comb = delayed_combustion_power(m_f_delayed, m_as, n, params)
    q_eng = engine_torque_from_power(p_comb, friction_power(n, params), omega)
    return replace(state, q_eng=q_eng, n=n, lam=lam, manifold_pressure=p_man,
                   fuel_buffer=buf, buffer_index=idx)
