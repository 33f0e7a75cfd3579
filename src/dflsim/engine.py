"""Mean-value model of a two-stroke spark-ignition engine.

Cycle-averaged dynamics only: crankshaft speed driven by the balance of
combustion power against friction and load, an isothermal intake manifold
fed through a compressible-orifice throttle, speed-density cylinder
induction, and a pure transport delay between fuel injection and torque
production.  States are advanced with fixed-step RK4 at ``dt_int`` inside
each control interval.

One interval is 4 * dt/dt_int right-hand-side evaluations (400 at the stock
0.1 s / 1 ms), so ``step_engine`` runs it on Python floats: the fuel delay
line holds floats, inputs are converted once, and every constant that is
fixed while the throttle is held (orifice constants, throttle area, speed-
density factor, manifold gain, efficiency and friction coefficients) is
computed once per interval by the sub-model factories below.

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
    fuel_buffer: tuple = field(repr=False)   # kg/s ring of past commands, read at buffer_index
    buffer_index: int = 0

    def as_vector(self) -> np.ndarray:
        """State triple [Q_eng, n, lambda] used by the prediction model."""
        return np.array([self.q_eng, self.n, self.lam])


def make_initial_state(params: EngineParams, n: float, manifold_pressure: float,
                       m_fi: float) -> EngineState:
    """Build a state with the delay line pre-filled at a constant fuel rate."""
    n, manifold_pressure, m_fi = float(n), float(manifold_pressure), float(m_fi)
    buf_len = max(1, math.ceil(params.injection_delay / params.dt_int))
    q, lam = _outputs(n, TWO_PI * n, manifold_pressure, m_fi, m_fi, params)
    return EngineState(q_eng=q, n=n, lam=lam, manifold_pressure=manifold_pressure,
                       fuel_buffer=(m_fi,) * buf_len, buffer_index=0)


# ---------------------------------------------------------------------------
# sub-models
#
# Each formula is written once, in a factory that computes its constants from
# the parameters and returns a plain-float function closing over them.  The
# public functions evaluate a factory once; ``step_engine`` builds each
# factory once per control interval and calls the result 400 times.  The
# clamps are comparisons written to return what max()/min() would (NaN
# included) because a builtin call costs more than the arithmetic here.
# ---------------------------------------------------------------------------

def _throttle_flow(tps: float, params: EngineParams):
    """m_at(p_manifold): air mass flow (kg/s) past the throttle held at ``tps``.

    Compressible orifice from ambient into the manifold, choked below the
    critical pressure ratio, with a smooth 1 - cos effective area (Cd*A):
    zero at 0 %, full at 90 %.
    """
    gamma = params.gamma
    p_amb = params.ambient_pressure
    pr_crit = (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0))
    psi_choked = math.sqrt(gamma * (2.0 / (gamma + 1.0)) ** ((gamma + 1.0) / (gamma - 1.0)))
    exp_a = 2.0 / gamma
    exp_b = (gamma + 1.0) / gamma
    psi_gain = 2.0 * gamma / (gamma - 1.0)
    frac = min(max(tps, 0.0), 100.0) / 90.0
    area = params.throttle_area_max * (1.0 - math.cos(0.5 * math.pi * min(frac, 1.0)))
    area_density = area * (p_amb / math.sqrt(params.gas_constant * params.ambient_temp))

    def m_at(p_man):
        if p_man <= 0.0:
            raise ValueError("manifold pressure must be positive")
        pr = p_man / p_amb
        if pr >= 1.0:
            psi = 0.0
        elif pr <= pr_crit:
            psi = psi_choked
        else:
            psi = math.sqrt(psi_gain * (pr ** exp_a - pr ** exp_b))
        return area_density * psi
    return m_at


def _cylinder_flow(params: EngineParams):
    """m_as(p_manifold, n): speed-density induction flow (kg/s) into the cylinder."""
    swept = params.volumetric_eff * params.displacement
    rt_man = params.gas_constant * params.manifold_temp

    def m_as(p_man, n):
        return swept * (0.0 if n < 0.0 else n) * (p_man / rt_man)
    return m_as


def _friction(params: EngineParams):
    """p_f(n): friction loss (W), quadratic in crankshaft speed (rev/s)."""
    lin, quad = params.friction_lin, params.friction_quad

    def p_f(n):
        if n < 0.0:
            n = 0.0
        return lin * n + quad * n * n
    return p_f


def _efficiency(params: EngineParams):
    """eta(lam, n): indicated thermal efficiency, concave in lambda with a
    mild speed trend, clamped at zero."""
    peak, lam_opt, curv = params.eta_peak, params.eta_lambda_opt, params.eta_lambda_curv
    gain, n_ref, floor = params.eta_speed_gain, params.eta_speed_ref, params.eta_speed_floor

    def eta(lam, n):
        lam_factor = 1.0 - curv * (lam - lam_opt) ** 2
        speed_factor = 1.0 + gain * (n / n_ref - 1.0)
        if speed_factor < floor:
            speed_factor = floor
        value = peak * lam_factor * speed_factor
        return 0.0 if value < 0.0 else value
    return eta


def _combustion(params: EngineParams):
    """p_comb(m_f, m_as, n): indicated power Hu * eta_i * (1 - kf) * m_f (W)
    of the delayed fuel rate m_f burning in the air flow m_as, with the
    efficiency at that mixture; zero without fuel."""
    eta = _efficiency(params)
    hu, kept = params.lower_heating_value, 1.0 - params.fuel_loss_coeff
    stoich = params.stoich_afr

    def p_comb(m_f, m_as, n):
        if m_f <= 0.0:
            return 0.0
        return hu * eta(normalized_afr(m_as, m_f, stoich), n) * kept * m_f
    return p_comb


def air_mass_flow(tps: float, manifold_pressure: float, n: float,
                  params: EngineParams) -> float:
    """Air mass flow (kg/s) past the throttle into the intake path.

    Monotone nondecreasing in throttle position at fixed conditions.  ``n``
    is accepted for interface symmetry (the orifice itself is speed-free;
    speed enters through the manifold pressure it helps set).
    """
    return _throttle_flow(tps, params)(manifold_pressure)


def cylinder_air_flow(manifold_pressure: float, n: float, params: EngineParams) -> float:
    """Speed-density induction flow (kg/s) out of the manifold into the cylinder."""
    return _cylinder_flow(params)(manifold_pressure, n)


def friction_power(n: float, params: EngineParams) -> float:
    """Friction loss P_f (W), quadratic in crankshaft speed (rev/s)."""
    return _friction(params)(n)


def normalized_afr(m_as: float, m_f: float, stoich_afr: float) -> float:
    """lambda = m_as / (m_f * L_th); unity at stoichiometry."""
    if m_f <= 0.0:
        raise ValueError("fuel flow must be positive to define lambda")
    return m_as / (m_f * stoich_afr)


def thermal_efficiency(lam: float, n: float, params: EngineParams) -> float:
    """Indicated thermal efficiency: concave in lambda, mild speed trend."""
    return _efficiency(params)(lam, n)


def _outputs(n: float, omega: float, p_man: float, m_fi: float,
             m_f_delayed: float, params: EngineParams):
    """(brake torque N*m, lambda of the command m_fi) at a state whose
    cylinder burns the delayed fuel rate."""
    m_as = cylinder_air_flow(p_man, n, params)
    lam = normalized_afr(m_as, m_fi, params.stoich_afr)
    p_comb = _combustion(params)(m_f_delayed, m_as, n)
    return (p_comb - friction_power(n, params)) / omega, lam


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def substeps(params: EngineParams, dt: float) -> int:
    """RK4 substeps per control interval ``dt``; ValueError unless dt_int divides it."""
    n_sub = int(round(dt / params.dt_int))
    if n_sub < 1 or abs(n_sub * params.dt_int - dt) > 1e-9 * dt:
        raise ValueError("dt_int must divide the control interval")
    return n_sub


def step_engine(state: EngineState, u: ControlInput, load_power: float,
                params: EngineParams, dt: float) -> EngineState:
    """Advance the engine by one control interval under a held input.

    RK4 at ``params.dt_int`` on [omega, p_manifold]; the fuel delay line is
    advanced one slot per substep, so the commanded rate reaches the torque
    term exactly ceil(tau_d/dt_int) substeps later.  Raises EngineStallError
    (infeasible load / fuel starvation) if speed falls through the floor.

    Inputs are converted to Python floats once, so the whole interval runs
    in float arithmetic and the returned state holds floats.
    """
    n_sub = substeps(params, dt)
    m_fi = float(u.m_fi)
    load_power = float(load_power)
    m_at = _throttle_flow(float(u.tps), params)
    m_as = _cylinder_flow(params)
    p_comb = _combustion(params)
    p_fric = _friction(params)
    inertia = params.inertia
    manifold_gain = params.gas_constant * params.manifold_temp / params.manifold_volume

    def rhs(omega, p_man, m_f_delayed):
        """Right-hand side for [omega, p_manifold]."""
        n = omega / TWO_PI
        m_throttle = m_at(p_man)
        m_cyl = m_as(p_man, n)
        domega = (p_comb(m_f_delayed, m_cyl, n) - p_fric(n) - load_power) / (inertia * omega)
        return domega, manifold_gain * (m_throttle - m_cyl)

    omega = TWO_PI * float(state.n)
    p_man = float(state.manifold_pressure)
    buf = list(state.fuel_buffer)
    idx = state.buffer_index
    buf_len = len(buf)
    h = params.dt_int
    half_h = 0.5 * h
    sixth_h = h / 6.0
    p_amb = params.ambient_pressure
    omega_floor = TWO_PI * params.stall_speed

    for _ in range(n_sub):
        # consume the delayed slot, then overwrite it with the current command
        m_f_delayed = buf[idx]
        buf[idx] = m_fi
        idx = (idx + 1) % buf_len

        w1, p1 = rhs(omega, p_man, m_f_delayed)
        w2, p2 = rhs(omega + half_h * w1, p_man + half_h * p1, m_f_delayed)
        w3, p3 = rhs(omega + half_h * w2, p_man + half_h * p2, m_f_delayed)
        w4, p4 = rhs(omega + h * w3, p_man + h * p3, m_f_delayed)
        omega += sixth_h * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
        p_man += sixth_h * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        if p_man < 1.0:
            p_man = 1.0
        if p_amb < p_man:
            p_man = p_amb

        if omega < omega_floor:
            raise EngineStallError(
                f"engine stalled at {omega / TWO_PI:.2f} rev/s (load infeasible)")

    n = omega / TWO_PI
    q_eng, lam = _outputs(n, omega, p_man, m_fi, m_f_delayed, params)
    return replace(state, q_eng=q_eng, n=n, lam=lam, manifold_pressure=p_man,
                   fuel_buffer=tuple(buf), buffer_index=idx)
