"""Mean-value model of a two-stroke spark-ignition engine.

Cycle-averaged dynamics only: crankshaft speed driven by the balance of
combustion power against friction and load, an isothermal intake manifold
fed through a compressible-orifice throttle, speed-density cylinder
induction, and a pure transport delay between fuel injection and torque
production.  States are advanced with fixed-step RK4 at ``dt_int`` inside
each ``CONTROL_DT`` control interval, the sampling interval of the
identified one-step models and a constant of the plant.  ``EngineParams``
checks when it is built that dt_int divides the interval and any positive
tau_d, and that tau_d fits in the interval, so the one rate in transit
when an interval starts is the previous command, which the state carries.

One interval is 4 * CONTROL_DT/dt_int right-hand-side evaluations (200 at
the stock 2 ms), so ``step_engine`` runs it on Python floats, with every
constant of the held throttle and of the sub-models computed once and each
RK4 stage written out inline (see the note above the sub-models).

Near ambient pressure the unchoked throttle makes the manifold stiff: the
orifice's share of d(dp_man/dt)/dp_man grows without bound as the pressure
ratio nears 1, and RK4 is stable on the real axis only for h*|lambda| up to
2.785.  So each substep first checks h times that share; above
``STIFF_LIMIT`` the whole interval is redone at half the substep, at most
``MAX_HALVINGS`` times, and every interval is plain RK4 at dt_int/2**k.

All internal math is SI (rad/s, Pa, W, N*m); crankshaft speed crosses the
module boundary in rev/s, the unit the rest of the pipeline works in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import SolverError, StallError

TWO_PI = 2.0 * math.pi
# s, the control interval: the sampling interval of the identified models
CONTROL_DT = 0.1


# largest h * |orifice share of d(dp_man/dt)/dp_man| a substep may start at;
# above it the interval is redone at half the substep.  Accuracy, not
# stability, sets it: one interval from a settled start stays within 2.3e-4
# of a 0.1 ms reference at 1.5, but is off by 3.4e-3 at 2.5.
STIFF_LIMIT = 1.5
# halvings after which the interval runs without the check
MAX_HALVINGS = 4


class EngineStallError(StallError):
    """Crankshaft speed fell below the stall floor during integration."""


class SubstepTooCoarseError(SolverError):
    """An RK4 stage drove the manifold pressure to zero or below: the
    substep ``dt_int`` is too coarse for the interval it integrates."""


@dataclass(frozen=True)
class EngineParams:
    """Physical constants and sub-model coefficients for the engine plant,
    each finite.  ``dt_int`` is checked for whole substeps, not accuracy: on
    the worst of 84 settled starts one interval is off a 0.1 ms reference by
    2.3e-4 relative at 2 ms, 4.25e-4 at 2.5 ms, 2.6e-3 at 5 ms, 1.3e-2 at 10 ms."""

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
    dt_int: float = 2.0e-3                # s, halved where the manifold is stiff
    stall_speed: float = 10.0             # rev/s, below this we raise

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if self.lower_heating_value <= 0 or self.inertia <= 0:
            raise ValueError("Hu and inertia must be positive")
        if not 0.0 <= self.fuel_loss_coeff < 1.0:
            raise ValueError("fuel loss coefficient must lie in [0, 1)")
        if self.injection_delay < 0 or self.stoich_afr <= 0 or self.dt_int <= 0:
            raise ValueError("tau_d >= 0, L_th > 0 and dt_int > 0 required")
        # the plant divides by each of these and the air path by gamma - 1
        if not (self.gamma > 1.0 and all(v > 0 for v in (
                self.manifold_volume, self.manifold_temp, self.ambient_pressure,
                self.ambient_temp, self.gas_constant, self.eta_speed_ref))):
            raise ValueError("gamma > 1 and positive manifold_volume, manifold_temp, "
                             "ambient_pressure, ambient_temp, gas_constant and "
                             "eta_speed_ref required")
        # power and air flow scale with these: at zero or below no operating point exists
        if min(self.eta_peak, self.volumetric_eff, self.throttle_area_max,
               self.displacement) <= 0:
            raise ValueError("eta_peak, volumetric_eff, throttle_area_max and displacement "
                             "must be positive")
        self.substep_counts     # the timing checks, once

    @functools.cached_property
    def substep_counts(self):
        """(RK4 substeps per control interval, substeps of fuel delay) at
        dt_int; ValueError unless both are whole and the delay fits."""
        tau_d = self.injection_delay
        n_sub, n_delay = (int(round(t / self.dt_int)) for t in (CONTROL_DT, tau_d))
        if n_sub < 1 or abs(n_sub * self.dt_int - CONTROL_DT) > 1e-9 * CONTROL_DT:
            raise ValueError("dt_int must divide the control interval")
        if abs(n_delay * self.dt_int - tau_d) > 1e-9 * tau_d:
            raise ValueError(f"injection_delay {tau_d:g} s is not a whole number of "
                             f"dt_int = {self.dt_int:g} s substeps")
        if n_delay > n_sub:
            raise ValueError("injection_delay must not exceed the control interval")
        return n_sub, n_delay


@dataclass(frozen=True)
class ControlInput:
    """Engine command: throttle position (percent) and fuel rate (kg/s)."""

    tps: float      # % of full throttle, 5..90 in closed loop
    m_fi: float     # kg/s, 0.0011..0.0055 in closed loop


@dataclass(frozen=True)
class EngineState:
    """Engine state exposed to the controller plus internal carriers.

    ``q_eng``/``n``/``lam`` are the controller-visible triple; manifold
    pressure and the previous fuel command, still in transit to the
    cylinder, are internal to the plant.
    """

    q_eng: float                 # N*m
    n: float                     # rev/s
    lam: float                   # normalized AFR, dimensionless
    manifold_pressure: float     # Pa
    m_fi_prev: float             # kg/s, the previous command, burnt for tau_d

    def as_vector(self) -> np.ndarray:
        """State triple [Q_eng, n, lambda] used by the prediction model."""
        return np.array([self.q_eng, self.n, self.lam])


def make_initial_state(params: EngineParams, n: float, manifold_pressure: float,
                       m_fi: float) -> EngineState:
    """Build a state with ``m_fi`` held long enough to fill the delay."""
    n, manifold_pressure, m_fi = float(n), float(manifold_pressure), float(m_fi)
    q, lam = _outputs(n, TWO_PI * n, manifold_pressure, m_fi, m_fi, params)
    return EngineState(q_eng=q, n=n, lam=lam, manifold_pressure=manifold_pressure,
                       m_fi_prev=m_fi)


# ---------------------------------------------------------------------------
# sub-models
#
# Each public function below evaluates one sub-model at a single point.
# ``step_engine`` spells the same formulas inline in each of its four RK4
# stages, in the same operation order, because an interval evaluates them 200
# times and a Python call costs more than the arithmetic; ``tests/test_engine.py``
# compares the interval with an independently written reference step by ``==``
# on random draws and on the stock excitation.  The clamps are comparisons
# written to return what max()/min() would (NaN included) for the same reason.
# ---------------------------------------------------------------------------

def _orifice(tps: float, params: EngineParams):
    """Constants of the throttle held at ``tps``, a compressible orifice from
    ambient into the manifold with a 1 - cos effective area Cd*A (zero at 0 %,
    full at 90 %): (Cd*A * p_amb/sqrt(R*T_amb), the critical pressure ratio
    below which it chokes, the choked flow function, 2/gamma, (gamma+1)/gamma,
    2*gamma/(gamma-1))."""
    gamma = params.gamma
    frac = min(max(tps, 0.0), 100.0) / 90.0
    area = params.throttle_area_max * (1.0 - math.cos(0.5 * math.pi * min(frac, 1.0)))
    density = params.ambient_pressure / math.sqrt(params.gas_constant * params.ambient_temp)
    return (area * density, (2.0 / (gamma + 1.0)) ** (gamma / (gamma - 1.0)),
            math.sqrt(gamma * (2.0 / (gamma + 1.0)) ** ((gamma + 1.0) / (gamma - 1.0))),
            2.0 / gamma, (gamma + 1.0) / gamma, 2.0 * gamma / (gamma - 1.0))


def air_mass_flow(tps: float, manifold_pressure: float,
                  params: EngineParams) -> float:
    """Air mass flow (kg/s) past the throttle into the intake path.

    Monotone nondecreasing in throttle position at fixed conditions.
    """
    area_density, pr_crit, psi_choked, exp_a, exp_b, psi_gain = _orifice(tps, params)
    if manifold_pressure <= 0.0:
        raise ValueError("manifold pressure must be positive")
    pr = manifold_pressure / params.ambient_pressure
    if pr >= 1.0:
        psi = 0.0
    elif pr <= pr_crit:
        psi = psi_choked
    else:
        psi = math.sqrt(psi_gain * (pr ** exp_a - pr ** exp_b))
    return area_density * psi


def cylinder_air_flow(manifold_pressure: float, n: float, params: EngineParams) -> float:
    """Speed-density induction flow (kg/s) out of the manifold into the cylinder."""
    return (params.volumetric_eff * params.displacement * (0.0 if n < 0.0 else n)
            * (manifold_pressure / (params.gas_constant * params.manifold_temp)))


def friction_power(n: float, params: EngineParams) -> float:
    """Friction loss P_f (W), quadratic in crankshaft speed (rev/s)."""
    n = 0.0 if n < 0.0 else n
    return params.friction_lin * n + params.friction_quad * n * n


def normalized_afr(m_as: float, m_f: float, stoich_afr: float) -> float:
    """lambda = m_as / (m_f * L_th); unity at stoichiometry."""
    if m_f <= 0.0:
        raise ValueError("fuel flow must be positive to define lambda")
    return m_as / (m_f * stoich_afr)


def thermal_efficiency(lam: float, n: float, params: EngineParams) -> float:
    """Indicated thermal efficiency: concave in lambda, mild speed trend, >= 0."""
    lam_factor = 1.0 - params.eta_lambda_curv * (lam - params.eta_lambda_opt) ** 2
    speed_factor = 1.0 + params.eta_speed_gain * (n / params.eta_speed_ref - 1.0)
    if speed_factor < params.eta_speed_floor:
        speed_factor = params.eta_speed_floor
    eta = params.eta_peak * lam_factor * speed_factor
    return 0.0 if eta < 0.0 else eta


def _outputs(n: float, omega: float, p_man: float, m_fi: float,
             m_f_delayed: float, params: EngineParams):
    """(brake torque N*m, lambda of the command m_fi) at a state whose
    cylinder burns the delayed fuel rate at its own mixture; the indicated
    power is Hu * eta_i * (1 - kf) * m_f, zero without fuel."""
    m_as = cylinder_air_flow(p_man, n, params)
    lam = normalized_afr(m_as, m_fi, params.stoich_afr)
    if m_f_delayed <= 0.0:
        p_comb = 0.0
    else:
        eta = thermal_efficiency(normalized_afr(m_as, m_f_delayed, params.stoich_afr),
                                 n, params)
        p_comb = (params.lower_heating_value * eta * (1.0 - params.fuel_loss_coeff)
                  * m_f_delayed)
    return (p_comb - friction_power(n, params)) / omega, lam


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _too_coarse(p_at: float, h: float):
    """Raise SubstepTooCoarseError for an RK4 stage at pressure ``p_at`` <= 0; the
    orifice reaches it through its choked branch, as p_amb > 0 gives pr <= 0 < pr_crit."""
    raise SubstepTooCoarseError(f"manifold pressure {p_at:.6g} Pa inside an RK4 substep of "
                                f"{h:g} s: dt_int is too coarse")


def step_engine(state: EngineState, u: ControlInput, load_power: float,
                params: EngineParams) -> EngineState:
    """Advance the engine by one ``CONTROL_DT`` interval under a held input.

    RK4 at h = ``params.dt_int`` on [omega, p_manifold]; the first
    max(1, tau_d/h) substeps burn ``state.m_fi_prev`` and the rest
    ``u.m_fi``, which the returned state carries in transit.  A substep that
    starts where h * |orifice share of d(dp_man/dt)/dp_man| exceeds
    STIFF_LIMIT restarts the interval at h/2, up to MAX_HALVINGS times.
    Raises EngineStallError (infeasible load / fuel starvation) if speed
    falls through the floor, SubstepTooCoarseError if an RK4 stage drives
    the manifold pressure to zero or below, and ValueError if the start
    state's is not positive.  The interval runs on Python floats, so the
    returned state holds floats.
    """
    if not state.manifold_pressure > 0.0:
        raise ValueError(f"manifold pressure must be positive, not "
                         f"{state.manifold_pressure:.6g} Pa at the interval's start")
    m_fi, m_fi_prev = float(u.m_fi), float(state.m_fi_prev)
    load_power = float(load_power)
    area_density, pr_crit, psi_choked, exp_a, exp_b, psi_gain = _orifice(float(u.tps), params)
    p_amb = params.ambient_pressure
    swept = params.volumetric_eff * params.displacement
    rt_man = params.gas_constant * params.manifold_temp
    manifold_gain = rt_man / params.manifold_volume
    peak, lam_opt, curv = params.eta_peak, params.eta_lambda_opt, params.eta_lambda_curv
    gain, n_ref, floor = params.eta_speed_gain, params.eta_speed_ref, params.eta_speed_floor
    hu, kept = params.lower_heating_value, 1.0 - params.fuel_loss_coeff
    stoich = params.stoich_afr
    lin, quad, inertia = params.friction_lin, params.friction_quad, params.inertia
    omega_floor = TWO_PI * params.stall_speed
    # the unchoked orifice adds -G*A_d*psi_gain * (a*pr**a - b*pr**b)
    # / (2*pr*psi*p_amb) to d(dp_man/dt)/dp_man; this is its constant factor
    stiff_gain = manifold_gain * area_density * psi_gain / (2.0 * p_amb)

    n_sub0, n_delay0 = params.substep_counts    # at dt_int; a halving doubles both
    for halvings in range(MAX_HALVINGS + 1):
        n_sub, n_delay = n_sub0 << halvings, max(1, n_delay0 << halvings)
        h = params.dt_int / 2 ** halvings
        half_h, sixth_h, h_stiff = 0.5 * h, h / 6.0, h * stiff_gain
        check = halvings < MAX_HALVINGS
        stiff = False
        omega = TWO_PI * float(state.n)
        p_man = float(state.manifold_pressure)

        for j in range(n_sub):
            m_f_delayed = m_fi_prev if j < n_delay else m_fi
            no_fuel = m_f_delayed <= 0.0
            fuel_air = m_f_delayed * stoich

            # stage 1, at the substep's (positive) start and the only one checked for
            # stiffness; every stage: orifice, induction, delayed combustion, friction, rates
            n = omega / TWO_PI
            n_pos = 0.0 if n < 0.0 else n
            pr = p_man / p_amb
            if pr >= 1.0:
                psi = 0.0
            elif pr <= pr_crit:
                psi = psi_choked
            else:
                pr_a, pr_b = pr ** exp_a, pr ** exp_b
                psi = math.sqrt(psi_gain * (pr_a - pr_b))
                if check and h_stiff * (exp_b * pr_b - exp_a * pr_a) > STIFF_LIMIT * pr * psi:
                    stiff = True
                    break
            m_cyl = swept * n_pos * (p_man / rt_man)
            speed_factor = 1.0 + gain * (n / n_ref - 1.0)
            eta = 0.0 if no_fuel else peak * (1.0 - curv * (m_cyl / fuel_air - lam_opt) ** 2) * (
                floor if speed_factor < floor else speed_factor)
            p_comb = 0.0 if no_fuel else hu * (0.0 if eta < 0.0 else eta) * kept * m_f_delayed
            w1 = (p_comb - (lin * n_pos + quad * n_pos * n_pos) - load_power) / (inertia * omega)
            p1 = manifold_gain * (area_density * psi - m_cyl)

            # stage 2, half a substep along stage 1's slope
            w_at, p_at = omega + half_h * w1, p_man + half_h * p1
            n = w_at / TWO_PI
            n_pos = 0.0 if n < 0.0 else n
            pr = p_at / p_amb
            psi = (0.0 if pr >= 1.0 else (psi_choked if p_at > 0.0 else _too_coarse(p_at, h))
                   if pr <= pr_crit else math.sqrt(psi_gain * (pr ** exp_a - pr ** exp_b)))
            m_cyl = swept * n_pos * (p_at / rt_man)
            speed_factor = 1.0 + gain * (n / n_ref - 1.0)
            eta = 0.0 if no_fuel else peak * (1.0 - curv * (m_cyl / fuel_air - lam_opt) ** 2) * (
                floor if speed_factor < floor else speed_factor)
            p_comb = 0.0 if no_fuel else hu * (0.0 if eta < 0.0 else eta) * kept * m_f_delayed
            w2 = (p_comb - (lin * n_pos + quad * n_pos * n_pos) - load_power) / (inertia * w_at)
            p2 = manifold_gain * (area_density * psi - m_cyl)

            # stage 3, half a substep along stage 2's slope
            w_at, p_at = omega + half_h * w2, p_man + half_h * p2
            n = w_at / TWO_PI
            n_pos = 0.0 if n < 0.0 else n
            pr = p_at / p_amb
            psi = (0.0 if pr >= 1.0 else (psi_choked if p_at > 0.0 else _too_coarse(p_at, h))
                   if pr <= pr_crit else math.sqrt(psi_gain * (pr ** exp_a - pr ** exp_b)))
            m_cyl = swept * n_pos * (p_at / rt_man)
            speed_factor = 1.0 + gain * (n / n_ref - 1.0)
            eta = 0.0 if no_fuel else peak * (1.0 - curv * (m_cyl / fuel_air - lam_opt) ** 2) * (
                floor if speed_factor < floor else speed_factor)
            p_comb = 0.0 if no_fuel else hu * (0.0 if eta < 0.0 else eta) * kept * m_f_delayed
            w3 = (p_comb - (lin * n_pos + quad * n_pos * n_pos) - load_power) / (inertia * w_at)
            p3 = manifold_gain * (area_density * psi - m_cyl)

            # stage 4, a whole substep along stage 3's slope
            w_at, p_at = omega + h * w3, p_man + h * p3
            n = w_at / TWO_PI
            n_pos = 0.0 if n < 0.0 else n
            pr = p_at / p_amb
            psi = (0.0 if pr >= 1.0 else (psi_choked if p_at > 0.0 else _too_coarse(p_at, h))
                   if pr <= pr_crit else math.sqrt(psi_gain * (pr ** exp_a - pr ** exp_b)))
            m_cyl = swept * n_pos * (p_at / rt_man)
            speed_factor = 1.0 + gain * (n / n_ref - 1.0)
            eta = 0.0 if no_fuel else peak * (1.0 - curv * (m_cyl / fuel_air - lam_opt) ** 2) * (
                floor if speed_factor < floor else speed_factor)
            p_comb = 0.0 if no_fuel else hu * (0.0 if eta < 0.0 else eta) * kept * m_f_delayed
            w4 = (p_comb - (lin * n_pos + quad * n_pos * n_pos) - load_power) / (inertia * w_at)
            p4 = manifold_gain * (area_density * psi - m_cyl)

            omega += sixth_h * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
            p_man += sixth_h * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            if p_man < 1.0:
                p_man = 1.0
            if p_amb < p_man:
                p_man = p_amb

            if omega < omega_floor:
                raise EngineStallError(
                    f"engine stalled at {omega / TWO_PI:.2f} rev/s (load infeasible)")
        if not stiff:
            break

    n = omega / TWO_PI
    q_eng, lam = _outputs(n, omega, p_man, m_fi, m_f_delayed, params)
    return EngineState(q_eng=q_eng, n=n, lam=lam, manifold_pressure=p_man,
                       m_fi_prev=m_fi)
