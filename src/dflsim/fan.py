"""Ducted fan aerodynamics: blade-element strips with a uniform-inflow
momentum closure, the static duct thrust gain, and the power-matching map
from engine brake power to ducted thrust.

The fan is static (no climb velocity) with uniform inflow, so every velocity
scales with the fan speed and every inflow angle is speed-invariant: thrust
is k_T*n^2 and absorbed power k_P*n^3 exactly (the constant-C_T/C_P hover
result).  One converged operating point per geometry fixes k_T and k_P; the
power map, its inverse and its thrust sensitivities are closed forms on top
of them, valid at every fan speed, with ``solve_operating_point`` kept as the
iterative oracle.  The momentum disc is the blade annulus.

Everything here is a pure function of (speed, geometry), safe to call from
anywhere; each geometry stores only its own ``hover`` law, solved once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

TWO_PI = 2.0 * math.pi
KGF = 9.80665  # N per kgf, reporting boundary only


class InflowConvergenceError(SolverError):
    """Momentum/blade-element inflow iteration failed to converge."""


@dataclass(frozen=True)
class FanGeometry:
    """Blade and duct geometry plus the airfoil polar and drive coupling."""

    blade_radius: float = 0.35        # R, m
    root_cutout: float = 0.07         # r0, m
    blade_factor: float = 4.0         # B, blade-number corrective factor
    chord_root: float = 0.06          # m
    chord_tip: float = 0.06           # m
    twist_root: float = math.radians(30.0)   # rad
    twist_tip: float = math.radians(10.0)    # rad
    element_count: int = 32
    outlet_area_ratio: float = 1.0    # S3/S2, S2 the blade annulus
    lift_slope: float = 0.9 * TWO_PI  # 1/rad
    alpha_zero_lift: float = 0.0      # rad
    cl_max: float = 1.2
    cd_profile: float = 0.02
    air_density: float = 1.225        # kg/m^3
    pulley_ratio: float = 1.0         # n_fan / n_crankshaft
    transmission_eff: float = 0.97

    def __post_init__(self):
        if not 0.0 <= self.root_cutout < self.blade_radius:
            raise ValueError("need 0 <= r0 < R")
        if self.element_count < 16:
            raise ValueError("element_count must be >= 16")
        # the blade loads scale with B, cl_max and the lift slope, and the duct
        # gain is a cube root of S3/S2
        if not (all(v > 0.0 for v in (self.pulley_ratio, self.air_density, self.blade_factor,
                                      self.outlet_area_ratio, self.cl_max, self.lift_slope))
                and 0.0 < self.transmission_eff <= 1.0):
            raise ValueError("need positive pulley ratio, air density, blade_factor, "
                             "outlet_area_ratio, cl_max and lift_slope, "
                             "and 0 < transmission_eff <= 1")

    @functools.cached_property
    def hover(self):
        """(duct_ratio*k_T, k_P): ducted thrust over n_fan^2 and absorbed power
        over n_fan^3, from one operating point solved on first use; the
        similarity law makes both independent of the reference speed.  The power
        curve divides by k_P: ConfigError unless both are positive and finite."""
        n_ref = 100.0  # rev/s
        op = solve_operating_point(n_ref, self)
        k_thrust = duct_ratio(self) * (op.thrust_unducted / n_ref ** 2)
        k_p = op.power / n_ref ** 3
        if not (0.0 < k_thrust < math.inf and 0.0 < k_p < math.inf):
            raise ConfigError(f"need positive finite k_T and k_P, not {k_thrust:.6g}, {k_p:.6g}")
        return k_thrust, k_p

    @property
    def s2(self) -> float:
        return math.pi * (self.blade_radius ** 2 - self.root_cutout ** 2)

    @property
    def s3(self) -> float:
        return self.outlet_area_ratio * self.s2

    def element_radii(self) -> np.ndarray:
        """Midpoint radii of the blade elements."""
        edges = np.linspace(self.root_cutout, self.blade_radius,
                            self.element_count + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    def element_width(self) -> float:
        return (self.blade_radius - self.root_cutout) / self.element_count

    def chord(self, r) -> np.ndarray:
        frac = (np.asarray(r) - self.root_cutout) / (self.blade_radius - self.root_cutout)
        return self.chord_root + (self.chord_tip - self.chord_root) * frac

    def twist(self, r) -> np.ndarray:
        frac = (np.asarray(r) - self.root_cutout) / (self.blade_radius - self.root_cutout)
        return self.twist_root + (self.twist_tip - self.twist_root) * frac


@dataclass(frozen=True)
class FanOperatingPoint:
    """Converged aerodynamic state at one fan speed."""

    n_fan: float            # rev/s
    thrust_unducted: float  # T_UDF, N
    torque: float           # Q_UDF, N*m
    power: float            # P_UDF, W
    thrust_ducted: float    # T_DF, N


def _element_loads(n_fan: float, vi: float, geom: FanGeometry):
    """Per-element thrust and torque contributions (already * dr).

    The local relative wind composes rotation (2*pi*n*r) with the axial
    induced velocity; lift follows the linear polar capped at stall, drag
    is the constant profile value.  Each load is 0.5*rho*V^2*B*c*dr times
    the element's lift/drag projection (times r for torque), so no relative
    wind means no force.
    """
    r = geom.element_radii()
    dr = geom.element_width()
    u_t = TWO_PI * n_fan * r
    u_a = vi
    v_sq = u_t * u_t + u_a * u_a
    phi = np.arctan2(u_a, u_t)
    alpha = geom.twist(r) - phi
    cl = np.clip(geom.lift_slope * (alpha - geom.alpha_zero_lift),
                 -geom.cl_max, geom.cl_max)
    cd = geom.cd_profile
    c = geom.chord(r)
    common = 0.5 * geom.air_density * v_sq * geom.blade_factor * c * dr
    d_thrust = common * (cl * np.cos(phi) - cd * np.sin(phi))
    d_torque = common * (cl * np.sin(phi) + cd * np.cos(phi)) * r
    return d_thrust, d_torque


def solve_operating_point(n_fan: float, geom: FanGeometry) -> FanOperatingPoint:
    """Converge the uniform induced velocity and evaluate thrust/torque/power.

    Fixed point of v = sqrt(T(v) / (2*rho*S2)) under 0.5 relaxation, to a
    relative step of 1e-8 within 50 iterations; the static-thrust map is
    contractive here and typically converges in ~20 iterations.
    """
    if n_fan <= 0.0:
        return FanOperatingPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    vi = 0.0
    denom = 2.0 * geom.air_density * geom.s2
    converged = False
    for _ in range(50):
        d_thrust, _ = _element_loads(n_fan, vi, geom)
        thrust = max(float(np.sum(d_thrust)), 0.0)
        vi_new = math.sqrt(thrust / denom)
        if abs(vi_new - vi) <= 1e-8 * max(1.0, vi):
            vi = vi_new
            converged = True
            break
        vi += 0.5 * (vi_new - vi)
    if not converged:
        raise InflowConvergenceError(
            f"inflow iteration did not converge at n_fan={n_fan:.3f} rev/s")
    d_thrust, d_torque = _element_loads(n_fan, vi, geom)
    thrust = float(np.sum(d_thrust))
    torque = float(np.sum(d_torque))
    power = fan_power(n_fan, torque)
    return FanOperatingPoint(n_fan, thrust, torque, power,
                             duct_ratio(geom) * thrust)


def fan_power(n_fan: float, torque: float) -> float:
    """Shaft power P = 2*pi*n*Q with n in rev/s."""
    return TWO_PI * n_fan * torque


def duct_ratio(geom: FanGeometry) -> float:
    """Static thrust gain of the ducted over the open fan: 1.26*(S3/S2)^(1/3)."""
    return 1.26 * (geom.s3 / geom.s2) ** (1.0 / 3.0)


def thrust_from_power(p_b: float, geom: FanGeometry):
    """Invert the fan power curve: engine brake power -> (T_DF, n_fan).

    The fan absorbs p_b scaled by the transmission efficiency, so
    n_fan = (eta*p_b/k_P)^(1/3) and T_DF = duct_ratio*k_T*n_fan^2.
    """
    if p_b <= 0.0:
        return 0.0, 0.0
    k_thrust, k_p = geom.hover
    n_fan = (p_b * geom.transmission_eff / k_p) ** (1.0 / 3.0)
    return k_thrust * n_fan * n_fan, n_fan


def fan_load_power(n: float, geom: FanGeometry) -> float:
    """Load power (W) the engine must supply at crankshaft speed n (rev/s).

    Fan absorbed power k_P*n_fan^3 at the pulley-mapped speed, grossed up by
    the belt transmission losses.
    """
    if n <= 0.0:
        return 0.0
    return geom.hover[1] * (n * geom.pulley_ratio) ** 3 / geom.transmission_eff


def ducted_thrust_at_crank_speed(n: float, geom: FanGeometry) -> float:
    """Plant output: T_DF (N) when the crankshaft turns at n rev/s.

    The same similarity law as ``thrust_from_power``:
    duct_ratio*k_T*n_fan^2 at the pulley-mapped fan speed.
    """
    if n <= 0.0:
        return 0.0
    n_fan = n * geom.pulley_ratio
    return geom.hover[0] * n_fan * n_fan


def thrust_jacobian(q_eng: float, n: float, geom: FanGeometry):
    """Sensitivities (dT_DF/dQ_eng, dT_DF/dn) of the power-matching thrust map.

    T_DF grows as P_b^(2/3) in brake power P_b = Q_eng*2*pi*n, so
    dT_DF/dP_b = (2/3)*T_DF/P_b and the chain rule through P_b gives both
    entries.  Zero when P_b <= 0 (no power, no thrust to differentiate).
    """
    p_b = q_eng * TWO_PI * n
    if p_b <= 0.0:
        return 0.0, 0.0
    dt_dp = 2.0 * thrust_from_power(p_b, geom)[0] / (3.0 * p_b)
    return dt_dp * TWO_PI * n, dt_dp * TWO_PI * q_eng
