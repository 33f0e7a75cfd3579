"""Fan aerodynamics: blade-element sums, duct gain, power inversion.

The closed-form power map and Jacobian are checked against the iterative
``solve_operating_point`` and a bisection over it, the route they replace.
"""

import dataclasses
import math

import numpy as np
import pytest

import dflsim.fan
from dflsim.fan import (FanGeometry, _element_loads, duct_ratio,
                        ducted_thrust_at_crank_speed, fan_load_power,
                        fan_power, solve_operating_point, thrust_from_power,
                        thrust_jacobian)

G = FanGeometry()
# 33 elements put the middle one's midpoint at r = 0.21 m
G33 = FanGeometry(element_count=33)
MID = 16
N_FAN_TOP = 250.0  # rev/s, top of the oracle's bisection bracket


def element_coeffs(n_fan, vi):
    """(T_c, Q_c) of the middle element: its loads over 0.5*rho*V^2*B*dr."""
    r = G33.element_radii()[MID]
    v_sq = (2.0 * math.pi * n_fan * r) ** 2 + vi * vi
    d_thrust, d_torque = _element_loads(n_fan, vi, G33)
    prefactor = 0.5 * G33.air_density * v_sq * G33.blade_factor \
        * G33.element_width()
    return d_thrust[MID] / prefactor, d_torque[MID] / prefactor


def _oracle_thrust_from_power(p_b, geom):
    """(T_DF, n_fan) by bisecting the iterative power curve to the last bit."""
    target = p_b * geom.transmission_eff
    lo, hi = 0.0, N_FAN_TOP
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if solve_operating_point(mid, geom).power < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return solve_operating_point(mid, geom).thrust_ducted, mid


def _oracle_power_map(q_eng, n, geom):
    """T_DF (N) reached when brake power Q_eng*2*pi*n is fed to the fan."""
    return _oracle_thrust_from_power(q_eng * 2.0 * math.pi * n, geom)[0]


class TestBladeElementCoeffs:
    def test_no_relative_wind_no_force(self):
        d_thrust, d_torque = _element_loads(0.0, 0.0, G33)
        assert not np.any(d_thrust) and not np.any(d_torque)

    def test_zero_lift_angle_leaves_only_drag(self):
        # choose the axial inflow that puts the mid-span element exactly at
        # its zero-lift angle: thrust contribution <= 0, torque > 0
        r, n = G33.element_radii()[MID], 80.0
        twist = float(G33.twist(r))
        vi = 2.0 * math.pi * n * r * math.tan(twist)
        t_c, q_c = element_coeffs(n, vi)
        assert t_c == pytest.approx(-0.06 * 0.02 * math.sin(twist), rel=1e-12)
        assert q_c == pytest.approx(0.06 * 0.02 * math.cos(twist) * r,
                                    rel=1e-12)
        assert t_c < 0.0 < q_c

    def test_mid_span_hand_arithmetic(self):
        # manual polar evaluation at r=0.21 m, n=80 rev/s, vi=15 m/s
        r, n, vi = G33.element_radii()[MID], 80.0, 15.0
        u_t = 2.0 * math.pi * n * r
        phi = math.atan2(vi, u_t)
        frac = (r - 0.07) / (0.35 - 0.07)
        twist = math.radians(30.0) + (math.radians(10.0) - math.radians(30.0)) * frac
        cl = min(max(0.9 * 2.0 * math.pi * (twist - phi), -1.2), 1.2)
        t_hand = 0.06 * (cl * math.cos(phi) - 0.02 * math.sin(phi))
        q_hand = 0.06 * (cl * math.sin(phi) + 0.02 * math.cos(phi)) * r
        t_c, q_c = element_coeffs(n, vi)
        assert t_c == pytest.approx(t_hand, rel=1e-12)
        assert q_c == pytest.approx(q_hand, rel=1e-12)
        assert t_hand == pytest.approx(0.06967117592668111, rel=1e-12)


class TestThrustAndTorque:
    def test_zero_speed(self):
        op = solve_operating_point(0.0, G)
        assert op.thrust_unducted == 0.0
        assert op.torque == 0.0

    def test_monotone_in_speed(self):
        ops = [solve_operating_point(n, G) for n in np.linspace(10.0, 150.0, 15)]
        thrusts = [op.thrust_unducted for op in ops]
        torques = [op.torque for op in ops]
        assert all(b > a for a, b in zip(thrusts, thrusts[1:]))
        assert all(b > a for a, b in zip(torques, torques[1:]))

    def test_grid_convergence(self):
        op32 = solve_operating_point(90.0, G)
        op64 = solve_operating_point(90.0, FanGeometry(element_count=64))
        t32, t64 = op32.thrust_unducted, op64.thrust_unducted
        q32, q64 = op32.torque, op64.torque
        assert abs(t64 - t32) / t32 < 0.005
        assert abs(q64 - q32) / q32 < 0.005


class TestFanPower:
    def test_zero_speed(self):
        assert fan_power(0.0, 100.0) == 0.0

    def test_unit_case(self):
        assert fan_power(1.0, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_identity_at_operating_point(self):
        op = solve_operating_point(90.0, G)
        assert op.power == 2.0 * math.pi * 90.0 * op.torque


class TestDuctRatio:
    def test_equal_areas(self):
        assert duct_ratio(G) == 1.26

    def test_cube_root_of_eight(self):
        assert duct_ratio(FanGeometry(outlet_area_ratio=8.0)) == \
            pytest.approx(2.52, rel=1e-14)

    def test_half_area_hand_value(self):
        assert duct_ratio(FanGeometry(outlet_area_ratio=0.5)) == \
            pytest.approx(1.0000626627399658, rel=1e-12)

    def test_cube_root_scaling(self):
        k = 1.7
        base = duct_ratio(FanGeometry(outlet_area_ratio=2.0))
        scaled = duct_ratio(FanGeometry(outlet_area_ratio=2.0 * k ** 3))
        assert scaled == pytest.approx(k * base, rel=1e-12)


class TestHoverSimilarityLaw:
    """The static, uniform-inflow fan obeys T = k_T*n^2 and P = k_P*n^3.

    Every closed form in dflsim.fan rests on this; a climb velocity or a
    non-uniform inflow model would break it, and this test with it.
    """

    @pytest.mark.parametrize("geom", [
        G, FanGeometry(twist_root=math.radians(24.0), chord_tip=0.04,
                       outlet_area_ratio=1.4, element_count=20)],
        ids=["stock", "reshaped"])
    def test_oracle_ratios_constant_over_speed(self, geom):
        ops = [solve_operating_point(n, geom) for n in np.geomspace(5.0, 240.0, 13)]
        k_t = np.array([op.thrust_unducted / op.n_fan ** 2 for op in ops])
        k_p = np.array([op.power / op.n_fan ** 3 for op in ops])
        assert np.max(np.abs(k_t / k_t[0] - 1.0)) <= 1e-12
        assert np.max(np.abs(k_p / k_p[0] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("geom", [
        G, FanGeometry(pulley_ratio=1.3, transmission_eff=0.9)],
        ids=["stock", "geared"])
    def test_fan_load_power_matches_oracle(self, geom):
        for n in (5.0, 40.0, 90.0, 180.0):
            op = solve_operating_point(n * geom.pulley_ratio, geom)
            assert fan_load_power(n, geom) == pytest.approx(
                op.power / geom.transmission_eff, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p_b", [5.0e2, 2.0e3, 1.0e4, 3.0e4])
    def test_thrust_from_power_matches_bisection(self, p_b):
        t_df, n_fan = thrust_from_power(p_b, G)
        t_ref, n_ref = _oracle_thrust_from_power(p_b, G)
        assert n_fan == pytest.approx(n_ref, rel=1e-12, abs=0.0)
        assert t_df == pytest.approx(t_ref, rel=1e-12, abs=0.0)


class TestHoverCoefficients:
    """``FanGeometry.hover`` is solved once per geometry object, on first use."""

    def test_solved_once_per_instance(self, monkeypatch):
        calls = []

        def counting(n_fan, geom):
            calls.append(geom)
            return solve_operating_point(n_fan, geom)

        monkeypatch.setattr(dflsim.fan, "solve_operating_point", counting)
        geom = FanGeometry()
        for n in (20.0, 90.0):
            ducted_thrust_at_crank_speed(n, geom)
            fan_load_power(n, geom)
            thrust_from_power(n * 100.0, geom)
            thrust_jacobian(15.0, n, geom)
        assert calls == [geom]
        geared = dataclasses.replace(geom, pulley_ratio=1.3)
        assert geared.hover == geom.hover
        assert calls == [geom, geared] and calls[1] is geared

    @pytest.mark.parametrize("geom", [
        G, FanGeometry(outlet_area_ratio=1.4, pulley_ratio=1.3,
                       transmission_eff=0.9)], ids=["stock", "reshaped"])
    def test_equals_oracle_product_bit_for_bit(self, geom):
        # duct_ratio*k_T*n*n multiplies the first two factors first, so
        # storing their product keeps every output bit
        op = solve_operating_point(100.0, geom)
        k_t, k_p = op.thrust_unducted / 100.0 ** 2, op.power / 100.0 ** 3
        assert dataclasses.replace(geom).hover == (duct_ratio(geom) * k_t, k_p)
        for n in (5.0, 37.0, 90.0, 140.0):
            n_fan = n * geom.pulley_ratio
            assert ducted_thrust_at_crank_speed(n, geom) \
                == duct_ratio(geom) * k_t * n_fan * n_fan
            assert fan_load_power(n, geom) \
                == k_p * n_fan ** 3 / geom.transmission_eff

    def test_not_a_field(self):
        assert "hover" not in {f.name for f in dataclasses.fields(FanGeometry)}
        fresh = FanGeometry()
        assert G.hover and fresh == G and hash(fresh) == hash(G)


class TestThrustFromPower:
    def test_zero_power(self):
        assert thrust_from_power(0.0, G) == (0.0, 0.0)

    @pytest.mark.parametrize("p_b", [2.0e3, 1.0e4, 3.0e4])
    def test_round_trip_residual(self, p_b):
        _, n_fan = thrust_from_power(p_b, G)
        op = solve_operating_point(n_fan, G)
        assert abs(op.power - p_b * G.transmission_eff) / (
            p_b * G.transmission_eff) < 1e-6

    def test_monotone_in_power(self):
        thrusts = [thrust_from_power(p, G)[0]
                   for p in (1e3, 5e3, 1e4, 2e4, 4e4)]
        assert all(b > a for a, b in zip(thrusts, thrusts[1:]))


class TestFanLoadPower:
    def test_zero_speed(self):
        assert fan_load_power(0.0, G) == 0.0

    def test_monotone(self):
        vals = [fan_load_power(n, G) for n in (20.0, 50.0, 90.0, 130.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_equals_fan_power_over_transmission(self):
        n = 75.0
        op = solve_operating_point(n * G.pulley_ratio, G)
        assert fan_load_power(n, G) == pytest.approx(
            op.power / G.transmission_eff, rel=1e-12)


class TestThrustJacobian:
    def test_zero_torque_branch(self):
        dq, dn = thrust_jacobian(0.0, 50.0, G)
        assert dn == 0.0

    @pytest.mark.parametrize("q0, n0", [(5.0, 40.0), (20.0, 80.0),
                                        (30.0, 105.0), (12.0, 130.0)])
    def test_matches_oracle_central_differences(self, q0, n0):
        dq, dn = thrust_jacobian(q0, n0, G)
        hq, hn = q0 * 1e-4, n0 * 1e-4
        fd_q = (_oracle_power_map(q0 + hq, n0, G)
                - _oracle_power_map(q0 - hq, n0, G)) / (2.0 * hq)
        fd_n = (_oracle_power_map(q0, n0 + hn, G)
                - _oracle_power_map(q0, n0 - hn, G)) / (2.0 * hn)
        assert dq == pytest.approx(fd_q, rel=1e-6)
        assert dn == pytest.approx(fd_n, rel=1e-6)

    @pytest.mark.parametrize("q0, n0", [(0.0, 50.0), (-3.0, 50.0), (20.0, 0.0)])
    def test_no_brake_power_gives_exact_zeros(self, q0, n0):
        assert thrust_jacobian(q0, n0, G) == (0.0, 0.0)

    def test_matches_chain_rule_through_power(self):
        # T_DF depends on (Q, n) only through P_b = 2*pi*n*Q, so the entries
        # must equal dT/dP evaluated on the 1-D power map times the partials
        # of P_b, and their ratio must be exactly Q/n
        q0, n0 = 20.0, 80.0
        dq, dn = thrust_jacobian(q0, n0, G)
        p_b = 2.0 * math.pi * n0 * q0
        h = p_b * 1e-4
        t_plus = thrust_from_power(p_b + h, G)[0]
        t_minus = thrust_from_power(p_b - h, G)[0]
        dt_dp = (t_plus - t_minus) / (2.0 * h)
        assert dq == pytest.approx(dt_dp * 2.0 * math.pi * n0, rel=1e-6)
        assert dn == pytest.approx(dt_dp * 2.0 * math.pi * q0, rel=1e-6)
        assert dn / dq == pytest.approx(q0 / n0, rel=1e-9)

    def test_nonnegative_over_operating_range(self):
        for q0, n0 in [(5.0, 40.0), (15.0, 70.0), (30.0, 105.0)]:
            dq, dn = thrust_jacobian(q0, n0, G)
            assert dq >= 0.0 and dn >= 0.0


class TestGeometryValidation:
    def test_bad_cutout(self):
        with pytest.raises(ValueError):
            FanGeometry(root_cutout=0.4)

    def test_element_count_floor(self):
        with pytest.raises(ValueError):
            FanGeometry(element_count=8)

    def test_crank_speed_thrust_consistency(self):
        for geom in (G, FanGeometry(pulley_ratio=1.5)):
            for n in (5.0, 37.0, 90.0, 140.0):
                op = solve_operating_point(n * geom.pulley_ratio, geom)
                assert ducted_thrust_at_crank_speed(n, geom) \
                    == pytest.approx(op.thrust_ducted, rel=1e-12, abs=0.0)
            for n in (0.0, -3.0):
                assert ducted_thrust_at_crank_speed(n, geom) == 0.0
