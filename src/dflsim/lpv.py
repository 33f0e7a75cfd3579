"""Linear parameter-varying prediction model from the trained RBF network.

The Gaussian network is linear in its output weights, so its input Jacobian
has a closed form sharing the centers, radii, and weights of the trained
model: a second "derivative" network that needs no training of its own.
Evaluated at the current operating point and rescaled through the
normalization maps, its entries populate the discrete A and B matrices; the
output matrix C's thrust row is the closed-form derivative of the fan's
power-matching thrust map (T_DF grows as brake power to the 2/3 under the
hover similarity law).  The current engine torque never influences the next
state (it is an output of the power balance, not a memory), so the first
column of A is structurally zero, as is the thrust row's lambda entry in C,
and the model has no feedthrough matrix D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CONTROL_DT
from .fan import FanGeometry, thrust_jacobian
from .networks import RbfModel
from .tables import write_table


@dataclass(frozen=True)
class LpvModel:
    """Discrete linearized dynamics at one operating point, physical units."""

    a: np.ndarray          # (3, 3), column 0 exactly zero
    b: np.ndarray          # (3, 2)
    c: np.ndarray          # (2, 3), [[dT/dQ, dT/dn, 0], [0, 0, 1]]
    x0: np.ndarray         # state triple [Q_eng, n, lambda] at linearization
    u0: np.ndarray         # input pair [tps, m_fi] at linearization


def assoc_jacobian(rbf: RbfModel, p: np.ndarray) -> np.ndarray:
    """Exact Jacobian of the RBF forward map at a normalized input point.

    Row j of the derivative stack is phi_j(p) * (-2/s_j^2) * (p - c_j); the
    3x4 Jacobian is the output weights applied to that stack.
    """
    p = np.asarray(p, dtype=float)
    radii_sq = rbf.radii ** 2
    diff = p - rbf.centers                                   # (J, 4)
    phi = np.exp(-(diff * diff).sum(axis=1) / radii_sq)
    stack = (phi * (-2.0 / radii_sq))[:, None] * diff        # (J, 4)
    return rbf.lw @ stack                                    # (3, 4)


def build_lpv(rbf: RbfModel, geom: FanGeometry, x0: np.ndarray,
              u0: np.ndarray) -> LpvModel:
    """Assemble the discrete LPV matrices at a measured operating point.

    The network input order is [tps, m_fi, n, lambda]; its Jacobian columns
    split into the B matrix (input pair) and A columns 2..3 (speed and
    lambda), with A's torque column pinned to zero.  The Jacobian reaches
    physical units by the chain rule through both normalization maps:
    outputs stretch by half their span, inputs shrink by theirs (both maps
    are affine, so this is exact).  C's thrust row is the fan map's
    closed-form sensitivities at (Q_eng, n).
    """
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    q_eng, n, lam = x0.tolist()
    stats = rbf.stats
    in_span = stats.in_max - stats.in_min
    p_norm = 2.0 * (np.array([*u0.tolist(), n, lam]) - stats.in_min) / in_span - 1.0
    j_phys = (assoc_jacobian(rbf, p_norm)
              * (0.5 * (stats.out_max - stats.out_min))[:, None]
              * (2.0 / in_span)[None, :])

    a = np.zeros((3, 3))
    a[:, 1:] = j_phys[:, 2:]    # d(next state)/d[n, lambda]
    b = j_phys[:, :2].copy()    # d(next state)/d[tps, m_fi]

    dt_dq, dt_dn = thrust_jacobian(q_eng, n, geom)
    c = np.array([[dt_dq, dt_dn, 0.0], [0.0, 0.0, 1.0]])
    return LpvModel(a=a, b=b, c=c, x0=x0, u0=u0)


LPV_CSV_HEADER = ",".join(
    ["t", "q0", "n0", "lam0", "tps0", "mfi0"]
    + [f"a{i}{j}" for i in range(3) for j in range(3)]
    + [f"b{i}{j}" for i in range(3) for j in range(2)]
    + [f"c{i}{j}" for i in range(2) for j in range(3)])


def save_lpv_trace(trace, path) -> None:
    """One row per model: row k's time ``k * CONTROL_DT``, then x0, u0, A, B
    and C row-major."""
    write_table(path, LPV_CSV_HEADER, (
        np.concatenate([[k * CONTROL_DT], m.x0, m.u0, m.a.ravel(), m.b.ravel(),
                        m.c.ravel()]) for k, m in enumerate(trace)))
