"""``build_lpv`` against its oracle on drawn models and operating points,
beyond the stock episode's 250."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dflsim.dataset import NormStats  # noqa: E402
from dflsim.fan import FanGeometry  # noqa: E402
from dflsim.lpv import build_lpv  # noqa: E402
from dflsim.networks import RbfModel  # noqa: E402
from test_lpv import lpv_bytes, oracle_build_lpv  # noqa: E402

G = FanGeometry()


def vectors(size, lo, hi):
    return arrays(np.float64, size, elements=st.floats(lo, hi))


@st.composite
def models_and_points(draw):
    """An RBF model with positive radii and input spans, and an operating
    point whose network input lies within a quarter span of the model's box."""
    j = draw(st.integers(1, 8))
    in_min, in_span = draw(vectors(4, -100, 100)), draw(vectors(4, 1e-3, 1e3))
    out_min, out_span = draw(vectors(3, -100, 100)), draw(vectors(3, 0, 1e3))
    rbf = RbfModel(centers=draw(vectors((j, 4), -1.5, 1.5)),
                   radii=draw(vectors(j, 0.05, 4.0)),
                   lw=draw(vectors((3, j), -50, 50)),
                   stats=NormStats(in_min, in_min + in_span,
                                   out_min, out_min + out_span))
    p_phys = in_min + (draw(vectors(4, -1.5, 1.5)) + 1.0) / 2.0 * in_span
    x0 = np.array([draw(st.floats(-5, 60)), p_phys[2], p_phys[3]])
    return rbf, x0, p_phys[:2]


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(case=models_and_points())
def test_build_lpv_matches_oracle_bit_for_bit(case):
    rbf, x0, u0 = case
    lpv = build_lpv(rbf, G, x0, u0)
    assert lpv_bytes(lpv) == lpv_bytes(oracle_build_lpv(rbf, G, x0, u0))
    assert np.array_equal(lpv.a[:, 0], np.zeros(3))
    assert lpv.c[0, 2] == 0.0
    assert np.array_equal(lpv.c[1], np.array([0.0, 0.0, 1.0]))
