"""Property test: every finite float64 matrix survives both on-disk formats
bit for bit."""

import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dflsim.tables import load_blocks, read_table, save_blocks, write_table  # noqa: E402

MAX = sys.float_info.max
TINY = 5e-324    # the smallest subnormal


def matrices(min_cols):
    """Finite float64 matrices of up to 6 x 6, -0.0 and subnormals included."""
    shape = st.tuples(st.integers(0, 6), st.integers(min_cols, 6))
    return arrays(np.float64, shape,
                  elements=st.floats(allow_nan=False, allow_infinity=False))


edges = np.array([[-0.0, 0.0, TINY, -TINY],
                  [2.2250738585072009e-308, -1e-310, MAX, -MAX]])


def bits(mat):
    return mat.shape, mat.dtype, mat.tobytes()


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(mat=matrices(min_cols=1))     # a table row holds at least one cell
@example(mat=edges)
def test_table_round_trip_keeps_every_bit(folder, mat):
    header = ",".join(f"c{i}" for i in range(mat.shape[1]))
    path = folder / "table.csv"
    write_table(path, header, mat)
    assert bits(read_table(path, header)) == bits(mat)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(mat=matrices(min_cols=0))
@example(mat=edges)
def test_block_round_trip_keeps_every_bit(folder, mat):
    path = folder / "blocks.txt"
    blocks = {"FIRST": mat, "SECOND": mat[::-1].T}
    save_blocks(path, blocks)
    back = load_blocks(path)
    assert list(back) == list(blocks)
    assert [bits(m) for m in back.values()] == [bits(m) for m in blocks.values()]
