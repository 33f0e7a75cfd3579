"""Exact bytes of the CSV files the pipeline hands from stage to stage.

The determinism check compares trajectory files byte for byte and later
stages read what earlier ones wrote, so each writer is frozen against a
literal here.
"""

from functools import partial

import numpy as np
import pytest

from dflsim.dataset import (Dataset, compute_stats, load_dataset_csv,
                            save_dataset_csv)
from dflsim.lpv import LpvModel, save_lpv_trace
from dflsim.networks import load_rbf
from dflsim.scenario import (TrajectoryRecord, load_trajectory_csv,
                             save_trajectory_csv)
from dflsim.tables import FileFormatError, load_blocks

DATASET_TEXT = (
    "tps,m_fi,n,lambda,Q_next,n_next,lambda_next\n"
    "20.0,0.00125,37.5,0.82,12.5,40.125,0.9\n"
    "45.5,0.0031,60.25,1.0000000000000002,-0.1,61.0,1e-05\n")

TRAJECTORY_TEXT = (
    "step,time_s,thrust_ref_kgf,lambda_ref,thrust_kgf,lambda,thrust_meas_kgf,"
    "lambda_meas,tps_pct,m_fi_kg_s,q_eng_nm,n_rev_s,cost,qp_iterations\n"
    "0,0.0,10.0,0.82,9.875,0.8,10.1,0.81,19.5,0.00124,3.25,37.0,0.0,0\n"
    "1,0.1,0.3333333333333333,0.82,10.5,0.83,10.25,0.825,21.0,0.0013,4.5,"
    "37.5,1234.5,3\n")

LPV_TEXT = (
    "t,q0,n0,lam0,tps0,mfi0,a00,a01,a02,a10,a11,a12,a20,a21,a22,"
    "b00,b01,b10,b11,b20,b21,c00,c01,c02,c10,c11,c12\n"
    "0.0,12.0,65.0,0.9,30.0,0.0028,0.0,0.5,-0.25,0.0,0.75,0.125,0.0,0.001,"
    "0.5,0.2,1500.0,0.05,9000.0,-0.001,-40.0,12.0,3.5,0.0,0.0,0.0,1.0\n"
    "0.1,12.0,65.0,0.9,30.0,0.0028,0.0,0.5,-0.25,0.0,0.75,0.125,0.0,0.001,"
    "0.5,0.2,1500.0,0.05,9000.0,-0.001,-40.0,12.0,3.5,0.0,0.0,0.0,1.0\n")

load_dataset = partial(load_dataset_csv, n_train=1)


def tiny_dataset():
    inputs = np.array([[20.0, 0.00125, 37.5, 0.82],
                       [45.5, 0.0031, 60.25, 1.0000000000000002]])
    targets = np.array([[12.5, 40.125, 0.9], [-0.1, 61.0, 1e-05]])
    return Dataset(inputs=inputs, targets=targets, n_train=1,
                   stats=compute_stats(inputs, targets, 1))


def tiny_trajectory():
    return [TrajectoryRecord(0, 0.0, np.float64(10.0), 0.82, 9.875, 0.8,
                             10.1, 0.81, 19.5, 0.00124, 3.25, 37.0, 0.0, 0),
            TrajectoryRecord(1, 0.1, np.float64(1.0) / 3.0, 0.82, 10.5, 0.83,
                             10.25, 0.825, 21.0, 0.0013, 4.5, 37.5, 1234.5, 3)]


def test_dataset_bytes(tmp_path):
    path = tmp_path / "dataset.csv"
    ds = tiny_dataset()
    save_dataset_csv(ds, path)
    assert path.read_text() == DATASET_TEXT
    back = load_dataset_csv(path, n_train=1)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.targets, ds.targets)


def test_trajectory_bytes(tmp_path):
    path = tmp_path / "trajectory.csv"
    records = tiny_trajectory()
    save_trajectory_csv(records, path)
    assert path.read_text() == TRAJECTORY_TEXT
    back = load_trajectory_csv(path)
    assert back == records
    assert all(type(r.step) is int and type(r.qp_iterations) is int
               for r in back)


def test_lpv_trace_bytes(tmp_path):
    path = tmp_path / "lpv_trace.csv"
    lpv = LpvModel(a=np.array([[0.0, 0.5, -0.25], [0.0, 0.75, 0.125],
                               [0.0, 1e-3, 0.5]]),
                   b=np.array([[0.2, 1500.0], [0.05, 9000.0], [-0.001, -40.0]]),
                   c=np.array([[12.0, 3.5, 0.0], [0.0, 0.0, 1.0]]),
                   x0=np.array([12.0, 65.0, 0.9]),
                   u0=np.array([30.0, 0.0028]))
    # row k is stamped k control intervals in
    save_lpv_trace([lpv, lpv], path)
    assert path.read_text() == LPV_TEXT


def test_dataset_rejects_wrong_header(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text(DATASET_TEXT.replace("Q_next", "torque_next"))
    with pytest.raises(ValueError):
        load_dataset_csv(path, n_train=1)


def test_trajectory_rejects_wrong_header(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text(TRAJECTORY_TEXT.replace("cost", "objective"))
    with pytest.raises(ValueError):
        load_trajectory_csv(path)


@pytest.mark.parametrize("name, text, load", [
    ("dataset.csv", DATASET_TEXT.replace("Q_next", "torque_next"),
     load_dataset),
    ("dataset.csv", DATASET_TEXT.replace("12.5,", "twelve,"), load_dataset),
    ("dataset.csv", DATASET_TEXT.replace(",0.9\n", "\n"), load_dataset),
    ("trajectory.csv", TRAJECTORY_TEXT.replace("cost", "objective"),
     load_trajectory_csv),
    ("rbf_model.txt", "# CENTERS 2 4\n1.0 2.0 3.0 4.0\n", load_blocks),
    ("rbf_model.txt", "# CENTERS 1 4\n1.0 2.0 3.0\n", load_blocks),
    ("rbf_model.txt", "# CENTERS one 4\n", load_blocks),
    ("rbf_model.txt", "# CENTERS 1 4\n1.0 2.0 3.0 4.0\n", load_rbf),
])
def test_bad_file_raises_file_format_error_naming_it(tmp_path, name, text,
                                                     load):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileFormatError, match=name):
        load(path)


@pytest.mark.parametrize("name, load", [("dataset.csv", load_dataset),
                                        ("trajectory.csv", load_trajectory_csv),
                                        ("rbf_model.txt", load_blocks)])
def test_file_not_utf8_raises_file_format_error_naming_it(tmp_path, name, load):
    # the byte that is not UTF-8 lies in the header, or the first block's
    path = tmp_path / name
    path.write_bytes(b"# CENTERS 1 4\xff\n1.0 2.0 3.0 4.0\n")
    with pytest.raises(FileFormatError, match=f"{name}: not UTF-8 text"):
        load(path)


@pytest.mark.parametrize("name, text, load, cell", [
    ("dataset.csv", DATASET_TEXT.replace("37.5,", "nan,"), load_dataset,
     "row 1, column 3 holds nan"),
    ("trajectory.csv", TRAJECTORY_TEXT.replace("1234.5", "inf"),
     load_trajectory_csv, "row 2, column 13 holds inf"),
    ("rbf_model.txt", "# CENTERS 1 4\n1.0 2.0 3.0 4.0\n# LW 2 2\n1.0 2.0\n"
     "3.0 -inf\n", load_blocks, "block LW row 2, column 2 holds -inf"),
])
def test_non_finite_cell_raises_file_format_error_naming_it(tmp_path, name, text,
                                                            load, cell):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(FileFormatError, match=f"{name}: {cell}, not a finite"):
        load(path)
