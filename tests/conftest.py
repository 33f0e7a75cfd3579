"""Datasets, the stock RBF model and the stock AMPC episode's QPs that
several test modules share, each built once per session.

Their arrays are read-only, so a test that wrote into one would fail instead
of changing what the next test reads.
"""

import pytest

import dflsim.mpc as mpc
from dflsim.config import load_bundle
from dflsim.dataset import TrainingConfig, generate_dataset
from dflsim.engine import EngineParams
from dflsim.fan import FanGeometry
from dflsim.networks import train_rbf
from dflsim.scenario import run_scenario


def _read_only(ds):
    s = ds.stats
    for arr in (ds.inputs, ds.targets, s.in_min, s.in_max, s.out_min, s.out_max):
        arr.flags.writeable = False
    return ds


@pytest.fixture(scope="session")
def stock_dataset():
    """The dataset ``gen-data`` writes at the stock config: 1000 samples,
    seed 123, 5 dB SNR on the 950 training rows."""
    bundle = load_bundle(None)
    return _read_only(generate_dataset(bundle.plant, bundle.fan,
                                       bundle.training))


@pytest.fixture(scope="session")
def seed19_dataset():
    """600 samples at seed 19 and 5 dB SNR, for the derivative-network and
    MPC tests."""
    return _read_only(generate_dataset(
        EngineParams(), FanGeometry(),
        TrainingConfig(sample_count=600, n_train=570, seed=19, snr_db=5.0)))


@pytest.fixture(scope="session")
def stock_rbf(stock_dataset):
    """The RBF model ``train --model rbf`` fits to ``stock_dataset``."""
    rbf = train_rbf(stock_dataset, load_bundle(None).training)
    for arr in (rbf.centers, rbf.radii, rbf.lw):
        arr.flags.writeable = False
    return rbf


@pytest.fixture(scope="session")
def stock_qps(stock_rbf):
    """(lpv, y_meas, refs, u_prev, solution) of every step of the stock AMPC
    episode, as ``simulate --controller ampc`` runs it."""
    bundle = load_bundle(None)
    qps = []
    solve_qp = mpc.solve_qp

    def recording(*args):
        qps.append((*args[:4], solve_qp(*args)))
        return qps[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc, "solve_qp", recording)
        run_scenario(bundle.plant, bundle.fan, bundle.mpc, bundle.scenario,
                     controller="ampc", rbf=stock_rbf)
    assert len(qps) == bundle.scenario.steps
    return qps
