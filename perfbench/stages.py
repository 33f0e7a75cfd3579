"""The benchmark's workloads, driven through ``dflsim.cli`` in-process.

Each workload is one closed loop with a single caller: the plant advances
only after the command is applied.  Both start from the same set-up, a
controller-ready model: ``gen-data`` and ``train --model rbf`` at the stock
seeds, made ``SETUPS`` times per run (every copy byte-identical).

* ``ampc_takeoff``: ``simulate --controller ampc`` with
  ``scenario.seed = --seed``, repeated while another episode fits in
  ``--seconds`` (at least once).  The model is relinearised every step.
* ``identify``: ``train`` rbf, mlp and elman on the set-up's dataset with
  ``training.model_seed = --seed`` (network initialisation), repeated the
  same way.  The excitation data stay at the stock seed, so every seed does
  the same amount of plant work.

Every stage is timed twice: wall clock and the process's CPU time
(``time.process_time``).  The gated metrics use CPU time, which leaves out
the time the process waits for a CPU on a shared host; the wall figures go
to the report lines.  ``Run.check`` records every correctness check, and
each failed check counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import io
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

import numpy as np

import dflsim.cli
import dflsim.dataset
import dflsim.scenario
from dflsim.config import load_bundle
from dflsim.dataset import denormalize, load_dataset_csv, normalize
from dflsim.networks import load_blocks, load_rbf, mape, rbf_forward
from dflsim.scenario import load_trajectory_csv

from spans import StepTimer

STOCK = load_bundle(None)
WORKLOADS = ("ampc_takeoff", "identify")
CONTROLLER = "ampc"
SETUPS = 3                           # controller-ready models made per run
SHORT_STEPS = 30                     # length of the determinism re-run
MAPE_BOUND_PCT = 2.5                 # acceptance criterion 4, per output
THRUST_BOUND_PCT = 5.0               # acceptance criterion 5
LAMBDA_BOUND_PCT = 3.5


class StageFailed(RuntimeError):
    """A CLI stage that later stages depend on did not exit 0."""


class Timing(NamedTuple):
    wall: float
    cpu: float

    def __add__(self, other):
        return Timing(self.wall + other.wall, self.cpu + other.cpu)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def same_files(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and sha256(a) == sha256(b)


def rbf_val_mape(dataset: Path, model: Path) -> np.ndarray:
    """Validation MAPE (%) per output of a saved RBF on a saved dataset."""
    ds = load_dataset_csv(dataset, n_train=STOCK.training.n_train)
    rbf = load_rbf(model)
    st = rbf.stats
    pred = np.array([rbf_forward(rbf, normalize(x, st.in_min, st.in_max))
                     for x in ds.val_inputs])
    return mape(denormalize(pred, st.out_min, st.out_max), ds.val_targets)


def _step_capped(result) -> bool:
    """A controller step whose QP hit its iteration cap is a failed step."""
    return bool(result[1].capped)


class Run:
    """One pass of a workload in its own directory, with its checks."""

    def __init__(self, workload: str, seed: int, workdir: Path, tracer=None,
                 checks=None):
        self.workload, self.seed = workload, seed
        self.dir = workdir
        self.model_dir = workdir / "model"
        self.tracer = tracer
        self.checks: dict[str, bool] = {} if checks is None else checks
        self.steps_attempted = 0
        self.steps_failed = 0

    def check(self, name: str, ok) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def stage(self, span: str, argv, required=True) -> Timing:
        """Run one CLI stage in-process and time it."""
        argv = [str(a) for a in argv]
        log = io.StringIO()
        ctx = self.tracer.span(span) if self.tracer else nullcontext()
        w0, c0 = perf_counter(), process_time()
        try:
            with redirect_stdout(log), redirect_stderr(log), ctx:
                code = dflsim.cli.main(argv)
        except Exception:               # a stage boundary: record and report
            code = None
            log.write(traceback.format_exc())
        elapsed = Timing(perf_counter() - w0, process_time() - c0)
        if not self.check(f"{span} exits 0", code == 0):
            sys.stderr.write(f"stage {' '.join(argv)} -> {code}\n{log.getvalue()}")
            if required:
                raise StageFailed(span)
        return elapsed

    def config(self, name: str, text: str):
        """``--config`` arguments for an INI file holding ``text``."""
        ini = self.dir / f"{name}.ini"
        ini.parent.mkdir(parents=True, exist_ok=True)
        ini.write_text(text)
        return ("--config", ini)

    # ------------------------------------------------------------------ set-up

    def setup(self, indices) -> list[Timing]:
        """``gen-data`` + ``train --model rbf`` at the stock seeds, once per index.

        Copy 0 goes to ``model/`` and is the one the workload uses; every
        other copy must reproduce its dataset and model byte for byte.
        """
        times = []
        for i in indices:
            out = self.model_dir if i == 0 else self.dir / f"setup{i}"
            times.append(
                self.stage("cli.gen_data", ["gen-data", "--out", out])
                + self.stage("cli.train_rbf",
                             ["train", "--model", "rbf", "--out", out]))
            if i:
                self.check("repeated set-up is byte-identical", all(
                    same_files(out / name, self.model_dir / name)
                    for name in ("dataset.csv", "rbf_model.txt")))
        return times

    # ------------------------------------------------------------------ ampc

    def trajectory(self, out: Path) -> Path:
        return out / f"trajectory_{CONTROLLER}.csv"

    def simulate(self, out: Path, config=()) -> Timing:
        return self.stage("cli.simulate",
                          ["simulate", "--controller", CONTROLLER,
                           "--seed", self.seed, "--out", out, "--model-file",
                           self.model_dir / "rbf_model.txt", *config],
                          required=False)

    def episodes(self, seconds: float, timed: bool):
        """``simulate`` while another episode fits in ``seconds`` (at least one).

        Returns the episode timings and the control-step timer.
        """
        timer = StepTimer(dflsim.scenario, f"{CONTROLLER}_step",
                          observe=_step_capped)
        episodes: list[Timing] = []
        t0 = perf_counter()
        with timer.active() if timed else nullcontext():
            while not episodes or (perf_counter() - t0
                                   + max(e.wall for e in episodes) <= seconds):
                out = self.dir / f"sim{len(episodes)}"
                episodes.append(self.simulate(out))
                self._count_steps(out)
        return episodes, timer

    def _count_steps(self, out: Path):
        steps = STOCK.scenario.steps
        path = self.trajectory(out)
        done = len(load_trajectory_csv(path)) if path.exists() else 0
        self.steps_attempted += steps
        self.steps_failed += steps - done

    def check_short_rerun(self):
        """Re-run the first ``SHORT_STEPS`` steps; they must repeat exactly.

        Rows past ``SHORT_STEPS - n2`` see the reference clamped at the end of
        the shorter episode, so only the rows before them are compared.
        """
        out = self.dir / "short"
        self.simulate(out, self.config(
            "short", f"[scenario]\nsteps = {SHORT_STEPS}\n"))
        keep = SHORT_STEPS - STOCK.mpc.n2
        full, short = self.trajectory(self.dir / "sim0"), self.trajectory(out)
        self.check("episode prefix repeats exactly",
                   full.exists() and short.exists()
                   and full.read_text().splitlines()[:keep + 1]
                   == short.read_text().splitlines()[:keep + 1])

    # ------------------------------------------------------------------ identify

    def train_pass(self, index: int, timed: bool):
        """``train`` rbf, mlp and elman on the set-up's dataset.

        Returns the stage timings and a timer on the ``train_elman`` binding
        (its observed value is the number of epochs run).
        """
        out = self.dir / f"train{index}"
        args = ("--out", out, "--data", self.model_dir / "dataset.csv",
                *self.config("identify", f"[training]\nmodel_seed = {self.seed}\n"))
        timer = StepTimer(dflsim.cli, "train_elman", observe=lambda r: len(r[1]))
        times = {"train_rbf": self.stage("cli.train_rbf",
                                         ["train", "--model", "rbf", *args]),
                 "train_mlp": self.stage("cli.train_mlp",
                                         ["train", "--model", "mlp", *args])}
        with timer.active() if timed else nullcontext():
            times["train_elman"] = self.stage(
                "cli.train_elman", ["train", "--model", "elman", *args])
        return out, times, timer

    def train_passes(self, seconds: float, timed: bool):
        """``train_pass`` while another pass fits in ``seconds`` (at least one)."""
        passes = []
        t0 = perf_counter()
        while not passes or (perf_counter() - t0 + max(
                sum(t.wall for t in p[1].values()) for p in passes) <= seconds):
            passes.append(self.train_pass(len(passes), timed))
        return passes

    # ------------------------------------------------------------------ checks

    def check_model(self, model: Path, stock_config: bool) -> float:
        """RBF validation MAPE; criterion 4's bound is stated for the stock config."""
        err = rbf_val_mape(self.model_dir / "dataset.csv", model)
        self.check("rbf validation MAPE finite", np.all(np.isfinite(err)))
        if stock_config:
            self.check(f"rbf validation MAPE <= {MAPE_BOUND_PCT}% per output "
                       "(stock config)", np.all(err <= MAPE_BOUND_PCT))
        return float(np.max(err))

    def check_episode(self, out: Path) -> dict:
        """Inputs in the box every step; criterion 5's steady-state bounds."""
        path = self.trajectory(out)
        if not self.check("trajectory written", path.exists()):
            return {}
        cfg = STOCK.mpc
        records = load_trajectory_csv(path)
        self.check("inputs inside the box", all(
            cfg.tps_bounds[0] <= r.tps <= cfg.tps_bounds[1]
            and cfg.mf_bounds[0] <= r.m_fi <= cfg.mf_bounds[1] for r in records))
        metrics = dflsim.scenario.compute_metrics(records, cfg, STOCK.scenario)
        ts, ls = metrics["thrust_steady"], metrics["lambda_steady"]
        if not self.check("steady segments present", ts and ls):
            return {}
        self.check(f"steady thrust within +-{THRUST_BOUND_PCT}%",
                   max(abs(ts["min"]), abs(ts["max"])) <= THRUST_BOUND_PCT)
        self.check(f"steady lambda within +-{LAMBDA_BOUND_PCT}%",
                   max(abs(ls["min"]), abs(ls["max"])) <= LAMBDA_BOUND_PCT)
        return {"thrust_steady_mae_pct": ts["mae"],
                "lambda_steady_mae_pct": ls["mae"]}

    def check_dataset(self) -> int:
        """Finite rows inside the input box; returns the number of rows."""
        ds = load_dataset_csv(self.model_dir / "dataset.csv",
                              n_train=STOCK.training.n_train)
        tr = STOCK.training
        self.check("dataset has sample_count finite rows",
                   ds.inputs.shape[0] == tr.sample_count
                   and np.all(np.isfinite(ds.inputs))
                   and np.all(np.isfinite(ds.targets)))
        lo = np.array([dflsim.dataset.TPS_RANGE[0], dflsim.dataset.MF_RANGE[0]])
        hi = np.array([dflsim.dataset.TPS_RANGE[1], dflsim.dataset.MF_RANGE[1]])
        self.check("dataset inputs inside the box",
                   np.all(ds.inputs[:, :2] >= lo) and np.all(ds.inputs[:, :2] <= hi))
        return ds.inputs.shape[0]

    def check_trained_models(self, out: Path):
        for name in ("mlp", "elman"):
            path = out / f"{name}_model.txt"
            self.check(f"{name} model finite", path.exists() and all(
                np.all(np.isfinite(m)) for m in load_blocks(path).values()))
