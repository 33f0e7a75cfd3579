"""Command-line entry points for the simulation and control pipeline.

Subcommands mirror the workflow: generate identification data, train the
network models, compare them, run the closed-loop scenario, audit the
derivative network, and post-process a trajectory into metrics.  Each
stage reads the files the stage before it wrote and never remakes them.
``main`` alone maps errors to the exit status: 0 success, 1 a
``check-jacobian`` audit that fails (returned by ``cmd_check_jacobian``),
2 configuration or command-line error (an ``--out`` that names or lies
under a file fails before any work), 3 plant stall, 4 any other
RuntimeError (a singular condensed QP, diverged training, a plant substep
too coarse to integrate), 5 a data,
model or trajectory file that is missing, cannot be read, that its
reader cannot parse or that holds a cell that is not a finite number, or a
dataset whose training rows give a column no span to train on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_bundle
from .dataset import generate_dataset, load_dataset_csv, save_dataset_csv
from .engine import EngineStallError
from .lpv import assoc_jacobian
from .networks import (MODEL_KINDS, compare_models, load_model, load_rbf,
                       rbf_forward, save_model, train_elman, train_mlp, train_rbf)
from .scenario import (CONTROLLER_KINDS, ScenarioStallError, compute_metrics,
                       load_trajectory_csv, relative_error, run_scenario,
                       save_lpv_trace, save_trajectory_csv)
from .tables import FileFormatError, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALL = 3
EXIT_SOLVER = 4
EXIT_BAD_FILE = 5


def _subcommand(subs, name, func, summary, seed_key=None):
    """A subcommand with ``--config`` and ``--out``, and ``--seed`` only where
    the command reads one: it overrides the config's ``seed_key``."""
    sub = subs.add_parser(name, help=summary)
    sub.add_argument("--config", type=Path, default=None,
                     help="INI configuration file (defaults embedded)")
    if seed_key:
        sub.add_argument("--seed", type=int, default=None,
                         help=f"override the config's {seed_key}")
    sub.add_argument("--out", type=Path, default=Path("out"),
                     help="output directory")
    sub.set_defaults(func=func, seed_key=seed_key, seed=None)
    return sub


def _load(args):
    overrides = {} if args.seed is None else {args.seed_key: args.seed}
    return load_bundle(args.config, overrides)


def _ensure_out(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_gen_data(args) -> int:
    bundle = _load(args)
    tr = bundle.training
    dataset = generate_dataset(bundle.plant, bundle.fan, tr)
    out = _ensure_out(args) / "dataset.csv"
    save_dataset_csv(dataset, out)
    print(f"wrote {tr.sample_count} samples ({tr.n_train} train) to {out}")
    return EXIT_OK


def _dataset_for(args, bundle, to_train=False):
    """The dataset in ``--data`` or ``<out>/dataset.csv``.  To train on, its
    training rows must give each column the span ``load_model`` will ask of
    the model's ``STATS``."""
    path = args.data or args.out / "dataset.csv"
    dataset = load_dataset_csv(path, bundle.training.n_train)
    fault = to_train and dataset.stats.span_fault()
    if fault:
        raise FileFormatError(f"{path}: over its {dataset.n_train} training "
                              f"rows, {fault}")
    return dataset


def _rbf_for(args):
    """The controller's RBF in ``--model-file`` or ``<out>/rbf_model.txt``."""
    return load_rbf(args.model_file or args.out / "rbf_model.txt")


def _train(kind, dataset, tr):
    """Train one model from the [training] section: (model, summary)."""
    if kind == "rbf":
        model = train_rbf(dataset, tr)
        return model, f"{len(model.centers)} centers"
    model, losses = (train_mlp if kind == "mlp" else train_elman)(dataset, tr)
    return model, f"{len(losses)} epochs, final MSE {losses[-1]:.6f}"


def cmd_train(args) -> int:
    bundle = _load(args)
    model, summary = _train(args.model, _dataset_for(args, bundle, to_train=True),
                            bundle.training)
    path = _ensure_out(args) / f"{args.model}_model.txt"
    save_model(model, path)
    print(f"trained {args.model}: {summary} -> {path}")
    return EXIT_OK


def cmd_compare_models(args) -> int:
    bundle = _load(args)
    dataset = _dataset_for(args, bundle)
    report = compare_models(dataset, *(load_model(args.out / f"{kind}_model.txt", cls)
                                       for kind, cls in MODEL_KINDS.items()))
    out_dir = _ensure_out(args)
    names = ("torque", "speed", "afr")
    print(f"{'output':>8} | " + " | ".join(f"{m:>7}" for m in report.mape_table))
    for i, name in enumerate(names):
        row = " | ".join(f"{report.mape_table[m][i]:6.2f}%" for m in report.mape_table)
        print(f"{name:>8} | {row}")
    pe_path = out_dir / "prediction_errors.csv"
    errors = np.hstack(list(report.pe_series.values()))
    write_table(pe_path, "sample," + ",".join(f"{m}_{n}" for m in report.pe_series
                                              for n in names),
                ((i, *row) for i, row in enumerate(errors)))
    mape_path = out_dir / "mape_report.json"
    with open(mape_path, "w") as fh:
        json.dump({m: [float(v) for v in vals]
                   for m, vals in report.mape_table.items()}, fh, indent=2)
    print(f"wrote {pe_path} and {mape_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = _load(args)
    rbf = None if args.controller == "open-loop" else _rbf_for(args)
    out_dir = _ensure_out(args)
    trace = [] if args.dump_lpv else None
    path = out_dir / f"trajectory_{args.controller}.csv"
    try:
        records, metrics = run_scenario(bundle.plant, bundle.fan, bundle.mpc,
                                        bundle.scenario, controller=args.controller,
                                        rbf=rbf, lpv_trace=trace)
    except ScenarioStallError as exc:
        if exc.records:     # none when the start input has no stable point
            save_trajectory_csv(exc.records, path)
            print(f"partial trajectory in {path}", file=sys.stderr)
        raise
    save_trajectory_csv(records, path)
    if trace is not None:
        save_lpv_trace(trace, out_dir / f"lpv_trace_{args.controller}.csv")
    with open(out_dir / f"metrics_{args.controller}.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(f"{args.controller}: {len(records)} steps -> {path}")
    for label, seg in (("thrust", metrics["thrust_steady"]),
                       ("lambda", metrics["lambda_steady"])):
        if seg is None:
            print(f"steady {label}: segment empty")
        else:
            print(f"steady {label} rel err [{seg['min']:.2f}, {seg['max']:.2f}]% "
                  f"(mae {seg['mae']:.2f}%)")
    return EXIT_OK


def cmd_check_jacobian(args) -> int:
    bundle = _load(args)
    rbf = _rbf_for(args)
    rng = np.random.default_rng(bundle.training.seed)
    step = 1e-5
    dp = step * np.eye(4)       # one central difference per input column
    errors = []
    for _ in range(args.points):
        p = rng.uniform(-1.0, 1.0, 4)
        jac = assoc_jacobian(rbf, p)
        fd = (rbf_forward(rbf, p + dp) - rbf_forward(rbf, p - dp)).T / (2 * step)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        errors.append(float(np.max(np.abs(jac - fd))) / denom)
    worst = float(np.max(errors))       # nan if any error is nan
    print(f"max relative Jacobian error over {args.points} points: {worst:.3e}")
    if not worst <= 1e-6:
        print("FAIL: analytic Jacobian deviates from finite differences",
              file=sys.stderr)
        return 1
    print("PASS")
    return EXIT_OK


def cmd_report(args) -> int:
    bundle = _load(args)
    records = load_trajectory_csv(args.trajectory)
    metrics = compute_metrics(records, bundle.mpc, bundle.scenario)
    out_dir = _ensure_out(args)
    err_path = out_dir / "relative_errors.csv"
    write_table(err_path, "step,thrust_rel_err_pct,lambda_rel_err_pct",
                ((r.step, relative_error(r.thrust_true, r.thrust_ref),
                  relative_error(r.lam_true, r.lam_ref)) for r in records))
    metrics_path = out_dir / "metrics_report.json"
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics, indent=2))
    print(f"wrote {err_path} and {metrics_path}")
    return EXIT_OK


def _positive_int(text) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflsim",
        description="Ducted-fan lift system simulation and adaptive MPC toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    data_help = "dataset CSV (default: <out>/dataset.csv)"
    model_help = "trained RBF block file (default: <out>/rbf_model.txt)"

    _subcommand(subs, "gen-data", cmd_gen_data,
                "excite the plant and write the dataset CSV", "training.seed")

    sub = _subcommand(subs, "train", cmd_train,
                      "train one network model on the dataset CSV")
    sub.add_argument("--model", choices=tuple(MODEL_KINDS), required=True)
    sub.add_argument("--data", type=Path, default=None, help=data_help)

    sub = _subcommand(subs, "compare-models", cmd_compare_models,
                      "score the three models that train wrote to --out "
                      "and report validation MAPE")
    sub.add_argument("--data", type=Path, default=None, help=data_help)

    sub = _subcommand(subs, "simulate", cmd_simulate,
                      "run the takeoff-preparation scenario", "scenario.seed")
    sub.add_argument("--controller", choices=CONTROLLER_KINDS, default="ampc")
    sub.add_argument("--model-file", type=Path, default=None, help=model_help)
    sub.add_argument("--dump-lpv", action="store_true",
                     help="also write the per-step LPV matrices to CSV")

    sub = _subcommand(subs, "check-jacobian", cmd_check_jacobian,
                      "audit the derivative network against finite differences",
                      "training.seed")
    sub.add_argument("--model-file", type=Path, default=None, help=model_help)
    sub.add_argument("--points", type=_positive_int, default=100,
                     help="number of random operating points to audit (>= 1)")

    sub = _subcommand(subs, "report", cmd_report,
                      "recompute metrics from a trajectory CSV")
    sub.add_argument("trajectory", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(p.exists() and not p.is_dir() for p in (args.out, *args.out.parents)):
        print(f"dflsim {args.command}: --out {args.out} is not a directory",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EngineStallError, ScenarioStallError) as exc:
        print(f"plant stall: {exc}", file=sys.stderr)
        return EXIT_STALL
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FileFormatError, FileNotFoundError) as exc:
        print(f"bad input file: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
