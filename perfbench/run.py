"""dflsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: ampc_takeoff, identify (see
stages.py).  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics; its only wrappers are timer pairs around single bindings.
With ``--trace 1`` it makes one untraced pass (for the tracing overhead) and
one traced pass, and reports the per-layer metrics.  BLAS runs on one thread
(``OPENBLAS_NUM_THREADS=1``), so the process's CPU time is the program's.

Every line but the last is a human-readable report; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans and the
report are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

from layers import (EXPECTED_SPANS, observers, per_layer_metrics,  # noqa: E402
                    traced_functions)
from spans import StepTimer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
END_TO_END = ("setup_s", "step_cpu_p1_ms", "peak_rss_mib")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(durations, q) -> float:
    return float(np.percentile(np.asarray(durations) * 1e3, q))


# --------------------------------------------------------------------- metadata

def blas_info() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                info["threads"] = int(getattr(ctypes.CDLL(path), symbol)())
                return info
            except (OSError, AttributeError):
                continue
    return info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def metadata(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "commit": git_commit(),
            "src_lines": src_lines()}


# --------------------------------------------------------------------- workloads

# ``stages`` imports dflsim, so it is imported only once ``main`` has put the
# sources on the path.

def untraced(args, workdir, saved):
    """End-to-end metrics.  Returns (run, report, metrics).

    Gated times are CPU time of this process.  Set-up (a controller-ready
    model) is made ``SETUPS`` times: all but one before the measured loop,
    one after it.  The loop step is the control step on ``ampc_takeoff`` and
    the plant interval of the set-up's excitation run on ``identify``; its
    gated figure is the 1st percentile: the step's cost when the shared host
    slowed it least (see README.md).  The per-step CPU times go to
    ``saved``, which is written to the report file only.
    """
    import dflsim.dataset
    from stages import SETUPS, STOCK, Run, same_files

    run = Run(args.workload, args.seed, workdir)
    plant = StepTimer(dflsim.dataset, "step_engine")
    timed_setup = plant.active if args.workload == "identify" else nullcontext
    with timed_setup():
        setups = run.setup(range(SETUPS - 1))
    samples = run.check_dataset()
    run.steps_attempted += STOCK.training.sample_count
    run.steps_failed += STOCK.training.sample_count - samples
    mape_max = run.check_model(run.model_dir / "rbf_model.txt", stock_config=True)
    if args.workload == "ampc_takeoff":
        episodes, timer = run.episodes(args.seconds, timed=True)
        quality = run.check_episode(run.dir / "sim0")
        run.check_short_rerun()
        run.check("repeated episodes are byte-identical", all(
            same_files(run.trajectory(run.dir / f"sim{i}"),
                       run.trajectory(run.dir / "sim0"))
            for i in range(1, len(episodes))))
        capped = timer.observed
        run.steps_failed += sum(capped)
        deadline = STOCK.scenario.dt
        on_time = sum(1 for d, bad in zip(timer.durations, capped)
                      if d <= deadline and not bad)
        report = {
            "episodes": (len(episodes), "count"),
            "episode_s": (median(e.wall for e in episodes), "s"),
            "episode_cpu_s": (median(e.cpu for e in episodes), "s"),
            "control_steps": (len(timer.durations), "count"),
            "control_step_p50_ms": (percentile_ms(timer.durations, 50), "ms"),
            "control_step_p95_ms": (percentile_ms(timer.durations, 95), "ms"),
            "control_step_cpu_p50_ms": (percentile_ms(timer.cpu, 50), "ms"),
            "deadline_miss_ratio": (
                1.0 - on_time / (len(episodes) * STOCK.scenario.steps), "ratio"),
            "thrust_steady_mae_pct": (quality.get("thrust_steady_mae_pct"), "%"),
            "lambda_steady_mae_pct": (quality.get("lambda_steady_mae_pct"), "%"),
        }
    else:
        passes = run.train_passes(args.seconds, timed=True)
        seeded = args.seed == STOCK.training.model_seed
        for out, _times, _timer in passes:
            run.check_trained_models(out)
            mape_max = max(mape_max, run.check_model(out / "rbf_model.txt", seeded))
        run.check("repeated training passes are byte-identical", all(
            same_files(out / f"{name}_model.txt", passes[0][0] / f"{name}_model.txt")
            for out, *_ in passes[1:] for name in ("rbf", "mlp", "elman")))
        first, elman = passes[0][1], passes[0][2]
        epochs = elman.observed[0]
        report = {
            "passes": (len(passes), "count"),
            "train_cpu_s": (median(sum(t.cpu for t in times.values())
                                   for _out, times, _t in passes), "s"),
            "train_rbf_s": (first["train_rbf"].wall, "s"),
            "train_mlp_s": (first["train_mlp"].wall, "s"),
            "train_elman_s": (first["train_elman"].wall, "s"),
            "elman_epochs": (epochs, "count"),
            "elman_epoch_ms": (1e3 * elman.durations[0] / epochs, "ms"),
            "elman_epoch_cpu_ms": (1e3 * elman.cpu[0] / epochs, "ms"),
        }
    with timed_setup():
        setups += run.setup(range(SETUPS - 1, SETUPS))
    if args.workload == "identify":
        timer = plant
        report["plant_steps"] = (len(plant.cpu), "count")
        report["plant_step_cpu_p50_ms"] = (percentile_ms(plant.cpu, 50), "ms")
    saved["step_cpu_ms"] = [c * 1e3 for c in timer.cpu]
    report["identify_s"] = (median(t.wall for t in setups), "s")
    report["rbf_val_mape_max_pct"] = (mape_max, "%")
    values = {"setup_s": (median(t.cpu for t in setups), "s"),
              "step_cpu_p1_ms": (percentile_ms(timer.cpu, 1), "ms"),
              "peak_rss_mib": (peak_rss_mib(), "MiB")}
    report.update(values)
    return run, report, {name: values[name] for name in END_TO_END}


def traced(args, workdir, meta):
    """Per-layer metrics from one traced pass, after one untraced pass."""
    from stages import STOCK, Run, Timing, same_files

    checks = {}
    plain = Run(args.workload, args.seed, workdir / "plain", checks=checks)
    tracer = Tracer()
    counters = {}
    tracer.observers = observers(counters)
    run = Run(args.workload, args.seed, workdir / "traced", tracer=tracer,
              checks=checks)
    passes = {}
    for r in (plain, run):
        with tracer.instrument(traced_functions()) if r is run else nullcontext():
            setup = r.setup(range(1))[0]
            if args.workload == "ampc_takeoff":
                episodes, _ = r.episodes(0.0, timed=False)
                stage = episodes[0]
            else:
                (_out, times, _t), = r.train_passes(0.0, timed=False)
                stage = sum(times.values(), Timing(0.0, 0.0))
        passes[r] = (setup, stage)
    names = ["model/dataset.csv", "model/rbf_model.txt"]
    if args.workload == "ampc_takeoff":
        run.steps_failed += counters.get("mpc.qp_capped", 0)
        run.check_episode(run.dir / "sim0")
        names.append("sim0/trajectory_ampc.csv")
    else:
        run.check_trained_models(run.dir / "train0")
        run.check_model(run.dir / "train0" / "rbf_model.txt",
                        stock_config=args.seed == STOCK.training.model_seed)
        names += [f"train0/{name}_model.txt" for name in ("rbf", "mlp", "elman")]
    run.steps_attempted += STOCK.training.sample_count
    run.steps_failed += STOCK.training.sample_count - run.check_dataset()
    run.check_model(run.model_dir / "rbf_model.txt", stock_config=True)
    run.check("traced and untraced passes write identical outputs",
              all(same_files(plain.dir / name, run.dir / name) for name in names))
    for name in EXPECTED_SPANS[args.workload]:
        run.check(f"span {name} recorded", name in tracer.names)
    meta["tracing_overhead_cpu_s"] = {
        key: passes[run][i].cpu - passes[plain][i].cpu
        for i, key in enumerate(("setup", "stage"))}
    meta["spans"] = len(tracer.names)
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{args.workload}-s{args.seed}-{os.getpid()}.csv")
    metrics = per_layer_metrics(tracer, counters)
    return run, {}, {k: (v["value"], v["unit"]) for k, v in metrics.items()}


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dflsim" / "__init__.py").is_file():
        print(f"error: no dflsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stages import WORKLOADS, StageFailed
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    meta = metadata(args)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = None
    report, metrics, saved = {}, {}, {}
    try:
        if args.trace:
            run, report, metrics = traced(args, workdir, meta)
        else:
            run, report, metrics = untraced(args, workdir, saved)
    except StageFailed as exc:
        print(f"error: stage {exc} failed; see the log above", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = sorted(name for name, ok in run.checks.items() if not ok)
    attempted = run.steps_attempted + len(run.checks)
    failed = run.steps_failed + len(failed_checks)
    summary = {"report": {k: {"value": v, "unit": u}
                          for k, (v, u) in report.items()},
               "checks": run.checks, "meta": meta, **saved}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(summary, indent=1))
    for name, (value, unit) in report.items():
        print(f"{args.workload:>20} {name:<24} {value!r:>24} {unit}")
    for name in failed_checks:
        print(f"FAILED check: {name}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
