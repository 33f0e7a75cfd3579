"""Layers, the functions traced in each, and the per-layer metrics.

A layer is a dflsim module.  Every public function listed in ``TRACED`` gets a
span named ``<layer>.<function>``; the benchmark adds ``cli.<stage>`` spans
around each in-process CLI call.  ``PER_LAYER`` says how each metric is
computed from the spans and which end-to-end metric (on which workload) it
is expected to move; ``BENCHMARK.json`` lists the same names in the same
order.
"""

from __future__ import annotations

import sys
from statistics import median

TRACED = {
    "engine": ("step_engine",),
    "fan": ("solve_operating_point", "thrust_from_power", "thrust_power_map",
            "thrust_jacobian", "fan_load_power", "ducted_thrust_at_crank_speed"),
    "dataset": ("generate_dataset", "save_dataset_csv", "load_dataset_csv"),
    "networks": ("train_rbf", "train_mlp", "train_elman", "save_rbf",
                 "load_rbf", "save_blocks"),
    "lpv": ("build_lpv", "assoc_jacobian"),
    "mpc": ("ampc_step", "solve_qp", "hildreth"),
    "scenario": ("run_scenario", "compute_metrics", "save_trajectory_csv"),
    "config": ("load_bundle",),
}

CONTROL_STEPS = ("mpc.ampc_step",)
FAN_ERRORS = ("InflowConvergenceError", "PowerBracketError")

# Spans every correct run of a workload must record at least once.  A zero
# means a binding was missed, so the traced run fails.  Functions that a
# faster implementation may legitimately stop calling are left out.
_SETUP = ("config.load_bundle", "dataset.generate_dataset",
          "dataset.save_dataset_csv", "dataset.load_dataset_csv",
          "networks.train_rbf", "engine.step_engine", "fan.fan_load_power",
          "cli.gen_data", "cli.train_rbf")
EXPECTED_SPANS = {
    "ampc_takeoff": _SETUP + ("networks.load_rbf", "scenario.run_scenario",
                              "scenario.save_trajectory_csv", "lpv.build_lpv",
                              "lpv.assoc_jacobian", "fan.thrust_jacobian",
                              "fan.ducted_thrust_at_crank_speed", "mpc.ampc_step",
                              "mpc.solve_qp", "mpc.hildreth", "cli.simulate"),
    "identify": _SETUP + ("networks.train_mlp", "networks.train_elman",
                          "cli.train_mlp", "cli.train_elman"),
}


def traced_functions():
    """``{span name: function}`` for every listed function that exists."""
    out = {}
    for layer, names in TRACED.items():
        mod = sys.modules[f"dflsim.{layer}"]
        for fname in names:
            fn = getattr(mod, fname, None)
            if fn is not None:
                out[f"{layer}.{fname}"] = fn
    return out


class SpanStats:
    """Durations, self times and ancestry derived from one Tracer."""

    def __init__(self, tracer, counters):
        self.names = tracer.names
        self.parents = tracer.parents
        self.raised = tracer.raised
        self.counters = counters
        n = len(self.names)
        self.dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child_time = [0.0] * n
        self.in_step = [False] * n
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0:
                child_time[p] += self.dur[i]
                self.in_step[i] = self.in_step[p] or self.names[p] in CONTROL_STEPS
        self.self_time = [self.dur[i] - child_time[i] for i in range(n)]
        self.by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            self.by_name.setdefault(name, []).append(i)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def busy(self, name):
        return sum(self.dur[i] for i in self.by_name.get(name, ()))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.by_name.get(name, ()))

    def p50(self, name, self_only=False):
        vals = self.self_time if self_only else self.dur
        idx = self.by_name.get(name, ())
        return median(vals[i] for i in idx) if idx else 0.0

    def calls_in_steps(self, name):
        return sum(1 for i in self.by_name.get(name, ()) if self.in_step[i])

    def control_steps(self):
        return sum(self.calls(name) for name in CONTROL_STEPS)


def _per_step(s, name):
    steps = s.control_steps()
    return s.calls_in_steps(name) / steps if steps else 0.0


def _step_share(s, name):
    steps = sum(s.busy(step) for step in CONTROL_STEPS)
    inside = sum(s.dur[i] for i in s.by_name.get(name, ()) if s.in_step[i])
    return inside / steps if steps else 0.0


def _per_epoch_ms(s, name, epochs_key):
    epochs = s.counters.get(epochs_key, 0)
    return 1e3 * s.busy(name) / epochs if epochs else 0.0


def _sample_yield(s):
    engine_calls = sum(1 for i in s.by_name.get("engine.step_engine", ())
                       if _under(s, i, "dataset.generate_dataset"))
    accepted = s.counters.get("dataset.samples", 0)
    return accepted / engine_calls if engine_calls else 0.0


def _under(s, i, ancestor):
    while i >= 0:
        if s.names[i] == ancestor:
            return True
        i = s.parents[i]
    return False


# (name, unit, better, value from SpanStats, end-to-end metric it should move)
PER_LAYER = [
    ("fan.solve_operating_point.calls", "count", "lower",
     lambda s: s.calls("fan.solve_operating_point"),
     "step_cpu_p1_ms; episode_cpu_s (report) on ampc_takeoff"),
    ("fan.inflow_solves_per_step", "calls/step", "lower",
     lambda s: _per_step(s, "fan.solve_operating_point"),
     "step_cpu_p1_ms; episode_cpu_s (report) on ampc_takeoff"),
    ("fan.thrust_jacobian.ms_p50", "ms", "lower",
     lambda s: 1e3 * s.p50("fan.thrust_jacobian"),
     "step_cpu_p1_ms; episode_cpu_s (report) on ampc_takeoff"),
    ("fan.thrust_jacobian.step_share", "ratio", "lower",
     lambda s: _step_share(s, "fan.thrust_jacobian"),
     "step_cpu_p1_ms; episode_cpu_s (report) on ampc_takeoff"),
    ("fan.thrust_from_power.calls", "count", "lower",
     lambda s: s.calls("fan.thrust_from_power"),
     "step_cpu_p1_ms; episode_cpu_s (report) on ampc_takeoff"),
    ("fan.fan_load_power.busy_s", "s", "lower",
     lambda s: s.busy("fan.fan_load_power"),
     "setup_s; episode_cpu_s (report)"),
    ("fan.ducted_thrust_at_crank_speed.busy_s", "s", "lower",
     lambda s: s.busy("fan.ducted_thrust_at_crank_speed"),
     "episode_cpu_s (report) on ampc_takeoff"),
    ("fan.failures", "count", "lower",
     lambda s: sum(s.raised.get(k, 0) for k in FAN_ERRORS),
     "failed on all"),
    ("lpv.build_lpv.self_ms_p50", "ms", "lower",
     lambda s: 1e3 * s.p50("lpv.build_lpv", self_only=True),
     "step_cpu_p1_ms on ampc_takeoff"),
    ("lpv.assoc_jacobian.us_p50", "us", "lower",
     lambda s: 1e6 * s.p50("lpv.assoc_jacobian"),
     "step_cpu_p1_ms on ampc_takeoff"),
    ("mpc.solve_qp.ms_p50", "ms", "lower",
     lambda s: 1e3 * s.p50("mpc.solve_qp"),
     "step_cpu_p1_ms on ampc_takeoff"),
    ("mpc.hildreth.calls", "count", "lower",
     lambda s: s.calls("mpc.hildreth"),
     "step_cpu_p1_ms on ampc_takeoff"),
    ("mpc.qp_iterations", "count", "lower",
     lambda s: s.counters.get("mpc.qp_iterations", 0),
     "control_step_p95_ms (report) on ampc_takeoff"),
    ("mpc.qp_capped", "count", "lower",
     lambda s: s.counters.get("mpc.qp_capped", 0),
     "failed on ampc_takeoff"),
    ("engine.step_engine.calls", "count", "lower",
     lambda s: s.calls("engine.step_engine"),
     "step_cpu_p1_ms on identify; setup_s; episode_cpu_s (report)"),
    ("engine.step_engine.ms_p50", "ms", "lower",
     lambda s: 1e3 * s.p50("engine.step_engine"),
     "step_cpu_p1_ms on identify; setup_s; episode_cpu_s (report)"),
    ("engine.step_engine.busy_s", "s", "lower",
     lambda s: s.busy("engine.step_engine"),
     "step_cpu_p1_ms on identify; setup_s; episode_cpu_s (report)"),
    ("engine.stalls", "count", "lower",
     lambda s: s.raised.get("EngineStallError", 0),
     "dataset.sample_yield; setup_s"),
    ("dataset.generate_dataset.self_s", "s", "lower",
     lambda s: s.self_total("dataset.generate_dataset"),
     "setup_s"),
    ("dataset.sample_yield", "samples/call", "higher", _sample_yield,
     "setup_s"),
    ("dataset.save_dataset_csv.ms", "ms", "lower",
     lambda s: 1e3 * s.busy("dataset.save_dataset_csv"),
     "setup_s"),
    ("dataset.load_dataset_csv.ms", "ms", "lower",
     lambda s: 1e3 * s.busy("dataset.load_dataset_csv"),
     "setup_s"),
    ("networks.train_rbf.s", "s", "lower",
     lambda s: s.busy("networks.train_rbf"),
     "setup_s; train_cpu_s (report) on identify"),
    ("networks.train_mlp.ms_per_epoch", "ms", "lower",
     lambda s: _per_epoch_ms(s, "networks.train_mlp", "networks.train_mlp.epochs"),
     "train_cpu_s (report) on identify"),
    ("networks.train_mlp.epochs", "count", "lower",
     lambda s: s.counters.get("networks.train_mlp.epochs", 0),
     "train_cpu_s (report) on identify"),
    ("networks.train_elman.ms_per_epoch", "ms", "lower",
     lambda s: _per_epoch_ms(s, "networks.train_elman", "networks.train_elman.epochs"),
     "elman_epoch_cpu_ms, train_cpu_s (report) on identify"),
    ("networks.train_elman.epochs", "count", "lower",
     lambda s: s.counters.get("networks.train_elman.epochs", 0),
     "train_cpu_s (report) on identify"),
    ("networks.load_rbf.ms", "ms", "lower",
     lambda s: 1e3 * s.busy("networks.load_rbf"),
     "episode_cpu_s (report) on ampc_takeoff"),
    ("scenario.run_scenario.self_s", "s", "lower",
     lambda s: s.self_total("scenario.run_scenario"),
     "episode_cpu_s (report) on ampc_takeoff"),
    ("scenario.save_trajectory_csv.ms", "ms", "lower",
     lambda s: 1e3 * s.busy("scenario.save_trajectory_csv"),
     "episode_cpu_s (report) on ampc_takeoff"),
    ("config.load_bundle.ms", "ms", "lower",
     lambda s: 1e3 * s.busy("config.load_bundle"),
     "setup_s"),
    ("cli.gen_data.s", "s", "lower", lambda s: s.busy("cli.gen_data"),
     "setup_s"),
    ("cli.train_rbf.s", "s", "lower", lambda s: s.busy("cli.train_rbf"),
     "setup_s; train_cpu_s (report) on identify"),
    ("cli.train_mlp.s", "s", "lower", lambda s: s.busy("cli.train_mlp"),
     "train_cpu_s (report) on identify"),
    ("cli.train_elman.s", "s", "lower", lambda s: s.busy("cli.train_elman"),
     "train_cpu_s (report) on identify"),
    ("cli.simulate.s", "s", "lower", lambda s: s.busy("cli.simulate"),
     "episode_cpu_s (report) on ampc_takeoff"),
]

# Counts and ratios of counts: identical across traced runs of one seed.
COUNT_METRICS = tuple(name for name, unit, *_ in PER_LAYER
                      if unit in ("count", "calls/step", "samples/call"))


def observers(counters):
    """Span callbacks that turn return values into exact work counts."""
    def add(key, value):
        counters[key] = counters.get(key, 0) + int(value)

    def hildreth(result):
        _z, _lam, iterations, _kkt, capped = result
        add("mpc.qp_iterations", iterations)
        add("mpc.qp_capped", capped)

    return {
        "mpc.hildreth": hildreth,
        "networks.train_mlp": lambda r: add("networks.train_mlp.epochs", len(r[1])),
        "networks.train_elman": lambda r: add("networks.train_elman.epochs", len(r[1])),
        "dataset.generate_dataset": lambda r: add("dataset.samples", len(r.inputs)),
    }


def per_layer_metrics(tracer, counters):
    stats = SpanStats(tracer, counters)
    out = {}
    for name, unit, _better, fn, _moves in PER_LAYER:
        value = fn(stats)
        out[name] = {"value": int(value) if unit == "count" else float(value),
                     "unit": unit}
    return out
