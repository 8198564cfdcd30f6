"""Spans around tugems' public functions, recorded from outside the package.

The traced run replaces the bindings each caller actually looks up (a module
global such as ``tugems.cli.run_learning``, or the class attribute
``Plant.step``) with wrappers, and puts the originals back afterwards.  A
target that no longer exists is reported as absent, not as an error, so the
trace survives refactors that merge or drop functions.

Two kinds of wrapper:

* a span records name, start, end, parent span and round (run id) for each
  call;
* a leaf is a hot call made thousands of times per episode (a plant step, a
  combine, a DP stage).  It is not stored one by one: its count and time
  are added to the enclosing span, which keeps the trace small and the
  overhead low.  A span's self time is its duration minus the time its
  child spans and leaves cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

# (module, attribute path, span name, leaf?)
TARGETS = (
    ("tugems.cli", "load_config", "config.load_config", False),
    ("tugems.config", "builtin_cycle", "drive_cycle.builtin_cycle", False),
    ("tugems.cli", "run_learning", "experiment.run_learning", False),
    ("tugems.experiment", "run_learning", "experiment.run_learning", False),
    ("tugems.experiment", "run_ensemble_episode", "ensemble.episode", False),
    ("tugems.experiment", "run_single_episode", "ensemble.episode", False),
    ("tugems.experiment", "evaluate_policy", "experiment.evaluate_policy", False),
    ("tugems.cli", "write_learning_curve_csv", "experiment.write_csv", False),
    ("tugems.cli", "write_sweep_csv", "experiment.write_csv", False),
    ("tugems.cli", "write_robustness_csv", "experiment.write_csv", False),
    ("tugems.cli", "write_trace_csv", "experiment.write_csv", False),
    ("tugems.cli", "save_qtable", "qlearn.save_qtable", False),
    ("tugems.cli", "load_qtable", "qlearn.load_qtable", False),
    ("tugems.cli", "dp_baseline", "dp.dp_baseline", False),
    ("tugems.dp", "_stage", "dp.stage", True),
    ("tugems.powertrain", "Plant.step", "powertrain.step", True),
    ("tugems.ensemble", "combine_weighted", "ensemble.combine", True),
    ("tugems.ensemble", "combine_max", "ensemble.combine", True),
    ("tugems.ensemble", "combine_random", "ensemble.combine", True),
)

CMD_APPLIED = "powertrain.cmd_applied"


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "child_s", "leaves")

    def __init__(self, id_: int, name: str, parent: "Span | None", run: int) -> None:
        self.id = id_
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}   # name -> [count, seconds]

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "run": self.run, "start": self.start, "end": self.end,
                "self_s": self.self_s, "leaves": self.leaves}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.run = 0
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.stack[-1] if self.stack else None,
                    self.run)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration_s

    def _leaf(self, name: str, seconds: float) -> None:
        top = self.stack[-1]
        top.child_s += seconds
        entry = top.leaves.get(name)
        if entry is None:
            top.leaves[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            self._leaf(name, perf() - t0)
            return out
        return wrapper

    def _step_wrapper(self, fn):
        """Leaf wrapper for ``Plant.step`` that also counts applied commands."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def step(plant, p_dem_w, p_egu_cmd_w, *args, **kwargs):
            t0 = perf()
            out = fn(plant, p_dem_w, p_egu_cmd_w, *args, **kwargs)
            self._leaf("powertrain.step", perf() - t0)
            if getattr(out, "p_egu_w", None) == p_egu_cmd_w:
                self._leaf(CMD_APPLIED, 0.0)
            return out
        return step

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for module_name, path, name, leaf in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if path == "Plant.step":
                wrapped = self._step_wrapper(original)
            elif leaf:
                wrapped = self._leaf_wrapper(name, original)
            else:
                wrapped = self._span_wrapper(name, original)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# -- per-layer metrics -----------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds; counts are per round."""
    by_name: dict[str, list[Span]] = {}
    leaves: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        for name, (count, seconds) in span.leaves.items():
            entry = leaves.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def per_call_us(name: str) -> float:
        count, seconds = leaves.get(name, (0, 0.0))
        return 1e6 * seconds / count if count else 0.0

    def durations(name: str, scale: float) -> list[float]:
        return [scale * s.duration_s for s in by_name.get(name, [])]

    def count(name: str) -> float:
        return len(by_name.get(name, [])) / rounds

    steps = leaves.get("powertrain.step", (0, 0.0))[0]
    applied = leaves.get(CMD_APPLIED, (0, 0.0))[0]
    episodes = by_name.get("ensemble.episode", [])
    episode_steps = sum(s.leaves.get("powertrain.step", (0,))[0] for s in episodes)
    episode_self = sum(s.self_s for s in episodes)
    return {
        "powertrain.step_us": (per_call_us("powertrain.step"), "us"),
        "powertrain.steps": (steps / rounds, "count"),
        "powertrain.cmd_applied_frac": (applied / steps if steps else 0.0, "fraction"),
        "ensemble.loop_self_us_per_step": (
            1e6 * episode_self / episode_steps if episode_steps else 0.0, "us"),
        "ensemble.combine_us": (per_call_us("ensemble.combine"), "us"),
        "ensemble.combine_calls": (
            leaves.get("ensemble.combine", (0, 0.0))[0] / rounds, "count"),
        "ensemble.episode_ms_p50": (_median(durations("ensemble.episode", 1e3)), "ms"),
        "ensemble.episode_ms_p90": (_p90(durations("ensemble.episode", 1e3)), "ms"),
        "ensemble.episodes": (count("ensemble.episode"), "count"),
        "experiment.run_s_p50": (_median(durations("experiment.run_learning", 1.0)), "s"),
        "experiment.runs": (count("experiment.run_learning"), "count"),
        "experiment.eval_episode_ms": (
            _median(durations("experiment.evaluate_policy", 1e3)), "ms"),
        "experiment.csv_ms": (_median(durations("experiment.write_csv", 1e3)), "ms"),
        "dp.solve_s": (_median(durations("dp.dp_baseline", 1.0)), "s"),
        "dp.stage_us": (per_call_us("dp.stage"), "us"),
        "dp.stage_calls": (leaves.get("dp.stage", (0, 0.0))[0] / rounds, "count"),
        "qlearn.save_ms": (_median(durations("qlearn.save_qtable", 1e3)), "ms"),
        "qlearn.load_ms": (_median(durations("qlearn.load_qtable", 1e3)), "ms"),
        "config.load_ms": (_median(durations("config.load_config", 1e3)), "ms"),
        "drive_cycle.build_ms": (_median(durations("drive_cycle.builtin_cycle", 1e3)), "ms"),
        "cli.cmd_s_p50": (_median(durations("cli.main", 1.0)), "s"),
    }
