"""The benchmark's workloads: the YAML configs and ``tugems`` commands each runs.

Everything a workload feeds the program is generated here from the
benchmark's workload seed, so the same seed gives the same configs and the
same ``--seed`` values.  Each workload is a list of CLI commands run back to
back (one round); ``prepare`` commands run once before the first round and
are outside every timed metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

TRAIN_CYCLE = "PRDC-1-synthetic"
BUILTIN_CYCLES = {"PRDC-1-synthetic": 960, "PRDC-2-synthetic": 1827,
                  "PRDC-3-synthetic": 1610, "PRDC-4-synthetic": 1824}
LEARN_EPISODES = 125
# The sweep keeps all nine stock proportions and two paired repeats; the
# episode count is cut from 125 so that eight or more rounds fit in one
# 55 s run, enough for a steady fastest-of-rounds time.
SWEEP_REPEATS = 2
SWEEP_EPISODES = 20
SWEEP_PROPORTIONS = 9
EVAL_SOCS = (0.3, 0.4, 0.5, 0.6, 0.7)
# One eval command per combiner, all on the same snapshots, keeps eval above
# a third of the eval-dp round next to the nine DP solves.
EVAL_KINDS = ("weighted", "maximum", "random")
DP_SOCS = (0.3, 0.5, 0.7)
# dp.py documents its value-interpolation error as at most one SoC node of
# pack energy (``slack_j``), which the ``dp`` check tests.  On these three
# solves the rollout beats ``cost_j`` by 1.5 to 1.9 times that slack, so the
# program breaks its own bound there.  They are not run: a workload on which
# commands fail measures nothing the benchmark can accept, and checking all
# twelve more loosely would let a real regression through.  ``run.py`` prints
# them with every eval-dp result; README.md records the numbers.
DP_BOUND_BROKEN = (("PRDC-1-synthetic", 0.5), ("PRDC-2-synthetic", 0.7),
                   ("PRDC-4-synthetic", 0.7))


@dataclass
class Command:
    """One ``tugems`` invocation and what it should leave behind."""

    name: str
    kind: str           # learn | sweep | eval | dp
    argv: list[str]
    out: Path
    steps: int          # controlled steps: run-seconds of cycle advanced
    config: Path


@dataclass
class Workload:
    name: str
    commands: list[Command]
    prepare: list[Command] = field(default_factory=list)
    program_seeds: dict[str, int] = field(default_factory=dict)
    left_out: list[str] = field(default_factory=list)  # with the reason

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.commands)


def _write_config(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
    return path


def _sweep(seed: int, work: Path) -> Workload:
    base_seed = random.Random(f"sweep:{seed}").randrange(2**31)
    config = _write_config(work / "configs" / "sweep.yaml", {
        "label": "bench-sweep", "cycle": {"builtin": TRAIN_CYCLE},
        "run": {"initial_soc": 0.5},
        "sweep": {"repeats": SWEEP_REPEATS, "episodes": SWEEP_EPISODES,
                  "base_seed": base_seed}})
    out = work / "out" / "sweep"
    steps = (SWEEP_PROPORTIONS * SWEEP_REPEATS * SWEEP_EPISODES
             * BUILTIN_CYCLES[TRAIN_CYCLE])
    command = Command("sweep", "sweep",
                      ["sweep", "--config", str(config), "--out", str(out),
                       "--workers", "1"], out, steps, config)
    return Workload("sweep", [command], program_seeds={"sweep.base_seed": base_seed})


def _eval_dp(seed: int, work: Path) -> Workload:
    train_seed = random.Random(f"eval-dp:{seed}").randrange(2**31)
    configs = work / "configs"
    train_config = _write_config(configs / "train.yaml", {
        "label": "bench-train", "cycle": {"builtin": TRAIN_CYCLE},
        "run": {"episodes": LEARN_EPISODES, "initial_soc": 0.5, "mode": "ensemble"},
        "ensemble": {"kind": "weighted"}})
    snapshots = work / "out" / "snapshots"
    prepare = [Command("train", "learn",
                       ["learn", "--config", str(train_config), "--out",
                        str(snapshots), "--seed", str(train_seed)],
                       snapshots, LEARN_EPISODES * BUILTIN_CYCLES[TRAIN_CYCLE],
                       train_config)]
    commands = []
    eval_steps = 2 * len(EVAL_SOCS) * sum(BUILTIN_CYCLES.values())
    for kind in EVAL_KINDS:
        name = f"eval-{kind}"
        config = _write_config(configs / f"{name}.yaml", {
            "label": f"bench-{name}", "cycle": {"builtin": TRAIN_CYCLE},
            "ensemble": {"kind": kind},
            "eval": {"cycles": list(BUILTIN_CYCLES),
                     "initial_socs": list(EVAL_SOCS)}})
        out = work / "out" / name
        commands.append(Command(
            name, "eval",
            ["eval", "--config", str(config), "--out", str(out),
             "--snapshots", str(snapshots)], out, eval_steps, config))
    left_out = []
    for cycle, length in BUILTIN_CYCLES.items():
        for soc in DP_SOCS:
            name = f"dp-{cycle.split('-synthetic')[0]}-soc{soc}"
            if (cycle, soc) in DP_BOUND_BROKEN:
                left_out.append(f"{name}: dp.py breaks its one-node bound "
                                "(rollout_cost_j < cost_j - slack_j)")
                continue
            config = _write_config(configs / f"{name}.yaml", {
                "label": f"bench-{name}", "cycle": {"builtin": cycle},
                "run": {"initial_soc": soc}})
            out = work / "out" / name
            commands.append(Command(
                name, "dp",
                ["dp", "--config", str(config), "--out", str(out)],
                out, length, config))
    return Workload("eval-dp", commands, prepare,
                    program_seeds={"train": train_seed}, left_out=left_out)


# A ``learn`` workload (four 125-episode learn commands, one per mode and
# combiner) was dropped as unsteady: its 7 to 12 s round fit only three
# times in a 35 s run, too few to filter this machine's drift (README.md).
_BUILDERS = {"sweep": _sweep, "eval-dp": _eval_dp}
WORKLOAD_NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's configs under ``work`` and return its commands."""
    return _BUILDERS[name](seed, work)
