"""YAML run configuration.

The file is a plain mapping with a handful of sections; every key is
optional and falls back to the stock experiment values.  A config sets only
what an experiment varies: the state grid, the action ladder and the
learners' learning rate and discount are fixed for every run, and an agent
sets only its exploration schedule.  Unknown keys are
hard errors (reported with their dotted path) so a typo like
``episods: 250`` cannot silently run the default.  ``load_config`` raises
``ConfigError`` carrying *all* problems found, not just the first.

Each key is one row of ``_KEYS``; its known-key sets, checks and
``RunConfig.to_dict`` are built from that table, and only rules that span
keys are written out by hand in ``parse_config``.

Example::

    label: prdc1-weighted
    cycle:
      builtin: PRDC-1-synthetic
    run:
      mode: ensemble
      episodes: 125
      initial_soc: 0.5
      seeds: [0, 1, 2]
    agents:
      a: {schedule: {kind: step, initial: 0.8, factor: 0.5, width: 10}}
      b: {schedule: {kind: exponential, initial: 0.8}}
    ensemble:
      kind: weighted
      mu: 0.5
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import yaml

from .drive_cycle import BUILTIN_CYCLE_NAMES, DriveCycle, builtin_cycle, load_cycle
from .ensemble import POLICY_KINDS, EnsemblePolicy
from .powertrain import PlantModels, default_models
from .qlearn import ActionGrid, E2ESchedule, LearnerConfig, StateGrid

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every violation."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


class _Key(NamedTuple):
    """One config key: where it sits in the file, where its value goes, and
    what it accepts.

    ``field`` names a ``RunConfig`` attribute, or ``policy.<name>`` for a
    key that builds the ensemble policy.  A ``many`` key takes a non-empty
    list of such values.
    """

    section: str  # "" for a top-level key
    key: str
    field: str
    type: type
    low: float | None = None
    high: float | None = None
    choices: Sequence[str] | None = None
    many: bool = False


# The config schema: every key but the agents' schedules, in file order.
_KEYS = (
    _Key("", "label", "label", str),
    _Key("cycle", "builtin", "cycle_builtin", str,
         choices=sorted(BUILTIN_CYCLE_NAMES)),
    _Key("cycle", "path", "cycle_path", str),
    _Key("run", "mode", "mode", str, choices=("single", "ensemble")),
    _Key("run", "episodes", "episodes", int, low=1),
    _Key("run", "initial_soc", "initial_soc", float, 0.0, 1.0),
    _Key("run", "seeds", "seeds", int, low=0, many=True),
    _Key("ensemble", "kind", "policy.kind", str, choices=POLICY_KINDS),
    _Key("ensemble", "mu", "policy.mu", float, 0.0, 1.0),
    _Key("ensemble", "t", "policy.t", float, 0.0, 1.0),
    _Key("sweep", "repeats", "sweep_repeats", int, low=1),
    _Key("sweep", "base_seed", "sweep_base_seed", int, low=0),
    _Key("sweep", "episodes", "sweep_episodes", int, low=1),
    _Key("eval", "cycles", "eval_cycles", str, many=True),
    _Key("eval", "initial_socs", "eval_initial_socs", float, many=True),
    # The solve holds an 8 x (T + 1) x S byte value table, about 374 MB on
    # PRDC-2 at the bound, the largest count a doubling search from 101
    # nodes needs (6 401 -> 12 801 -> 25 601); past it a typo asks for
    # gigabytes and a long run.
    _Key("dp", "soc_nodes", "dp_soc_nodes", int, low=2, high=25_601),
)

_SECTIONS: dict[str, list[_Key]] = {}
for _row in _KEYS:
    _SECTIONS.setdefault(_row.section, []).append(_row)

# What a value of each type is called in a problem: one, and a list of them.
_NOUNS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          str: ("a non-empty string", "names")}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration for one experiment invocation."""

    label: str = "run"
    cycle_builtin: str | None = "PRDC-1-synthetic"
    cycle_path: str | None = None
    mode: str = "ensemble"
    episodes: int = 125
    initial_soc: float = 0.5
    seeds: tuple[int, ...] = (0,)
    agent_a: LearnerConfig = field(
        default_factory=lambda: LearnerConfig(schedule=E2ESchedule.step()))
    agent_b: LearnerConfig = field(
        default_factory=lambda: LearnerConfig(schedule=E2ESchedule.exponential()))
    policy: EnsemblePolicy = field(default_factory=lambda: EnsemblePolicy.weighted(0.5))
    sweep_repeats: int = 25
    sweep_base_seed: int = 0
    sweep_episodes: int = 125
    eval_cycles: tuple[str, ...] = ("PRDC-2-synthetic", "PRDC-3-synthetic",
                                    "PRDC-4-synthetic")
    eval_initial_socs: tuple[float, ...] = (0.3, 0.5, 0.7)
    dp_soc_nodes: int = 101

    def build_models(self) -> PlantModels:
        return default_models()

    def build_grids(self) -> tuple[StateGrid, ActionGrid]:
        """The state grid and action ladder, fixed for every run."""
        return StateGrid.uniform(), ActionGrid.uniform()

    def build_cycle(self) -> DriveCycle:
        if self.cycle_path is not None:
            return load_cycle(self.cycle_path)
        return builtin_cycle(self.cycle_builtin)

    def build_eval_cycles(self) -> list[DriveCycle]:
        out = []
        for name in self.eval_cycles:
            if name in BUILTIN_CYCLE_NAMES:
                out.append(builtin_cycle(name))
            else:
                out.append(load_cycle(name))
        return out

    def to_dict(self) -> dict:
        """Canonical plain-data form, used for the run fingerprint."""
        out: dict = {section: {} for section in _SECTIONS}
        for row in _KEYS:
            owner, _, name = row.field.rpartition(".")
            value = getattr(self.policy if owner else self, name)
            out[row.section][row.key] = list(value) if row.many else value
        out.update(out.pop(""))
        out["agents"] = {name: {"schedule": agent.schedule.to_dict()}
                         for name, agent in (("a", self.agent_a), ("b", self.agent_b))}
        return out


DEFAULT_CONFIG = RunConfig()


def _want_mapping(value: object, path: str, problems: list[str]) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        problems.append(f"{path}: expected a mapping, got {type(value).__name__}")
        return {}
    return value


def _check_keys(data: dict, known: set, path: str, problems: list[str]) -> None:
    for key in data:
        if key not in known:
            problems.append(f"{path}.{key}: unknown key")


def _scalar(row: _Key, value: object) -> tuple[object, str | None]:
    """Check one value against its row: (value, None), or (value, problem)."""
    if row.choices is not None:
        return value, (None if value in row.choices
                       else f"must be one of {row.choices}, got {value!r}")
    if row.type is str:
        fits = isinstance(value, str) and value != ""
    else:
        fits = (isinstance(value, (row.type, int)) and not isinstance(value, bool)
                and (row.type is int or abs(value) <= sys.float_info.max))
    if not fits:
        return value, f"expected {_NOUNS[row.type][0]}, got {value!r}"
    value = row.type(value)
    if row.low is not None and value < row.low:
        return value, f"must be >= {row.low}, got {value}"
    if row.high is not None and value > row.high:
        return value, f"must be <= {row.high}, got {value}"
    return value, None


def _list(row: _Key, raw: object) -> tuple[object, str | None]:
    """Check a non-empty list whose every item passes ``_scalar``."""
    checked = [_scalar(row, item) for item in raw] if isinstance(raw, list) else []
    if checked and all(problem is None for _, problem in checked):
        return tuple(value for value, _ in checked), None
    bounds = "".join(f" {op} {bound}" for op, bound in ((">=", row.low), ("<=", row.high))
                     if bound is not None)
    return raw, f"expected a non-empty list of {_NOUNS[row.type][1]}{bounds}, got {raw!r}"


def _read(data: object, path: str, rows: Sequence[_Key], problems: list[str],
          extra: Iterable[str] = ()) -> dict:
    """Check one section against its rows; return the checked values it sets,
    by field.  A null value stands for the default."""
    section = _want_mapping(data, path, problems)
    _check_keys(section, {row.key for row in rows}.union(extra), path, problems)
    values = {}
    for row in rows:
        if section.get(row.key) is not None:
            value, problem = (_list if row.many else _scalar)(row, section[row.key])
            if problem is None:
                values[row.field] = value
            else:
                problems.append(f"{path}.{row.key}: {problem}")
    return values


def _agent(data: object, path: str, problems: list[str],
           default: LearnerConfig) -> LearnerConfig:
    """An agent section: its schedule replaces the default's."""
    section = _want_mapping(data, path, problems)
    _check_keys(section, {"schedule"}, path, problems)
    sched = section.get("schedule")
    if isinstance(sched, dict):
        try:
            return dataclasses.replace(default, schedule=E2ESchedule.from_dict(dict(sched)))
        except ValueError as exc:
            problems.append(f"{path}.schedule: {exc}")
    else:
        _want_mapping(sched, f"{path}.schedule", problems)  # None keeps the default
    return default


def parse_config(data: object) -> RunConfig:
    """Turn parsed YAML into a ``RunConfig``; raises ``ConfigError``."""
    problems: list[str] = []
    root = _want_mapping(data, "config", problems)
    if problems:
        raise ConfigError(problems)
    values = _read(root, "config", _SECTIONS[""], problems,
                   {*_SECTIONS, "agents"} - {""})
    for section, rows in _SECTIONS.items():
        if section:
            values.update(_read(root.get(section), f"config.{section}", rows, problems))
    agents = _want_mapping(root.get("agents"), "config.agents", problems)
    _check_keys(agents, {"a", "b"}, "config.agents", problems)
    values["agent_a"] = _agent(agents.get("a"), "config.agents.a", problems,
                               DEFAULT_CONFIG.agent_a)
    values["agent_b"] = _agent(agents.get("b"), "config.agents.b", problems,
                               DEFAULT_CONFIG.agent_b)

    # Rules beyond one value's type, range and choices.
    cycle = root.get("cycle") if isinstance(root.get("cycle"), dict) else {}
    if cycle.get("path") is not None:
        if cycle.get("builtin") is not None:
            problems.append("config.cycle: give either builtin or path, not both")
        values.setdefault("cycle_builtin", None)
    seeds = values.get("seeds", ())
    if len(set(seeds)) != len(seeds):
        problems.append(f"config.run.seeds: duplicate seeds in {list(seeds)!r}")
    policy = {name.partition(".")[2]: values.pop(name) for name in list(values) if "." in name}
    values["policy"] = dataclasses.replace(DEFAULT_CONFIG.policy, **policy)
    if problems:
        raise ConfigError(problems)
    config = RunConfig(**values)

    # The battery window needs the built models; surface it the same way.
    battery = config.build_models().battery
    for section, key, soc in [("run", "initial_soc", config.initial_soc),
                              *(("eval", "initial_socs", s) for s in config.eval_initial_socs)]:
        try:
            battery.check_in_window(key, soc)
        except ValueError as exc:
            problems.append(f"config.{section}: {exc}")
    if problems:
        raise ConfigError(problems)
    return config


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a YAML config file; raises ``ConfigError`` on problems."""
    try:
        with open(path, encoding="utf-8") as stream:  # YAML errors name the file
            data = yaml.safe_load(stream)
    except FileNotFoundError as exc:
        raise ConfigError([f"config: file not found: {path}"]) from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: not valid YAML: {exc}"]) from exc
    return parse_config(data)
