"""YAML run configuration.

The file is a plain mapping with a handful of sections; every key is
optional and falls back to the stock experiment values.  Unknown keys are
hard errors (reported with their dotted path) so a typo like
``episods: 250`` cannot silently run the default.  ``load_config`` raises
``ConfigError`` carrying *all* problems found, not just the first.

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
      a: {learning_rate: 0.5, discount: 0.95,
          schedule: {kind: step, initial: 0.8, factor: 0.5, width: 10}}
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

import yaml

from .drive_cycle import BUILTIN_CYCLE_NAMES, DriveCycle, builtin_cycle, load_cycle
from .ensemble import POLICY_KINDS, EnsemblePolicy
from .powertrain import PlantModels, default_models
from .qlearn import ActionGrid, E2ESchedule, LearnerConfig, StateGrid

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config",
           "validate_config", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every violation."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid config:\n  " + "\n  ".join(self.problems))


_PLANT_KEYS = ("soc_ref", "charge_sustain_soc", "charge_release_margin",
               "soc_penalty_coeff", "reward_baseline")

_SECTIONS = {
    "label": None,
    "cycle": {"builtin", "path", "dt_s"},
    "run": {"mode", "episodes", "initial_soc", "seeds"},
    "grids": {"p_dem_bins", "soc_bins", "action_levels"},
    "agents": {"a", "b"},
    "ensemble": {"kind", "mu", "delta", "t"},
    "plant": set(_PLANT_KEYS),
    "sweep": {"repeats", "base_seed", "episodes"},
    "eval": {"cycles", "initial_socs"},
    "dp": {"soc_nodes"},
}

_AGENT_KEYS = {"learning_rate", "discount", "schedule"}


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved configuration for one experiment invocation."""

    label: str = "run"
    cycle_builtin: str | None = "PRDC-1-synthetic"
    cycle_path: str | None = None
    cycle_dt_s: float = 1.0
    mode: str = "ensemble"
    episodes: int = 125
    initial_soc: float = 0.5
    seeds: tuple[int, ...] = (0,)
    p_dem_bins: int = 23
    soc_bins: int = 25
    action_levels: int = 11
    agent_a: LearnerConfig = field(
        default_factory=lambda: LearnerConfig(schedule=E2ESchedule.step()))
    agent_b: LearnerConfig = field(
        default_factory=lambda: LearnerConfig(schedule=E2ESchedule.exponential()))
    policy: EnsemblePolicy = field(default_factory=lambda: EnsemblePolicy.weighted(0.5))
    plant_overrides: tuple[tuple[str, float], ...] = ()
    sweep_repeats: int = 25
    sweep_base_seed: int = 0
    sweep_episodes: int = 125
    eval_cycles: tuple[str, ...] = ("PRDC-2-synthetic", "PRDC-3-synthetic",
                                    "PRDC-4-synthetic")
    eval_initial_socs: tuple[float, ...] = (0.3, 0.5, 0.7)
    dp_soc_nodes: int = 101

    def build_models(self) -> PlantModels:
        models = default_models()
        if self.plant_overrides:
            models = dataclasses.replace(models, **dict(self.plant_overrides))
        return models

    def build_grids(self) -> tuple[StateGrid, ActionGrid]:
        grid = StateGrid.uniform(self.p_dem_bins, self.soc_bins)
        actions = ActionGrid.uniform(n_levels=self.action_levels)
        return grid, actions

    def build_cycle(self) -> DriveCycle:
        if self.cycle_path is not None:
            return load_cycle(self.cycle_path)
        return builtin_cycle(self.cycle_builtin, self.cycle_dt_s)

    def build_eval_cycles(self) -> list[DriveCycle]:
        out = []
        for name in self.eval_cycles:
            if name in BUILTIN_CYCLE_NAMES:
                out.append(builtin_cycle(name, self.cycle_dt_s))
            else:
                out.append(load_cycle(name))
        return out

    def to_dict(self) -> dict:
        """Canonical plain-data form, used for the run fingerprint."""
        return {
            "label": self.label,
            "cycle": {"builtin": self.cycle_builtin, "path": self.cycle_path,
                      "dt_s": self.cycle_dt_s},
            "run": {"mode": self.mode, "episodes": self.episodes,
                    "initial_soc": self.initial_soc, "seeds": list(self.seeds)},
            "grids": {"p_dem_bins": self.p_dem_bins, "soc_bins": self.soc_bins,
                      "action_levels": self.action_levels},
            "agents": {
                "a": {"learning_rate": self.agent_a.learning_rate,
                      "discount": self.agent_a.discount,
                      "schedule": self.agent_a.schedule.to_dict()},
                "b": {"learning_rate": self.agent_b.learning_rate,
                      "discount": self.agent_b.discount,
                      "schedule": self.agent_b.schedule.to_dict()},
            },
            "ensemble": {"kind": self.policy.kind, "mu": self.policy.mu,
                         "t": self.policy.t},
            "plant": dict(self.plant_overrides),
            "sweep": {"repeats": self.sweep_repeats,
                      "base_seed": self.sweep_base_seed,
                      "episodes": self.sweep_episodes},
            "eval": {"cycles": list(self.eval_cycles),
                     "initial_socs": list(self.eval_initial_socs)},
            "dp": {"soc_nodes": self.dp_soc_nodes},
        }


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


def _is_finite_number(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(data: dict, key: str, path: str, problems: list[str],
            default: float, low: float | None = None,
            high: float | None = None) -> float:
    if key not in data or data[key] is None:
        return default
    value = data[key]
    if not _is_finite_number(value):
        problems.append(f"{path}.{key}: expected a finite number, got {value!r}")
        return default
    value = float(value)
    if low is not None and value < low:
        problems.append(f"{path}.{key}: must be >= {low}, got {value}")
        return default
    if high is not None and value > high:
        problems.append(f"{path}.{key}: must be <= {high}, got {value}")
        return default
    return value


def _integer(data: dict, key: str, path: str, problems: list[str],
             default: int, low: int = 1) -> int:
    if key not in data or data[key] is None:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{path}.{key}: expected an integer, got {value!r}")
        return default
    if value < low:
        problems.append(f"{path}.{key}: must be >= {low}, got {value}")
        return default
    return value


def _agent(data: object, path: str, problems: list[str],
           default: LearnerConfig) -> LearnerConfig:
    section = _want_mapping(data, path, problems)
    if not section:
        return default
    _check_keys(section, _AGENT_KEYS, path, problems)
    lr = _number(section, "learning_rate", path, problems,
                 default.learning_rate, low=1e-12, high=1.0)
    discount = _number(section, "discount", path, problems,
                       default.discount, low=0.0, high=1.0)
    schedule = default.schedule
    sched = section.get("schedule")
    if isinstance(sched, dict):
        try:
            schedule = E2ESchedule.from_dict(dict(sched))
        except ValueError as exc:
            problems.append(f"{path}.schedule: {exc}")
    else:
        _want_mapping(sched, f"{path}.schedule", problems)  # None keeps the default
    try:
        return LearnerConfig(learning_rate=lr, discount=discount, schedule=schedule)
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return default


def parse_config(data: object) -> RunConfig:
    """Turn parsed YAML into a ``RunConfig``; raises ``ConfigError``."""
    problems: list[str] = []
    root = _want_mapping(data, "config", problems)
    if problems:
        raise ConfigError(problems)
    _check_keys(root, set(_SECTIONS), "config", problems)

    label = root.get("label", DEFAULT_CONFIG.label)
    if not isinstance(label, str) or not label:
        problems.append(f"config.label: expected a non-empty string, got {label!r}")
        label = DEFAULT_CONFIG.label

    cycle = _want_mapping(root.get("cycle"), "config.cycle", problems)
    _check_keys(cycle, _SECTIONS["cycle"], "config.cycle", problems)
    cycle_builtin = cycle.get("builtin")
    cycle_path = cycle.get("path")
    if cycle_builtin is not None and cycle_path is not None:
        problems.append("config.cycle: give either builtin or path, not both")
    if cycle_builtin is None and cycle_path is None:
        cycle_builtin = DEFAULT_CONFIG.cycle_builtin
    if cycle_builtin is not None and cycle_builtin not in BUILTIN_CYCLE_NAMES:
        problems.append(
            f"config.cycle.builtin: must be one of {sorted(BUILTIN_CYCLE_NAMES)}, "
            f"got {cycle_builtin!r}")
    if cycle_path is not None and not isinstance(cycle_path, str):
        problems.append(f"config.cycle.path: expected a string, got {cycle_path!r}")
    cycle_dt = _number(cycle, "dt_s", "config.cycle", problems,
                       DEFAULT_CONFIG.cycle_dt_s, low=1e-9)

    run = _want_mapping(root.get("run"), "config.run", problems)
    _check_keys(run, _SECTIONS["run"], "config.run", problems)
    mode = run.get("mode", DEFAULT_CONFIG.mode)
    if mode not in ("single", "ensemble"):
        problems.append(f"config.run.mode: must be 'single' or 'ensemble', got {mode!r}")
        mode = DEFAULT_CONFIG.mode
    episodes = _integer(run, "episodes", "config.run", problems,
                        DEFAULT_CONFIG.episodes)
    initial_soc = _number(run, "initial_soc", "config.run", problems,
                          DEFAULT_CONFIG.initial_soc, low=0.0, high=1.0)
    seeds = DEFAULT_CONFIG.seeds
    if "seeds" in run and run["seeds"] is not None:
        raw = run["seeds"]
        if (not isinstance(raw, list) or not raw
                or any(isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in raw)):
            problems.append(
                f"config.run.seeds: expected a non-empty list of integers >= 0, got {raw!r}")
        elif len(set(raw)) != len(raw):
            problems.append(f"config.run.seeds: duplicate seeds in {raw!r}")
        else:
            seeds = tuple(raw)

    grids = _want_mapping(root.get("grids"), "config.grids", problems)
    _check_keys(grids, _SECTIONS["grids"], "config.grids", problems)
    p_dem_bins = _integer(grids, "p_dem_bins", "config.grids", problems,
                          DEFAULT_CONFIG.p_dem_bins, low=2)
    soc_bins = _integer(grids, "soc_bins", "config.grids", problems,
                        DEFAULT_CONFIG.soc_bins, low=2)
    action_levels = _integer(grids, "action_levels", "config.grids", problems,
                             DEFAULT_CONFIG.action_levels, low=2)

    agents = _want_mapping(root.get("agents"), "config.agents", problems)
    _check_keys(agents, _SECTIONS["agents"], "config.agents", problems)
    agent_a = _agent(agents.get("a"), "config.agents.a", problems,
                     DEFAULT_CONFIG.agent_a)
    agent_b = _agent(agents.get("b"), "config.agents.b", problems,
                     DEFAULT_CONFIG.agent_b)

    ens = _want_mapping(root.get("ensemble"), "config.ensemble", problems)
    _check_keys(ens, _SECTIONS["ensemble"], "config.ensemble", problems)
    kind = ens.get("kind", DEFAULT_CONFIG.policy.kind)
    policy = DEFAULT_CONFIG.policy
    if kind not in POLICY_KINDS:
        problems.append(
            f"config.ensemble.kind: must be one of {POLICY_KINDS}, got {kind!r}")
    else:
        mu = _number(ens, "mu", "config.ensemble", problems,
                     DEFAULT_CONFIG.policy.mu, low=0.0, high=1.0)
        t = _number(ens, "t", "config.ensemble", problems,
                    DEFAULT_CONFIG.policy.t, low=0.0, high=1.0)
        delta = _number(ens, "delta", "config.ensemble", problems,
                        1.0 - mu, low=0.0, high=1.0)
        if abs(mu + delta - 1.0) > 1e-9:
            problems.append(
                f"config.ensemble: mu + delta must equal 1, got {mu} + {delta}")
        else:
            try:
                if kind == "weighted":
                    policy = EnsemblePolicy.weighted(mu)
                else:
                    policy = EnsemblePolicy(kind=kind, t=t)
            except ValueError as exc:
                problems.append(f"config.ensemble: {exc}")

    plant = _want_mapping(root.get("plant"), "config.plant", problems)
    _check_keys(plant, _SECTIONS["plant"], "config.plant", problems)
    overrides = [(key, _number(plant, key, "config.plant", problems, 0.0))
                 for key in _PLANT_KEYS if plant.get(key) is not None]

    sweep = _want_mapping(root.get("sweep"), "config.sweep", problems)
    _check_keys(sweep, _SECTIONS["sweep"], "config.sweep", problems)
    sweep_repeats = _integer(sweep, "repeats", "config.sweep", problems,
                             DEFAULT_CONFIG.sweep_repeats)
    sweep_base_seed = _integer(sweep, "base_seed", "config.sweep", problems,
                               DEFAULT_CONFIG.sweep_base_seed, low=0)
    sweep_episodes = _integer(sweep, "episodes", "config.sweep", problems,
                              DEFAULT_CONFIG.sweep_episodes)

    ev = _want_mapping(root.get("eval"), "config.eval", problems)
    _check_keys(ev, _SECTIONS["eval"], "config.eval", problems)
    eval_cycles = DEFAULT_CONFIG.eval_cycles
    if "cycles" in ev and ev["cycles"] is not None:
        raw = ev["cycles"]
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(c, str) for c in raw)):
            problems.append(
                f"config.eval.cycles: expected a non-empty list of names, got {raw!r}")
        else:
            eval_cycles = tuple(raw)
    eval_socs = DEFAULT_CONFIG.eval_initial_socs
    if "initial_socs" in ev and ev["initial_socs"] is not None:
        raw = ev["initial_socs"]
        if (not isinstance(raw, list) or not raw
                or not all(map(_is_finite_number, raw))):
            problems.append(
                f"config.eval.initial_socs: expected a non-empty list of finite numbers, "
                f"got {raw!r}")
        else:
            eval_socs = tuple(float(s) for s in raw)

    dp = _want_mapping(root.get("dp"), "config.dp", problems)
    _check_keys(dp, _SECTIONS["dp"], "config.dp", problems)
    dp_nodes = _integer(dp, "soc_nodes", "config.dp", problems,
                        DEFAULT_CONFIG.dp_soc_nodes, low=3)

    if problems:
        raise ConfigError(problems)

    config = RunConfig(
        label=label, cycle_builtin=cycle_builtin, cycle_path=cycle_path,
        cycle_dt_s=cycle_dt, mode=mode, episodes=episodes,
        initial_soc=initial_soc, seeds=seeds, p_dem_bins=p_dem_bins,
        soc_bins=soc_bins, action_levels=action_levels, agent_a=agent_a,
        agent_b=agent_b, policy=policy, plant_overrides=tuple(overrides),
        sweep_repeats=sweep_repeats, sweep_base_seed=sweep_base_seed,
        sweep_episodes=sweep_episodes, eval_cycles=eval_cycles,
        eval_initial_socs=eval_socs, dp_soc_nodes=dp_nodes)

    # Cross-field checks need the built objects; surface them the same way.
    try:
        models = config.build_models()
    except ValueError as exc:
        raise ConfigError([f"config.plant: {exc}"]) from exc
    battery = models.battery
    if not battery.soc_min <= config.initial_soc <= battery.soc_max:
        raise ConfigError([
            f"config.run.initial_soc: {config.initial_soc} outside the battery "
            f"window [{battery.soc_min}, {battery.soc_max}]"])
    bad = [s for s in config.eval_initial_socs
           if not battery.soc_min <= s <= battery.soc_max]
    if bad:
        raise ConfigError([
            f"config.eval.initial_socs: {bad} outside the battery window "
            f"[{battery.soc_min}, {battery.soc_max}]"])
    return config


def validate_config(data: object) -> list[str]:
    """Like ``parse_config`` but returns the problem list instead of raising."""
    try:
        parse_config(data)
    except ConfigError as exc:
        return exc.problems
    return []


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a YAML config file; raises ``ConfigError`` on problems."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ConfigError([f"config: file not found: {path}"]) from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: not valid YAML: {exc}"]) from exc
    return parse_config(data)
