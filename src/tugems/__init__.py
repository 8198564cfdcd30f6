"""Ensemble tabular Q-learning energy management for a series-hybrid
aircraft-towing tractor.

The package splits along the physical and algorithmic seams:

* :mod:`tugems.powertrain`: generator set, traction motor, battery, and the
  per-step plant dispatch with exact energy bookkeeping.
* :mod:`tugems.drive_cycle`: power-demand time series, CSV I/O, and
  synthetic towing cycles.
* :mod:`tugems.qlearn`: state/action grids, exploration schedules, Q-tables,
  and seeded RNG streams.
* :mod:`tugems.ensemble`: two-agent action combination policies and the
  episode loops.
* :mod:`tugems.metrics`: overall energy consumption and efficiency of an
  episode.
* :mod:`tugems.experiment`: learning runs, weight sweeps, robustness tables,
  CSV artifacts.
* :mod:`tugems.dp`: dynamic-programming reference cost.
* :mod:`tugems.config` / :mod:`tugems.cli`: YAML configs and the ``tugems``
  command.
"""

__version__ = "0.1.0"

from .drive_cycle import (BUILTIN_CYCLE_NAMES, CycleError, DriveCycle,
                          builtin_cycle, load_cycle, save_cycle, synth_cycle)
from .ensemble import (EnsemblePolicy, combine_max, combine_random,
                       combine_weighted, run_ensemble_episode,
                       run_single_episode)
from .metrics import EpisodeMetrics, energy_efficiency
from .powertrain import (BatteryModel, EguModel, Plant, PlantModels,
                         PlantState, TractionMotorModel, default_models,
                         egu_efficiency, egu_fuel_power)
from .qlearn import (ActionGrid, Agent, E2ESchedule, LearnerConfig, QTable,
                     StateGrid, discretize, e2e_value, load_qtable, make_rng,
                     q_update, save_qtable, select_action)
from .experiment import (RunResult, RunSetup, robustness_eval, run_learning,
                         savings, sweep_weights)
from .dp import DpResult, dp_baseline, dp_slack_energy_j
from .config import ConfigError, RunConfig, load_config

__all__ = [
    "__version__",
    # powertrain
    "TractionMotorModel", "EguModel", "BatteryModel", "PlantModels",
    "PlantState", "Plant", "egu_fuel_power", "egu_efficiency", "default_models",
    # drive cycles
    "DriveCycle", "CycleError", "BUILTIN_CYCLE_NAMES", "builtin_cycle",
    "load_cycle", "save_cycle", "synth_cycle",
    # learning
    "StateGrid", "ActionGrid", "discretize", "E2ESchedule", "e2e_value",
    "QTable", "select_action", "q_update", "LearnerConfig", "Agent",
    "make_rng", "save_qtable", "load_qtable",
    # ensemble
    "EnsemblePolicy", "combine_max", "combine_random", "combine_weighted",
    "run_single_episode", "run_ensemble_episode",
    # metrics and experiments
    "EpisodeMetrics", "energy_efficiency", "RunSetup", "RunResult",
    "run_learning", "savings", "sweep_weights", "robustness_eval",
    # dynamic programming
    "DpResult", "dp_baseline", "dp_slack_energy_j",
    # config
    "RunConfig", "ConfigError", "load_config",
]
