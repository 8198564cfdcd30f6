"""Ensemble tabular Q-learning energy management for a series-hybrid
aircraft-towing tractor.

The package splits along the physical and algorithmic seams:

* :mod:`tugems.powertrain`: generator set, traction motor, battery, and the
  per-step plant dispatch with exact energy bookkeeping.
* :mod:`tugems.drive_cycle`: power-demand time series, CSV loading, and
  synthetic towing cycles.
* :mod:`tugems.qlearn`: state/action grids, exploration schedules, Q-tables,
  and seeded RNG streams.
* :mod:`tugems.ensemble`: two-agent action combination policies and the
  episode loop.
* :mod:`tugems.metrics`: overall energy consumption and efficiency of an
  episode.
* :mod:`tugems.experiment`: learning runs, weight sweeps, robustness tables,
  CSV artifacts.
* :mod:`tugems.dp`: dynamic-programming reference cost.
* :mod:`tugems.config` / :mod:`tugems.cli`: YAML configs and the ``tugems``
  command.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
