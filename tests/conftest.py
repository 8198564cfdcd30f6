"""Shared fixtures: stock models, grids, and small deterministic cycles, plus
a pack with bent battery curves, a cycle CSV writer, a counter of eval
episodes and the stateless plant-step reference."""

from pathlib import Path

import numpy as np
import pytest

from tugems.drive_cycle import DriveCycle
from tugems.experiment import evaluate_policy
from tugems.powertrain import BatteryModel, Plant, PlantModels, StepOutcome, default_models
from tugems.qlearn import ActionGrid, StateGrid


# A pack whose voltage and resistance both bend at several SoCs.
BENT_BATTERY = BatteryModel(
    voltage_curve=((0.2, 3.3), (0.3, 3.52), (0.45, 3.61), (0.7, 3.8), (0.8, 4.05)),
    resistance_curve=((0.2, 0.045), (0.35, 0.031), (0.6, 0.028), (0.8, 0.034)))


def write_cycle_csv(cycle: DriveCycle, path: str | Path) -> None:
    """Write ``cycle`` in the ``t_s,p_dem_w`` CSV format that ``load_cycle``
    reads, floats as ``repr``, so that loading it gives back the same bits."""
    lines = ["t_s,p_dem_w", *(f"{i * cycle.dt_s!r},{p!r}"
                              for i, p in enumerate(cycle.demand_w.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def step_from(plant: Plant, soc: float, latch: bool, p_dem_w: float, p_egu_cmd_w: float,
              dt_s: float) -> StepOutcome:
    """``plant.step`` from SoC ``soc`` and charge-sustain latch ``latch`` on a
    fresh ledger: the stateless reference the step's other written forms are
    tested against.  One plant serves many calls; each resets its state."""
    plant.reset(soc)
    plant.state.forced_charging = latch
    return plant.step(p_dem_w, p_egu_cmd_w, dt_s)


def count_eval_episodes(monkeypatch) -> list:
    """Record the cycle label of every ``evaluate_policy`` call ``robustness_eval`` makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].label)
        return evaluate_policy(*args, **kwargs)

    monkeypatch.setattr("tugems.experiment.evaluate_policy", counting)
    return calls


@pytest.fixture(scope="session")
def models() -> PlantModels:
    return default_models()


@pytest.fixture(scope="session")
def grid() -> StateGrid:
    return StateGrid.uniform()


@pytest.fixture(scope="session")
def actions() -> ActionGrid:
    return ActionGrid.uniform()


@pytest.fixture()
def flat_cycle() -> DriveCycle:
    """60 s of constant 40 kW wheel demand."""
    return DriveCycle(1.0, np.full(60, 40_000.0), "flat-40k")


@pytest.fixture()
def bumpy_cycle() -> DriveCycle:
    """Deterministic 90-step mix of idle, cruise, and near-peak pulls."""
    demand = np.concatenate([
        np.zeros(10),
        np.full(25, 35_000.0),
        np.full(15, 120_000.0),
        np.full(10, 220_000.0),
        np.full(20, 18_000.0),
        np.zeros(10),
    ])
    return DriveCycle(1.0, demand, "bumpy-90")
