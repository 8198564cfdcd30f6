"""Shared fixtures: stock models, grids, and small deterministic cycles, plus
a cycle CSV writer."""

from pathlib import Path

import numpy as np
import pytest

from tugems.drive_cycle import DriveCycle
from tugems.powertrain import PlantModels, default_models
from tugems.qlearn import ActionGrid, StateGrid


def write_cycle_csv(cycle: DriveCycle, path: str | Path) -> None:
    """Write ``cycle`` in the ``t_s,p_dem_w`` CSV format that ``load_cycle``
    reads, floats as ``repr``, so that loading it gives back the same bits."""
    lines = ["t_s,p_dem_w", *(f"{i * cycle.dt_s!r},{p!r}"
                              for i, p in enumerate(cycle.demand_w.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


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
