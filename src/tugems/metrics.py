"""Episode-level energy bookkeeping built from plant integration state.

The overall energy consumption (OEC) of an episode is everything the plant
drew: fuel chemical energy plus what left the battery store, where the
store contribution counts the terminal energy and the resistive dissipation.
Under that definition the ledger closes exactly::

    oec == traction output + engine loss + battery loss + traction loss

up to float accumulation, which the tests bound at 1e-6 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .powertrain import BatteryModel, PlantState

__all__ = ["EpisodeMetrics", "episode_metrics"]


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary of one simulated episode."""

    energy_efficiency: float | None  # traction output / OEC; None when nothing was drawn
    oec_j: float
    start_soc: float
    end_soc: float
    mean_soc: float
    total_loss_j: float
    engine_loss_j: float
    battery_loss_j: float
    traction_loss_j: float
    fuel_energy_j: float
    battery_draw_j: float
    traction_output_j: float
    shortfall_j: float
    total_reward: float
    forced_charge_steps: int
    steps: int

    def __post_init__(self) -> None:
        if self.energy_efficiency is not None and not 0.0 <= self.energy_efficiency <= 1.0:
            raise ValueError(
                f"energy_efficiency must be in [0, 1], got {self.energy_efficiency}")
        if self.oec_j < 0.0:
            raise ValueError(f"oec_j must be non-negative, got {self.oec_j}")


def episode_metrics(state: PlantState, _battery: BatteryModel, start_soc: float,
                    mean_soc: float, total_reward: float) -> EpisodeMetrics:
    """Assemble :class:`EpisodeMetrics` from an episode-end plant state.

    The ledger alone makes the figures; the unread battery argument keeps
    the positional signature that callers, the acceptance suite among them,
    pass.
    """
    oec = (state.cumulative_fuel_energy + state.cumulative_battery_draw
           + state.cumulative_battery_loss)
    total_loss = (state.cumulative_engine_loss + state.cumulative_battery_loss
                  + state.cumulative_traction_loss)
    # A lossless zero-demand run draws nothing, and the ratio is undefined.
    efficiency = (None if oec <= 0.0
                  else min(1.0, max(0.0, state.cumulative_traction_output / oec)))
    return EpisodeMetrics(
        energy_efficiency=efficiency,
        oec_j=oec,
        start_soc=start_soc,
        end_soc=state.soc,
        mean_soc=mean_soc,
        total_loss_j=total_loss,
        engine_loss_j=state.cumulative_engine_loss,
        battery_loss_j=state.cumulative_battery_loss,
        traction_loss_j=state.cumulative_traction_loss,
        fuel_energy_j=state.cumulative_fuel_energy,
        battery_draw_j=state.cumulative_battery_draw,
        traction_output_j=state.cumulative_traction_output,
        shortfall_j=state.cumulative_shortfall,
        total_reward=total_reward,
        forced_charge_steps=state.forced_charge_steps,
        steps=state.steps,
    )
