"""Deterministic dynamic-programming reference for a fixed drive cycle.

Backward value iteration over a discretized SoC axis (plus the binary
charge-sustain latch) gives a near-optimal lower bound on the cumulative
engine-plus-battery loss any controller can achieve on the cycle, subject
to the end SoC not dipping below the sustain reference.  The stage dynamics
replicate :func:`tugems.powertrain.step_kernel` operation for operation, so
learned policies can be compared against the bound directly; the remaining
gap is the value-interpolation error, bounded by one SoC node of pack
energy.

The terminal constraint enters as a finite linear price on the end-SoC
deficit.  The price per joule of missing charge exceeds the steepest
marginal saving the plant can extract from a joule of battery energy, so
the relaxation never pays off by more than interpolation noise; keeping it
finite (instead of a near-infinite wall) is what stops trajectories that
ride just above the floor from absorbing enormous interpolation error out
of the penalized cell.  Genuine infeasibility is detected separately by a
forward pass at full generator power, which maximizes the reachable end
SoC step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive_cycle import DriveCycle
from .powertrain import Plant, PlantModels
from .qlearn import ActionGrid

__all__ = ["DpResult", "dp_baseline", "dp_slack_energy_j", "episode_loss_j"]

# Terminal price in J per J of end-SoC energy deficit.  The most a joule
# of battery deficit can save is the engine loss of not generating it,
# about 2.2 J at the worst in-range operating point, plus small battery
# round-trip terms; pricing it at 3 keeps deficits strictly unprofitable.
_DEFICIT_PRICE_PER_J = 3.0


@dataclass(frozen=True)
class DpResult:
    """Value and greedy rollout of the dynamic program."""

    cost_j: float              # interpolated optimal cost at the initial SoC
    actions: tuple[int, ...]   # action-ladder indices of the greedy rollout
    rollout_cost_j: float      # loss the rollout actually accrued
    rollout_end_soc: float
    soc_node_spacing: float


def dp_slack_energy_j(models: PlantModels, soc_node_spacing: float) -> float:
    """Pack energy of one SoC node at the reference-SoC cell voltage (J)."""
    battery = models.battery
    return (soc_node_spacing * battery.coulomb_capacity
            * battery.cell_voltage(models.soc_ref) * battery.num_cells)


def episode_loss_j(metrics) -> float:
    """Engine-plus-battery loss of an episode, the quantity DP minimizes."""
    return metrics.engine_loss_j + metrics.battery_loss_j


def _stage(models: PlantModels, soc: np.ndarray, mode: np.ndarray,
           levels: np.ndarray, p_dem: float, dt: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized plant stage over (mode, soc node, action) combinations.

    ``soc`` and ``mode`` broadcast against ``levels``; returns per-action
    cost (J), next SoC, and the next charge-sustain latch.
    """
    battery = models.battery
    egu = models.egu
    p_link = models.motor.link_power(p_dem)  # W, scalar

    active = np.where(mode, soc < models.charge_sustain_soc + models.charge_release_margin,
                      soc < models.charge_sustain_soc)
    u = np.interp(soc, battery.voltage_curve.xs, battery.voltage_curve.ys)  # V
    r = np.interp(soc, battery.resistance_curve.xs, battery.resistance_curve.ys)
    pack_volt = u * battery.num_cells
    coulomb = battery.coulomb_capacity
    dis_cap = np.minimum(battery.max_discharge_power_w,
                         (soc - battery.soc_min) * coulomb / dt * pack_volt)
    chg_cap = np.minimum(battery.max_charge_power_w,
                         (battery.soc_max - soc) * coulomb / dt * pack_volt)

    p_egu_base = np.where(active[..., None], egu.max_power_w, levels)
    lo = (p_link - dis_cap)[..., None]
    hi = (p_link + chg_cap)[..., None]
    p_egu = np.minimum(egu.max_power_w,
                       np.maximum(0.0, np.minimum(np.maximum(p_egu_base, lo), hi)))
    p_batt = np.minimum(dis_cap[..., None],
                        np.maximum(-chg_cap[..., None], p_link - p_egu))

    fuel = np.where(p_egu > 0.0,
                    (egu.fuel_b2 * p_egu + egu.fuel_b1) * p_egu + egu.fuel_b0, 0.0)
    engine_loss = fuel - p_egu
    i_cell = p_batt / pack_volt[..., None]  # A
    battery_loss = r[..., None] * i_cell * i_cell * battery.num_cells
    cost = (engine_loss + battery_loss) * dt  # J

    soc_next = soc[..., None] - i_cell * dt / coulomb
    soc_next = np.clip(soc_next, battery.soc_min, battery.soc_max)
    mode_next = np.broadcast_to(active[..., None], p_egu.shape)
    return cost, soc_next, mode_next


def dp_baseline(cycle: DriveCycle, actions: ActionGrid, models: PlantModels,
                initial_soc: float, soc_nodes: int = 101,
                end_soc_min: float | None = None) -> DpResult:
    """Solve the minimum-loss control problem for one cycle.

    Parameters
    ----------
    soc_nodes : int
        Number of SoC grid nodes across the battery window (<= 101 keeps
        the sweep quick; the default is the full 101).
    end_soc_min : float, optional
        Terminal SoC floor; defaults to the models' ``soc_ref``.

    Raises
    ------
    ValueError
        If even full generator power throughout the cycle cannot satisfy
        the terminal constraint, or (from :class:`Plant`) if ``initial_soc``
        lies outside the battery window.
    """
    if soc_nodes < 2:
        raise ValueError(f"soc_nodes must be at least 2, got {soc_nodes}")
    battery = models.battery
    if end_soc_min is None:
        end_soc_min = models.soc_ref

    nodes = np.linspace(battery.soc_min, battery.soc_max, soc_nodes)
    spacing = float(nodes[1] - nodes[0])
    levels = np.asarray(actions.levels_w)
    demand = cycle.demand_w
    dt = cycle.dt_s
    n_steps = len(demand)
    mode_grid = np.array([[False], [True]])  # (2, 1) broadcasts over nodes
    soc_grid = nodes[None, :]  # (1, S)

    # The terminal floor is rounded DOWN to the grid: a kink between nodes
    # cannot be represented under linear interpolation, and penalizing the
    # node just below the floor would mark trajectories that hold exactly
    # end_soc_min as infeasible.  Relaxing by less than one node spacing
    # keeps the solution a valid lower bound within the advertised slack.
    end_floor = float(nodes[np.searchsorted(nodes, end_soc_min + 1e-12) - 1])

    # Feasibility check on the exact plant: commanding full power every
    # step maximizes charging (any other command can only lower the next
    # SoC, and reachable end SoC is monotone in the current SoC).
    probe = Plant(models, initial_soc)
    for p in demand:
        probe.step(float(p), models.egu.max_power_w, dt)
    if probe.state.soc < end_floor - 1e-12:
        raise ValueError(
            f"terminal constraint end-SoC >= {end_soc_min} is infeasible for "
            f"cycle {cycle.label or '<unnamed>'!r} from SoC {initial_soc}: full "
            f"generator power only reaches {probe.state.soc:.4f}")

    price = (_DEFICIT_PRICE_PER_J * battery.coulomb_capacity
             * battery.cell_voltage(end_floor) * battery.num_cells)

    # Backward pass, keeping every step's value table (T x 2 x S is a few
    # MB at most) so the rollout can steer by interpolated cost-to-go.
    terminal = price * np.maximum(0.0, end_floor - nodes)
    values = np.empty((n_steps + 1, 2, soc_nodes))
    values[n_steps] = np.stack([terminal, terminal])
    for t in range(n_steps - 1, -1, -1):
        cost, soc_next, mode_next = _stage(models, soc_grid, mode_grid,
                                           levels, float(demand[t]), dt)
        flat = soc_next.ravel()
        v0 = np.interp(flat, nodes, values[t + 1][0]).reshape(soc_next.shape)
        v1 = np.interp(flat, nodes, values[t + 1][1]).reshape(soc_next.shape)
        values[t] = (cost + np.where(mode_next, v1, v0)).min(axis=-1)

    cost_j = float(np.interp(initial_soc, nodes, values[0][0]))

    # Greedy rollout on the continuous plant, choosing each step by the
    # interpolated cost-to-go (not by snapping the state to a node).
    plant = Plant(models, initial_soc)
    chosen: list[int] = []
    rollout_cost = 0.0
    for t in range(n_steps):
        soc_now = np.array([[plant.state.soc]])
        mode_now = np.array([[plant.state.forced_charging]])
        cost, soc_next, mode_next = _stage(models, soc_now, mode_now,
                                           levels, float(demand[t]), dt)
        flat = soc_next.ravel()
        v0 = np.interp(flat, nodes, values[t + 1][0]).reshape(soc_next.shape)
        v1 = np.interp(flat, nodes, values[t + 1][1]).reshape(soc_next.shape)
        total = (cost + np.where(mode_next, v1, v0))[0, 0]
        a = int(total.argmin())
        chosen.append(a)
        outcome = plant.step(float(demand[t]), actions.level(a), dt)
        rollout_cost += (outcome.engine_loss_w + outcome.battery_loss_w) * dt

    return DpResult(cost_j=cost_j, actions=tuple(chosen),
                    rollout_cost_j=rollout_cost,
                    rollout_end_soc=plant.state.soc,
                    soc_node_spacing=spacing)
