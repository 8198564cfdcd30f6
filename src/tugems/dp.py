"""Deterministic dynamic-programming reference for a fixed drive cycle.

Backward value iteration over a discretized SoC axis (plus the binary
charge-sustain latch) gives a near-optimal lower bound on the cumulative
engine-plus-battery loss any controller can achieve on the cycle, subject
to the end SoC not dipping below the sustain reference.  The array stage
repeats :func:`tugems.powertrain.step_kernel` but for ``np.interp``'s form of
the battery curves (the two agree to 1e-12 relative), and the greedy rollout
chooses and books each step on the kernel itself, so learned policies compare
against the bound directly; the remaining gap is the value-interpolation
error, bounded by one SoC node of pack energy.

The terminal constraint enters as a finite linear price on the end-SoC
deficit.  The price per joule of missing charge exceeds the steepest
marginal saving the plant can extract from a joule of battery energy, so
the relaxation never pays off by more than interpolation noise; keeping it
finite (instead of a near-infinite wall) is what stops trajectories that
ride just above the floor from absorbing enormous interpolation error out
of the penalized cell.  Genuine infeasibility is detected separately by a
forward pass at full generator power, which maximizes the reachable end
SoC step by step.

The backward pass keeps the ``T x 2 x S`` value table and stages a block of
steps per call over distinct rows only: a node's two latch modes share one
row unless the latch engages there.  Scratch is ``O(block x S x A)``, and
each float operation is the per-step form's, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive_cycle import DriveCycle
from .powertrain import PlantModels, step_kernel
from .qlearn import ActionGrid

__all__ = ["DpResult", "dp_baseline", "dp_slack_energy_j", "episode_loss_j"]

# Terminal price in J per J of end-SoC energy deficit.  The most a joule
# of battery deficit can save is the engine loss of not generating it,
# about 2.2 J at the worst in-range operating point, plus small battery
# round-trip terms; pricing it at 3 keeps deficits strictly unprofitable.
_DEFICIT_PRICE_PER_J = 3.0

# Steps per backward-pass _stage call.  Blocks of 8 to 64 steps solved PRDC-1
# and PRDC-4 equally fast within noise, and 1 step took 1.7x as long; 16
# keeps each (16, 101, 11) scratch array near 140 kB.
_BLOCK_STEPS = 16


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


def _latched(models: PlantModels, soc, latch: bool):
    """The kernel's latch rule at ``soc`` (float or array): engaged strictly
    below the sustain threshold, held until SoC clears threshold + margin."""
    if latch:
        return soc < models.charge_sustain_soc + models.charge_release_margin
    return soc < models.charge_sustain_soc


def _stage(models: PlantModels, soc: np.ndarray, base_w: np.ndarray,
           p_link_w: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized plant stage over (step, EGU command, soc node) combinations.

    ``soc`` (S,) are SoC nodes, ``base_w`` (A,) the EGU commands after the
    charge-sustain override (the ladder, or full power on a latched row) and
    ``p_link_w`` (K,) the DC-link demand of K steps; returns the cost (J)
    and the next SoC, both of shape (K, A, S).
    """
    battery = models.battery
    egu = models.egu
    u = np.interp(soc, *zip(*battery.voltage_curve))  # V
    r = np.interp(soc, *zip(*battery.resistance_curve))
    pack_volt = u * battery.num_cells
    coulomb = battery.coulomb_capacity
    dis_cap = np.minimum(battery.max_discharge_power_w,
                         (soc - battery.soc_min) * coulomb / dt * pack_volt)
    chg_cap = np.minimum(battery.max_charge_power_w,
                         (battery.soc_max - soc) * coulomb / dt * pack_volt)

    p_link = p_link_w[:, None, None]
    lo = p_link - dis_cap
    hi = p_link + chg_cap
    p_egu = np.minimum(egu.max_power_w,
                       np.maximum(0.0, np.minimum(np.maximum(base_w[:, None], lo), hi)))
    p_batt = np.minimum(dis_cap, np.maximum(-chg_cap, p_link - p_egu))

    fuel = np.where(p_egu > 0.0,
                    (egu.fuel_b2 * p_egu + egu.fuel_b1) * p_egu + egu.fuel_b0, 0.0)
    engine_loss = fuel - p_egu
    i_cell = p_batt / pack_volt  # A
    battery_loss = r * i_cell * i_cell * battery.num_cells
    cost = (engine_loss + battery_loss) * dt  # J

    soc_next = soc - i_cell * dt / coulomb
    return cost, np.clip(soc_next, battery.soc_min, battery.soc_max)


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
        the terminal constraint, if an action level lies outside the EGU
        rating, or if ``initial_soc`` lies outside the battery window.
    """
    if soc_nodes < 2:
        raise ValueError(f"soc_nodes must be at least 2, got {soc_nodes}")
    battery = models.battery
    battery.check_in_window("initial_soc", initial_soc)
    for level in actions.levels_w:
        models.egu.check_command(level)
    if end_soc_min is None:
        end_soc_min = models.soc_ref

    p_top = models.egu.max_power_w
    nodes = np.linspace(battery.soc_min, battery.soc_max, soc_nodes)
    spacing = float(nodes[1] - nodes[0])
    levels = np.asarray(actions.levels_w)
    p_max = np.array([p_top])
    demand = cycle.demand_w
    links = models.motor.link_power(demand)
    dt = cycle.dt_s
    n_steps = len(demand)

    # The terminal floor is rounded DOWN to the grid: a kink between nodes
    # cannot be represented under linear interpolation, and penalizing the
    # node just below the floor would mark trajectories that hold exactly
    # end_soc_min as infeasible.  Relaxing by less than one node spacing
    # keeps the solution a valid lower bound within the advertised slack.
    end_floor = float(nodes[np.searchsorted(nodes, end_soc_min + 1e-12) - 1])

    # Feasibility check on the exact plant: commanding full power every
    # step maximizes charging (any other command can only lower the next
    # SoC, and reachable end SoC is monotone in the current SoC).  The cycle
    # and the checks above vouch for the kernel's arguments.
    kernel = step_kernel(models)
    demand_list, link_list = demand.tolist(), links.tolist()
    soc, latch = initial_soc, False
    for p, link in zip(demand_list, link_list):
        *_, latch, soc, _ = kernel(soc, latch, p, link, p_top, dt)
    if soc < end_floor - 1e-12:
        raise ValueError(
            f"terminal constraint end-SoC >= {end_soc_min} is infeasible for "
            f"cycle {cycle.label or '<unnamed>'!r} from SoC {initial_soc}: full "
            f"generator power only reaches {soc:.4f}")

    price = (_DEFICIT_PRICE_PER_J * battery.coulomb_capacity
             * battery.cell_voltage(end_floor) * battery.num_cells)

    # Backward pass, keeping every step's value table (T x 2 x S is a few
    # MB at most) so the rollout can steer by interpolated cost-to-go.  Free
    # rows (ladder, mode-0 table) cover the nodes the latch spares in mode 0,
    # latched rows (full power, mode-1 table) those it holds in mode 1; both
    # sets are runs of the ascending nodes, so a mode's row splits at a count.
    n_sus, n_rel = (int(_latched(models, nodes, latch).sum()) for latch in (False, True))
    terminal = price * np.maximum(0.0, end_floor - nodes)
    values = np.empty((n_steps + 1, 2, soc_nodes))
    values[n_steps] = np.stack([terminal, terminal])
    for stop in range(n_steps, 0, -_BLOCK_STEPS):
        start = max(0, stop - _BLOCK_STEPS)
        cost_f, next_f = _stage(models, nodes[n_sus:], levels, links[start:stop], dt)
        cost_l, next_l = _stage(models, nodes[:n_rel], p_max, links[start:stop], dt)
        for k in range(stop - start - 1, -1, -1):
            free = (cost_f[k] + np.interp(next_f[k], nodes, values[start + k + 1, 0])).min(axis=0)
            held = cost_l[k, 0] + np.interp(next_l[k, 0], nodes, values[start + k + 1, 1])
            row = values[start + k]
            row[0, :n_sus], row[0, n_sus:] = held[:n_sus], free
            row[1, :n_rel], row[1, n_rel:] = held, free[n_rel - n_sus:]

    cost_j = float(np.interp(initial_soc, nodes, values[0][0]))

    # Greedy rollout on the kernel by loss plus interpolated cost-to-go (no
    # snapping to a node); out[10], [12], [13] are the loss, latch and SoC.
    # Level 0 runs first; a latched step (full power whatever the command) stops there.
    chosen: list[int] = []
    rollout_cost = 0.0
    soc, latch = initial_soc, False
    for t in range(n_steps):
        p, link = demand_list[t], link_list[t]
        a, out = 0, kernel(soc, latch, p, link, actions.levels_w[0], dt)
        if not out[12]:
            outs = [out, *(kernel(soc, latch, p, link, level, dt)
                           for level in actions.levels_w[1:])]
            to_go = np.interp([o[13] for o in outs], nodes, values[t + 1, 0]).tolist()
            totals = [o[10] * dt + v for o, v in zip(outs, to_go)]
            a = totals.index(min(totals))
            out = outs[a]
        chosen.append(a)
        rollout_cost += out[10] * dt  # engine plus battery loss
        latch, soc = out[12], out[13]

    return DpResult(cost_j=cost_j, actions=tuple(chosen),
                    rollout_cost_j=rollout_cost,
                    rollout_end_soc=soc,
                    soc_node_spacing=spacing)
