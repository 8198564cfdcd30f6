"""Deterministic dynamic-programming reference for a fixed drive cycle.

Backward value iteration over a discretized SoC axis (plus the binary
charge-sustain latch) estimates the least engine-plus-battery loss a
controller can achieve on the cycle with the end SoC at or above the sustain
reference.  It runs the learners' plant.  :func:`dp_solve` runs the backward
pass once, on :func:`tugems.powertrain.array_kernel` (the step's array twin),
and returns a rollout: one forward loop that books each step on
:func:`tugems.powertrain.ladder_kernel` (one state, a ladder of commands),
the step's one scalar form, which ``Plant.step`` runs with one command.
:func:`dp_baseline` is one solve rolled out once.  ``cost_j``, the
interpolated value at the initial SoC, is not a lower bound: linear
interpolation overestimates the cost-to-go.  From SoC 0.3, 0.5 and 0.7 on
the built-in cycles, ``cost_j`` is up to 1.9 SoC nodes of pack energy above
the achievable ``rollout_cost_j``.

The terminal constraint is a finite linear price on the end-SoC deficit,
above the steepest saving a joule of battery energy can buy, so the
relaxation never pays off by more than interpolation noise; a finite price
(not a near-infinite wall) stops trajectories riding just above the floor
from absorbing huge interpolation error out of the penalized cell.  Full
generator power maximizes the end SoC, so a rollout that meets the floor
proves the solve feasible.  Only one that falls short runs the full-power
check: the forward loop over the one-level ladder ``(p_max,)``.

The backward pass stages distinct rows only: a node's two latch modes share
one row unless the latch engages there.  The free and the latched stage
each prepare their nodes' SoC terms (latch, battery curves, power caps)
once per solve, and both are staged a block of steps per call, the latched
rows with one command, full power.  A block holds as many steps as keep its
``(steps, A, free nodes)`` arrays within a fixed element budget, and its
arrays are released before the next block is staged.  The recursion writes
the value table in place.  It keeps the mode-0 row of every step (the
rollout and ``cost_j`` read them) and one rolling mode-1 row: the solve's
memory is those ``(T + 1) x S`` values plus a few budget-sized scratch
arrays, whatever T is (one step's arrays, where one step alone passes the
budget).  Each float operation is the per-step form's, so results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drive_cycle import DriveCycle
from .powertrain import PlantModels, array_kernel, ladder_kernel
from .qlearn import ActionGrid

__all__ = ["DpResult", "dp_baseline", "dp_slack_energy_j", "dp_solve", "episode_loss_j"]

# Terminal price in J per J of end-SoC energy deficit.  The most a joule
# of battery deficit can save is the engine loss of not generating it,
# about 2.2 J at the worst in-range operating point, plus small battery
# round-trip terms; pricing it at 3 keeps deficits strictly unprofitable.
_DEFICIT_PRICE_PER_J = 3.0

# Elements per scratch array of a backward block (float64, about 240 kB).
# A block stages as many steps as keep its (steps, levels, free nodes)
# arrays within it, at least one: 32 steps at the stock 11 levels and 101
# nodes (87 free), 2 at 1 601 nodes and 1 at 6 401.  So the solve holds its
# (T + 1) x S value table and a few such arrays at any grid, where a fixed
# block length (and the whole cycle's latched rows staged at once) held
# about twice the table at 1 601 nodes and up.  dp_solve's tracemalloc
# peak on PRDC-2: 2.2 MiB at 101 nodes, 23.3 MiB at 1 601 (table 22.3 MiB),
# 92 MiB at 6 401 (table 89.3 MiB), against 3.1, 47.6 and 190 MiB that
# way.  At 101 nodes, blocks of 16, 32 and 64 steps ran the backward pass
# within 3 % of one another at the median, 32 was fastest at the minimum
# and 128 slower.
_SCRATCH_ELEMENTS = 32 * 11 * 87


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


def dp_solve(cycle: DriveCycle, actions: ActionGrid, models: PlantModels, soc_nodes: int = 101,
             end_soc_min: float | None = None) -> Callable[[float], DpResult]:
    """Solve the minimum-loss control problem for one cycle on ``soc_nodes``
    SoC nodes across the battery window, with the terminal SoC floor
    ``end_soc_min`` (default: the models' ``soc_ref``), backward once, and
    return ``rollout(initial_soc) -> DpResult``, its greedy forward pass.

    Raises ``ValueError`` if an action level lies outside the EGU rating or
    ``end_soc_min`` outside the battery window; the rollout raises it if
    ``initial_soc`` lies outside the window, or if even full generator power
    throughout the cycle cannot meet the floor.  That full-power pass runs
    only when the rollout ends below the floor: full power every step
    maximizes the end SoC (any other command can only lower the next SoC,
    and the reachable end SoC is monotone in the current SoC), so a rollout
    that meets the floor proves that full power does too.
    """
    if soc_nodes < 2:
        raise ValueError(f"soc_nodes must be at least 2, got {soc_nodes}")
    battery = models.battery
    for level in actions.levels_w:
        models.egu.check_command(level)
    if end_soc_min is None:
        end_soc_min = models.soc_ref
    battery.check_in_window("end_soc_min", end_soc_min)

    p_top = models.egu.max_power_w
    nodes = np.linspace(battery.soc_min, battery.soc_max, soc_nodes)
    levels = np.asarray(actions.levels_w)
    demand = cycle.demand_w
    links = models.motor.link_power(demand)
    dt = cycle.dt_s
    n_steps = len(demand)

    # The terminal floor is rounded DOWN to the grid: linear interpolation
    # cannot represent a kink between nodes, and penalizing the node just
    # below the floor would mark trajectories that hold exactly end_soc_min
    # as infeasible.  So the rollout may end up to one node below it.
    end_floor = float(nodes[np.searchsorted(nodes, end_soc_min + 1e-12) - 1])

    price = (_DEFICIT_PRICE_PER_J * battery.coulomb_capacity
             * battery.cell_voltage(end_floor) * battery.num_cells)

    # Backward pass; the rollout reads every step's mode-0 row.  Free rows
    # (ladder, mode-0 row) cover the nodes the latch spares in mode 0,
    # latched rows (full power, mode-1 row) those it holds in mode 1: runs of
    # ascending nodes, split at the count the twin latches from each mode.
    # Both are staged one block of steps at a time (see _SCRATCH_ELEMENTS).
    stage = array_kernel(models)
    n_sus, n_rel = (int(stage(nodes, mode, dt)(0.0, 0.0)[1].sum()) for mode in (False, True))
    free_stage, latched_stage = stage(nodes[n_sus:], False, dt), stage(nodes[:n_rel], True, dt)
    block = max(1, _SCRATCH_ELEMENTS // (len(levels) * (soc_nodes - n_sus)))
    terminal = price * np.maximum(0.0, end_floor - nodes)
    values = np.empty((n_steps + 1, soc_nodes))  # mode 0, every step
    values[n_steps] = terminal
    held = terminal.copy()  # mode 1, rolled back one step at a time
    for stop in range(n_steps, 0, -block):
        start = max(0, stop - block)
        cost_f, _, next_f = free_stage(links[start:stop, None], levels)
        cost_l, _, next_l = latched_stage(links[start:stop], p_top)
        cost_f *= dt  # J
        cost_l *= dt
        for k in range(stop - start - 1, -1, -1):
            t = start + k
            free = np.interp(next_f[k], nodes, values[t + 1])
            np.add(cost_f[k], free, out=free).min(axis=0, out=values[t, n_sus:])
            np.add(cost_l[k], np.interp(next_l[k], nodes, held), out=held[:n_rel])
            values[t, :n_sus] = held[:n_sus]
            held[n_rel:] = values[t, n_rel:]
        del cost_f, next_f, cost_l, next_l  # before the next block is staged

    # The one forward pass, on the plant, one ladder call per step: the first
    # level of least loss plus interpolated cost-to-go (no snapping to a
    # node).  A latched step runs at full power whatever the command, so it
    # returns one outcome, level 0's, as does the full-power pass's ladder
    # (p_top,).  The cycle and the checks above vouch for its arguments.
    ladder, link_list = ladder_kernel(models), links.tolist()

    def forward(soc, levels_w):
        chosen, cost, latch = [], 0.0, False
        for t, link in enumerate(link_list):
            losses, latch, socs, _ = ladder(soc, latch, link, levels_w, dt)
            a = 0
            if len(losses) > 1:
                to_go = np.interp(socs, nodes, values[t + 1]).tolist()
                totals = [loss * dt + v for loss, v in zip(losses, to_go)]
                a = totals.index(min(totals))
            chosen.append(a)
            cost += losses[a] * dt  # engine plus battery loss
            soc = socs[a]
        return chosen, cost, soc

    def rollout(initial_soc: float) -> DpResult:
        battery.check_in_window("initial_soc", initial_soc)
        chosen, cost, soc = forward(initial_soc, actions.levels_w)
        # Only a rollout that falls short needs the full-power pass (see the
        # docstring) to tell a floor it misses from an infeasible one.
        if soc < end_floor - 1e-12:
            full = forward(initial_soc, (p_top,))[2]
            if full < end_floor - 1e-12:
                raise ValueError(
                    f"terminal constraint end-SoC >= {end_soc_min} is infeasible for "
                    f"cycle {cycle.label or '<unnamed>'!r} from SoC {initial_soc}: full "
                    f"generator power only reaches {full:.4f}")
        return DpResult(cost_j=float(np.interp(initial_soc, nodes, values[0])),
                        actions=tuple(chosen), rollout_cost_j=cost, rollout_end_soc=soc,
                        soc_node_spacing=float(nodes[1] - nodes[0]))
    return rollout


def dp_baseline(cycle: DriveCycle, actions: ActionGrid, models: PlantModels,
                initial_soc: float, soc_nodes: int = 101,
                end_soc_min: float | None = None) -> DpResult:
    """:func:`dp_solve` rolled out once, from ``initial_soc``."""
    return dp_solve(cycle, actions, models, soc_nodes, end_soc_min)(initial_soc)
