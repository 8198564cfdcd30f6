"""Two-learner ensemble: action combination and episode simulation.

Two Q-learning agents observe the same state and each propose an EGU power
level; a combination rule picks the action the plant executes.  Three rules
are provided:

* ``maximum``: take the proposal whose Q-value in the shared table is
  higher (tie: agent A),
* ``random``: take agent A's proposal with probability 1 - t,
* ``weighted``: blend the two power levels as mu*p_A + (1 - mu)*p_B and snap
  to the nearest grid level (tie: lower power).

The executed action earns one reward, and both agents learn from that same
(state, executed action, reward, next state) transition alike, so they
share one Q-table, updated once per step, and differ only in how they
explore while learning.  Degenerate settings reduce exactly to a single
agent: ``weighted`` with mu = 1 and ``random`` with t = 0 reproduce agent
A's solo trajectory bit for bit because every consumer draws from its own
named RNG stream, one block per episode (RNG protocol v2, see
:func:`tugems.qlearn.exploration_draws`).  :func:`run_episodes` is the one
episode loop; a learning run is one call.  It runs the plant step and the
TD update inline, beside the combination rules, as one fused step: the
scalar :func:`tugems.powertrain.step_kernel` written out once more,
operation for operation, which the tests pin to ``Plant.step``,
``q_update`` and ``threshold_greedy`` with ``==``.

On the one table both greedy proposals are the row's first argmax, so a
rule matters only on steps where an agent explores (theta_A, theta_B):

* ``maximum`` executes an action valued below the row maximum only when
  both agents explore, so it explores at theta_A * theta_B,
* ``random`` executes an exploration pick at (1 - t) * theta_A + t * theta_B,
* ``weighted`` can leave the greedy action when either agent explores;
  with one explorer the snapped blend lies between the greedy level and
  the pick, pulled toward the greedy level.

Under the stock schedules (step decay for A, exponential for B) theta_A *
theta_B is 0.64, 0.13, 0.0023 and 6.6e-6 in episodes 0, 5, 20 and 40.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .drive_cycle import DriveCycle
from .metrics import EpisodeMetrics, episode_metrics
from .powertrain import (_NEGATIVE_ENGINE_LOSS, _SOC_PENALTY, PlantModels, PlantState,
                         curve_lookup)
from .qlearn import ActionGrid, Agent, StateGrid, e2e_value, exploration_draws

__all__ = [
    "POLICY_KINDS",
    "EnsemblePolicy",
    "EnsembleStepTrace",
    "EpisodeResult",
    "combine_weighted",
    "run_episodes",
]

POLICY_KINDS = ("maximum", "random", "weighted")

CHOOSER_A = "A"
CHOOSER_B = "B"
CHOOSER_MAX_A = "max-A"
CHOOSER_MAX_B = "max-B"
CHOOSER_BLEND = "blend"


@dataclass(frozen=True)
class EnsemblePolicy:
    """Parameters of the action-combination rule.

    ``maximum`` executes the proposal of higher value in the agents' one
    table (tie: agent A), ``t`` applies to ``random`` (probability of taking
    agent B) and ``mu`` to ``weighted`` (proportion of agent A; agent B gets
    ``1 - mu``).  Both weights are range-checked and kept under every kind.
    """

    kind: str
    t: float = 0.5
    mu: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"t must be within [0, 1], got {self.t}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be within [0, 1], got {self.mu}")

    @classmethod
    def weighted(cls, mu: float) -> "EnsemblePolicy":
        return cls(kind="weighted", mu=mu)


def combine_weighted(action_a: int, action_b: int, mu: float, actions: ActionGrid) -> int:
    """Blend the two power levels as mu*p_A + (1 - mu)*p_B and snap back onto
    the action ladder (tie: lower power)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be within [0, 1], got {mu}")
    blended = mu * actions.level(action_a) + (1.0 - mu) * actions.level(action_b)  # W
    return actions.nearest(blended)


@dataclass(frozen=True)
class EnsembleStepTrace:
    """One executed step, as written to trace CSVs."""

    t_s: float
    state: int
    action_a: int
    action_b: int
    action_final: int
    chooser: str
    reward: float
    soc: float        # post-step
    p_egu_w: float
    p_batt_w: float
    forced_charging: bool


@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    traces: list[EnsembleStepTrace] | None


def run_episodes(cycle: DriveCycle, agents: tuple[Agent, ...], episodes: range,
                 models: PlantModels, initial_soc: float, grid: StateGrid,
                 actions: ActionGrid, policy: EnsemblePolicy | None = None,
                 combiner_rng: np.random.Generator | None = None,
                 learn: bool = True, record_traces: bool = False) -> list[EpisodeResult]:
    """Run the full cycle once per index in ``episodes`` under one agent or a
    two-agent ensemble: one result each, traces (if asked for) on the last.

    Two agents hold one ``QTable`` and equal learning rate and discount
    (checked before any draw, as ``ValueError``): ``policy`` combines their
    proposals (``combiner_rng`` feeds ``random``) and the table makes one TD
    update per step on the executed transition.  One agent's proposal is
    executed as is, mirrored into both trace columns with chooser "A".
    With ``learn``, exploration thresholds follow each agent's schedule at
    the episode index, frozen for the episode, and each agent draws its
    episode's block up front (:func:`exploration_draws`); without it, the
    table stays frozen and each proposal is its state's first greedy action
    (no agent draws), so every rule executes agent A's greedy action.
    ``random`` draws one combiner uniform per step, per episode up front.
    Every episode starts from ``initial_soc`` with the charge-sustain latch
    off.  The last sample bootstraps from its own demand.  Ladder, initial
    SoC and table (finite) are checked before any draw, and the cycle's
    inputs, the ``weighted`` blend table and the plant's constants and
    curve closures bound, once per call.  Each step then runs
    :func:`~tugems.powertrain.step_kernel`'s operations inline, in its order
    and with its conditional forms, with no call and no outcome tuple.  The
    table becomes Python rows once on entry (frozen, only for ``maximum``),
    written back once on return when ``learn`` is set, and each row's
    maximum and first argmax are kept equal to ``max(row)`` and
    ``row.index(max(row))`` under every TD update, also inline.  A trace's
    chooser is derived from the rule and the two actions, on traced steps
    only.
    """
    agent_a, agent_b = agents[0], agents[-1]
    two = len(agents) == 2
    if two:
        if policy is None:
            raise ValueError("policy is required for a two-agent episode, got None")
        if agent_b.q is not agent_a.q:
            raise ValueError("the two agents must share one Q-table, got distinct tables")
        differ = [key for key in ("learning_rate", "discount")
                  if getattr(agent_a.config, key) != getattr(agent_b.config, key)]
        if differ:
            raise ValueError(f"the two agents must learn alike, got a different "
                             f"{' and '.join(differ)}")
    kind = policy.kind if two else None
    if kind == "random" and combiner_rng is None:
        raise ValueError("combiner_rng is required for the 'random' policy, got None")
    demand_w, n, dt = cycle.demand_w, len(cycle), cycle.dt_s
    levels = actions.levels_w
    for level in levels:
        models.egu.check_command(level)
    models.battery.check_in_window("initial_soc", initial_soc)
    if not np.isfinite(agent_a.q.values).all():
        raise ValueError("Q-values must be finite, got non-finite entries in the table")

    # Per-cycle inputs: demand, its link power, and each step's next-state
    # row offset from the demand bins (the last sample bootstraps from itself).
    demand = demand_w.tolist()
    links = models.motor.link_power(demand_w).tolist()
    n_actions, n_soc, soc_top = actions.n_actions, grid.n_soc, grid.n_soc - 1
    p_bins = np.clip(np.searchsorted(grid.p_dem_edges_w, demand_w, side="right") - 1,
                     0, grid.n_p_dem - 1)
    offsets = (np.append(p_bins[1:], p_bins[-1]) * n_soc).tolist()
    # The table's rows (read by learning and maximum), each row's first
    # argmax and, when learning, its maximum.
    rows, arg, top = _table_lists(agent_a.q.values, learn, kind == "maximum")
    if kind == "weighted":  # the snapped blend depends on the two actions only
        blend = [[combine_weighted(a, b, policy.mu, actions)
                  for b in range(n_actions)] for a in range(n_actions)]
    lr, gamma = agent_a.config.learning_rate, agent_a.config.discount
    soc_edges = grid.soc_edges
    # step_kernel's constants and curve closures, bound as it binds them.
    battery, egu = models.battery, models.egu
    cell_voltage = curve_lookup(battery.voltage_curve)
    resistance = curve_lookup(battery.resistance_curve)
    n_cells, coulomb = battery.num_cells, battery.coulomb_capacity  # coulomb in A.s
    soc_min, soc_max = battery.soc_min, battery.soc_max
    max_dis, max_chg = battery.max_discharge_power_w, battery.max_charge_power_w
    p_max, b2, b1, b0 = egu.max_power_w, egu.fuel_b2, egu.fuel_b1, egu.fuel_b0
    served_from_link = models.motor.power_from_link
    sustain = models.charge_sustain_soc
    release = models.charge_sustain_soc + models.charge_release_margin
    soc_ref = models.soc_ref

    results = []
    for k in episodes:
        # Per step, the action an agent explores with, or -1 where it exploits.
        explore_a = explore_b = [-1] * n
        if learn:
            explore_a = _explore_actions(agent_a, k, n, n_actions)
            if two:
                explore_b = _explore_actions(agent_b, k, n, n_actions)
        if kind == "random":
            pick_b = (combiner_rng.random(n) < policy.t).tolist()
        traces: list[EnsembleStepTrace] | None = (
            [] if record_traces and k == episodes[-1] else None)
        fuel_j = engine_j = battery_j = traction_j = served_j = 0.0
        draw_j = short_j = total_reward = soc_sum = 0.0
        soc, latch, forced_steps = initial_soc, False, 0
        state = int(p_bins[0]) * n_soc + grid.soc_bin(soc)
        for i, p_dem, p_link_req, offset, action_a, action_b in zip(
                range(n), demand, links, offsets, explore_a, explore_b):
            greedy = arg[state]
            if action_a < 0:
                action_a = greedy
            if not two:
                action_b = final = action_a
            else:
                if action_b < 0:
                    action_b = greedy
                if kind == "weighted":
                    final = blend[action_a][action_b]
                elif kind == "maximum":  # one table's values, ties to agent A
                    row = rows[state]
                    final = action_a if row[action_a] >= row[action_b] else action_b
                else:
                    final = action_b if pick_b[i] else action_a

            # The plant step: step_kernel's operations, in its order and
            # with its conditional forms (see there).
            soc0 = soc
            if latch and soc0 >= release:
                latch = False
            if soc0 < sustain:
                latch = True
            p_egu = p_max if latch else levels[final]
            pack_volt = cell_voltage(soc0) * n_cells  # V
            dis_cap = (soc0 - soc_min) * coulomb / dt * pack_volt
            dis_cap = dis_cap if dis_cap < max_dis else max_dis
            chg_cap = (soc_max - soc0) * coulomb / dt * pack_volt
            chg_cap = chg_cap if chg_cap < max_chg else max_chg
            lo = p_link_req - dis_cap
            p_egu = lo if lo > p_egu else p_egu
            hi = p_link_req + chg_cap
            p_egu = hi if hi < p_egu else p_egu
            p_egu = p_egu if p_egu > 0.0 else 0.0
            p_egu = p_egu if p_egu < p_max else p_max
            p_batt_unclamped = p_link_req - p_egu
            p_batt = p_batt_unclamped if p_batt_unclamped > -chg_cap else -chg_cap
            p_batt = p_batt if p_batt < dis_cap else dis_cap
            p_link = p_egu + p_batt
            p_served = (served_from_link(p_link) if p_batt_unclamped > dis_cap
                        else p_dem)
            fuel = (b2 * p_egu + b1) * p_egu + b0 if p_egu > 0.0 else 0.0
            engine_loss = fuel - p_egu
            if engine_loss < 0.0:
                raise ValueError(_NEGATIVE_ENGINE_LOSS.format(engine_loss))
            current = p_batt / pack_volt  # A per cell
            battery_loss = resistance(soc0) * current * current * n_cells
            soc = soc0 - current * dt / coulomb
            soc = soc if soc > soc_min else soc_min
            soc = soc if soc < soc_max else soc_max
            reward = -(engine_loss + battery_loss) / 1000.0
            if soc < soc_ref:
                reward -= _SOC_PENALTY * (soc_ref - soc)

            fuel_j += fuel * dt
            engine_j += engine_loss * dt
            battery_j += battery_loss * dt
            traction_j += (p_link - p_served) * dt
            served_j += p_served * dt
            draw_j += p_batt * dt
            short_j += (p_dem - p_served) * dt
            forced_steps += latch

            s_bin = bisect_right(soc_edges, soc) - 1
            s_bin = 0 if s_bin < 0 else (soc_top if s_bin > soc_top else s_bin)
            next_state = offset + s_bin
            if learn:
                # The TD update; the row's maximum and first argmax stay
                # max(row) and row.index(max(row)): a new or equal-and-earlier
                # maximum takes over, and only a fallen maximum rescans the row.
                row = rows[state]
                value = row[final]
                row[final] = value = value + lr * (reward + gamma * top[next_state] - value)
                first = arg[state]
                if value > top[state] or (value == top[state] and final <= first):
                    top[state], arg[state] = value, final
                elif final == first:
                    top[state] = best = max(row)
                    arg[state] = row.index(best)
            total_reward += reward
            soc_sum += soc
            if traces is not None:
                if kind is None:
                    chooser = CHOOSER_A
                elif kind == "weighted":
                    chooser = CHOOSER_BLEND
                elif kind == "maximum":
                    chooser = CHOOSER_MAX_A if final == action_a else CHOOSER_MAX_B
                else:
                    chooser = CHOOSER_A if final == action_a else CHOOSER_B
                traces.append(EnsembleStepTrace(
                    t_s=i * dt, state=state, action_a=action_a, action_b=action_b,
                    action_final=final, chooser=chooser, reward=reward, soc=soc,
                    p_egu_w=p_egu, p_batt_w=p_batt, forced_charging=latch))
            state = next_state

        # PlantState fields in declaration order.
        ledger = PlantState(soc, latch, fuel_j, engine_j, battery_j, traction_j,
                            served_j, draw_j, short_j, n, forced_steps)
        results.append(EpisodeResult(
            metrics=episode_metrics(ledger, models.battery, initial_soc, soc_sum / n,
                                    total_reward),
            traces=traces))

    if learn:
        agent_a.q.values[:] = rows
    return results


def _table_lists(values: np.ndarray, learn: bool,
                 compare: bool) -> tuple[list | None, list, list | None]:
    """A finite table's ``values`` as Python rows (for ``learn`` or
    ``compare``), each row's first argmax and, for ``learn``, its maximum:
    the entry there, so its zero has ``max(row)``'s sign."""
    arg = values.argmax(axis=1).tolist()
    rows = values.tolist() if learn or compare else None
    return rows, arg, ([row[a] for row, a in zip(rows, arg)] if learn else None)


def _explore_actions(agent: Agent, episode_index: int, n: int, n_actions: int) -> list[int]:
    """``agent``'s block for learning episode ``episode_index``, resolved
    against its theta: each step's exploration action, or -1 where it exploits."""
    theta = e2e_value(agent.config.schedule, episode_index)
    uniforms, picks = exploration_draws(agent.rng, n, n_actions)
    return np.where(uniforms < theta, picks, -1).tolist()
