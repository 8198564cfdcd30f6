"""Dynamic-programming loss bound: exactness, feasibility, and slack."""

import dataclasses
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tugems.config import builtin_cycle
from tugems.dp import DpResult, dp_baseline, dp_slack_energy_j, episode_loss_j
from tugems.drive_cycle import DriveCycle
from tugems.metrics import episode_metrics
from tugems.powertrain import (BatteryModel, Plant, StepOutcome, TractionMotorModel,
                               array_kernel, default_models, step_kernel)
from tugems.qlearn import ActionGrid


def _lossless_models():
    models = default_models()
    motor = TractionMotorModel(loss_c2=0.0, loss_c1=0.0, loss_c0=0.0)
    return dataclasses.replace(models, motor=motor)


def _policy_loss(models, cycle, command_w):
    """Loss and end SoC of a constant-command policy on the exact plant."""
    plant = Plant(models, 0.5)
    loss = 0.0
    for p in cycle.demand_w:
        out = plant.step(float(p), command_w, cycle.dt_s)
        loss += (out.engine_loss_w + out.battery_loss_w) * cycle.dt_s
    return loss, plant.state.soc


# ---------------------------------------------------------------------------
# exact corner cases
# ---------------------------------------------------------------------------


def test_zero_demand_with_a_lossless_motor_costs_nothing(actions):
    models = _lossless_models()
    cycle = DriveCycle(1.0, np.zeros(40), "idle")
    result = dp_baseline(cycle, actions, models, initial_soc=0.5)
    assert result.cost_j == 0.0
    assert result.rollout_cost_j == 0.0
    assert result.actions == (0,) * 40
    assert result.rollout_end_soc == 0.5


def test_zero_demand_with_the_stock_motor_pays_idle_loss(models, actions):
    # the idle loss (3.5 kW) must come from somewhere: either fuel with its
    # conversion loss or the battery with resistive loss, so cost_j > 0
    cycle = DriveCycle(1.0, np.zeros(30), "idle")
    result = dp_baseline(cycle, actions, models, initial_soc=0.5)
    assert result.cost_j > 0.0
    assert result.rollout_cost_j > 0.0


def test_sweet_spot_cycle_holds_full_generator_power(models, actions):
    # demand sized so the DC link wants exactly the generator rating; from
    # SoC 0.28 (a grid node at 61 nodes) the best move is full power every
    # step: the battery never cycles and the only loss is the engine's
    # 24.1*0.87*44e6/3600 - 86200 = 170063.33 W of conversion loss
    demand = np.full(12, models.motor.power_from_link(86_200.0))
    cycle = DriveCycle(1.0, demand, "sweet-spot")
    result = dp_baseline(cycle, actions, models, initial_soc=0.28,
                         soc_nodes=61)
    assert result.actions == (10,) * 12
    expected = 12 * 170_063.33333333337
    assert result.cost_j == pytest.approx(expected, rel=1e-9)
    assert result.rollout_cost_j == pytest.approx(expected, rel=1e-9)
    assert result.rollout_end_soc == pytest.approx(0.28, abs=1e-12)


# ---------------------------------------------------------------------------
# bound behaviour
# ---------------------------------------------------------------------------


def test_rollout_is_the_achievable_reference(models, actions, bumpy_cycle):
    """Constant-command policies can never undercut the DP rollout by more
    than one SoC cell of pack energy."""
    heuristics = [43_100.0, 60_340.0, 86_200.0]
    outcomes = [_policy_loss(models, bumpy_cycle, c) for c in heuristics]
    floor = min(soc for _, soc in outcomes)
    result = dp_baseline(bumpy_cycle, actions, models, initial_soc=0.5,
                         end_soc_min=floor)
    slack = dp_slack_energy_j(models, result.soc_node_spacing)
    for loss, end_soc in outcomes:
        assert end_soc >= floor - 1e-12  # all heuristics are feasible points
        assert loss >= result.rollout_cost_j - slack
    # the rollout respects the (grid-rounded) terminal constraint itself
    assert result.rollout_end_soc >= floor - result.soc_node_spacing - 1e-12


def test_backward_value_and_rollout_agree_within_slack(models, actions,
                                                       bumpy_cycle):
    result = dp_baseline(bumpy_cycle, actions, models, initial_soc=0.5)
    slack = dp_slack_energy_j(models, result.soc_node_spacing)
    assert abs(result.cost_j - result.rollout_cost_j) <= 2.0 * slack
    assert len(result.actions) == len(bumpy_cycle)
    assert all(0 <= a < actions.n_actions for a in result.actions)


def test_forced_charging_band_is_respected_in_the_rollout(models, actions):
    # start just above the sustain threshold with a light load: whatever the
    # DP picks, the end SoC may not sink below the sustain reference by more
    # than the latch can allow
    cycle = DriveCycle(1.0, np.full(50, 20_000.0), "light")
    result = dp_baseline(cycle, actions, models, initial_soc=0.30)
    assert result.rollout_end_soc >= 0.28 - result.soc_node_spacing - 1e-12


def test_refining_the_grid_does_not_raise_the_achievable_cost(models, actions,
                                                              bumpy_cycle):
    coarse = dp_baseline(bumpy_cycle, actions, models, initial_soc=0.5,
                         soc_nodes=41)
    fine = dp_baseline(bumpy_cycle, actions, models, initial_soc=0.5,
                       soc_nodes=121)
    coarse_slack = dp_slack_energy_j(models, coarse.soc_node_spacing)
    assert fine.rollout_cost_j <= coarse.rollout_cost_j + coarse_slack


# ---------------------------------------------------------------------------
# slack and loss helpers
# ---------------------------------------------------------------------------


def test_slack_is_one_node_of_pack_energy(models):
    # 0.006 SoC * 8820 A.s * U(0.28) V * 8200 cells
    expected = 0.006 * 8_820.0 * models.battery.cell_voltage(0.28) * 8_200.0
    assert dp_slack_energy_j(models, 0.006) == pytest.approx(expected, rel=1e-12)
    assert dp_slack_energy_j(models, 0.006) == pytest.approx(1_498_553.28, rel=1e-6)


def test_episode_loss_matches_the_dp_objective(models, bumpy_cycle):
    plant = Plant(models, 0.5)
    soc_sum = 0.0
    for p in bumpy_cycle.demand_w:
        out = plant.step(float(p), 43_100.0, 1.0)
        soc_sum += out.soc
    m = episode_metrics(plant.state, models.battery, 0.5,
                        soc_sum / len(bumpy_cycle), 0.0)
    assert episode_loss_j(m) == pytest.approx(
        m.engine_loss_j + m.battery_loss_j, rel=1e-12)


# ---------------------------------------------------------------------------
# validation and infeasibility
# ---------------------------------------------------------------------------


def test_dp_rejects_bad_inputs(models, actions):
    cycle = DriveCycle(1.0, np.full(5, 1_000.0), "tiny")
    with pytest.raises(ValueError, match="soc_nodes"):
        dp_baseline(cycle, actions, models, 0.5, soc_nodes=1)
    with pytest.raises(ValueError, match="initial_soc 0.05 outside the battery window"):
        dp_baseline(cycle, actions, models, 0.05)


def test_dp_rejects_action_levels_above_the_egu_rating(models):
    # checked once up front, whether or not the rollout would pick the top level
    too_high = ActionGrid.uniform(max_power_w=models.egu.max_power_w + 1.0)
    cycle = DriveCycle(1.0, np.full(5, 1_000.0), "tiny")
    with pytest.raises(ValueError, match="p_egu_cmd_w must be within"):
        dp_baseline(cycle, too_high, models, 0.5)


def test_dp_detects_an_unreachable_terminal_constraint(models, actions):
    # from the window floor with a demand far beyond the generator rating,
    # the pack can never climb back to the sustain reference
    cycle = DriveCycle(1.0, np.full(30, 250_000.0), "drain")
    with pytest.raises(ValueError, match="full generator power"):
        dp_baseline(cycle, actions, models, initial_soc=0.2)


def test_dp_result_is_deterministic(models, actions, flat_cycle):
    r1 = dp_baseline(flat_cycle, actions, models, initial_soc=0.5)
    r2 = dp_baseline(flat_cycle, actions, models, initial_soc=0.5)
    assert r1 == r2


# ---------------------------------------------------------------------------
# the DP's array twin is the scalar plant kernel, bit for bit
# ---------------------------------------------------------------------------


_SUSTAIN_VARIANTS = {
    "stock": {},
    "no-release-margin": {"charge_release_margin": 0.0},
    "sustain-at-soc-min": {"charge_sustain_soc": 0.2},
    "nothing-latched": {"charge_sustain_soc": 0.2, "charge_release_margin": 0.0},
    "wide-hysteresis": {"charge_sustain_soc": 0.32, "charge_release_margin": 0.05},
}

# A pack whose voltage and resistance both bend at several SoCs.
_BENT_BATTERY = BatteryModel(
    voltage_curve=((0.2, 3.3), (0.3, 3.52), (0.45, 3.61), (0.7, 3.8), (0.8, 4.05)),
    resistance_curve=((0.2, 0.045), (0.35, 0.031), (0.6, 0.028), (0.8, 0.034)))


_TwinCase = namedtuple("_TwinCase", "socs latch commands demands variant bent dt",
                       defaults=(False, (25_860.0,), (40_000.0,), "stock", False, 1.0))


@settings(max_examples=400, deadline=None)
@given(case=st.builds(
    _TwinCase,
    socs=st.lists(st.floats(0.2, 0.8), min_size=1, max_size=4), latch=st.booleans(),
    commands=st.lists(st.floats(0.0, 86_200.0), min_size=1, max_size=3),
    demands=st.lists(st.floats(0.0, 253_000.0), min_size=1, max_size=3),
    variant=st.sampled_from(sorted(_SUSTAIN_VARIANTS)), bent=st.booleans(),
    dt=st.sampled_from([1.0, 0.5, 2.0])))
@example(case=_TwinCase([0.28, 0.2799]))  # the sustain point and just below
@example(case=_TwinCase([0.285, 0.28 + 0.005, 0.2849], latch=True))  # the release point
@example(case=_TwinCase([0.2, 0.8], commands=(0.0, 86_200.0)))  # the window ends
@example(case=_TwinCase([0.2, 0.8], latch=True, commands=(0.0, 86_200.0)))
@example(case=_TwinCase([0.2], latch=True, commands=(0.0,), demands=(253_000.0,)))  # shortfall
@example(case=_TwinCase([0.5], commands=(-0.0, 0.0), demands=(0.0, 253_000.0)))  # signed zero
@example(case=_TwinCase([0.3, 0.45, 0.7], commands=(0.0, 43_100.0), bent=True))  # breakpoints
@example(case=_TwinCase([0.32, 0.37], latch=True, variant="wide-hysteresis"))
@example(case=_TwinCase([0.2, 0.2001], variant="nothing-latched"))
def test_array_kernel_is_the_scalar_kernel_bit_for_bit(case):
    models = dataclasses.replace(default_models(), **_SUSTAIN_VARIANTS[case.variant])
    if case.bent:
        models = dataclasses.replace(models, battery=_BENT_BATTERY)
    socs, latch, commands, demands, dt = case.socs, case.latch, case.commands, case.demands, case.dt
    links = [models.motor.link_power(p) for p in demands]
    # the DP's layout: steps x commands x SoC nodes
    loss, latched, soc_next = array_kernel(models)(
        np.array(socs), latch, np.array(links)[:, None, None], np.array(commands)[:, None], dt)
    assert loss.shape == soc_next.shape == (len(demands), len(commands), len(socs))
    assert latched.shape == (len(socs),)
    kernel = step_kernel(models)
    for k, a, s in np.ndindex(loss.shape):
        out = StepOutcome(*kernel(socs[s], latch, demands[k], links[k], commands[a], dt))
        assert loss[k, a, s] == out.p_loss_total_w
        assert latched[s] == out.forced_charging
        assert soc_next[k, a, s] == out.soc


# ---------------------------------------------------------------------------
# the blocked backward pass is the per-step solver, bit for bit
# ---------------------------------------------------------------------------


def _reference_stage(models, soc, mode, levels, p_dem, dt):
    """The per-step DP stage over (mode, node, action), kept as the oracle."""
    battery, egu = models.battery, models.egu
    p_link = models.motor.link_power(p_dem)
    active = np.where(mode, soc < models.charge_sustain_soc + models.charge_release_margin,
                      soc < models.charge_sustain_soc)
    u = np.interp(soc, *zip(*battery.voltage_curve))
    r = np.interp(soc, *zip(*battery.resistance_curve))
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
    i_cell = p_batt / pack_volt[..., None]
    battery_loss = r[..., None] * i_cell * i_cell * battery.num_cells
    cost = (fuel - p_egu + battery_loss) * dt
    soc_next = np.clip(soc[..., None] - i_cell * dt / coulomb,
                       battery.soc_min, battery.soc_max)
    return cost, soc_next, np.broadcast_to(active[..., None], p_egu.shape)


def _reference_dp(cycle, actions, models, initial_soc, soc_nodes):
    """One full-grid stage per backward step and per rollout step."""
    battery = models.battery
    nodes = np.linspace(battery.soc_min, battery.soc_max, soc_nodes)
    levels, dt = np.asarray(actions.levels_w), cycle.dt_s
    end_floor = float(nodes[np.searchsorted(nodes, models.soc_ref + 1e-12) - 1])
    price = (3.0 * battery.coulomb_capacity * battery.cell_voltage(end_floor)
             * battery.num_cells)
    terminal = price * np.maximum(0.0, end_floor - nodes)
    values = np.empty((len(cycle) + 1, 2, soc_nodes))
    values[-1] = np.stack([terminal, terminal])

    def total(t, soc, mode):
        cost, soc_next, mode_next = _reference_stage(models, soc, mode, levels,
                                                     float(cycle.demand_w[t]), dt)
        flat = soc_next.ravel()
        v0 = np.interp(flat, nodes, values[t + 1][0]).reshape(soc_next.shape)
        v1 = np.interp(flat, nodes, values[t + 1][1]).reshape(soc_next.shape)
        return cost + np.where(mode_next, v1, v0)

    for t in range(len(cycle) - 1, -1, -1):
        values[t] = total(t, nodes[None, :], np.array([[False], [True]])).min(axis=-1)
    plant, chosen, rollout_cost = Plant(models, initial_soc), [], 0.0
    for t in range(len(cycle)):
        a = int(total(t, np.array([[plant.state.soc]]),
                      np.array([[plant.state.forced_charging]]))[0, 0].argmin())
        chosen.append(a)
        out = plant.step(float(cycle.demand_w[t]), actions.level(a), dt)
        rollout_cost += (out.engine_loss_w + out.battery_loss_w) * dt
    return DpResult(float(np.interp(initial_soc, nodes, values[0][0])), tuple(chosen),
                    rollout_cost, plant.state.soc, float(nodes[1] - nodes[0]))


def _assert_same_solution(cycle, actions, models, initial_soc, soc_nodes):
    got = dp_baseline(cycle, actions, models, initial_soc, soc_nodes=soc_nodes)
    want = _reference_dp(cycle, actions, models, initial_soc, soc_nodes)
    assert got.cost_j == want.cost_j
    assert got.actions == want.actions
    assert got.rollout_cost_j == want.rollout_cost_j
    assert got.rollout_end_soc == want.rollout_end_soc
    assert got == want


@pytest.mark.parametrize("variant", sorted(_SUSTAIN_VARIANTS))
@pytest.mark.parametrize("soc_nodes", [3, 7, 61, 101])
@pytest.mark.parametrize("n_steps", [1, 15, 17, 53])
def test_blocked_solver_equals_the_per_step_solver(actions, variant, soc_nodes, n_steps):
    models = dataclasses.replace(default_models(), **_SUSTAIN_VARIANTS[variant])
    rng = np.random.default_rng(1000 * n_steps + soc_nodes)
    # random pulls; from SoC 0.282 the stock rollout engages and releases
    # the latch in about half of the cases, from 0.5 it never does
    cycle = DriveCycle(1.0, rng.uniform(0.0, 150_000.0, n_steps), "random")
    for initial_soc in (0.282, 0.5):
        _assert_same_solution(cycle, actions, models, initial_soc, soc_nodes)


def test_blocked_solver_equals_the_per_step_solver_on_a_builtin_cycle(models, actions):
    cycle = builtin_cycle("PRDC-3-synthetic")
    _assert_same_solution(DriveCycle(cycle.dt_s, cycle.demand_w[:300], cycle.label),
                          actions, models, 0.3, 101)


def test_kernel_steered_rollout_equals_the_stage_steered_one_on_a_full_cycle(models, actions):
    # all 960 steps of PRDC-1 from just above the sustain threshold, where
    # the rollout engages the latch and later releases it
    cycle = builtin_cycle("PRDC-1-synthetic")
    assert len(cycle) == 960
    result = dp_baseline(cycle, actions, models, 0.282)
    kernel, soc, latches = step_kernel(models), 0.282, [False]
    for p, a in zip(cycle.demand_w.tolist(), result.actions):
        out = StepOutcome(*kernel(soc, latches[-1], p, models.motor.link_power(p),
                                  actions.level(a), 1.0))
        soc = out.soc
        latches.append(out.forced_charging)
    assert (True, False) in set(zip(latches, latches[1:]))
    _assert_same_solution(cycle, actions, models, 0.282, 101)
