"""Dynamic-programming loss bound: exactness, feasibility, and slack."""

import dataclasses
import hashlib
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BENT_BATTERY, step_from, write_cycle_csv
from tugems import dp
from tugems.cli import main
from tugems.config import BUILTIN_CYCLE_NAMES, builtin_cycle
from tugems.dp import DpResult, dp_baseline, dp_slack_energy_j, dp_solve, episode_loss_j
from tugems.drive_cycle import DriveCycle
from tugems.metrics import episode_metrics
from tugems.powertrain import (BatteryModel, Plant, TractionMotorModel, array_kernel,
                               default_models, ladder_kernel)
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


def test_dp_checks_the_floor_against_the_battery_window(models, actions):
    # any command meets a floor below the window, and none one above it;
    # each is named, not rounded onto a grid node
    cycle = DriveCycle(1.0, np.full(40, 10_000.0), "flat")
    for end_soc_min in (0.19, 0.81, math.nan):
        with pytest.raises(ValueError, match=f"end_soc_min {end_soc_min} outside the battery window"):
            dp_baseline(cycle, actions, models, 0.5, end_soc_min=end_soc_min)
    result = dp_baseline(cycle, actions, models, 0.5, end_soc_min=models.battery.soc_min)
    assert result.rollout_end_soc > models.battery.soc_min


def test_a_solve_calls_the_ladder_once_per_step_and_the_full_power_pass_only_when_short(
        models, actions, monkeypatch):
    # a timing-free guard on the rollout's shape of work: one ladder call
    # per step, plus one full-power call per step only when the rollout
    # ends below the floor
    calls = []

    def counting_kernel(plant_models):
        ladder = ladder_kernel(plant_models)

        def counting_ladder(soc, latch, p_link_req, p_cmds, dt):
            calls.append(tuple(p_cmds))
            return ladder(soc, latch, p_link_req, p_cmds, dt)
        return counting_ladder

    monkeypatch.setattr(dp, "ladder_kernel", counting_kernel)
    full = [(models.egu.max_power_w,)]
    cycle = DriveCycle(1.0, np.linspace(0.0, 150_000.0, 300), "ramp")
    assert dp_baseline(cycle, actions, models, 0.5).rollout_end_soc >= models.soc_ref
    assert calls == [actions.levels_w] * 300
    calls.clear()
    # from 0.282 the rollout ends within a node below the floor, which full
    # power reaches: the pass runs and the solve stands
    assert dp_baseline(cycle, actions, models, 0.282).rollout_end_soc < models.soc_ref
    assert calls == [actions.levels_w] * 300 + full * 300
    calls.clear()
    drain = DriveCycle(1.0, np.full(30, 250_000.0), "drain")
    with pytest.raises(ValueError) as error:
        dp_baseline(drain, actions, models, initial_soc=0.2)
    assert str(error.value) == (
        "terminal constraint end-SoC >= 0.28 is infeasible for cycle 'drain' from SoC 0.2: "
        "full generator power only reaches 0.2000")
    assert calls == [actions.levels_w] * 30 + full * 30


def test_the_dp_command_exits_2_on_an_unreachable_floor(tmp_path, capsys):
    cycle_path = tmp_path / "drain.csv"
    write_cycle_csv(DriveCycle(1.0, np.full(30, 250_000.0), "drain"), cycle_path)
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"cycle": {"path": str(cycle_path)},
                                      "run": {"initial_soc": 0.2}}))
    assert main(["dp", "--config", str(config), "--out", str(tmp_path / "dp")]) == 2
    assert "full generator power only reaches 0.2000" in capsys.readouterr().err


def test_the_dp_command_notes_a_rollout_below_its_floor(tmp_path, capsys):
    # from 0.282 the ramp's rollout ends within a node below the floor: one
    # stderr note names both numbers, and the exit code and artifacts stand
    cycle_path = tmp_path / "ramp.csv"
    write_cycle_csv(DriveCycle(1.0, np.linspace(0.0, 150_000.0, 300), "ramp"), cycle_path)
    for name, cycle, soc, note in (
            ("ramp", {"path": str(cycle_path)}, 0.282,
             "tugems: note: the dp rollout ends at SoC 0.27634, below its terminal floor 0.28\n"),
            ("prdc", {"builtin": "PRDC-1-synthetic"}, 0.5, "")):
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump({"cycle": cycle, "run": {"initial_soc": soc}}))
        out = tmp_path / name
        assert main(["dp", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == note
        assert sorted(path.name for path in out.iterdir()) == ["dp.csv", "manifest.json"]


def test_dp_result_is_deterministic(models, actions, flat_cycle):
    r1 = dp_baseline(flat_cycle, actions, models, initial_soc=0.5)
    r2 = dp_baseline(flat_cycle, actions, models, initial_soc=0.5)
    assert r1 == r2


# ---------------------------------------------------------------------------
# one backward solve, any number of rollouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cycle_name", BUILTIN_CYCLE_NAMES)
def test_one_solve_rolled_out_from_three_socs_is_three_baselines(models, actions, cycle_name):
    cycle = builtin_cycle(cycle_name)
    rollout = dp_solve(cycle, actions, models)
    for initial_soc in (0.3, 0.5, 0.7):  # DpResult's == compares every field
        assert rollout(initial_soc) == dp_baseline(cycle, actions, models, initial_soc)


def test_a_short_rollout_and_an_infeasible_floor_come_out_of_one_solve(models, actions):
    # from 0.282 the ramp's rollout ends below the floor, so the full-power
    # pass runs on the same solve and the result stands
    ramp = DriveCycle(1.0, np.linspace(0.0, 150_000.0, 300), "ramp")
    rollout = dp_solve(ramp, actions, models)
    short = rollout(0.282)
    assert short.rollout_end_soc < models.soc_ref
    assert short == dp_baseline(ramp, actions, models, 0.282)
    assert rollout(0.5) == dp_baseline(ramp, actions, models, 0.5)
    # the solve needs no initial SoC, so only the drain's rollout finds it
    # infeasible, with the message dp_baseline gives
    drain = DriveCycle(1.0, np.full(30, 250_000.0), "drain")
    rollout = dp_solve(drain, actions, models)
    with pytest.raises(ValueError, match="full generator power only reaches 0.2000") as solved:
        rollout(0.2)
    with pytest.raises(ValueError) as baseline:
        dp_baseline(drain, actions, models, 0.2)
    assert str(solved.value) == str(baseline.value)
    with pytest.raises(ValueError, match="initial_soc 0.05 outside the battery window"):
        rollout(0.05)


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

_BATTERIES = {
    "stock": BatteryModel(),
    "bent": BENT_BATTERY,
    # a -0.0 charge cap at every SoC beside a +0.0 discharge cap at soc_min
    "no-charging": BatteryModel(max_charge_power_w=-0.0),
}

# SoCs drawn from the window, and from its ends and latch thresholds so
# that a list repeats some of them.
_SOCS = st.lists(st.one_of(st.floats(0.2, 0.8), st.sampled_from([0.2, 0.28, 0.285, 0.5, 0.8])),
                 min_size=1, max_size=12)

_TwinCase = namedtuple("_TwinCase", "socs latch commands demands variant battery dt",
                       defaults=(False, (25_860.0,), (40_000.0,), "stock", "stock", 1.0))


@settings(max_examples=400, deadline=None)
@given(case=st.builds(
    _TwinCase,
    socs=_SOCS, latch=st.booleans(),
    commands=st.lists(st.floats(0.0, 86_200.0), min_size=1, max_size=3),
    demands=st.lists(st.floats(0.0, 253_000.0), min_size=1, max_size=3),
    variant=st.sampled_from(sorted(_SUSTAIN_VARIANTS)), battery=st.sampled_from(sorted(_BATTERIES)),
    # from 60 s on, the caps bind away from the window ends
    dt=st.sampled_from([1.0, 0.5, 2.0, 60.0, 600.0])))
@example(case=_TwinCase([0.28, 0.2799]))  # the sustain point and just below
@example(case=_TwinCase([0.285, 0.28 + 0.005, 0.2849], latch=True))  # the release point
@example(case=_TwinCase([0.2, 0.8], commands=(0.0, 86_200.0)))  # the window ends
@example(case=_TwinCase([0.2, 0.8], latch=True, commands=(0.0, 86_200.0)))
@example(case=_TwinCase([0.2], latch=True, commands=(0.0,), demands=(253_000.0,)))  # shortfall
@example(case=_TwinCase([0.5], commands=(-0.0, 0.0), demands=(0.0, 253_000.0)))  # signed zero
@example(case=_TwinCase([0.3, 0.45, 0.7], commands=(0.0, 43_100.0), battery="bent"))  # breakpoints
@example(case=_TwinCase([0.32, 0.37], latch=True, variant="wide-hysteresis"))
@example(case=_TwinCase([0.2, 0.2001], variant="nothing-latched"))
@example(case=_TwinCase([0.2, 0.5, 0.8, 0.5, 0.2], commands=(0.0, 86_200.0),
                        demands=(0.0, 253_000.0), battery="no-charging"))  # +-0.0 caps
@example(case=_TwinCase([0.8, 0.2, 0.25, 0.5, 0.75, 0.6, 0.8, 0.3, 0.25, 0.79, 0.21, 0.5],
                        commands=(0.0, 43_100.0, 86_200.0), demands=(0.0, 60_000.0, 253_000.0),
                        dt=600.0))  # twelve SoCs, repeats, caps bound inside the window
def test_array_kernel_is_the_scalar_kernel_bit_for_bit(case):
    models = dataclasses.replace(default_models(), battery=_BATTERIES[case.battery],
                                 **_SUSTAIN_VARIANTS[case.variant])
    socs, latch, commands, demands, dt = case.socs, case.latch, case.commands, case.demands, case.dt
    links = [models.motor.link_power(p) for p in demands]
    # the DP's layout: steps x commands x SoC nodes
    loss, latched, soc_next = array_kernel(models)(np.array(socs), latch, dt)(
        np.array(links)[:, None], np.array(commands))
    assert loss.shape == soc_next.shape == (len(demands), len(commands), len(socs))
    assert latched.shape == (len(socs),)
    plant = Plant(models)
    for k, a, s in np.ndindex(loss.shape):
        out = step_from(plant, socs[s], latch, demands[k], commands[a], dt)
        assert loss[k, a, s] == out.p_loss_total_w
        assert latched[s] == out.forced_charging
        assert soc_next[k, a, s] == out.soc
        # and the sign of a zero
        assert np.signbit([loss[k, a, s], soc_next[k, a, s]]).tolist() == \
            np.signbit([out.p_loss_total_w, out.soc]).tolist()


_LADDER = ActionGrid.uniform().levels_w

_LadderCase = namedtuple("_LadderCase", "soc latch demand commands variant battery dt",
                         defaults=(False, 40_000.0, _LADDER, "stock", "stock", 1.0))


@settings(max_examples=400, deadline=None)
@given(case=st.builds(
    _LadderCase,
    soc=st.one_of(st.floats(0.2, 0.8), st.sampled_from([0.2, 0.2799, 0.28, 0.2849, 0.285, 0.8])),
    latch=st.booleans(), demand=st.floats(0.0, 253_000.0),
    commands=st.lists(st.one_of(st.floats(0.0, 86_200.0), st.sampled_from(_LADDER)),
                      min_size=1, max_size=11),
    variant=st.sampled_from(sorted(_SUSTAIN_VARIANTS)), battery=st.sampled_from(sorted(_BATTERIES)),
    # from 60 s on, the caps bind away from the window ends
    dt=st.sampled_from([1.0, 60.0, 600.0])))
@example(case=_LadderCase(0.28))  # the sustain point and just below
@example(case=_LadderCase(0.2799))
@example(case=_LadderCase(0.285, latch=True))  # the release point and just below
@example(case=_LadderCase(0.2849, latch=True))
@example(case=_LadderCase(0.2))  # the window ends, latch off and on
@example(case=_LadderCase(0.2, latch=True))
@example(case=_LadderCase(0.8))
@example(case=_LadderCase(0.8, latch=True))
@example(case=_LadderCase(0.2, latch=True, demand=253_000.0, commands=(0.0,)))  # shortfall
@example(case=_LadderCase(0.5, demand=0.0, commands=(-0.0, 0.0)))  # signed zero
@example(case=_LadderCase(0.45, battery="bent"))  # a breakpoint
@example(case=_LadderCase(0.37, latch=True, variant="wide-hysteresis"))
@example(case=_LadderCase(0.2, variant="nothing-latched"))
@example(case=_LadderCase(0.2, demand=0.0, battery="no-charging"))  # +-0.0 caps
@example(case=_LadderCase(0.8, demand=253_000.0, battery="no-charging"))
@example(case=_LadderCase(0.5, demand=253_000.0, dt=600.0))  # caps bound inside the window
@example(case=_LadderCase(0.25, demand=0.0, commands=(86_200.0,), dt=60.0))
def test_ladder_kernel_is_the_scalar_kernel_bit_for_bit(case):
    models = dataclasses.replace(default_models(), battery=_BATTERIES[case.battery],
                                 **_SUSTAIN_VARIANTS[case.variant])
    link = models.motor.link_power(case.demand)
    losses, latch, socs, terms = ladder_kernel(models)(case.soc, case.latch, link, case.commands,
                                                       case.dt)
    plant = Plant(models)
    outs = [step_from(plant, case.soc, case.latch, case.demand, c, case.dt)
            for c in case.commands]
    if outs[0].forced_charging:  # full power whatever the command: one outcome
        outs = outs[:1]
    assert len(losses) == len(socs) == len(outs)
    for loss, soc, out in zip(losses, socs, outs):
        assert latch == out.forced_charging
        assert loss == out.p_loss_total_w
        assert soc == out.soc
        # and the sign of a zero
        assert np.signbit([loss, soc]).tolist() == np.signbit([out.p_loss_total_w, out.soc]).tolist()
    # the terms are the last command's, field by field, signed zeros included
    last = outs[-1]
    want = [last.p_egu_w, last.p_batt_w, last.fuel_power_w, last.engine_loss_w,
            last.cell_current_a, last.battery_loss_w]
    assert list(terms[:6]) == want
    assert np.signbit(terms[:6]).tolist() == np.signbit(want).tolist()


@pytest.mark.parametrize("soc,latch", [(0.2, False), (0.25, False), (0.2849, True)])
def test_a_latched_ladder_step_returns_the_full_power_outcome_only(models, soc, latch):
    link = models.motor.link_power(60_000.0)
    out = step_from(Plant(models), soc, latch, 60_000.0, models.egu.max_power_w, 1.0)
    assert out.forced_charging
    for n_levels in range(1, 12):
        losses, latched, socs, terms = ladder_kernel(models)(soc, latch, link,
                                                             _LADDER[:n_levels], 1.0)
        assert latched is True
        assert (losses, socs) == ([out.p_loss_total_w], [out.soc])
        assert terms[:6] == (out.p_egu_w, out.p_batt_w, out.fuel_power_w, out.engine_loss_w,
                             out.cell_current_a, out.battery_loss_w)


def _bits(array):
    return array.shape, array.dtype, array.tobytes()


def _closure_arrays(fn):
    """Every array a closure holds, directly or inside tuples and lists."""
    found, todo = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
    return found


@pytest.mark.parametrize("latch", [False, True])
@pytest.mark.parametrize("bent", [False, True])
def test_a_prepared_stage_steps_any_block_as_a_freshly_prepared_one(latch, bent):
    models = dataclasses.replace(default_models(), battery=_BATTERIES["bent" if bent else "stock"])
    stage = array_kernel(models)
    nodes, dt = np.linspace(0.2, 0.8, 61), 0.5
    demands = (np.linspace(0.0, 253_000.0, 16), np.array([0.0, 40_000.0, 220_000.0]))
    ladders = (np.asarray(ActionGrid.uniform().levels_w), np.array([0.0, 25_860.0, 86_200.0]))
    blocks = [(models.motor.link_power(d)[:, None], c) for d, c in zip(demands, ladders)]
    for order in (blocks, blocks[::-1]):
        prepared = stage(nodes, latch, dt)
        held = _closure_arrays(prepared)
        # the walk reaches what the stage prepared: its SoCs and its latch
        assert any(_bits(a) == _bits(nodes) for a in held)
        assert any(a is prepared(0.0, 0.0)[1] for a in held)
        hoisted = [a.copy() for a in held]
        for links, commands in order:
            got = prepared(links, commands)
            want = stage(nodes, latch, dt)(links, commands)
            assert list(map(_bits, got)) == list(map(_bits, want))
        assert list(map(_bits, held)) == list(map(_bits, hoisted))


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


def _block_steps(models, soc_nodes, n_levels):
    """Steps per backward block: as many as keep one (steps, levels, free
    nodes) scratch array within the solver's element budget, at least one."""
    nodes = np.linspace(models.battery.soc_min, models.battery.soc_max, soc_nodes)
    n_sus = int(array_kernel(models)(nodes, False, 1.0)(0.0, 0.0)[1].sum())
    return max(1, dp._SCRATCH_ELEMENTS // (n_levels * (soc_nodes - n_sus)))


def _block_edge_cases():
    """(n_steps, soc_nodes, variant): lengths about one and two blocks of
    each count's own block b at 61, 101 and 1 601 nodes (b is 1 or 2 at
    1 601), and short cycles at every count.  The 3- and 7-node blocks run
    397 to 1 392 steps, which the per-step reference would take seconds to
    cross."""
    n_levels = ActionGrid.uniform().n_actions
    cases = {(n, soc_nodes, variant) for n in (1, 15, 17, 31, 32, 33, 53, 65)
             for soc_nodes in (3, 7, 61, 101) for variant in _SUSTAIN_VARIANTS}
    for variant, changes in _SUSTAIN_VARIANTS.items():
        models = dataclasses.replace(default_models(), **changes)
        for soc_nodes in (61, 101, 1601):
            b = _block_steps(models, soc_nodes, n_levels)
            cases.update((n, soc_nodes, variant) for n in (1, b - 1, b, b + 1, 2 * b + 1) if n)
    return sorted(cases)


@pytest.mark.parametrize("n_steps,soc_nodes,variant", _block_edge_cases())
def test_blocked_solver_equals_the_per_step_solver(actions, variant, soc_nodes, n_steps):
    models = dataclasses.replace(default_models(), **_SUSTAIN_VARIANTS[variant])
    rng = np.random.default_rng(1000 * n_steps + soc_nodes)
    # random pulls; from SoC 0.282 the stock rollout engages and releases
    # the latch in about half of the cases, from 0.5 it never does
    cycle = DriveCycle(1.0, rng.uniform(0.0, 150_000.0, n_steps), "random")
    for initial_soc in (0.282, 0.5):
        _assert_same_solution(cycle, actions, models, initial_soc, soc_nodes)


@pytest.mark.parametrize("soc_nodes", [61, 101])
def test_the_wide_hysteresis_band_spans_several_nodes(soc_nodes):
    # the premise of the wide-hysteresis cases above: the latched rows run
    # past the free rows' first node by more than one node
    models = dataclasses.replace(default_models(), **_SUSTAIN_VARIANTS["wide-hysteresis"])
    nodes = np.linspace(0.2, 0.8, soc_nodes)
    n_sus, n_rel = (int(array_kernel(models)(nodes, mode, 1.0)(0.0, 0.0)[1].sum())
                    for mode in (False, True))
    assert n_rel - n_sus > 1


@pytest.mark.parametrize("soc_nodes", [101, 1601])
def test_a_solve_stages_both_row_kinds_once_per_block(models, actions, monkeypatch, soc_nodes):
    # a timing-free guard on the backward pass's shape of work: the free and
    # the latched rows are staged once per block of b steps each, from the
    # cycle's end, so the block that ends at t = 0 is the short one (scalar
    # calls only probe the latch)
    calls = []

    def counting_kernel(plant_models):
        stage = array_kernel(plant_models)

        def counting_stage(soc, latch, dt):
            step = stage(soc, latch, dt)

            def counting_step(p_link_req, p_cmd):
                if np.ndim(p_link_req):
                    calls.append((bool(latch), len(p_link_req)))
                return step(p_link_req, p_cmd)
            return counting_step
        return counting_stage

    monkeypatch.setattr(dp, "array_kernel", counting_kernel)
    b = _block_steps(models, soc_nodes, actions.n_actions)
    assert b == 32 if soc_nodes == 101 else 1 <= b <= 3
    for n_steps in sorted({1, max(1, b - 1), b, b + 1, 2 * b + 1, 300}):
        calls.clear()
        cycle = DriveCycle(1.0, np.linspace(0.0, 150_000.0, n_steps), "ramp")
        dp_baseline(cycle, actions, models, 0.282, soc_nodes=soc_nodes)
        blocks = [min(b, stop) for stop in range(n_steps, 0, -b)]
        assert sum(blocks) == n_steps
        assert calls == [(latched, n) for n in blocks for latched in (False, True)]


@pytest.mark.parametrize("soc_nodes", [101, 1601])
def test_a_solve_holds_its_value_table_and_a_few_budget_sized_arrays(models, actions,
                                                                      soc_nodes):
    # numpy reports its buffers to tracemalloc.  Beyond the (T + 1) x S
    # value table a solve holds one block's scratch, a few arrays of the
    # element budget, and doubling the cycle does not grow it: staging the
    # latched rows for the whole cycle, or keeping the last block alive while
    # the next is staged, breaks both bounds
    budget_bytes = 8 * dp._SCRATCH_ELEMENTS
    cycle = builtin_cycle("PRDC-3-synthetic")
    margins = []
    for n_steps in (300, 600):
        part = DriveCycle(cycle.dt_s, cycle.demand_w[:n_steps], cycle.label)
        dp_solve(part, actions, models, soc_nodes=soc_nodes)  # one-off allocations first
        tracemalloc.start()
        try:
            dp_solve(part, actions, models, soc_nodes=soc_nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        margins.append(peak - 8 * (n_steps + 1) * soc_nodes)
    assert max(margins) < 5 * budget_bytes
    assert margins[1] - margins[0] < budget_bytes / 10


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
    plant, latches = Plant(models, 0.282), [False]
    for p, a in zip(cycle.demand_w.tolist(), result.actions):
        latches.append(plant.step(p, actions.level(a), 1.0).forced_charging)
    assert (True, False) in set(zip(latches, latches[1:]))
    _assert_same_solution(cycle, actions, models, 0.282, 101)


# ---------------------------------------------------------------------------
# the 12 built-in solves, pinned
# ---------------------------------------------------------------------------

# float.hex of cost_j, rollout_cost_j and rollout_end_soc, and the sha256 of
# the rollout's action indices (one byte each), at 101 SoC nodes.
_BUILTIN_SOLVES = {
    ('PRDC-1-synthetic', 0.3): ('0x1.f8e3c21f538cdp+26', '0x1.f46dff25dac7cp+26',
        '0x1.22badcf2abb5ep-2',
        'a20a0a3dc22f90fb7a43cd12d4d9f6fd084dd2e570a1213984bf7073b334e2fe'),
    ('PRDC-1-synthetic', 0.5): ('0x1.06195968a12d9p+25', '0x1.e8e19e360d611p+24',
        '0x1.21b13eb283168p-2',
        'f803d384119b0b10ca2d83a730423179ddb0eb3caf287fa1f0995cb98f6bcfb4'),
    ('PRDC-1-synthetic', 0.7): ('0x1.5d944993ea4aap+23', '0x1.5d9760236e4e5p+23',
        '0x1.cded58a16e876p-2',
        '3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8'),
    ('PRDC-2-synthetic', 0.3): ('0x1.0880e777a4fe9p+28', '0x1.081937491ec49p+28',
        '0x1.2371a622f6ae3p-2',
        'f18fa47ad35b277b305c4cf425da0d6f92a437b1e0c958181a80cb097592d4ab'),
    ('PRDC-2-synthetic', 0.5): ('0x1.50c09734d0240p+27', '0x1.4ec6407a55fcdp+27',
        '0x1.21ae1cf415ae2p-2',
        '3fba19f51d22a98e57defabb89c18e6a711b6b733a57ef0030f50e60076ca152'),
    ('PRDC-2-synthetic', 0.7): ('0x1.1a4336ba36fbbp+26', '0x1.0f788a8090f06p+26',
        '0x1.21aeae3decd73p-2',
        '52f00fb16c317aaaeb5eb4292769f53d390e7890c8fe564b127e8be6d17713b5'),
    ('PRDC-3-synthetic', 0.3): ('0x1.3642066a14526p+27', '0x1.3470d03dcde74p+27',
        '0x1.21a31de3b79aap-2',
        'b688c40a6d4878e2ed21b15625d90436057ac66db55d8e9bb8632db2109dc050'),
    ('PRDC-3-synthetic', 0.5): ('0x1.db9eb8c8069a5p+25', '0x1.d2ee1e784f9fcp+25',
        '0x1.217770138439bp-2',
        'a5649ab37a5619e5db6c3c115390e9112c48dd72c461cd8196fd63bd53828997'),
    ('PRDC-3-synthetic', 0.7): ('0x1.02375927efdc5p+21', '0x1.ca2b70ebf9999p+20',
        '0x1.800879abfc0fcp-2',
        '62b1fc35f333bdccbe3521e20c2784c404fdcbaaf37fd800a65e474b25dec626'),
    ('PRDC-4-synthetic', 0.3): ('0x1.0f108b336e21bp+28', '0x1.0ee373737c51dp+28',
        '0x1.22317d4b66eb9p-2',
        'fb32494cd4b766b1c68cbc838a4f2e5fdfd7df425b0de909edbfe0efd36f28c6'),
    ('PRDC-4-synthetic', 0.5): ('0x1.5f0084af45424p+27', '0x1.5d40e48fc5929p+27',
        '0x1.21b64a0cd7f49p-2',
        '2207020af56677ea4c0eff4fb6cfb8915e43772b86770dbe3ac71bc24f93f93d'),
    ('PRDC-4-synthetic', 0.7): ('0x1.368c0a23501ebp+26', '0x1.2c5254c2e151cp+26',
        '0x1.218e0a177db3bp-2',
        '7210441444d3a91f052d37e65ef6017cd70dc9719d67acfbdba44f7eff0fb94e'),
}


@pytest.mark.parametrize("cycle_name,initial_soc", sorted(_BUILTIN_SOLVES))
def test_the_builtin_solves_are_pinned(models, actions, cycle_name, initial_soc):
    result = dp_baseline(builtin_cycle(cycle_name), actions, models, initial_soc, soc_nodes=101)
    got = (result.cost_j.hex(), result.rollout_cost_j.hex(), result.rollout_end_soc.hex(),
           hashlib.sha256(bytes(result.actions)).hexdigest())
    assert got == _BUILTIN_SOLVES[cycle_name, initial_soc]
