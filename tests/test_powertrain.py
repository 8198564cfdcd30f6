"""Powertrain component models and the per-step plant dispatch."""

import dataclasses
import math
import pickle
import re
import struct
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tugems.config import parse_config
from tugems.dp import dp_baseline
from tugems.drive_cycle import DriveCycle, SynthSpec
from tugems.ensemble import run_episodes
from tugems.powertrain import (BatteryModel, EguModel, Plant, PlantModels, PlantState,
                               TractionMotorModel, array_kernel, curve_lookup, default_egu,
                               default_models, egu_efficiency, egu_fuel_power, ladder_kernel)
from tugems.qlearn import AGENT_A_STREAM, ActionGrid, Agent, LearnerConfig, StateGrid

# ---------------------------------------------------------------------------
# traction motor losses
# ---------------------------------------------------------------------------


def test_motor_loss_calibration_hits_both_efficiency_targets():
    # c0 is the 3.5 kW idle loss; with it fixed, the two targets at the
    # 245 kW rating point fix (c2, c1)
    motor = TractionMotorModel()
    assert motor.loss_c0 == 3500.0
    for p, eta in ((245_000.0, 0.95), (24_500.0, 0.85)):
        assert p / (p + motor.loss_at_power(p)) == pytest.approx(eta, rel=1e-12, abs=0.0)


def test_motor_idle_loss_is_the_constant_term():
    motor = TractionMotorModel()
    assert motor.loss_at_power(0.0) == pytest.approx(motor.loss_c0)


def test_link_power_round_trip_through_inverse():
    motor = TractionMotorModel()
    for p_w in (0.0, 5_000.0, 40_000.0, 245_000.0):
        p_link = motor.link_power(p_w)
        assert p_link >= p_w
        assert motor.power_from_link(p_link) == pytest.approx(p_w, abs=1e-6)


@given(st.floats(min_value=0.0, max_value=253_000.0))
def test_motor_loss_nonnegative_and_link_power_monotone(p_w):
    motor = TractionMotorModel()
    assert motor.loss_at_power(p_w) > 0.0
    assert motor.link_power(p_w + 1.0) > motor.link_power(p_w)


# ---------------------------------------------------------------------------
# engine-generator unit
# ---------------------------------------------------------------------------


def test_egu_curve_reproduces_all_three_anchors():
    # a quadratic through three points is unique, so the constants are the fit
    egu = default_egu()
    for load, rate_l_h in ((0.5, 13.0), (0.75, 18.6), (1.0, 24.1)):
        p = load * egu.max_power_w
        want = rate_l_h * 0.87 * 44e6 / 3600.0  # L/h * kg/L * J/kg / s/h = W
        assert egu_fuel_power(egu, p) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_egu_efficiency_anchors():
    egu = default_egu()
    assert egu_efficiency(egu, egu.max_power_w) == pytest.approx(0.336, abs=1e-3)
    assert egu_efficiency(egu, 0.5 * egu.max_power_w) == pytest.approx(0.312, abs=1e-3)
    assert egu_efficiency(egu, 0.0) == 0.0


def test_egu_curve_strictly_increasing_on_operating_range():
    egu = default_egu()
    ps = np.linspace(0.0, egu.max_power_w, 500)
    fuels = [egu_fuel_power(egu, float(p)) for p in ps]
    assert all(b > a for a, b in zip(fuels, fuels[1:]))


def test_egu_fuel_power_range_checked():
    egu = default_egu()
    with pytest.raises(ValueError):
        egu_fuel_power(egu, -1.0)
    with pytest.raises(ValueError):
        egu_fuel_power(egu, egu.max_power_w + 1.0)
    with pytest.raises(ValueError, match="p_egu_cmd_w must be within"):
        egu_fuel_power(egu, math.nan)


def test_egu_model_rejects_decreasing_fuel_curve():
    with pytest.raises(ValueError, match="increasing"):
        EguModel(max_power_w=86_200.0, fuel_b2=0.0, fuel_b1=-1.0, fuel_b0=5e5)


@pytest.mark.parametrize("b1, b0", [(2.0, -1.0), (1.0 + 1e-9, -1e-12)])
def test_egu_model_rejects_a_curve_below_its_output_near_zero(b1, b0):
    # fuel - p -> fuel_b0 as p -> 0+; with fuel_b0 = -1 W the margin is
    # positive from 1 W up, yet a 0.5 W command burns less than it delivers
    with pytest.raises(ValueError, match="fuel power must exceed output power"):
        EguModel(max_power_w=86_200.0, fuel_b2=0.0, fuel_b1=b1, fuel_b0=b0)


def test_egu_model_accepts_a_curve_that_starts_at_zero_and_climbs():
    EguModel(max_power_w=86_200.0, fuel_b2=1e-6, fuel_b1=1.0, fuel_b0=0.0)  # margin 1e-6 p^2
    egu = EguModel(max_power_w=86_200.0, fuel_b2=0.0, fuel_b1=2.0, fuel_b0=0.0)
    plant = Plant(dataclasses.replace(default_models(), egu=egu), 0.5)
    assert plant.step(0.0, 0.5, 1.0).engine_loss_w == 0.5


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def test_voltage_curve_interpolation_and_clamping():
    battery = BatteryModel()
    assert battery.cell_voltage(0.5) == pytest.approx(3.6)
    assert battery.cell_voltage(0.35) == pytest.approx(3.5)  # halfway 3.4 -> 3.6
    assert battery.cell_voltage(0.2) == pytest.approx(3.4)
    assert battery.cell_voltage(0.8) == pytest.approx(3.9)


def test_battery_rejects_bad_window():
    with pytest.raises(ValueError):
        BatteryModel(soc_min=0.8, soc_max=0.2)


# ---------------------------------------------------------------------------
# plant step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("soc0,demand,cmd", [
    (0.5, 30_000.0, 43_100.0),    # mid window, battery discharges
    (0.5, 5_000.0, 86_200.0),     # mid window, battery charges
    (0.35, 120_000.0, 0.0),       # engine off, battery carries all
    (0.25, 200_000.0, 0.0),       # low SoC: forced charging, deficit penalty
    (0.2, 0.0, 0.0),              # bottom edge of the window
    (0.2, 250_000.0, 86_200.0),   # bottom edge under a shortfall
    (0.8, 0.0, 86_200.0),         # top edge: no room to charge
    (0.8, 150_000.0, 0.0),        # top edge, discharging
])
def test_plant_step_physics_at_operating_points(models, soc0, demand, cmd):
    battery, dt = models.battery, 1.0
    plant = Plant(models, soc0)
    out = plant.step(demand, cmd, dt)
    current = out.p_batt_w / (battery.cell_voltage(soc0) * battery.num_cells)
    assert out.cell_current_a == current
    raw = soc0 - current * dt / battery.coulomb_capacity
    assert out.soc == min(max(raw, battery.soc_min), battery.soc_max)
    assert out.engine_loss_w == out.fuel_power_w - out.p_egu_w
    assert out.battery_loss_w == pytest.approx(
        curve_lookup(battery.resistance_curve)(soc0) * current ** 2 * battery.num_cells,
        rel=1e-12)
    loss = out.engine_loss_w + out.battery_loss_w
    assert out.p_loss_total_w == loss
    penalty = 500.0 * max(0.0, models.soc_ref - out.soc)
    assert (penalty > 0.0) == (soc0 < models.soc_ref)
    assert out.reward == pytest.approx(-loss / 1000.0 - penalty, rel=1e-12, abs=1e-12)
    assert plant.state.soc == out.soc and plant.state.steps == 1
    assert battery.soc_min <= out.soc <= battery.soc_max


@pytest.mark.parametrize("demand,cmd,p_batt", [
    (250_000.0, 0.0, 120_000.0),   # the discharge cap binds
    (0.0, 86_200.0, -60_000.0),    # the charge cap binds
], ids=["discharge", "charge"])
def test_plant_step_holds_each_pack_power_cap_to_its_own_limit(demand, cmd, p_batt):
    # uneven limits, so a step that reads one cap for the other cannot pass
    battery = BatteryModel(max_discharge_power_w=120_000.0, max_charge_power_w=60_000.0)
    models = dataclasses.replace(default_models(), battery=battery)
    assert Plant(models, 0.5).step(demand, cmd, 1.0).p_batt_w == p_batt


def test_plant_step_rejects_a_fuel_curve_below_output():
    egu = default_egu()
    object.__setattr__(egu, "fuel_b0", -1e6)  # bypass the model's own check
    models = dataclasses.replace(default_models(), egu=egu)
    with pytest.raises(ValueError, match="engine loss is negative"):
        Plant(models, 0.5).step(0.0, 8_620.0, 1.0)
    with pytest.raises(ValueError, match="engine loss is negative"):  # and its array twin
        array_kernel(models)([0.5], False, 1.0)(models.motor.link_power(0.0), [0.0, 8_620.0])


def test_ladder_kernel_rejects_a_fuel_curve_below_output_as_plant_step_does():
    egu = default_egu()
    object.__setattr__(egu, "fuel_b0", -1e6)  # bypass the model's own check
    models = dataclasses.replace(default_models(), egu=egu)
    link = models.motor.link_power(0.0)
    with pytest.raises(ValueError, match="engine loss is negative") as want:
        Plant(models, 0.5).step(0.0, 8_620.0, 1.0)
    with pytest.raises(ValueError) as got:  # the engine-off level passes, the next raises
        ladder_kernel(models)(0.5, False, link, (0.0, 8_620.0), 1.0)
    assert str(got.value) == str(want.value)


def test_plant_step_link_balance_is_exact(models):
    plant = Plant(models, 0.5)
    for demand, cmd in ((0.0, 0.0), (30_000.0, 43_100.0), (150_000.0, 86_200.0),
                        (240_000.0, 86_200.0), (8_000.0, 0.0)):
        out = plant.step(demand, cmd, 1.0)
        assert out.p_egu_w + out.p_batt_w == out.p_link_w  # bit-exact by design


def test_plant_step_commanded_zero_burns_no_fuel(models):
    plant = Plant(models, 0.5)
    out = plant.step(20_000.0, 0.0, 1.0)
    assert out.fuel_power_w == 0.0
    assert out.p_egu_w == 0.0
    assert out.engine_loss_w == 0.0


def test_plant_step_idle_egu_command_still_burns(models):
    # demand low enough that the battery can cover the rest, so the
    # commanded generator setpoint is respected as-is
    plant = Plant(models, 0.5)
    out = plant.step(100_000.0, 8_620.0, 1.0)
    assert out.p_egu_w == pytest.approx(8_620.0)
    assert out.fuel_power_w > out.p_egu_w


def test_forced_charging_engages_below_sustain_and_releases_with_hysteresis(models):
    plant = Plant(models, 0.279)
    out = plant.step(0.0, 0.0, 1.0)
    assert out.forced_charging
    assert out.p_egu_w == models.egu.max_power_w  # command overridden
    # stays engaged until SoC clears sustain + margin
    while plant.state.soc < models.charge_sustain_soc + models.charge_release_margin:
        out = plant.step(0.0, 0.0, 1.0)
        assert out.forced_charging
    out = plant.step(0.0, 0.0, 1.0)
    assert not out.forced_charging
    # the boundaries, by absolute value: exactly at the sustain point the
    # latch stays off, a float below it engages; a latched plant exactly at
    # the release point releases, a float below it holds
    sustain = models.charge_sustain_soc
    release = sustain + models.charge_release_margin
    for soc, latch, want in ((sustain, False, False), (math.nextafter(sustain, 0.0), False, True),
                             (release, True, False), (math.nextafter(release, 0.0), True, True)):
        plant.reset(soc)
        plant.state.forced_charging = latch
        assert plant.step(0.0, 0.0, 1.0).forced_charging is want


def test_shortfall_reported_not_raised(models):
    plant = Plant(models, 0.5)
    out = plant.step(250_000.0, 86_200.0, 1.0)
    assert out.shortfall_w > 0.0
    assert out.p_served_w < 250_000.0
    assert out.p_served_w + out.shortfall_w == pytest.approx(250_000.0)
    # the link still balances under shortfall
    assert out.p_egu_w + out.p_batt_w == out.p_link_w


def test_plant_step_validates_inputs(models):
    plant = Plant(models, 0.5)
    with pytest.raises(ValueError):
        plant.step(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        plant.step(0.0, models.egu.max_power_w + 1.0, 1.0)
    with pytest.raises(ValueError):
        plant.step(0.0, 0.0, 0.0)


@pytest.mark.parametrize("args, match", [
    ((math.nan, 0.0, 1.0), "p_dem_w must be non-negative, got nan"),
    ((1000.0, 0.0, math.nan), "dt_s must be positive, got nan"),
], ids=["demand", "dt"])
def test_plant_step_rejects_a_nan_demand_or_step_length(models, args, match):
    plant = Plant(models, 0.5)
    with pytest.raises(ValueError, match=match):
        plant.step(*args)
    assert plant.state == PlantState(soc=0.5)  # a rejected step books nothing


@pytest.mark.parametrize("soc", [0.05, 0.81, float("nan")])
def test_plant_rejects_an_initial_soc_outside_the_battery_window(models, soc):
    with pytest.raises(ValueError, match="outside the battery window"):
        Plant(models, soc)
    plant = Plant(models, 0.5)
    with pytest.raises(ValueError, match="outside the battery window"):
        plant.reset(soc)
    assert plant.state.soc == 0.5  # a rejected reset leaves the state alone


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.2, max_value=0.8),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=253_000.0),
                          st.floats(min_value=0.0, max_value=86_200.0)),
                min_size=1, max_size=40))
def test_plant_soc_never_leaves_window_and_energies_accumulate(soc0, steps):
    models = default_models()
    plant = Plant(models, soc0)
    for demand, cmd in steps:
        out = plant.step(demand, cmd, 1.0)
        assert models.battery.soc_min <= out.soc <= models.battery.soc_max
        assert out.engine_loss_w >= 0.0
        assert out.battery_loss_w >= 0.0
        assert out.traction_loss_w >= 0.0
    st_ = plant.state
    assert st_.cumulative_fuel_energy >= 0.0
    assert st_.steps == len(steps)


def test_energy_ledger_closes_over_a_mixed_run(models, bumpy_cycle):
    plant = Plant(models, 0.5)
    rng = np.random.default_rng(3)
    for p in bumpy_cycle.demand_w:
        cmd = float(rng.choice([0.0, 25_860.0, 60_340.0, 86_200.0]))
        plant.step(float(p), cmd, 1.0)
    s = plant.state
    oec = (s.cumulative_fuel_energy + s.cumulative_battery_draw
           + s.cumulative_battery_loss)
    out_plus_losses = (s.cumulative_traction_output + s.cumulative_engine_loss
                       + s.cumulative_battery_loss + s.cumulative_traction_loss)
    assert oec == pytest.approx(out_plus_losses, rel=1e-9)


# ---------------------------------------------------------------------------
# parameter validation and small helpers
# ---------------------------------------------------------------------------


def test_curve_lookup_and_battery_reject_a_nan_breakpoint():
    curve = ((0.2, 3.4), (math.nan, 3.6), (0.8, 3.9))
    with pytest.raises(ValueError, match="strictly ascending"):
        curve_lookup(curve)
    with pytest.raises(ValueError, match="strictly ascending"):
        BatteryModel(voltage_curve=curve)


def test_curve_lookup_clamps_outside_range():
    f = curve_lookup(((0.0, 1.0), (1.0, 3.0)))
    assert f(-5.0) == 1.0
    assert f(5.0) == 3.0
    assert f(0.5) == pytest.approx(2.0)


def _interpolation_formula(xs, ys, x):
    """Linear interpolation with clamped ends, written out as the oracle."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


@st.composite
def _curves_and_inner_points(draw):
    xs = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True)))
    y = st.floats(allow_nan=False)  # infinities and both zeros included
    ys = ([draw(y)] * len(xs) if draw(st.booleans())  # flat
          else draw(st.lists(y, min_size=len(xs), max_size=len(xs))))
    return xs, ys, draw(st.lists(st.floats(xs[0], xs[-1]), max_size=4))


@settings(max_examples=400, deadline=None)
@given(curve=_curves_and_inner_points(), probes=st.lists(st.floats(allow_nan=False),
                                                         max_size=3))
@example(curve=([0.2, 0.8], [0.03, 0.03], [0.5]), probes=[])  # stock resistance
@example(curve=([0.2, 0.5, 0.8], [3.4, 3.6, 3.9], [0.35, 0.7]), probes=[])  # stock voltage
@example(curve=([0.0, 1.0], [-0.0, -0.0], [0.5]), probes=[])  # inside, -0.0 + 0.0 is 0.0
@example(curve=([0.0, 1.0], [0.0, -0.0], [0.5]), probes=[])
@example(curve=([0.0, 1.0], [math.inf, math.inf], [0.5]), probes=[])  # inside, inf - inf
def test_curve_lookup_is_the_interpolation_formula_bit_for_bit(curve, probes):
    xs, ys, inner = curve
    f = curve_lookup(tuple(zip(xs, ys)))
    midpoints = [(x0 + x1) / 2 for x0, x1 in zip(xs, xs[1:])]
    outer = [xs[0] - 1.0, xs[-1] + 1.0, -math.inf, math.inf]
    for x in [*xs, *midpoints, *inner, *outer, *probes]:
        want = struct.pack("<d", _interpolation_formula(xs, ys, x))
        assert struct.pack("<d", f(x)) == want


def test_battery_model_survives_pickling_and_compares_by_value():
    # sweep --workers sends the models to worker processes by pickle
    battery = BatteryModel(voltage_curve=((0.2, 3.3), (0.6, 3.7), (0.8, 3.9)))
    copy = pickle.loads(pickle.dumps(battery))
    assert copy == battery and copy != BatteryModel()
    assert copy.cell_voltage(0.35) == battery.cell_voltage(0.35)
    assert pickle.loads(pickle.dumps(default_models())) == default_models()


def test_plant_models_validates_soc_ref():
    with pytest.raises(ValueError):
        dataclasses.replace(default_models(), soc_ref=0.1)


@pytest.mark.parametrize("model, kwargs, match", [
    (EguModel, dict(max_power_w=math.nan, fuel_b2=0.0, fuel_b1=2.0, fuel_b0=1.0),
     "max_power_w must be positive, got nan"),
    (EguModel, dict(max_power_w=86_200.0, fuel_b2=math.nan, fuel_b1=2.0, fuel_b0=1.0),
     "strictly increasing"),
    (TractionMotorModel, dict(rated_speed_rpm=math.nan), "rated_speed_rpm must be positive"),
    (TractionMotorModel, dict(loss_c2=math.nan), "loss_c2 must be non-negative"),
    (TractionMotorModel, dict(loss_c1=math.nan), "loss_c1 must be non-negative"),
    (TractionMotorModel, dict(loss_c0=math.nan), "loss_c0 must be non-negative"),
    (BatteryModel, dict(cell_capacity_ah=math.nan), "cell_capacity_ah must be positive"),
    (BatteryModel, dict(max_charge_power_w=math.nan), "pack power limits"),
    (BatteryModel, dict(max_discharge_power_w=math.nan), "pack power limits"),
    (PlantModels, dict(motor=TractionMotorModel(), egu=default_egu(), battery=BatteryModel(),
                       charge_release_margin=math.nan), "charge_release_margin"),
    (SynthSpec, dict(segments=((1_000.0, math.nan),)), "segment hold must be positive"),
    (SynthSpec, dict(segments=((math.nan, 10.0),)), "segment level nan W minus noise"),
    (SynthSpec, dict(segments=((1_000.0, 10.0),), noise_amplitude_w=math.nan),
     "noise_amplitude_w must be non-negative"),
], ids=["egu-max-power", "egu-b2", "motor-speed", "motor-c2", "motor-c1", "motor-c0",
        "battery-capacity", "battery-charge-limit", "battery-discharge-limit",
        "release-margin", "synth-hold", "synth-level", "synth-noise"])
def test_model_constructors_reject_nan(model, kwargs, match):
    # every comparison with NaN is False, so each check must be one that NaN fails
    with pytest.raises(ValueError, match=match):
        model(**kwargs)


def test_plant_step_rejects_a_nan_command(models):
    # a NaN command used to pass the rating check and run as 0 W
    plant = Plant(models, 0.5)
    with pytest.raises(ValueError, match="p_egu_cmd_w must be within"):
        plant.step(10_000.0, math.nan, 1.0)
    assert plant.state.steps == 0


# ---------------------------------------------------------------------------
# one check per rule: every entry point raises the same text
# ---------------------------------------------------------------------------


def _run_episodes(models, soc, actions):
    grid = StateGrid.uniform()
    agent = Agent.create(grid, actions, LearnerConfig(), 0, AGENT_A_STREAM)
    run_episodes(DriveCycle(1.0, np.full(5, 1_000.0), "tiny"), (agent,), range(1),
                 models, soc, grid, actions)


def _dp(models, soc, actions):
    dp_baseline(DriveCycle(1.0, np.full(5, 1_000.0), "tiny"), actions, models, soc)


# entry point -> (the name its window error gives, a call with that SoC)
_WINDOW_ENTRY_POINTS = {
    "Plant": ("initial_soc", lambda models, soc: Plant(models, soc)),
    "Plant.reset": ("initial_soc", lambda models, soc: Plant(models, 0.5).reset(soc)),
    "PlantModels.soc_ref": (
        "soc_ref", lambda models, soc: dataclasses.replace(models, soc_ref=soc)),
    "PlantModels.charge_sustain_soc": (
        "charge_sustain_soc",
        lambda models, soc: dataclasses.replace(models, charge_sustain_soc=soc)),
    "run_episodes": ("initial_soc",
                     lambda models, soc: _run_episodes(models, soc, ActionGrid.uniform())),
    "dp_baseline": ("initial_soc", lambda models, soc: _dp(models, soc, ActionGrid.uniform())),
    "parse_config run.initial_soc": (
        "config.run: initial_soc",
        lambda models, soc: parse_config({"run": {"initial_soc": soc}})),
    "parse_config eval.initial_socs": (
        "config.eval: initial_socs",
        lambda models, soc: parse_config({"eval": {"initial_socs": [0.5, soc]}})),
}


@pytest.mark.parametrize("soc", [0.1, 0.9])
@pytest.mark.parametrize("entry", sorted(_WINDOW_ENTRY_POINTS))
def test_every_entry_point_raises_the_one_window_text(models, entry, soc):
    name, call = _WINDOW_ENTRY_POINTS[entry]
    text = f"{name} {soc} outside the battery window [0.2, 0.8]"
    with pytest.raises(ValueError, match=re.escape(text)):
        call(models, soc)


# entry point -> a call with that EGU command (a ladder's top level for the loops)
_COMMAND_ENTRY_POINTS = {
    "Plant.step": lambda models, cmd: Plant(models, 0.5).step(10_000.0, cmd, 1.0),
    "run_episodes": lambda models, cmd: _run_episodes(models, 0.5, ActionGrid((0.0, cmd))),
    "dp_baseline": lambda models, cmd: _dp(models, 0.5, ActionGrid((0.0, cmd))),
}


@pytest.mark.parametrize("cmd", [86_200.5, math.nan])
@pytest.mark.parametrize("entry", sorted(_COMMAND_ENTRY_POINTS))
def test_every_entry_point_raises_the_one_command_text(models, entry, cmd):
    text = f"p_egu_cmd_w must be within [0, 86200.0], got {cmd}"
    if entry != "Plant.step" and math.isnan(cmd):
        text = "action levels must be strictly ascending"  # no NaN ladder gets built
    with pytest.raises(ValueError, match=re.escape(text)):
        _COMMAND_ENTRY_POINTS[entry](models, cmd)


def test_plant_state_starts_clean():
    s = PlantState(soc=0.5)
    assert s.steps == 0 and not s.forced_charging
    assert s.cumulative_fuel_energy == 0.0

