"""Series-hybrid powertrain components and the one-step plant model.

Power flows over a DC link that couples three devices:

* a traction motor that serves the driver's power demand,
* an engine-generator unit (EGU) that turns fuel into link power,
* a battery pack that buffers the difference.

Sign conventions, used everywhere in this package:

* ``p_batt_w > 0`` discharges the pack, ``< 0`` charges it,
* battery cell current follows the same sign (positive = discharging),
* all powers are W, energies J, time s, state of charge a 0..1 fraction.

The link balance ``p_link = p_egu + p_batt`` holds exactly at every step;
``p_link`` itself is the served traction power plus the traction-motor loss.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EGU_RATED_POWER_W",
    "curve_lookup",
    "TractionMotorModel",
    "EguModel",
    "BatteryModel",
    "PlantModels",
    "PlantState",
    "StepOutcome",
    "Plant",
    "egu_fuel_power",
    "egu_efficiency",
    "step_kernel",
    "ladder_kernel",
    "array_kernel",
    "default_egu",
    "default_models",
]

EGU_RATED_POWER_W = 86_200.0  # the stock EGU's rated output, top of the action ladder

# Torque (N.m) of a shaft delivering P watts at n rpm: T = 9550 * (P/1000) / n.
_TORQUE_PER_W_RPM = 9.55

_SECONDS_PER_HOUR = 3600.0

# Reward per unit of SoC the pack ends a step below ``PlantModels.soc_ref``.
_SOC_PENALTY = 500.0

_NEGATIVE_ENGINE_LOSS = ("engine loss is negative ({:.6g} W); the EGU fuel curve "
                         "violates its fuel-power > output-power invariant")


def curve_lookup(points: tuple[tuple[float, float], ...]) -> Callable[[float], float]:
    """Piecewise-linear map through ``(x, y)`` points, x strictly ascending,
    as a closure over precomputed segments (a flat curve: its constant).
    Beyond the end points the end values hold, so a battery curve is defined
    for any SoC the plant can reach."""
    if not points:
        raise ValueError("a curve needs at least one point")
    xs, ys = (tuple(map(float, column)) for column in zip(*points))
    if any(not b > a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"breakpoint x values must be strictly ascending, got {xs}")
    x_lo, x_hi, y_lo, y_hi = xs[0], xs[-1], ys[0], ys[-1]
    # On a flat curve the formula gives y0 + 0.0: y0 unless -0.0 or not finite.
    if math.isfinite(y_lo) and all(repr(y) == repr(y_lo + 0.0) for y in ys):
        return lambda _x: y_lo
    segments = [(x0, y0, y1 - y0, x1 - x0)
                for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]

    def lookup(x: float) -> float:
        if x <= x_lo:
            return y_lo
        if x >= x_hi:
            return y_hi
        x0, y0, dy, dx = segments[bisect_right(xs, x) - 1]
        return y0 + dy * (x - x0) / dx

    return lookup


@dataclass(frozen=True)
class TractionMotorModel:
    """Traction motor with a quadratic copper/iron loss model in torque.

    ``loss = c2*T**2 + c1*T + c0`` with T the shaft torque in N.m.  Because
    demand traces carry power rather than torque, the plant converts power to
    an equivalent torque at ``rated_speed_rpm``; the tractor operates in a
    narrow low-speed band, so a single reference speed is adequate.
    """

    rated_speed_rpm: float = 3000.0
    # The default loss coefficients: 95 % efficiency at the 245 kW / 3000 rpm
    # rating point, 85 % at 10 % of its torque, and 3.5 kW idle loss, solved
    # for (c2, c1).
    loss_c2: float = float.fromhex("0x1.1599bd4dc5ea8p-9")  # W/(N.m)^2
    loss_c1: float = float.fromhex("0x1.4c9bc9b0eba52p+3")  # W/(N.m)
    loss_c0: float = 3500.0  # W

    def __post_init__(self) -> None:
        if not self.rated_speed_rpm > 0.0:
            raise ValueError(f"rated_speed_rpm must be positive, got {self.rated_speed_rpm}")
        for name in ("loss_c2", "loss_c1", "loss_c0"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def loss_at_power(self, power_w: float) -> float:
        """Quadratic torque loss (W) at the equivalent shaft torque of an
        output power at rated speed."""
        torque_nm = power_w * _TORQUE_PER_W_RPM / self.rated_speed_rpm
        return (self.loss_c2 * torque_nm + self.loss_c1) * torque_nm + self.loss_c0

    def link_power(self, power_w: float) -> float:
        """DC-link power needed to deliver ``power_w`` at the shaft."""
        return power_w + self.loss_at_power(power_w)

    def power_from_link(self, p_link_w: float) -> float:
        """Invert :meth:`link_power`: shaft power a given link power can serve.

        Returns 0.0 when the link power does not even cover the idle loss.
        """
        if p_link_w <= self.loss_c0:
            return 0.0
        t_per_w = _TORQUE_PER_W_RPM / self.rated_speed_rpm
        a = self.loss_c2 * t_per_w * t_per_w
        b = 1.0 + self.loss_c1 * t_per_w
        c = self.loss_c0 - p_link_w
        if a == 0.0:
            return -c / b
        return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


@dataclass(frozen=True)
class EguModel:
    """Engine-generator unit: electrical output vs. chemical fuel power.

    ``fuel_b2/b1/b0`` are the quadratic load-curve coefficients of a running
    unit; a commanded output of exactly 0 W means the unit is off and burns
    nothing (handled by the plant, not by the curve itself).
    """

    max_power_w: float
    fuel_b2: float  # 1/W
    fuel_b1: float  # dimensionless
    fuel_b0: float  # W

    def __post_init__(self) -> None:
        if not self.max_power_w > 0.0:
            raise ValueError(f"max_power_w must be positive, got {self.max_power_w}")
        # The load curve must rise monotonically and always cost more fuel
        # power than it returns electrically: a quadratic's margin is checked
        # at max, at the vertex and as p -> 0+, where the first nonzero of its
        # coefficients (b0, b1 - 1, b2) must be positive.
        d0 = self.fuel_b1  # derivative at 0
        d1 = 2.0 * self.fuel_b2 * self.max_power_w + self.fuel_b1
        if not (d0 > 0.0 and d1 > 0.0):
            raise ValueError(
                "fuel curve must be strictly increasing on [0, max_power_w]; "
                f"derivative spans {d0:.6g}..{d1:.6g}")
        margins = [self._curve(self.max_power_w) - self.max_power_w]
        if self.fuel_b2 != 0.0:
            vertex = (1.0 - self.fuel_b1) / (2.0 * self.fuel_b2)
            if 0.0 < vertex < self.max_power_w:
                margins.append(self._curve(vertex) - vertex)
        near_zero = (self.fuel_b0, self.fuel_b1 - 1.0, self.fuel_b2) > (0.0, 0.0, 0.0)
        if not (min(margins) > 0.0 and near_zero):
            raise ValueError("fuel power must exceed output power on (0, max_power_w]")

    def check_command(self, p_egu_cmd_w: float) -> None:
        """Raise ``ValueError`` unless ``0 <= p_egu_cmd_w <= max_power_w`` (not NaN)."""
        if not 0.0 <= p_egu_cmd_w <= self.max_power_w:
            raise ValueError(
                f"p_egu_cmd_w must be within [0, {self.max_power_w}], got {p_egu_cmd_w}")

    def _curve(self, p_egu_w: float) -> float:
        return (self.fuel_b2 * p_egu_w + self.fuel_b1) * p_egu_w + self.fuel_b0


def egu_fuel_power(egu: EguModel, p_egu_w: float) -> float:
    """Chemical fuel power (W) of a *running* EGU at output ``p_egu_w``.

    This is the bare load curve: it returns ``fuel_b0`` at zero output.
    The plant treats a commanded 0 W as engine-off and charges no fuel.
    """
    egu.check_command(p_egu_w)
    return egu._curve(p_egu_w)


def egu_efficiency(egu: EguModel, p_egu_w: float) -> float:
    """Fuel-to-electric efficiency at an output power; 0.0 at zero output."""
    return p_egu_w / egu_fuel_power(egu, p_egu_w) if p_egu_w != 0.0 else 0.0


@dataclass(frozen=True)
class BatteryModel:
    """Battery pack of identical cells wired as one equivalent string.

    Voltage (V) and internal resistance (ohm) are per-cell curves in SoC,
    given as ``(soc, value)`` points and read through :func:`curve_lookup`.
    Pack power limits are symmetric defaults; SoC itself is tracked as a
    fraction of ``cell_capacity_ah``.
    """

    cell_capacity_ah: float = 2.45
    num_cells: int = 8200
    voltage_curve: tuple[tuple[float, float], ...] = ((0.2, 3.4), (0.5, 3.6), (0.8, 3.9))
    resistance_curve: tuple[tuple[float, float], ...] = ((0.2, 0.03), (0.8, 0.03))
    soc_min: float = 0.2
    soc_max: float = 0.8
    max_charge_power_w: float = 150_000.0
    max_discharge_power_w: float = 150_000.0

    def __post_init__(self) -> None:
        if not self.cell_capacity_ah > 0.0:
            raise ValueError(f"cell_capacity_ah must be positive, got {self.cell_capacity_ah}")
        if not self.num_cells >= 1:
            raise ValueError(f"num_cells must be at least 1, got {self.num_cells}")
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError(
                f"need 0 <= soc_min < soc_max <= 1, got {self.soc_min}, {self.soc_max}")
        if not (self.max_charge_power_w >= 0.0 and self.max_discharge_power_w >= 0.0):
            raise ValueError("pack power limits must be non-negative")
        for soc in (self.soc_min, self.soc_max, *(x for x, _ in self.voltage_curve)):
            if not self.cell_voltage(soc) > 0.0:
                raise ValueError(f"cell voltage must be positive, is not at soc={soc}")
        resistance = curve_lookup(self.resistance_curve)
        for soc in (self.soc_min, self.soc_max, *(x for x, _ in self.resistance_curve)):
            if not resistance(soc) >= 0.0:
                raise ValueError(f"cell resistance must be non-negative, is not at soc={soc}")

    def check_in_window(self, name: str, soc: float) -> None:
        """Raise ``ValueError``, naming ``name``, unless ``soc_min <= soc <= soc_max``."""
        if not self.soc_min <= soc <= self.soc_max:
            raise ValueError(f"{name} {soc} outside the battery window "
                             f"[{self.soc_min}, {self.soc_max}]")

    def cell_voltage(self, soc: float) -> float:
        return curve_lookup(self.voltage_curve)(soc)  # V

    @property
    def coulomb_capacity(self) -> float:
        return self.cell_capacity_ah * _SECONDS_PER_HOUR  # A.s


@dataclass(frozen=True)
class PlantModels:
    """Immutable parameter bundle consumed by :func:`step_kernel`."""

    motor: TractionMotorModel
    egu: EguModel
    battery: BatteryModel
    soc_ref: float = 0.28
    charge_sustain_soc: float = 0.28
    charge_release_margin: float = 0.005

    def __post_init__(self) -> None:
        self.battery.check_in_window("soc_ref", self.soc_ref)
        self.battery.check_in_window("charge_sustain_soc", self.charge_sustain_soc)
        if not self.charge_release_margin >= 0.0:
            raise ValueError(
                f"charge_release_margin must be non-negative, got {self.charge_release_margin}")


@dataclass
class PlantState:
    """Mutable integration state of one simulated run."""

    soc: float
    forced_charging: bool = False
    cumulative_fuel_energy: float = 0.0      # J
    cumulative_engine_loss: float = 0.0      # J
    cumulative_battery_loss: float = 0.0     # J
    cumulative_traction_loss: float = 0.0    # J
    cumulative_traction_output: float = 0.0  # J, demand actually served
    cumulative_battery_draw: float = 0.0     # J, signed terminal energy
    cumulative_shortfall: float = 0.0        # J, unserved demand
    steps: int = 0
    forced_charge_steps: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError(f"soc must be within [0, 1], got {self.soc}")


@dataclass(frozen=True)
class StepOutcome:
    """Everything one plant step produced, for rewards, traces and ledgers."""

    p_egu_w: float        # EGU output actually applied
    p_batt_w: float       # pack terminal power, + discharges
    p_link_w: float       # served DC-link power, == p_egu_w + p_batt_w
    p_served_w: float     # traction demand actually delivered
    shortfall_w: float    # requested minus served demand
    cell_current_a: float
    fuel_power_w: float
    engine_loss_w: float
    battery_loss_w: float
    traction_loss_w: float
    p_loss_total_w: float  # engine + battery loss, the reward's loss term
    reward: float
    forced_charging: bool
    soc: float            # post-step
    saturated: bool       # battery power was cut by an SoC bound this step


def step_kernel(models: PlantModels) -> Callable[..., tuple]:
    """Build the one scalar plant step for a parameter bundle, the full
    form: :func:`ladder_kernel` runs it for one state and a ladder of
    commands, :func:`array_kernel` over arrays of SoCs, steps and commands,
    and both return only its loss, latch and SoC, equal bit for bit.
    :func:`tugems.ensemble.run_episodes` runs its operations inline, fused
    with the learning step; its tests check it against :class:`Plant`.

    ``kernel(soc, latch, p_dem_w, p_link_req_w, p_egu_cmd_w, dt_s)`` returns
    the fields of :class:`StepOutcome` as a tuple, in declaration order;
    ``latch`` is the charge-sustain flag before the step and
    ``p_link_req_w`` is ``models.motor.link_power(p_dem_w)``.  The step
    resolves, in order: the charge-sustain override (EGU at full power while
    SoC is low, with hysteresis on release), battery capability at the
    current SoC, and any residual the EGU must absorb; demand beyond that is
    reported as shortfall.  The kernel checks no arguments and keeps no
    state.  Its conditionals reproduce builtin ``min``/``max`` exactly.
    """
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

    def kernel(soc0: float, latch: bool, p_dem: float, p_link_req: float,
               p_cmd: float, dt: float) -> tuple:
        # Charge-sustain override with hysteresis: engage strictly below the
        # sustain threshold, stay engaged until SoC clears threshold + margin.
        if latch and soc0 >= release:
            latch = False
        if soc0 < sustain:
            latch = True
        p_egu = p_max if latch else p_cmd

        # Battery capability this step, shrunk so the SoC window is never left.
        pack_volt = cell_voltage(soc0) * n_cells  # V
        dis_cap = (soc0 - soc_min) * coulomb / dt * pack_volt
        dis_cap = dis_cap if dis_cap < max_dis else max_dis
        chg_cap = (soc_max - soc0) * coulomb / dt * pack_volt
        chg_cap = chg_cap if chg_cap < max_chg else max_chg

        # The EGU absorbs whatever the battery cannot, within its own rating.
        lo = p_link_req - dis_cap
        p_egu = lo if lo > p_egu else p_egu
        hi = p_link_req + chg_cap
        p_egu = hi if hi < p_egu else p_egu
        p_egu = p_egu if p_egu > 0.0 else 0.0
        p_egu = p_egu if p_egu < p_max else p_max
        p_batt_unclamped = p_link_req - p_egu
        p_batt = p_batt_unclamped if p_batt_unclamped > -chg_cap else -chg_cap
        p_batt = p_batt if p_batt < dis_cap else dis_cap

        p_link = p_egu + p_batt  # == p_link_req unless demand falls short
        # On a genuine shortfall, serve the largest demand the link can carry.
        p_served = served_from_link(p_link) if p_batt_unclamped > dis_cap else p_dem
        traction_loss = p_link - p_served

        fuel = (b2 * p_egu + b1) * p_egu + b0 if p_egu > 0.0 else 0.0  # off at 0 W
        engine_loss = fuel - p_egu
        if engine_loss < 0.0:
            raise ValueError(_NEGATIVE_ENGINE_LOSS.format(engine_loss))
        current = p_batt / pack_volt  # A per cell
        battery_loss = resistance(soc0) * current * current * n_cells
        # Capability clamps above keep this inside the window up to rounding.
        soc = soc0 - current * dt / coulomb
        soc = soc if soc > soc_min else soc_min
        soc = soc if soc < soc_max else soc_max

        p_loss_total = engine_loss + battery_loss  # never negative, see above
        reward = -p_loss_total / 1000.0
        if soc < soc_ref:
            reward -= _SOC_PENALTY * (soc_ref - soc)
        return (p_egu, p_batt, p_link, p_served, p_dem - p_served, current, fuel,
                engine_loss, battery_loss, traction_loss, p_loss_total, reward,
                latch, soc, p_batt != p_batt_unclamped)

    return kernel


def ladder_kernel(models: PlantModels) -> Callable[..., tuple]:
    """Build :func:`step_kernel` for one state and several commands, equal to
    it bit for bit (the scalar counterpart of :func:`array_kernel`).

    ``ladder(soc0, latch, p_link_req_w, p_egu_cmds_w, dt_s)`` resolves the
    latch and the SoC terms (battery curves, pack volts, power caps) once,
    then runs the kernel's remaining operations once per command, in order,
    and returns ``(losses, latch, socs)``: per command the kernel's
    ``p_loss_total_w`` and next SoC, as lists, and the one resolved latch.
    A latched step runs at full power whatever the command, so it returns
    the full-power outcome only: one loss and one SoC.  Like the kernel it
    checks no arguments, except that a fuel curve below output raises."""
    battery, egu = models.battery, models.egu
    cell_voltage = curve_lookup(battery.voltage_curve)
    resistance = curve_lookup(battery.resistance_curve)
    n_cells, coulomb = battery.num_cells, battery.coulomb_capacity  # coulomb in A.s
    soc_min, soc_max = battery.soc_min, battery.soc_max
    max_dis, max_chg = battery.max_discharge_power_w, battery.max_charge_power_w
    p_max, b2, b1, b0 = egu.max_power_w, egu.fuel_b2, egu.fuel_b1, egu.fuel_b0
    sustain = models.charge_sustain_soc
    release = models.charge_sustain_soc + models.charge_release_margin

    def ladder(soc0: float, latch: bool, p_link_req: float, p_cmds, dt: float) -> tuple:
        if latch and soc0 >= release:
            latch = False
        if soc0 < sustain:
            latch = True
        pack_volt = cell_voltage(soc0) * n_cells  # V
        dis_cap = (soc0 - soc_min) * coulomb / dt * pack_volt
        dis_cap = dis_cap if dis_cap < max_dis else max_dis
        chg_cap = (soc_max - soc0) * coulomb / dt * pack_volt
        chg_cap = chg_cap if chg_cap < max_chg else max_chg
        lo, hi, r = p_link_req - dis_cap, p_link_req + chg_cap, resistance(soc0)
        losses, socs = [], []
        for p_egu in (p_max,) if latch else p_cmds:
            p_egu = lo if lo > p_egu else p_egu
            p_egu = hi if hi < p_egu else p_egu
            p_egu = p_egu if p_egu > 0.0 else 0.0
            p_egu = p_egu if p_egu < p_max else p_max
            p_batt = p_link_req - p_egu
            p_batt = p_batt if p_batt > -chg_cap else -chg_cap
            p_batt = p_batt if p_batt < dis_cap else dis_cap
            fuel = (b2 * p_egu + b1) * p_egu + b0 if p_egu > 0.0 else 0.0  # off at 0 W
            engine_loss = fuel - p_egu
            if engine_loss < 0.0:
                raise ValueError(_NEGATIVE_ENGINE_LOSS.format(engine_loss))
            current = p_batt / pack_volt  # A per cell
            soc = soc0 - current * dt / coulomb
            soc = soc if soc > soc_min else soc_min
            losses.append(engine_loss + r * current * current * n_cells)
            socs.append(soc if soc < soc_max else soc_max)
        return losses, latch, socs

    return ladder


def array_kernel(models: PlantModels) -> Callable[..., Callable[..., tuple]]:
    """Build :func:`step_kernel`'s array twin, equal to it bit for bit
    (:func:`ladder_kernel` is the scalar form of the same contract).

    ``array_kernel(models)(soc, latch, dt_s)`` prepares a stage over a 1-D
    array of SoCs (``latch``: one flag, or one per SoC): it resolves the
    latch and maps the battery curves, pack volts and power caps over the
    SoCs once, and returns ``step(p_link_req_w, p_egu_cmd_w)``.  ``step``
    broadcasts its two arguments against each other, appends the SoC axis
    and returns the kernel's ``p_loss_total_w``, latch and SoC as arrays
    (the latch is the prepared one, 1-D and read-only).

    The engine side of the step (the EGU clamp chain, battery power, fuel
    and engine loss) reads a SoC only through its latch and its two power
    caps, so it runs once per distinct column of those three, by their exact
    bits (-0.0 is not 0.0), and one ``take`` expands it over the SoCs: the
    stock pack's 87 free DP nodes are 2 columns, its 1 387 of a 1 601-node
    grid 3.  Current, battery loss and next SoC stay per SoC.  It runs the
    kernel's operations in order, in place on its own arrays only (never on
    the prepared ones), with masks on its comparisons and ``np.maximum(x,
    y)`` for ``x if x > y else y`` (both give ``y`` on ties, signed zeros
    included; ``np.minimum`` likewise)."""
    battery, egu = models.battery, models.egu
    curves = curve_lookup(battery.voltage_curve), curve_lookup(battery.resistance_curve)
    n_cells, coulomb = battery.num_cells, battery.coulomb_capacity  # coulomb in A.s
    soc_min, soc_max = battery.soc_min, battery.soc_max
    max_dis, max_chg = battery.max_discharge_power_w, battery.max_charge_power_w
    p_max, b2, b1, b0 = egu.max_power_w, egu.fuel_b2, egu.fuel_b1, egu.fuel_b0
    sustain = models.charge_sustain_soc
    release = models.charge_sustain_soc + models.charge_release_margin

    def stage(soc0, latch, dt) -> Callable[..., tuple]:
        soc0 = np.array(soc0, dtype=float, ndmin=1)
        latch = np.logical_and(latch, ~(soc0 >= release)) | (soc0 < sustain)
        latch.flags.writeable = False  # every step returns it
        socs = soc0.tolist()
        volt, r = (np.fromiter(map(f, socs), float, len(socs)) for f in curves)
        volt *= n_cells  # pack volts
        dis_cap = np.minimum((soc0 - soc_min) * coulomb / dt * volt, max_dis)
        chg_cap = np.minimum((soc_max - soc0) * coulomb / dt * volt, max_chg)
        # Number the distinct (latch, dis_cap, chg_cap) columns in order of
        # first occurrence; ``column[s]`` is SoC s's column.
        ids: dict[tuple, int] = {}
        column = np.array([ids.setdefault(key, len(ids)) for key in zip(
            latch.tolist(), dis_cap.view(np.int64).tolist(), chg_cap.view(np.int64).tolist())],
            dtype=np.intp)
        first = np.unique(column, return_index=True)[1]
        latch_c, dis_c, chg_c = latch[first], dis_cap[first], chg_cap[first]

        def step(p_link_req, p_cmd) -> tuple:
            p_link_req = np.asarray(p_link_req, dtype=float)[..., None]
            p_egu = np.maximum(p_link_req - dis_c,
                               np.where(latch_c, p_max, np.asarray(p_cmd)[..., None]))
            np.minimum(p_link_req + chg_c, p_egu, out=p_egu)
            np.maximum(p_egu, 0.0, out=p_egu)
            np.minimum(p_egu, p_max, out=p_egu)
            p_batt = np.subtract(p_link_req, p_egu)
            np.maximum(p_batt, -chg_c, out=p_batt)
            np.minimum(p_batt, dis_c, out=p_batt)

            engine_loss = b2 * p_egu
            engine_loss += b1
            engine_loss *= p_egu
            engine_loss += b0
            np.putmask(engine_loss, ~(p_egu > 0.0), 0.0)  # off at 0 W
            engine_loss -= p_egu
            if (engine_loss < 0.0).any():
                raise ValueError(_NEGATIVE_ENGINE_LOSS.format(engine_loss.min()))
            # Per SoC from here on.
            loss = engine_loss.take(column, axis=-1)
            current = p_batt.take(column, axis=-1)
            current /= volt  # A per cell
            battery_loss = np.multiply(r, current)
            battery_loss *= current
            battery_loss *= n_cells
            loss += battery_loss  # p_loss_total
            current *= dt
            current /= coulomb
            soc = np.subtract(soc0, current, out=current)
            np.maximum(soc, soc_min, out=soc)
            np.minimum(soc, soc_max, out=soc)
            return loss, latch, soc

        return step

    return stage


class Plant:
    """:class:`PlantModels` with a live state and their cached :func:`step_kernel`;
    construction and :meth:`reset` check the initial SoC against the battery window."""

    def __init__(self, models: PlantModels, initial_soc: float = 0.5) -> None:
        self.models = models
        self.kernel = step_kernel(models)
        self.reset(initial_soc)

    def reset(self, initial_soc: float) -> None:
        self.models.battery.check_in_window("initial_soc", initial_soc)
        self.state = PlantState(soc=initial_soc)

    def step(self, p_dem_w: float, p_egu_cmd_w: float, dt_s: float) -> StepOutcome:
        """Advance the plant one step under a power demand and an EGU command.

        Validates the arguments, runs the kernel and books the step into
        :attr:`state`, the energy ledger, which is updated in place.
        """
        if not p_dem_w >= 0.0:
            raise ValueError(f"p_dem_w must be non-negative, got {p_dem_w}")
        self.models.egu.check_command(p_egu_cmd_w)
        if not dt_s > 0.0:
            raise ValueError(f"dt_s must be positive, got {dt_s}")
        state = self.state
        out = StepOutcome(*self.kernel(state.soc, state.forced_charging, p_dem_w,
                                       self.models.motor.link_power(p_dem_w),
                                       p_egu_cmd_w, dt_s))
        state.soc, state.forced_charging = out.soc, out.forced_charging
        state.cumulative_fuel_energy += out.fuel_power_w * dt_s
        state.cumulative_engine_loss += out.engine_loss_w * dt_s
        state.cumulative_battery_loss += out.battery_loss_w * dt_s
        state.cumulative_traction_loss += out.traction_loss_w * dt_s
        state.cumulative_traction_output += out.p_served_w * dt_s
        state.cumulative_battery_draw += out.p_batt_w * dt_s
        state.cumulative_shortfall += out.shortfall_w * dt_s
        state.steps += 1
        state.forced_charge_steps += out.forced_charging
        return out


def default_egu() -> EguModel:
    """The stock 86.2 kW EGU; its load curve is a fixed constant."""
    # The quadratic through the factory anchors 13.0 / 18.6 / 24.1 L/h at
    # 50 / 75 / 100 % load, as fuel power at 0.87 kg/L and 44 MJ/kg.
    return EguModel(EGU_RATED_POWER_W, float.fromhex("-0x1.3350d2623ca16p-20"),
                    float.fromhex("0x1.717a3d0f53093p+1"),
                    float.fromhex("0x1.f26ffffffff6dp+13"))


def default_models() -> PlantModels:
    return PlantModels(motor=TractionMotorModel(), egu=default_egu(), battery=BatteryModel())
