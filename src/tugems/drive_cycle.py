"""Driver power-demand traces: CSV loading, validation, and synthesis.

A drive cycle is a fixed-timestep sequence of non-negative power demand in W.
Cycles are exchanged as UTF-8 CSV files with LF line endings and the header
``t_s,p_dem_w``; timestamps must rise uniformly.

The four built-in towing cycles are synthetic stand-ins generated from
piecewise-constant duty patterns with seeded bounded noise, one sample per
second; the real manufacturer cycles are not published.  Every built-in
label carries a ``-synthetic`` suffix to keep that visible in result tables.
A cycle read from a file keeps the time step of its CSV.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CYCLE_POWER_MAX_W",
    "CycleError",
    "DriveCycle",
    "SynthSpec",
    "validate_cycle",
    "load_cycle",
    "synth_cycle",
    "builtin_cycle",
    "BUILTIN_CYCLE_NAMES",
]

CYCLE_POWER_MAX_W = 253_000.0  # plant envelope: demand above this is invalid

_HEADER = ("t_s", "p_dem_w")


class CycleError(ValueError):
    """Malformed cycle data (file contents or constructed traces)."""


@dataclass(frozen=True)
class DriveCycle:
    """Fixed-timestep power-demand trace, valid by construction.

    The demand array is copied and made read-only; build a new cycle instead
    of editing one in place.  Raises :class:`CycleError` listing every
    problem :func:`validate_cycle` finds.
    """

    dt_s: float
    demand_w: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.demand_w, dtype=np.float64)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "demand_w", arr)
        problems = validate_cycle(self.dt_s, arr)
        if problems:
            raise CycleError("; ".join(problems))

    def __reduce__(self):
        # Rebuild through the constructor: an unpickled cycle is checked and read-only.
        return (DriveCycle, (self.dt_s, self.demand_w, self.label))

    def __len__(self) -> int:
        return int(self.demand_w.size)

    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.dt_s


def validate_cycle(dt_s: float, demand_w: np.ndarray) -> list[str]:
    """Check a time step and demand array against the trace invariants.

    Returns violation messages, naming the offending sample index where one
    exists; an empty list means a valid cycle.
    """
    problems: list[str] = []
    if not np.isfinite(dt_s) or dt_s <= 0.0:
        problems.append(f"dt_s must be a positive finite number, got {dt_s}")
    if demand_w.ndim != 1:
        problems.append(f"demand must be a 1-D array, got shape {demand_w.shape}")
        return problems
    if demand_w.size == 0:
        problems.append("cycle has no samples")
    bad = np.flatnonzero(~np.isfinite(demand_w))
    for i in bad[:5]:
        problems.append(f"sample {int(i)}: demand is not finite")
    low = np.flatnonzero(np.isfinite(demand_w) & (demand_w < 0.0))
    for i in low[:5]:
        problems.append(f"sample {int(i)}: demand {float(demand_w[i])!r} W is negative")
    high = np.flatnonzero(np.isfinite(demand_w) & (demand_w > CYCLE_POWER_MAX_W))
    for i in high[:5]:
        problems.append(
            f"sample {int(i)}: demand {float(demand_w[i])!r} W exceeds the "
            f"{CYCLE_POWER_MAX_W:.0f} W envelope")
    return problems


def load_cycle(path: str | Path) -> DriveCycle:
    """Parse a ``t_s,p_dem_w`` CSV file into a validated cycle.

    Raises
    ------
    CycleError
        On non-UTF-8 bytes, a missing/wrong header, non-numeric fields,
        non-uniform or non-increasing timestamps, or out-of-range demand.
        Messages name the offending CSV row (1-based, header is row 1).
    """
    path = Path(path)
    times: list[float] = []
    demand: list[float] = []
    try:
        rows = list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CycleError(f"{path}: not a UTF-8 CSV file ({exc})") from None
    if not rows:
        raise CycleError(f"{path}: file is empty")
    if tuple(h.strip() for h in rows[0]) != _HEADER:
        raise CycleError(
            f"{path}: expected header {','.join(_HEADER)!r}, got {','.join(rows[0])!r}")
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore a trailing blank line
        if len(row) != 2:
            raise CycleError(f"{path}: row {row_no}: expected 2 fields, got {len(row)}")
        try:
            t = float(row[0])
            p = float(row[1])
        except ValueError:
            raise CycleError(
                f"{path}: row {row_no}: non-numeric field in {row!r}") from None
        times.append(t)
        demand.append(p)
    if len(times) >= 2:
        dt = times[1] - times[0]
        if not dt > 0.0:
            raise CycleError(
                f"{path}: row 3: time must increase (t goes {times[0]!r} -> {times[1]!r})")
        tol = 1e-6 * max(1.0, abs(dt))
        for i in range(1, len(times)):
            step = times[i] - times[i - 1]
            if not abs(step - dt) <= tol:
                raise CycleError(
                    f"{path}: row {i + 2}: non-uniform time step "
                    f"{step!r} s (expected {dt!r} s)")
    else:
        dt = 1.0  # a single sample carries no spacing; 1 s is the convention
    try:
        return DriveCycle(dt_s=dt, demand_w=np.array(demand), label=path.stem)
    except CycleError as exc:
        raise CycleError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic piecewise-constant cycle sampled every 1 s.

    ``segments`` is a sequence of (level_w, hold_s) pairs, each hold rounded
    to whole seconds; the cycle lasts the sum of the holds.  Uniform noise in
    [-noise_amplitude_w, +noise_amplitude_w] is added per sample, so every
    sample stays within that band around its level.
    """

    segments: tuple[tuple[float, float], ...]
    noise_amplitude_w: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("segments must not be empty")
        if not self.noise_amplitude_w >= 0.0:
            raise ValueError(
                f"noise_amplitude_w must be non-negative, got {self.noise_amplitude_w}")
        for level, hold in self.segments:
            if not 0.0 < hold < math.inf:
                raise ValueError(f"segment hold must be positive and finite, got {hold}")
            if not level - self.noise_amplitude_w >= 0.0:
                raise ValueError(
                    f"segment level {level} W minus noise goes below 0 W")
            if not level + self.noise_amplitude_w <= CYCLE_POWER_MAX_W:
                raise ValueError(
                    f"segment level {level} W plus noise exceeds the "
                    f"{CYCLE_POWER_MAX_W:.0f} W envelope")


def synth_cycle(spec: SynthSpec) -> DriveCycle:
    """Generate the cycle a :class:`SynthSpec` describes, deterministically.

    The same spec (including seed) always yields the same samples.
    """
    levels, holds = zip(*spec.segments)
    demand = np.repeat(np.array(levels, dtype=np.float64), [int(round(h)) for h in holds])
    if not demand.size:
        raise CycleError("segments were too short to produce a sample")
    if spec.noise_amplitude_w > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        noise = rng.uniform(-spec.noise_amplitude_w, spec.noise_amplitude_w,
                            size=demand.size)
        demand = demand + noise
    return DriveCycle(dt_s=1.0, demand_w=demand, label=spec.label)


# Duty patterns for the built-in synthetic towing cycles.  Each models a
# repeated tow job: idle, approach run, hook-up pause, loaded tow pulses,
# unloaded return, then a quiet tail that lets charge sustain settle.
# High-load bursts are kept short so the pack never runs away from its
# sustain band even with the generator at full power.
_JOB_LIGHT: tuple[tuple[float, float], ...] = (
    (8_000.0, 40.0), (45_000.0, 70.0), (15_000.0, 30.0),
    (120_000.0, 60.0), (70_000.0, 60.0), (40_000.0, 90.0), (8_000.0, 30.0),
)
_JOB_MEDIUM: tuple[tuple[float, float], ...] = (
    (10_000.0, 40.0), (55_000.0, 70.0), (15_000.0, 30.0),
    (150_000.0, 50.0), (200_000.0, 25.0), (110_000.0, 70.0),
    (60_000.0, 110.0), (10_000.0, 40.0),
)
_JOB_HEAVY: tuple[tuple[float, float], ...] = (
    (12_000.0, 30.0), (65_000.0, 60.0), (18_000.0, 25.0),
    (180_000.0, 40.0), (235_000.0, 12.0), (150_000.0, 60.0),
    (90_000.0, 90.0), (45_000.0, 80.0), (12_000.0, 35.0),
)
_TAIL: tuple[tuple[float, float], ...] = ((8_000.0, 90.0),)

_BUILTIN_SPECS: dict[str, SynthSpec] = {
    "PRDC-1-synthetic": SynthSpec(
        segments=_JOB_MEDIUM * 2 + _TAIL,
        noise_amplitude_w=2_000.0, seed=101, label="PRDC-1-synthetic"),
    "PRDC-2-synthetic": SynthSpec(
        segments=_JOB_MEDIUM * 3 + _JOB_HEAVY + _TAIL,
        noise_amplitude_w=2_500.0, seed=102, label="PRDC-2-synthetic"),
    "PRDC-3-synthetic": SynthSpec(
        segments=_JOB_LIGHT * 4 + _TAIL,
        noise_amplitude_w=1_500.0, seed=103, label="PRDC-3-synthetic"),
    "PRDC-4-synthetic": SynthSpec(
        segments=_JOB_HEAVY * 2 + _JOB_MEDIUM * 2 + _TAIL,
        noise_amplitude_w=2_500.0, seed=104, label="PRDC-4-synthetic"),
}

BUILTIN_CYCLE_NAMES: tuple[str, ...] = tuple(_BUILTIN_SPECS)


def builtin_cycle(name: str) -> DriveCycle:
    """Return one of the built-in synthetic towing cycles by name, at 1 s.

    Names are ``PRDC-1-synthetic`` .. ``PRDC-4-synthetic``; cycle 1 is the
    learning cycle, 2-4 are held out for robustness evaluation.
    """
    try:
        spec = _BUILTIN_SPECS[name]
    except KeyError:
        known = ", ".join(BUILTIN_CYCLE_NAMES)
        raise CycleError(f"unknown built-in cycle {name!r} (known: {known})") from None
    return synth_cycle(spec)
