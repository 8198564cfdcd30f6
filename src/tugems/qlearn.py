"""Tabular Q-learning pieces: state/action grids, decay schedules, updates.

The controller state is the pair (power demand, SoC), discretized on a
rectangular grid; actions are a fixed ladder of EGU output levels.  The
exploration threshold theta follows one of three decay schedules in the
episode index k and is frozen for the whole episode.  Action selection is
threshold-greedy: given T ~ U(0,1), exploit (argmax, lowest index on ties)
when T >= theta, otherwise take a uniform random action.  A learning episode
draws its T values and random actions up front, one block per agent
(:func:`exploration_draws`, RNG protocol v2).

Q-table snapshots are JSON with a self-describing header (grid edges,
action levels, schedule) so a restore can verify it matches the run setup.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .drive_cycle import CYCLE_POWER_MAX_W
from .powertrain import EGU_RATED_POWER_W

__all__ = [
    "SOC_STATE_MIN",
    "SOC_STATE_MAX",
    "SCHEDULE_KINDS",
    "StateGrid",
    "ActionGrid",
    "QTable",
    "E2ESchedule",
    "LearnerConfig",
    "Agent",
    "e2e_value",
    "exploration_draws",
    "threshold_greedy",
    "select_action",
    "q_update",
    "save_qtable",
    "load_qtable",
    "write_atomic",
    "make_rng",
    "AGENT_A_STREAM",
    "AGENT_B_STREAM",
    "COMBINER_STREAM",
    "RNG_PROTOCOL",
]

# State-space envelope: SoC here, demand up to the drive-cycle bound CYCLE_POWER_MAX_W.
SOC_STATE_MIN = 0.2
SOC_STATE_MAX = 0.8

# Each schedule kind and the parameters it takes besides ``initial``.
_KIND_PARAMS = {"exponential": (), "step": ("factor", "width"),
                "reciprocal": ("decay_rate",)}
SCHEDULE_KINDS = tuple(_KIND_PARAMS)

# Named RNG streams, split off one run seed.  Agent A, agent B and the
# action combiner each consume their own stream so that dropping any one
# consumer leaves the draws of the others untouched.
AGENT_A_STREAM = 0
AGENT_B_STREAM = 1
COMBINER_STREAM = 2

# Version of the draw order within the streams, recorded in manifests and
# snapshots.  v2: each learning episode draws its blocks up front
# (exploration_draws, and one combiner uniform per step).
RNG_PROTOCOL = 2


def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one named stream of a run seed (documented split)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _bin_index(edges: tuple[float, ...], x: float) -> int:
    """x's bin on ``edges``, by :class:`StateGrid`'s rule."""
    return bisect_right(edges, x, 1, len(edges) - 1) - 1


class StateGrid:
    """Rectangular discretization of (power demand, SoC).

    Both axes are given as strictly ascending edge sequences spanning the
    full state envelope.  A value's bin is the number of interior edges at
    or below it, NaN counting as above them all.  So bins are left-closed,
    the last one right-closed too, and a value beyond either end falls in
    the end bin.
    """

    __slots__ = ("p_dem_edges_w", "soc_edges", "n_p_dem", "n_soc")

    def __init__(self, p_dem_edges_w: object, soc_edges: object) -> None:
        p_edges = tuple(float(x) for x in p_dem_edges_w)
        s_edges = tuple(float(x) for x in soc_edges)
        self._check_axis("p_dem_edges_w", p_edges, 0.0, CYCLE_POWER_MAX_W)
        self._check_axis("soc_edges", s_edges, SOC_STATE_MIN, SOC_STATE_MAX)
        self.p_dem_edges_w = p_edges
        self.soc_edges = s_edges
        self.n_p_dem = len(p_edges) - 1
        self.n_soc = len(s_edges) - 1

    @staticmethod
    def _check_axis(name: str, edges: tuple[float, ...], lo: float, hi: float) -> None:
        if len(edges) < 3:
            raise ValueError(f"{name} needs at least 3 edges (2 bins), got {len(edges)}")
        if any(not b > a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"{name} must be strictly ascending")
        span = hi - lo
        if abs(edges[0] - lo) > 1e-9 * span or abs(edges[-1] - hi) > 1e-9 * span:
            raise ValueError(
                f"{name} must span [{lo}, {hi}], got [{edges[0]}, {edges[-1]}]")

    @classmethod
    def uniform(cls, n_p_dem: int = 23, n_soc: int = 25) -> "StateGrid":
        """Uniform grid over the full envelope; defaults 23 x 25 bins."""
        return cls(np.linspace(0.0, CYCLE_POWER_MAX_W, n_p_dem + 1),
                   np.linspace(SOC_STATE_MIN, SOC_STATE_MAX, n_soc + 1))

    @property
    def n_states(self) -> int:
        return self.n_p_dem * self.n_soc

    def p_dem_bin(self, p_dem_w: float) -> int:
        return _bin_index(self.p_dem_edges_w, p_dem_w)

    def soc_bin(self, soc: float) -> int:
        return _bin_index(self.soc_edges, soc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateGrid):
            return NotImplemented
        return (self.p_dem_edges_w == other.p_dem_edges_w
                and self.soc_edges == other.soc_edges)

    def __repr__(self) -> str:
        return f"StateGrid({self.n_p_dem} p_dem bins x {self.n_soc} soc bins)"


class ActionGrid:
    """Ascending ladder of EGU power commands (W), level 0 meaning off."""

    __slots__ = ("levels_w",)

    def __init__(self, levels_w: object) -> None:
        levels = tuple(float(x) for x in levels_w)
        if len(levels) < 2:
            raise ValueError(f"need at least 2 action levels, got {len(levels)}")
        if any(not b > a for a, b in zip(levels, levels[1:])):
            raise ValueError("action levels must be strictly ascending")
        if levels[0] != 0.0:
            raise ValueError(f"the first action level must be 0 W (off), got {levels[0]}")
        self.levels_w = levels

    @classmethod
    def uniform(cls, max_power_w: float = EGU_RATED_POWER_W,
                n_levels: int = 11) -> "ActionGrid":
        """Uniformly spaced levels from 0 to max power, endpoints included;
        defaults 11 levels up to the stock EGU's rating."""
        return cls(np.linspace(0.0, max_power_w, n_levels))

    @property
    def n_actions(self) -> int:
        return len(self.levels_w)

    def level(self, action: int) -> float:
        return self.levels_w[action]

    def nearest(self, power_w: float) -> int:
        """Index of the level closest to a power value; ties pick the lower."""
        levels = self.levels_w
        i = bisect_right(levels, power_w)
        if i == 0:
            return 0
        if i == len(levels):
            return len(levels) - 1
        below, above = levels[i - 1], levels[i]
        # strictly closer above wins; equal distance keeps the lower power
        if (above - power_w) < (power_w - below):
            return i
        return i - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionGrid):
            return NotImplemented
        return self.levels_w == other.levels_w

    def __repr__(self) -> str:
        return f"ActionGrid({self.n_actions} levels, top {self.levels_w[-1]:.0f} W)"


@dataclass(frozen=True)
class E2ESchedule:
    """Exploration-to-exploitation decay of the threshold theta over episodes.

    Kinds, with k the 0-based episode index and ``initial`` the starting
    threshold alpha_1:

    * ``exponential``:  theta = alpha_1 ** max(k, 1)   (k counts from 1)
    * ``step``:         theta = alpha_1 * factor ** round((1 + k) / width),
      rounding half away from zero
    * ``reciprocal``:   theta = alpha_1 / (1 + decay_rate * k); with
      ``decay_rate`` 0 it is a fixed theta = alpha_1

    All kinds give theta = alpha_1 at k = 0 and never rise with k.  A kind
    takes only its own parameters; the others stay None.
    """

    kind: str
    initial: float = 0.8
    factor: float | None = None
    width: int | None = None
    decay_rate: float | None = None

    def __post_init__(self) -> None:
        for key in ("initial", "factor", "width", "decay_rate"):
            value = getattr(self, key)
            if ((value is not None or key == "initial")
                    and (isinstance(value, bool) or not isinstance(value, (int, float)))):
                raise ValueError(f"{key} must be a number, got {value!r}")
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        foreign = [key for key in ("factor", "width", "decay_rate")
                   if getattr(self, key) is not None and key not in _KIND_PARAMS[self.kind]]
        if foreign:
            raise ValueError(f"{self.kind} schedule takes no {', '.join(foreign)}")
        if not 0.0 < self.initial <= 1.0:
            raise ValueError(f"initial must be in (0, 1], got {self.initial}")
        if self.kind == "step":
            if self.factor is None or not 0.0 < self.factor < 1.0:
                raise ValueError(f"step schedule needs factor in (0, 1), got {self.factor}")
            if not isinstance(self.width, int) or self.width < 1:
                raise ValueError(f"step schedule needs an integer width >= 1, got {self.width}")
        if self.kind == "reciprocal":
            if self.decay_rate is None or not 0.0 <= self.decay_rate <= sys.float_info.max:
                raise ValueError(
                    f"reciprocal schedule needs a finite decay_rate >= 0, got {self.decay_rate}")

    @classmethod
    def exponential(cls, initial: float = 0.8) -> "E2ESchedule":
        return cls(kind="exponential", initial=initial)

    @classmethod
    def step(cls, initial: float = 0.8, factor: float = 0.5, width: int = 10) -> "E2ESchedule":
        return cls(kind="step", initial=initial, factor=factor, width=width)

    @classmethod
    def reciprocal(cls, initial: float = 0.8, decay_rate: float = 0.1) -> "E2ESchedule":
        return cls(kind="reciprocal", initial=initial, decay_rate=decay_rate)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "initial": self.initial,
                **{key: getattr(self, key) for key in _KIND_PARAMS[self.kind]}}

    @classmethod
    def from_dict(cls, data: dict) -> "E2ESchedule":
        known = {"kind", "initial", "factor", "width", "decay_rate"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown schedule keys: {sorted(unknown, key=str)}")
        if "kind" not in data:
            raise ValueError("kind is missing")
        return cls(**data)


def e2e_value(schedule: E2ESchedule, k: int) -> float:
    """Exploration threshold theta for 0-based episode index ``k``."""
    if k < 0:
        raise ValueError(f"episode index must be non-negative, got {k}")
    a1 = schedule.initial
    if schedule.kind == "exponential":
        return a1 ** max(k, 1)
    if schedule.kind == "step":
        # round half away from zero ((1 + k) / width is never negative)
        return a1 * schedule.factor ** math.floor((1 + k) / schedule.width + 0.5)
    # reciprocal
    return a1 / (1.0 + schedule.decay_rate * k)


class QTable:
    """Zero-initialized action-value table over (state index, action index)."""

    __slots__ = ("values",)

    def __init__(self, n_states: int, n_actions: int) -> None:
        if n_states < 1 or n_actions < 1:
            raise ValueError(
                f"table needs at least one state and action, got {n_states}x{n_actions}")
        self.values = np.zeros((n_states, n_actions), dtype=np.float64)

    @property
    def n_states(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_actions(self) -> int:
        return int(self.values.shape[1])


def exploration_draws(rng: np.random.Generator, n: int,
                      n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """RNG protocol v2: one agent's draws for an ``n``-step learning episode.

    ``rng.random(n)`` and then ``rng.integers(n_actions, size=n)``; step i
    explores with action i of the second block when uniform i < theta.  The
    stream advances by the same amount on every path, so an agent's draws
    depend only on its seed and its count of learning episodes.
    """
    return rng.random(n), rng.integers(n_actions, size=n)


def threshold_greedy(q: QTable, state: int, theta: float, uniform: float,
                     explore_action: int) -> int:
    """Threshold-greedy choice on pre-drawn values: the greedy action
    (lowest index on ties) when ``uniform`` clears theta, else
    ``explore_action``.  theta = 0 always exploits, theta = 1 always explores.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be within [0, 1], got {theta}")
    if uniform >= theta:
        return int(q.values[state].argmax())
    return explore_action


def select_action(q: QTable, state: int, theta: float,
                  rng: np.random.Generator) -> int:
    """:func:`threshold_greedy` on fresh draws, for a one-off step outside an
    episode: one uniform, plus one action only when it explores."""
    uniform = rng.random()
    explore = int(rng.integers(q.n_actions)) if uniform < theta else -1
    return threshold_greedy(q, state, theta, uniform, explore)


@dataclass(frozen=True)
class LearnerConfig:
    """Per-agent learning hyperparameters."""

    learning_rate: float = 0.5
    discount: float = 0.95
    schedule: E2ESchedule = field(default_factory=lambda: E2ESchedule.exponential())

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        # discount = 1 is admissible for finite episodes; only the default
        # stays strictly below 1 so recurring states keep a contraction.
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")


def q_update(q: QTable, state: int, action: int, reward: float, next_state: int,
             config: LearnerConfig) -> float:
    """One-step temporal-difference update; returns the new q(state, action).

    q += lr * (reward + discount * max_a q(next_state, a) - q)
    """
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    values = q.values
    row = values[state]
    target = reward + config.discount * values[next_state].max()
    new = row[action] + config.learning_rate * (target - row[action])
    row[action] = new
    return float(new)


@dataclass
class Agent:
    """A learner: Q-table, hyperparameters, and its own named RNG stream."""

    q: QTable
    config: LearnerConfig
    rng: np.random.Generator

    @classmethod
    def create(cls, grid: StateGrid, actions: ActionGrid, config: LearnerConfig,
               seed: int, stream: int) -> "Agent":
        return cls(q=QTable(grid.n_states, actions.n_actions), config=config,
                   rng=make_rng(seed, stream))


SNAPSHOT_FORMAT = "tugems-qtable"
SNAPSHOT_VERSION = 1


def save_qtable(path: str | Path, q: QTable, grid: StateGrid, actions: ActionGrid,
                schedule: E2ESchedule | None = None,
                extra: dict | None = None) -> None:
    """Write a versioned JSON snapshot of a Q-table and its grid context.

    JSON numbers are emitted via ``repr`` (shortest round-trip), so a
    save/load cycle reproduces every value bit-exactly.
    """
    doc: dict = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "p_dem_edges_w": list(grid.p_dem_edges_w),
        "soc_edges": list(grid.soc_edges),
        "action_levels_w": list(actions.levels_w),
        "schedule": schedule.to_dict() if schedule is not None else None,
        "values": [list(map(float, row)) for row in q.values],
    }
    if extra:
        doc["extra"] = extra
    write_atomic(Path(path), json.dumps(doc))


def write_atomic(path: Path, text: str) -> None:
    """Write UTF-8 text to a uniquely named temp file beside ``path``, then
    rename it over ``path``: readers see the old file or the new one, never
    a torn one, and concurrent writers never share a temp file."""
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _reject_nan(token: str) -> float:
    raise ValueError(f"snapshot contains a non-finite number ({token})")


def load_qtable(path: str | Path,
                expect_grid: StateGrid | None = None,
                expect_actions: ActionGrid | None = None,
                ) -> tuple[QTable, StateGrid, ActionGrid, E2ESchedule | None, dict]:
    """Read a snapshot back; validate shape, finiteness, and grid identity.

    Returns the table, its grids, its schedule and its ``extra`` block
    (empty when the snapshot has none).

    Raises
    ------
    ValueError
        Naming ``path``: on a file that is not JSON, a foreign format tag,
        a missing or mistyped key or an entry that is not a number (the key
        named in the message), an integer too large for a float, ragged or
        non-finite values, a grid or action
        ladder that :class:`StateGrid`/:class:`ActionGrid` reject, or one
        that does not match ``expect_grid``/``expect_actions``.
    """
    path = Path(path)
    try:  # not UTF-8, not JSON, or a NaN/Infinity token
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_nan)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path}: not a {SNAPSHOT_FORMAT} snapshot")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {doc.get('version')!r}")
    for key in ("p_dem_edges_w", "soc_edges", "action_levels_w", "values"):
        entries = doc.get(key)
        if not isinstance(entries, list):
            problem = "is missing" if key not in doc else "must be a list"
            raise ValueError(f"{path}: snapshot key {key!r} {problem}")
        # JSON numbers load as int or float; a boolean is not a number here.
        rows = entries if key == "values" else [entries]
        if not all(isinstance(row, list) and {*map(type, row)} <= {int, float}
                   for row in rows):
            what = "rows of numbers" if key == "values" else "numbers"
            raise ValueError(f"{path}: snapshot key {key!r} must hold {what} only")
    for key in ("schedule", "extra"):
        if not isinstance(doc.get(key), (dict, type(None))):
            raise ValueError(f"{path}: snapshot key {key!r} must be a mapping or null")
    try:
        grid = StateGrid(doc["p_dem_edges_w"], doc["soc_edges"])
        actions = ActionGrid(doc["action_levels_w"])
        values = np.array(doc["values"], dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # an integer too large for a float
        raise ValueError(f"{path}: {exc}") from None
    if values.ndim != 2 or values.shape != (grid.n_states, actions.n_actions):
        raise ValueError(
            f"{path}: value block of shape {values.shape} does not match "
            f"{grid.n_states} states x {actions.n_actions} actions")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: value block contains non-finite entries")
    if expect_grid is not None and grid != expect_grid:
        raise ValueError(f"{path}: snapshot grid does not match the configured grid")
    if expect_actions is not None and actions != expect_actions:
        raise ValueError(f"{path}: snapshot action levels do not match the configuration")
    schedule = None
    if doc.get("schedule") is not None:
        try:
            schedule = E2ESchedule.from_dict(doc["schedule"])
        except ValueError as exc:
            raise ValueError(f"{path}: snapshot schedule: {exc}") from None
    q = QTable(grid.n_states, actions.n_actions)
    q.values[:] = values
    return q, grid, actions, schedule, doc.get("extra") or {}
