"""Learning runs, weight sweeps, robustness tables, and their CSV forms.

A "run" is a fixed number of episodes on one cycle with one seed; the agents
keep their one table across episodes while the plant restarts from the
configured initial SoC every episode.  Seed handling is explicit
throughout: agent A, agent B and the action combiner each draw from a
named stream split off the run seed, so identical configs reproduce
identical artifacts byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, replace

import numpy as np

from .drive_cycle import DriveCycle
from .ensemble import EnsemblePolicy, EpisodeResult, run_episodes
from .metrics import EpisodeMetrics
from .powertrain import PlantModels
from .qlearn import (AGENT_A_STREAM, AGENT_B_STREAM, COMBINER_STREAM, ActionGrid,
                     Agent, E2ESchedule, LearnerConfig, StateGrid, make_rng)

__all__ = [
    "RunSetup",
    "RunResult",
    "SweepRow",
    "RobustnessRow",
    "savings",
    "run_learning",
    "sweep_weights",
    "robustness_eval",
    "evaluate_policy",
    "default_agent_configs",
    "write_learning_curve_csv",
    "write_sweep_csv",
    "write_robustness_csv",
    "write_trace_csv",
    "write_dp_csv",
    "config_fingerprint",
]

SINGLE_MODE = "single"
ENSEMBLE_MODE = "ensemble"
# The weighted-combination proportions a sweep grids: mu = 0.1 .. 0.9.
SWEEP_PROPORTIONS = tuple(round(0.1 * i, 1) for i in range(1, 10))


def default_agent_configs() -> tuple[LearnerConfig, LearnerConfig]:
    """Stock pairing: agent A on step decay, agent B on exponential decay."""
    return (LearnerConfig(schedule=E2ESchedule.step()),
            LearnerConfig(schedule=E2ESchedule.exponential()))


def savings(baseline_oec_j: float, candidate_oec_j: float) -> float:
    """Relative energy saving of a candidate against a baseline OEC.

    Positive when the candidate consumed less.  The result is a fraction;
    multiply by 100 for percent.
    """
    if baseline_oec_j <= 0.0:
        raise ValueError(f"baseline OEC must be positive, got {baseline_oec_j}")
    return (baseline_oec_j - candidate_oec_j) / baseline_oec_j


@dataclass(frozen=True)
class RunSetup:
    """Everything one learning run needs besides the seed."""

    cycle: DriveCycle
    models: PlantModels
    grid: StateGrid
    actions: ActionGrid
    config_a: LearnerConfig
    config_b: LearnerConfig
    policy: EnsemblePolicy
    mode: str = ENSEMBLE_MODE
    episodes: int = 125
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in (SINGLE_MODE, ENSEMBLE_MODE):
            raise ValueError(
                f"mode must be {SINGLE_MODE!r} or {ENSEMBLE_MODE!r}, got {self.mode!r}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be at least 1, got {self.episodes}")


@dataclass
class RunResult:
    """Per-episode metrics of one seeded run, plus the trained agents."""

    episodes: list[EpisodeMetrics]
    agents: dict[str, Agent]
    final_traces: list | None = None

    @property
    def final(self) -> EpisodeMetrics:
        return self.episodes[-1]


def run_learning(setup: RunSetup, seed: int,
                 record_final_traces: bool = False) -> RunResult:
    """Train for ``setup.episodes`` episodes under one seed, in one
    :func:`run_episodes` call (the table converted once per run).

    In single mode only agent A exists and the combination policy is moot.
    In ensemble mode agent B is built around agent A's ``QTable``, with its
    own schedule and its own RNG stream: both learn from every executed
    transition, so the run keeps one table and the agents differ only in
    how they explore.  Episode metrics are collected for every episode;
    per-step traces, when asked for, only for the last one (they are bulky).
    """
    agents = {"A": Agent.create(setup.grid, setup.actions, setup.config_a, seed,
                                AGENT_A_STREAM)}
    combiner_rng = None
    if setup.mode == ENSEMBLE_MODE:
        agents["B"] = Agent(q=agents["A"].q, config=setup.config_b,
                            rng=make_rng(seed, AGENT_B_STREAM))
        combiner_rng = make_rng(seed, COMBINER_STREAM)
    results = run_episodes(setup.cycle, tuple(agents.values()), range(setup.episodes),
                           setup.models, setup.initial_soc, setup.grid, setup.actions,
                           setup.policy, combiner_rng, record_traces=record_final_traces)
    return RunResult(episodes=[r.metrics for r in results], agents=agents,
                     final_traces=results[-1].traces)


def evaluate_policy(cycle: DriveCycle, agents: dict[str, Agent],
                    _policy: EnsemblePolicy | None, models: PlantModels,
                    grid: StateGrid, actions: ActionGrid, initial_soc: float,
                    record_traces: bool = False) -> EpisodeResult:
    """One frozen greedy episode of agent A, with no table updates and no
    draws, as a one-episode :func:`run_episodes` call.

    A frozen ensemble is its agent A: an agent ``"B"`` must hold A's
    ``QTable`` (else ``ValueError``), so both propose that table's first
    greedy action and every rule executes it; the policy is not read.
    """
    agent = agents["A"]
    if "B" in agents and agents["B"].q is not agent.q:
        raise ValueError("the two agents must share one Q-table, got distinct tables")
    return run_episodes(cycle, (agent,), range(1), models, initial_soc, grid, actions,
                        learn=False, record_traces=record_traces)[0]


@dataclass(frozen=True)
class SweepRow:
    mu: float
    mean_eff: float
    std_eff: float
    repeats: int


def _sweep_repeat(args: tuple[RunSetup, int]) -> float:
    """Worker for one (proportion, repeat) cell of the weight sweep."""
    setup, seed = args
    eff = run_learning(setup, seed).final.energy_efficiency
    if eff is None:
        raise ValueError(f"degenerate episode (no energy drawn) in sweep at "
                         f"mu={setup.policy.mu}, seed={seed}")
    return eff


def sweep_weights(setup: RunSetup, repeats: int = 25, base_seed: int = 0,
                  workers: int = 1) -> list[SweepRow]:
    """Grid the weighted-combination proportion over ``SWEEP_PROPORTIONS``
    and average over repeats.

    Each cell runs ``setup`` in ensemble mode under the weighted policy of
    its proportion.  Every proportion row reuses the same ``repeats`` seeds
    (``base_seed .. base_seed + repeats - 1``), so rows are paired and the
    result is independent of execution order or worker count.  The reported
    spread is the population standard deviation.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = [(replace(setup, mode=ENSEMBLE_MODE, policy=EnsemblePolicy.weighted(mu)),
              base_seed + r) for mu in SWEEP_PROPORTIONS for r in range(repeats)]
    workers = min(workers, len(tasks))  # a pool may start all its workers at once
    if workers > 1:  # map yields results in task order
        # imported here: multiprocessing costs every other command ~2 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            effs = list(pool.map(_sweep_repeat, tasks, chunksize=1))
    else:
        effs = [_sweep_repeat(t) for t in tasks]
    return [SweepRow(mu=mu, mean_eff=float(row.mean()), std_eff=float(row.std()),
                     repeats=repeats)
            for mu, row in zip(SWEEP_PROPORTIONS, np.reshape(effs, (-1, repeats)))]


@dataclass(frozen=True)
class RobustnessRow:
    cycle: str
    init_soc: float
    method: str
    end_soc: float
    oec_mj: float
    savings_pct: float


def robustness_eval(agent: Agent, baseline_agent: Agent, method: str,
                    cycles: list[DriveCycle], initial_socs: list[float],
                    models: PlantModels, grid: StateGrid, actions: ActionGrid,
                    baseline_method: str) -> list[RobustnessRow]:
    """Frozen-policy comparison across unseen cycles and initial SoCs.

    For every (cycle, initial SoC) pair, two rows come back: the
    single-agent baseline (savings 0 by construction), labelled
    ``baseline_method``, and the candidate ``agent``, labelled ``method``,
    with savings measured against that same pair's baseline OEC.  Tables
    are never updated, so repeated calls give identical rows.  A frozen
    ensemble is its agent A (:func:`evaluate_policy`), and against that
    same agent it saves exactly 0; a saving needs a ``baseline_agent``
    trained separately.  When the candidate holds the baseline agent's
    ``QTable`` object (``eval``'s default baseline, or a baseline snapshot
    that is the candidate's own file), its row reuses the baseline episode
    instead of running it again; a distinct table, even one of equal
    values, runs both.
    """
    rows: list[RobustnessRow] = []
    # The candidate on the baseline's table: its episode is the baseline's.
    alone = agent.q is baseline_agent.q
    for cycle in cycles:
        for soc0 in initial_socs:
            base = evaluate_policy(cycle, {"A": baseline_agent}, None, models,
                                   grid, actions, soc0).metrics
            if alone:
                cand = base
            else:
                cand = evaluate_policy(cycle, {"A": agent}, None, models, grid,
                                       actions, soc0).metrics
            rows.append(RobustnessRow(
                cycle=cycle.label, init_soc=soc0, method=baseline_method,
                end_soc=base.end_soc, oec_mj=base.oec_j / 1e6,
                savings_pct=0.0))
            rows.append(RobustnessRow(
                cycle=cycle.label, init_soc=soc0, method=method,
                end_soc=cand.end_soc, oec_mj=cand.oec_j / 1e6,
                savings_pct=100.0 * savings(base.oec_j, cand.oec_j)))
    return rows


def config_fingerprint(data: object) -> str:
    """Stable sha256 over a JSON-serializable config structure."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    """CSV text, ``None`` as an empty field and floats (numpy's too) as the
    shortest repr that round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_learning_curve_csv(episodes: list[EpisodeMetrics]) -> str:
    """Render the per-episode curve as CSV text (episode index is 0-based)."""
    return _csv_text(("episode", "efficiency", "oec_j", "end_soc"),
                     [(k, m.energy_efficiency, m.oec_j, m.end_soc)
                      for k, m in enumerate(episodes)])


def write_sweep_csv(rows: list[SweepRow]) -> str:
    return _csv_text(("mu", "delta", "mean_eff", "std_eff", "repeats"),
                     [(r.mu, round(1.0 - r.mu, 12), r.mean_eff, r.std_eff, r.repeats)
                      for r in rows])


def write_robustness_csv(rows: list[RobustnessRow]) -> str:
    return _csv_text(("cycle", "init_soc", "method", "end_soc", "oec_mj", "savings_pct"),
                     [(r.cycle, r.init_soc, r.method, r.end_soc, r.oec_mj, r.savings_pct)
                      for r in rows])


def write_trace_csv(traces: list) -> str:
    return _csv_text(
        ("t_s", "state_idx", "a_A", "a_B", "a_final", "chooser", "reward",
         "soc", "p_egu_w", "p_batt_w", "forced"),
        [(tr.t_s, tr.state, tr.action_a, tr.action_b, tr.action_final,
          tr.chooser, tr.reward, tr.soc, tr.p_egu_w, tr.p_batt_w,
          int(tr.forced_charging)) for tr in traces])


def write_dp_csv(steps: list[tuple[float, float]]) -> str:
    """Render a DP rollout, (time in s, EGU command in W) per step, as CSV text."""
    return _csv_text(("t_s", "p_egu_w"), steps)
