"""Learning runs, sweeps, robustness tables, episode metrics, CSV output."""

import csv
import io
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import count_eval_episodes
from tugems.ensemble import EnsemblePolicy
from tugems.experiment import (ENSEMBLE_MODE, SINGLE_MODE, SWEEP_PROPORTIONS, RunSetup,
                               config_fingerprint, default_agent_configs,
                               evaluate_policy, robustness_eval, run_learning,
                               savings, sweep_weights, write_learning_curve_csv,
                               write_dp_csv, write_robustness_csv, write_sweep_csv,
                               write_trace_csv)
from tugems.metrics import episode_metrics
from tugems.powertrain import Plant
from tugems.qlearn import (AGENT_A_STREAM, AGENT_B_STREAM, ActionGrid, Agent, QTable,
                           exploration_draws, make_rng)

# ---------------------------------------------------------------------------
# episode metrics
# ---------------------------------------------------------------------------


def test_energy_efficiency_is_none_before_any_draw(models):
    metrics = episode_metrics(Plant(models, 0.5).state, models.battery, 0.5, 0.5, 0.0)
    assert metrics.energy_efficiency is None


def test_energy_efficiency_of_a_real_episode_is_a_proper_fraction(
        models, bumpy_cycle):
    plant = Plant(models, 0.5)
    for p in bumpy_cycle.demand_w:
        plant.step(float(p), 43_100.0, 1.0)
    eff = episode_metrics(plant.state, models.battery, 0.5, 0.5, 0.0).energy_efficiency
    assert 0.0 < eff < 1.0


def test_episode_metrics_ledger_closes(models, bumpy_cycle):
    plant = Plant(models, 0.5)
    total_reward = 0.0
    soc_sum = 0.0
    for p in bumpy_cycle.demand_w:
        out = plant.step(float(p), 51_720.0, 1.0)
        total_reward += out.reward
        soc_sum += out.soc
    m = episode_metrics(plant.state, models.battery, 0.5,
                        soc_sum / len(bumpy_cycle), total_reward)
    # drawn energy must equal served output plus every loss channel
    assert m.oec_j == pytest.approx(
        m.traction_output_j + m.engine_loss_j + m.battery_loss_j
        + m.traction_loss_j, rel=1e-9)
    assert m.oec_j == pytest.approx(
        m.fuel_energy_j + m.battery_draw_j + m.battery_loss_j, rel=1e-12)
    assert m.total_loss_j == pytest.approx(
        m.engine_loss_j + m.battery_loss_j + m.traction_loss_j, rel=1e-12)
    assert m.start_soc == 0.5
    assert m.end_soc == plant.state.soc
    assert m.steps == len(bumpy_cycle)
    assert m.total_reward == total_reward


def test_episode_metrics_rejects_out_of_range_fields(models, flat_cycle):
    plant = Plant(models, 0.5)
    plant.step(40_000.0, 43_100.0, 1.0)
    state = plant.state
    good = episode_metrics(state, models.battery, 0.5, 0.5, 0.0)
    import dataclasses
    with pytest.raises(ValueError, match="energy_efficiency"):
        dataclasses.replace(good, energy_efficiency=1.5)
    with pytest.raises(ValueError, match="oec_j"):
        dataclasses.replace(good, oec_j=-1.0)


# ---------------------------------------------------------------------------
# savings
# ---------------------------------------------------------------------------


def test_savings_examples_match_reported_rounding():
    # reference pairs (baseline MJ, candidate MJ) -> percent saving
    cases = [
        ((333.98, 327.51), 1.94),
        ((239.25, 234.38), 2.03),
        ((142.07, 138.36), 2.61),
        ((395.41, 391.31), 1.04),
    ]
    for (base, cand), pct in cases:
        assert 100.0 * savings(base, cand) == pytest.approx(pct, abs=0.01)


def test_savings_sign_convention():
    assert savings(100.0, 90.0) == pytest.approx(0.10)
    assert savings(100.0, 110.0) == pytest.approx(-0.10)
    assert savings(100.0, 100.0) == 0.0


def test_savings_rejects_nonpositive_baseline():
    with pytest.raises(ValueError, match="baseline"):
        savings(0.0, 50.0)
    with pytest.raises(ValueError, match="baseline"):
        savings(-5.0, 50.0)


# ---------------------------------------------------------------------------
# learning runs
# ---------------------------------------------------------------------------


def _setup(cycle, models, grid, actions, mode=ENSEMBLE_MODE, episodes=3):
    config_a, config_b = default_agent_configs()
    return RunSetup(cycle=cycle, models=models, grid=grid, actions=actions,
                    config_a=config_a, config_b=config_b,
                    policy=EnsemblePolicy.weighted(0.5), mode=mode,
                    episodes=episodes, initial_soc=0.5)


def test_run_setup_validation(models, grid, actions, flat_cycle):
    config_a, config_b = default_agent_configs()
    common = dict(cycle=flat_cycle, models=models, grid=grid, actions=actions,
                  config_a=config_a, config_b=config_b,
                  policy=EnsemblePolicy.weighted(0.5))
    with pytest.raises(ValueError, match="mode"):
        RunSetup(**common, mode="triple")
    with pytest.raises(ValueError, match="episodes"):
        RunSetup(**common, episodes=0)
    # the battery model owns the window check, the EGU model the rating check
    with pytest.raises(ValueError, match="initial_soc 0.05 outside the battery window"):
        run_learning(RunSetup(**common, initial_soc=0.05), seed=0)
    with pytest.raises(ValueError, match="p_egu_cmd_w must be within"):
        run_learning(RunSetup(**dict(common, actions=ActionGrid.uniform(max_power_w=90_000.0))),
                     seed=0)


def test_run_learning_is_deterministic(models, grid, actions, bumpy_cycle):
    setup = _setup(bumpy_cycle, models, grid, actions)
    r1 = run_learning(setup, seed=5)
    r2 = run_learning(setup, seed=5)
    assert r1.episodes == r2.episodes
    np.testing.assert_array_equal(r1.agents["A"].q.values,
                                  r2.agents["A"].q.values)
    r3 = run_learning(setup, seed=6)
    assert r3.episodes != r1.episodes


def test_run_learning_modes_and_final_property(models, grid, actions,
                                               bumpy_cycle):
    single = run_learning(_setup(bumpy_cycle, models, grid, actions,
                                 mode=SINGLE_MODE), seed=0)
    assert set(single.agents) == {"A"}
    ensemble = run_learning(_setup(bumpy_cycle, models, grid, actions), seed=0)
    assert set(ensemble.agents) == {"A", "B"}
    assert len(ensemble.episodes) == 3
    assert ensemble.final is ensemble.episodes[-1]


def test_run_learning_builds_agent_b_on_agent_a_table(models, grid, actions,
                                                     bumpy_cycle):
    # both agents learn every executed transition alike, so one table serves
    # both; agent B keeps its own schedule and its own stream
    setup = _setup(bumpy_cycle, models, grid, actions)
    agents = run_learning(setup, seed=4).agents
    assert agents["B"].q is agents["A"].q
    assert agents["A"].q.values.any()
    assert agents["A"].config is setup.config_a
    assert agents["B"].config is setup.config_b
    for name, stream in (("A", AGENT_A_STREAM), ("B", AGENT_B_STREAM)):
        fresh = make_rng(4, stream)
        for _ in range(setup.episodes):
            exploration_draws(fresh, len(bumpy_cycle), actions.n_actions)
        assert agents[name].rng.bit_generator.state == fresh.bit_generator.state


def test_run_learning_traces_cover_the_last_episode_only(models, grid, actions,
                                                         flat_cycle):
    setup = _setup(flat_cycle, models, grid, actions, episodes=2)
    bare = run_learning(setup, seed=1)
    assert bare.final_traces is None
    traced = run_learning(setup, seed=1, record_final_traces=True)
    assert len(traced.final_traces) == len(flat_cycle)
    # recording must not disturb the run itself
    assert traced.episodes == bare.episodes


def test_evaluate_policy_is_frozen_and_repeatable(models, grid, actions,
                                                  bumpy_cycle):
    result = run_learning(_setup(bumpy_cycle, models, grid, actions), seed=2)
    before = result.agents["A"].q.values.copy()
    e1 = evaluate_policy(bumpy_cycle, result.agents,
                         EnsemblePolicy.weighted(0.5), models, grid, actions,
                         0.5)
    e2 = evaluate_policy(bumpy_cycle, result.agents,
                         EnsemblePolicy.weighted(0.5), models, grid, actions,
                         0.5)
    assert e1.metrics == e2.metrics
    np.testing.assert_array_equal(result.agents["A"].q.values, before)
    solo = evaluate_policy(bumpy_cycle, {"A": result.agents["A"]},
                           EnsemblePolicy.weighted(1.0), models, grid, actions,
                           0.5)
    assert solo.metrics.steps == len(bumpy_cycle)


# ---------------------------------------------------------------------------
# weight sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_match_individually_run_repeats(models, grid, actions,
                                                   bumpy_cycle):
    config_a, config_b = default_agent_configs()
    # the sweep replaces the setup's mode and policy in every cell
    rows = sweep_weights(_setup(bumpy_cycle, models, grid, actions, mode=SINGLE_MODE,
                                episodes=2),
                         repeats=2, base_seed=10)
    assert [r.mu for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for row in rows:
        assert row.repeats == 2
        effs = []
        for seed in (10, 11):
            setup = RunSetup(cycle=bumpy_cycle, models=models, grid=grid,
                             actions=actions, config_a=config_a,
                             config_b=config_b,
                             policy=EnsemblePolicy.weighted(row.mu),
                             episodes=2, initial_soc=0.5)
            effs.append(run_learning(setup, seed).final.energy_efficiency)
        assert row.mean_eff == pytest.approx(np.mean(effs), rel=1e-12)
        assert row.std_eff == pytest.approx(np.std(effs), rel=1e-12)


def test_sweep_is_worker_count_invariant(models, grid, actions, flat_cycle):
    setup = _setup(flat_cycle, models, grid, actions, episodes=1)
    serial = sweep_weights(setup, repeats=3, base_seed=3, workers=1)
    parallel = sweep_weights(setup, repeats=3, base_seed=3, workers=2)
    assert serial == parallel
    assert [r.mu for r in parallel] == list(SWEEP_PROPORTIONS)


@pytest.mark.parametrize("workers, started", [(2, 2), (18, 18), (5000, 18)])
def test_sweep_starts_no_more_workers_than_cells(models, grid, actions, flat_cycle,
                                                 monkeypatch, workers, started):
    # a fake pool that records its size and maps serially: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    setup = _setup(flat_cycle, models, grid, actions, episodes=1)
    rows = sweep_weights(setup, repeats=2, base_seed=3, workers=workers)  # 18 cells
    assert sizes == [started]
    assert rows == sweep_weights(setup, repeats=2, base_seed=3, workers=1)


def test_sweep_rejects_zero_repeats(models, grid, actions, flat_cycle):
    with pytest.raises(ValueError, match="repeats"):
        sweep_weights(_setup(flat_cycle, models, grid, actions), repeats=0)


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_fewer_than_one_worker(models, grid, actions, flat_cycle, workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        sweep_weights(_setup(flat_cycle, models, grid, actions), workers=workers)


# ---------------------------------------------------------------------------
# robustness table
# ---------------------------------------------------------------------------


def test_robustness_rows_pair_baseline_and_candidate(models, grid, actions,
                                                     bumpy_cycle, flat_cycle):
    trained = run_learning(_setup(bumpy_cycle, models, grid, actions), seed=0)
    baseline = run_learning(_setup(bumpy_cycle, models, grid, actions,
                                   mode=SINGLE_MODE), seed=0)
    rows = robustness_eval(trained.agents["A"], baseline.agents["A"], "weighted",
                           cycles=[bumpy_cycle, flat_cycle],
                           initial_socs=[0.3, 0.5], models=models, grid=grid,
                           actions=actions, baseline_method="exponential")
    assert len(rows) == 8  # 2 cycles x 2 SoCs x (baseline, candidate)
    for base_row, cand_row in zip(rows[0::2], rows[1::2]):
        assert base_row.cycle == cand_row.cycle
        assert base_row.init_soc == cand_row.init_soc
        assert base_row.method == "exponential"
        assert base_row.savings_pct == 0.0
        assert cand_row.method == "weighted"
        expected = 100.0 * (base_row.oec_mj - cand_row.oec_mj) / base_row.oec_mj
        assert cand_row.savings_pct == pytest.approx(expected, rel=1e-9)
    again = robustness_eval(trained.agents["A"], baseline.agents["A"], "weighted",
                            cycles=[bumpy_cycle, flat_cycle],
                            initial_socs=[0.3, 0.5], models=models, grid=grid,
                            actions=actions, baseline_method="exponential")
    assert again == rows  # frozen policies, no table drift


_RULES = [EnsemblePolicy.weighted(0.3), EnsemblePolicy(kind="maximum"),
          EnsemblePolicy(kind="random", t=0.6)]


@pytest.mark.parametrize("policy", _RULES, ids=["weighted", "maximum", "random"])
def test_a_frozen_ensemble_saves_nothing_against_its_own_agent_a(
        models, grid, actions, bumpy_cycle, flat_cycle, policy):
    # both agents propose the one table's greedy action, which every rule
    # executes, so robustness_eval runs a frozen ensemble as its agent A alone
    setup = replace(_setup(bumpy_cycle, models, grid, actions), policy=policy)
    trained = run_learning(setup, seed=1)
    for cycle in (bumpy_cycle, flat_cycle):
        for soc0 in (0.3, 0.5):
            ensemble = evaluate_policy(cycle, trained.agents, policy, models, grid,
                                       actions, soc0)
            alone = evaluate_policy(cycle, {"A": trained.agents["A"]},
                                    EnsemblePolicy.weighted(1.0), models, grid,
                                    actions, soc0)
            assert ensemble.metrics == alone.metrics


def test_evaluate_policy_rejects_an_agent_b_on_another_table(models, grid, actions,
                                                           flat_cycle):
    # equal values are not enough: a frozen ensemble is its one table
    agent_a = Agent.create(grid, actions, default_agent_configs()[0], 0, AGENT_A_STREAM)
    agent_b = Agent(QTable(grid.n_states, actions.n_actions), agent_a.config,
                    make_rng(0, AGENT_B_STREAM))
    with pytest.raises(ValueError, match="must share one Q-table, got distinct tables"):
        evaluate_policy(flat_cycle, {"A": agent_a, "B": agent_b}, EnsemblePolicy.weighted(0.5),
                        models, grid, actions, 0.5)


def test_single_mode_eval_runs_one_episode_per_cycle_and_soc(
        models, grid, actions, bumpy_cycle, flat_cycle, monkeypatch):
    agent = run_learning(_setup(bumpy_cycle, models, grid, actions,
                                mode=SINGLE_MODE), seed=0).agents["A"]
    calls = count_eval_episodes(monkeypatch)
    rows = robustness_eval(agent, agent, "weighted",
                           cycles=[bumpy_cycle, flat_cycle], initial_socs=[0.3, 0.5],
                           models=models, grid=grid, actions=actions,
                           baseline_method=agent.config.schedule.kind)
    assert len(calls) == 4  # one per (cycle, SoC), not two
    assert len(rows) == 8
    for base_row, cand_row in zip(rows[0::2], rows[1::2]):
        assert (cand_row.end_soc, cand_row.oec_mj) == (base_row.end_soc, base_row.oec_mj)
        assert cand_row.savings_pct == 0.0


@pytest.mark.parametrize("baseline, episodes_per_pair", [
    ("own-agent-a", 1),         # the ensemble's own table: the candidate is the baseline
    ("separately-trained", 2),
    ("equal-values-copy", 2),   # the skip rule is table identity, not value equality
])
@pytest.mark.parametrize("policy", _RULES, ids=["weighted", "maximum", "random"])
def test_ensemble_eval_skips_the_candidate_only_on_the_baseline_table(
        models, grid, actions, bumpy_cycle, flat_cycle, monkeypatch, policy,
        baseline, episodes_per_pair):
    setup = replace(_setup(bumpy_cycle, models, grid, actions), policy=policy)
    trained = run_learning(setup, seed=1)
    agent_a = trained.agents["A"]
    if baseline == "own-agent-a":
        base_agent = agent_a
    elif baseline == "separately-trained":
        base_agent = run_learning(_setup(bumpy_cycle, models, grid, actions,
                                         mode=SINGLE_MODE), seed=0).agents["A"]
    else:
        copy = QTable(agent_a.q.n_states, agent_a.q.n_actions)
        copy.values[:] = agent_a.q.values
        base_agent = Agent(copy, agent_a.config, make_rng(0, AGENT_A_STREAM))
    calls = count_eval_episodes(monkeypatch)
    rows = robustness_eval(agent_a, base_agent, policy.kind,
                           cycles=[bumpy_cycle, flat_cycle], initial_socs=[0.3, 0.5],
                           models=models, grid=grid, actions=actions,
                           baseline_method="step")
    assert len(calls) == 4 * episodes_per_pair
    assert len(rows) == 8
    if baseline != "separately-trained":  # the same greedy policy either way
        for base_row, cand_row in zip(rows[0::2], rows[1::2]):
            assert cand_row.method == policy.kind
            assert (cand_row.end_soc, cand_row.oec_mj, cand_row.savings_pct) == (
                base_row.end_soc, base_row.oec_mj, 0.0)


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def test_learning_curve_csv_round_trips(models, grid, actions, flat_cycle):
    result = run_learning(_setup(flat_cycle, models, grid, actions,
                                 episodes=2), seed=0)
    text = write_learning_curve_csv(result.episodes)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["episode", "efficiency", "oec_j", "end_soc"]
    assert len(rows) == 3
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == result.episodes[k].energy_efficiency
        assert float(row[2]) == result.episodes[k].oec_j  # repr round trip
        assert float(row[3]) == result.episodes[k].end_soc


def test_sweep_csv_layout():
    from tugems.experiment import SweepRow
    text = write_sweep_csv([SweepRow(0.1, 0.5, 0.01, 25), SweepRow(0.7, 0.5, 0.01, 25)])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["mu", "delta", "mean_eff", "std_eff", "repeats"]
    assert rows[1] == ["0.1", "0.9", "0.5", "0.01", "25"]
    assert rows[2][:2] == ["0.7", "0.3"]  # 1 - 0.7 rounded to 12 places


def test_csv_fields_are_each_values_str_and_none_is_empty():
    # numpy scalars included: a float64 is written as its shortest
    # round-trip form, like a Python float, not as "np.float64(0.1)"
    text = write_trace_csv([SimpleNamespace(
        t_s=np.float64(0.1), state=np.int64(7), action_a=3, action_b=None,
        action_final=True, chooser="A", reward=-0.0, soc=np.float64(1e-300),
        p_egu_w=0.1, p_batt_w=2.5, forced_charging=False)])
    assert text.splitlines()[1] == "0.1,7,3,,True,A,-0.0,1e-300,0.1,2.5,0"
    assert write_dp_csv([(np.float64(0.0), np.float64(8_620.0)), (1.0, None)]) == \
        "t_s,p_egu_w\n0.0,8620.0\n1.0,\n"


def test_importing_the_cli_leaves_process_pools_unloaded():
    # only sweep --workers K > 1 needs them; multiprocessing costs ~2 MB
    code = ("import sys, tugems.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_robustness_csv_layout():
    from tugems.experiment import RobustnessRow
    text = write_robustness_csv(
        [RobustnessRow("PRDC-2-synthetic", 0.3, "weighted", 0.31, 341.5, 2.03)])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["cycle", "init_soc", "method", "end_soc", "oec_mj",
                       "savings_pct"]
    assert rows[1][0] == "PRDC-2-synthetic"
    assert float(rows[1][5]) == 2.03


def test_trace_csv_layout(models, grid, actions, flat_cycle):
    result = run_learning(_setup(flat_cycle, models, grid, actions,
                                 episodes=1), seed=0,
                          record_final_traces=True)
    text = write_trace_csv(result.final_traces)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t_s", "state_idx", "a_A", "a_B", "a_final", "chooser",
                       "reward", "soc", "p_egu_w", "p_batt_w", "forced"]
    assert len(rows) == len(flat_cycle) + 1
    assert rows[1][0] == "0.0"
    assert rows[1][10] in ("0", "1")


def test_none_efficiency_renders_as_an_empty_field():
    from tugems.metrics import EpisodeMetrics
    metrics = EpisodeMetrics(
        energy_efficiency=None, oec_j=0.0, start_soc=0.5,
        end_soc=0.5, mean_soc=0.5, total_loss_j=0.0, engine_loss_j=0.0,
        battery_loss_j=0.0, traction_loss_j=0.0, fuel_energy_j=0.0,
        battery_draw_j=0.0, traction_output_j=0.0, shortfall_j=0.0, total_reward=0.0, forced_charge_steps=0, steps=0)
    text = write_learning_curve_csv([metrics])
    assert text.splitlines()[1].split(",")[1] == ""


# ---------------------------------------------------------------------------
# config fingerprint
# ---------------------------------------------------------------------------


def test_config_fingerprint_is_order_insensitive_and_value_sensitive():
    a = config_fingerprint({"x": 1, "y": [1, 2], "z": {"k": 0.5}})
    b = config_fingerprint({"z": {"k": 0.5}, "y": [1, 2], "x": 1})
    c = config_fingerprint({"x": 1, "y": [1, 2], "z": {"k": 0.6}})
    assert a == b
    assert a != c
    assert len(a) == 64
    assert set(a) <= set("0123456789abcdef")
