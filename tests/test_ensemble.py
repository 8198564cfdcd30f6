"""Action-combination rules and the two-learner episode loop."""

import dataclasses
import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BENT_BATTERY
from tugems.drive_cycle import DriveCycle
from tugems.ensemble import EnsemblePolicy, EnsembleStepTrace, combine_weighted, run_episodes
from tugems.experiment import evaluate_policy
from tugems.metrics import episode_metrics
from tugems.powertrain import BatteryModel, Plant, default_egu, default_models
from tugems.qlearn import (AGENT_A_STREAM, AGENT_B_STREAM, COMBINER_STREAM,
                           ActionGrid, Agent, E2ESchedule, LearnerConfig,
                           e2e_value, exploration_draws, make_rng,
                           q_update, threshold_greedy)

# ---------------------------------------------------------------------------
# combination rules
# ---------------------------------------------------------------------------


def test_combine_weighted_snaps_the_blend_to_the_ladder(actions):
    # levels 6 and 10 are 51720 W and 86200 W; with mu = 0.9 the blend is
    # 0.9*51720 + 0.1*86200 = 55168 W, closer to 51720 than to 60340
    assert combine_weighted(6, 10, 0.9, actions) == 6
    assert combine_weighted(6, 10, 0.5, actions) == 8  # 68960 on-grid


def test_combine_weighted_pure_weights_reproduce_each_agent(actions):
    for a, b in [(0, 10), (3, 7), (9, 2)]:
        assert combine_weighted(a, b, 1.0, actions) == a
        assert combine_weighted(a, b, 0.0, actions) == b


# Ladders of distinct milliwatt levels up to the stock rating.  A level
# blended with itself is that level, however close its neighbours lie.
_LADDERS = st.one_of(
    st.just(ActionGrid.uniform()),
    st.lists(st.integers(1, 86_200_000), min_size=1, max_size=20, unique=True).map(
        lambda mw: ActionGrid((0.0, *sorted(x / 1000.0 for x in mw)))))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), ladder=_LADDERS, mu=st.floats(0.0, 1.0))
def test_combine_weighted_agreement_is_a_fixed_point(data, ladder, mu):
    # both greedy proposals on one table agree, so a learning step on which
    # neither agent explores executes the greedy level under weighted too
    a = data.draw(st.integers(0, ladder.n_actions - 1), label="action")
    assert combine_weighted(a, a, mu, ladder) == a


@settings(max_examples=500, deadline=None)
@given(low=st.floats(5e-324, 1e300), n_close=st.integers(1, 4), mu=st.floats(0.0, 1.0))
@example(low=5e-324, n_close=4, mu=0.5)  # subnormal levels
@example(low=43_100.0, n_close=2, mu=0.3)
def test_combine_weighted_fixes_every_level_at_the_minimum_spacing(low, n_close, mu):
    # ladders of adjacent floats, where a blend of a level with itself could
    # round onto a neighbour
    levels = [0.0, low]
    for _ in range(n_close):
        levels.append(math.nextafter(levels[-1], math.inf))
    ladder = ActionGrid(levels)
    for a in range(ladder.n_actions):
        assert combine_weighted(a, a, mu, ladder) == a


def test_combine_weighted_halfway_tie_snaps_lower(actions):
    # blend of levels 0 and 1 at mu = 0.5 sits exactly on the midpoint
    assert combine_weighted(0, 1, 0.5, actions) == 0


def test_combine_weighted_rejects_bad_weights(actions):
    with pytest.raises(ValueError, match="mu must be within"):
        combine_weighted(0, 1, 1.5, actions)
    with pytest.raises(ValueError, match="mu must be within"):
        combine_weighted(0, 1, -0.1, actions)


@given(a=st.integers(0, 10), b=st.integers(0, 10),
       mu=st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_combine_weighted_stays_between_the_proposals(a, b, mu):
    actions = ActionGrid.uniform()
    final = combine_weighted(a, b, mu, actions)
    assert min(a, b) <= final <= max(a, b)


# ---------------------------------------------------------------------------
# policy parameters
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError, match="kind"):
        EnsemblePolicy(kind="vote")
    with pytest.raises(ValueError, match="t must be"):
        EnsemblePolicy(kind="random", t=-0.1)
    with pytest.raises(ValueError, match="mu must be"):
        EnsemblePolicy(kind="weighted", mu=1.4)
    # Both weights are checked and kept under every kind, not only their own.
    with pytest.raises(ValueError, match="t must be"):
        EnsemblePolicy(kind="weighted", t=1.5)
    with pytest.raises(ValueError, match="mu must be"):
        EnsemblePolicy(kind="maximum", mu=-0.2)
    assert EnsemblePolicy(kind="random", t=0.2, mu=0.3).mu == 0.3


# ---------------------------------------------------------------------------
# stepping and learning
# ---------------------------------------------------------------------------


def _episode(cycle, agents, k, *args, **kwargs):
    """One :func:`run_episodes` call over the one episode ``k``."""
    return run_episodes(cycle, agents, range(k, k + 1), *args, **kwargs)[0]


def _pair(grid, actions, seed, config_a, config_b):
    """Agent A and agent B on A's table, each on its own stream, as in a run."""
    agent_a = Agent.create(grid, actions, config_a, seed, AGENT_A_STREAM)
    agent_b = Agent(agent_a.q, config_b, make_rng(seed, AGENT_B_STREAM))
    return agent_a, agent_b


def _make_agents(grid, actions, seed=0, lr=0.5, gamma=0.95):
    return _pair(grid, actions, seed,
                 LearnerConfig(learning_rate=lr, discount=gamma,
                               schedule=E2ESchedule.step(0.8, 0.5, 10)),
                 LearnerConfig(learning_rate=lr, discount=gamma,
                               schedule=E2ESchedule.exponential(0.8)))


def _one_step(models, grid, actions, agents, soc0, p_dem_w, learn=True):
    # by episode 10 000 both schedules have decayed to (almost) 0, so the
    # proposals are greedy even while the tables learn
    cycle = DriveCycle(1.0, np.array([p_dem_w]), "one-step")
    return _episode(cycle, agents, 10_000, models, soc0, grid, actions,
                    EnsemblePolicy.weighted(0.5), make_rng(0, COMBINER_STREAM),
                    learn=learn, record_traces=True).traces[0]


def test_episode_step_updates_the_shared_table_once_at_the_executed_action(
        models, grid, actions):
    # one TD update from a blank table: 0 + 0.5 * (reward + 0.95 * 0 - 0);
    # a second update of the same entry would read 0.75 * reward
    agent_a, agent_b = _make_agents(grid, actions)
    trace = _one_step(models, grid, actions, (agent_a, agent_b), 0.5, 40_000.0)
    touched = np.argwhere(agent_a.q.values != 0.0)
    assert touched.shape == (1, 2)
    assert tuple(touched[0]) == (trace.state, trace.action_final)
    assert agent_a.q.values[trace.state, trace.action_final] == 0.5 * trace.reward


def test_episode_step_forced_charging_overrides_the_chosen_action(
        models, grid, actions):
    agents = _make_agents(grid, actions)
    # below the sustain threshold
    trace = _one_step(models, grid, actions, agents, 0.25, 10_000.0)
    assert trace.action_final == 0        # blank tables pick the off level
    assert trace.forced_charging
    assert trace.p_egu_w == models.egu.max_power_w
    assert trace.p_batt_w < 0.0           # surplus charges the pack


def test_episode_step_learn_false_leaves_the_table_blank(models, grid, actions):
    agents = _make_agents(grid, actions)[:1]
    _one_step(models, grid, actions, agents, 0.5, 40_000.0, learn=False)
    assert not agents[0].q.values.any()


# ---------------------------------------------------------------------------
# episode runs
# ---------------------------------------------------------------------------


def test_episode_on_a_single_sample_cycle(models, grid, actions):
    from tugems.drive_cycle import DriveCycle
    cycle = DriveCycle(1.0, np.array([30_000.0]), "one")
    result = _episode(cycle, _make_agents(grid, actions), 0, models, 0.5, grid, actions,
                      EnsemblePolicy.weighted(0.5), make_rng(0, COMBINER_STREAM),
                      record_traces=True)
    assert len(result.traces) == 1
    assert result.metrics.steps == 1


def test_episode_runs_are_deterministic(models, grid, actions, bumpy_cycle):
    def run_once():
        agent_a, agent_b = _make_agents(grid, actions, seed=8)
        last = run_episodes(bumpy_cycle, (agent_a, agent_b), range(4), models, 0.5, grid,
                            actions, EnsemblePolicy(kind="random", t=0.4),
                            make_rng(8, COMBINER_STREAM))[-1]
        return last.metrics, agent_a.q.values.copy()

    m1, q1 = run_once()
    m2, q2 = run_once()
    assert m1 == m2
    np.testing.assert_array_equal(q1, q2)


def test_traces_record_the_executed_step(models, grid, actions, flat_cycle):
    result = _episode(flat_cycle, _make_agents(grid, actions, seed=1), 0, models, 0.5,
                      grid, actions, EnsemblePolicy(kind="maximum"),
                      make_rng(1, COMBINER_STREAM), record_traces=True)
    assert len(result.traces) == len(flat_cycle)
    for trace in result.traces:
        assert trace.action_final in (trace.action_a, trace.action_b)
        assert trace.chooser in ("max-A", "max-B")
    times = [trace.t_s for trace in result.traces]
    assert times == [float(i) for i in range(len(flat_cycle))]


@pytest.mark.parametrize("p_edge", [0, 1], ids=["zero-demand", "demand-on-an-edge"])
def test_states_on_an_interior_edge_open_the_bin_above(models, grid, p_edge):
    # level 1 is the demand's link power (3500 W at zero demand), so a table
    # greedy on it draws p_batt == 0 and holds SoC exactly on an interior edge
    soc = grid.soc_edges[10]
    cycle = DriveCycle(1.0, np.full(6, grid.p_dem_edges_w[p_edge]), "on-edge")
    ladder = ActionGrid((0.0, models.motor.link_power(cycle.demand_w)[0]))
    agent = Agent.create(grid, ladder, LearnerConfig(), 0, AGENT_A_STREAM)
    agent.q.values[:, 1] = 1.0
    traces = run_episodes(cycle, (agent,), range(1), models, soc, grid, ladder,
                          learn=False, record_traces=True)[0].traces
    assert [(trace.p_batt_w, trace.soc) for trace in traces] == [(0.0, soc)] * len(cycle)
    state = grid.p_dem_bin(grid.p_dem_edges_w[p_edge]) * grid.n_soc + grid.soc_bin(soc)
    assert state == p_edge * grid.n_soc + 10
    assert [trace.state for trace in traces] == [state] * len(cycle)


def _random_episode_traces(models, grid, actions, cycle, t, y):
    draws = SimpleNamespace(random=lambda n: np.full(n, y))  # every combiner draw is y
    return _episode(cycle, _make_agents(grid, actions, seed=4), 0, models, 0.5, grid,
                    actions, EnsemblePolicy(kind="random", t=t), draws,
                    record_traces=True).traces


@pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
def test_random_policy_takes_agent_a_when_the_draw_equals_t(models, grid, actions,
                                                           bumpy_cycle, t):
    traces = _random_episode_traces(models, grid, actions, bumpy_cycle, t, t)
    assert any(trace.action_a != trace.action_b for trace in traces)
    assert {trace.chooser for trace in traces} == {"A"}
    if t > 0.0:  # one ulp below t: agent B wherever the proposals differ
        traces = _random_episode_traces(models, grid, actions, bumpy_cycle, t,
                                        np.nextafter(t, 0.0))
        assert {trace.chooser for trace in traces
                if trace.action_a != trace.action_b} == {"B"}


def _explore_episode(models, grid, actions, cycle, y):
    """Agent A's learning episode 0 alone, every exploration uniform ``y``
    and every exploration pick level 3."""
    agent = _make_agents(grid, actions, seed=4)[0]
    agent.rng = SimpleNamespace(random=lambda n: np.full(n, y),
                                integers=lambda n_actions, size: np.full(size, 3))
    result = _episode(cycle, (agent,), 0, models, 0.5, grid, actions, record_traces=True)
    return result.metrics, result.traces, agent.q.values


def test_an_exploration_draw_equal_to_theta_exploits(models, grid, actions, bumpy_cycle):
    theta = e2e_value(E2ESchedule.step(0.8, 0.5, 10), 0)
    metrics, traces, q = _explore_episode(models, grid, actions, bumpy_cycle, theta)
    above = _explore_episode(models, grid, actions, bumpy_cycle, np.nextafter(theta, 1.0))
    assert any(trace.action_a != 3 for trace in traces)  # some greedy step is not level 3
    assert (metrics, traces) == above[:2]
    np.testing.assert_array_equal(q, above[2])
    # one ulp below theta: every step explores
    _, traces, _ = _explore_episode(models, grid, actions, bumpy_cycle,
                                    np.nextafter(theta, 0.0))
    assert {trace.action_a for trace in traces} == {3}


def test_greedy_episode_ignores_exploration_and_learning(
        models, grid, actions, flat_cycle):
    agents = _make_agents(grid, actions, seed=2)[:1]
    before_a = agents[0].q.values.copy()
    rng_a = agents[0].rng.bit_generator.state
    r1 = _episode(flat_cycle, agents, 0, models, 0.5, grid, actions, learn=False)
    r2 = _episode(flat_cycle, agents, 99, models, 0.5, grid, actions, learn=False)
    np.testing.assert_array_equal(agents[0].q.values, before_a)
    assert agents[0].rng.bit_generator.state == rng_a
    assert r1.metrics == r2.metrics  # the episode index is irrelevant


@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(0.3),
    EnsemblePolicy(kind="maximum"),
    EnsemblePolicy(kind="random", t=0.6),
    None,
], ids=["weighted", "maximum", "random", "single"])
def test_frozen_episode_executes_the_tables_first_greedy_action(models, grid, actions,
                                                                bumpy_cycle, policy):
    # evaluate_policy runs a frozen ensemble as its agent A under every rule
    agents = dict(zip("AB", _make_agents(grid, actions, seed=3)[:1 if policy is None else 2]))
    q = agents["A"].q.values
    q[:] = np.random.default_rng(11).integers(-2, 1, q.shape)  # nearly every row ties
    q[::2] = 0.0  # and every other row is one tie
    before = q.copy()
    result = evaluate_policy(bumpy_cycle, agents, policy, models, grid, actions, 0.5,
                             record_traces=True)
    assert len({trace.state for trace in result.traces}) > 1
    for trace in result.traces:
        greedy = int(q[trace.state].argmax())
        assert trace.action_a == trace.action_b == trace.action_final == greedy
    np.testing.assert_array_equal(q, before)


# ---------------------------------------------------------------------------
# degenerate ensembles reduce to a single agent, bit for bit
# ---------------------------------------------------------------------------


def _solo_run(grid, actions, cycle, models, seed, stream, config, episodes):
    agent = Agent.create(grid, actions, config, seed, stream)
    results = run_episodes(cycle, (agent,), range(episodes), models, 0.5, grid, actions)
    return agent, [r.metrics for r in results]


def _ensemble_run(grid, actions, cycle, models, seed, policy, episodes,
                  config_a, config_b):
    agent_a, agent_b = _pair(grid, actions, seed, config_a, config_b)
    results = run_episodes(cycle, (agent_a, agent_b), range(episodes), models, 0.5, grid,
                           actions, policy, make_rng(seed, COMBINER_STREAM))
    return agent_a, agent_b, [r.metrics for r in results]


@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(1.0),
    EnsemblePolicy(kind="random", t=0.0),
], ids=["weighted-mu-1", "random-t-0"])
def test_degenerate_policies_reproduce_agent_a(models, grid, actions,
                                               bumpy_cycle, policy):
    config_a = LearnerConfig(schedule=E2ESchedule.step(0.8, 0.5, 10))
    config_b = LearnerConfig(schedule=E2ESchedule.exponential(0.8))
    solo, solo_metrics = _solo_run(grid, actions, bumpy_cycle, models,
                                   seed=4, stream=AGENT_A_STREAM,
                                   config=config_a, episodes=5)
    agent_a, _, ens_metrics = _ensemble_run(grid, actions, bumpy_cycle, models,
                                            seed=4, policy=policy, episodes=5,
                                            config_a=config_a, config_b=config_b)
    assert ens_metrics == solo_metrics
    np.testing.assert_array_equal(agent_a.q.values, solo.q.values)


@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(0.0),
    EnsemblePolicy(kind="random", t=1.0),
], ids=["weighted-mu-0", "random-t-1"])
def test_degenerate_policies_reproduce_agent_b(models, grid, actions,
                                               bumpy_cycle, policy):
    config_a = LearnerConfig(schedule=E2ESchedule.step(0.8, 0.5, 10))
    config_b = LearnerConfig(schedule=E2ESchedule.exponential(0.8))
    solo, solo_metrics = _solo_run(grid, actions, bumpy_cycle, models,
                                   seed=4, stream=AGENT_B_STREAM,
                                   config=config_b, episodes=5)
    _, agent_b, ens_metrics = _ensemble_run(grid, actions, bumpy_cycle, models,
                                            seed=4, policy=policy, episodes=5,
                                            config_a=config_a, config_b=config_b)
    assert ens_metrics == solo_metrics
    np.testing.assert_array_equal(agent_b.q.values, solo.q.values)


# ---------------------------------------------------------------------------
# the fused episode loop against the unfused primitives
# ---------------------------------------------------------------------------


def _reference_episode(cycle, agents, k, plant, soc0, grid, actions, policy, combiner,
                       learn, outcomes=None):
    """Step by step through threshold_greedy/q_update, combine_weighted, the
    maximum and random rules written out, and Plant.step, with the tables in
    numpy throughout and one q_update per distinct table; each episode's
    random values are drawn up front (the agents' through exploration_draws)
    and handed to the primitives step by step.  Returns the metrics and the
    episode's traces; ``outcomes``, if given, collects each step's SoC and
    latch before the step, its command and its ``StepOutcome``."""
    plant.reset(soc0)
    demand = [float(p) for p in cycle.demand_w]
    n = len(demand)
    greedy = not learn
    thetas = [0.0 if greedy else e2e_value(a.config.schedule, k) for a in agents]
    # greedy episodes draw nothing from the agent streams: theta 0 never explores
    draws = [(np.ones(n), np.zeros(n, dtype=int)) if greedy
             else exploration_draws(a.rng, n, actions.n_actions) for a in agents]
    ys = combiner.random(n) if policy is not None and policy.kind == "random" else None

    def index(p_dem_w, soc):  # row-major (demand, SoC) state
        return grid.p_dem_bin(p_dem_w) * grid.n_soc + grid.soc_bin(soc)

    total = soc_sum = 0.0
    traces = []
    for i, p in enumerate(demand):
        state = index(p, plant.state.soc)
        props = [threshold_greedy(a.q, state, theta, float(u[i]), int(x[i]))
                 for a, theta, (u, x) in zip(agents, thetas, draws)]
        if len(agents) == 1:
            final, chooser = props[0], "A"
            props *= 2
        elif policy.kind == "weighted":
            final, chooser = combine_weighted(*props, policy.mu, actions), "blend"
        elif policy.kind == "maximum":  # own-value comparison, ties to agent A
            a, b = props
            final, chooser = ((a, "max-A")
                              if agents[0].q.values[state, a] >= agents[1].q.values[state, b]
                              else (b, "max-B"))
        else:  # agent A when the draw clears t
            a, b = props
            final = a if ys[i] >= policy.t else b
            chooser = "A" if final == a else "B"
        before = plant.state.soc, plant.state.forced_charging
        out = plant.step(p, actions.level(final), cycle.dt_s)
        if outcomes is not None:
            outcomes.append((*before, actions.level(final), out))
        next_state = index(demand[min(i + 1, n - 1)], out.soc)
        if learn:
            for agent in {id(a.q): a for a in agents}.values():
                q_update(agent.q, state, final, out.reward, next_state, agent.config)
        total += out.reward
        soc_sum += out.soc
        traces.append(EnsembleStepTrace(
            t_s=i * cycle.dt_s, state=state, action_a=props[0], action_b=props[1],
            action_final=final, chooser=chooser, reward=out.reward, soc=out.soc,
            p_egu_w=out.p_egu_w, p_batt_w=out.p_batt_w, forced_charging=out.forced_charging))
    return episode_metrics(plant.state, plant.models.battery, soc0,
                           soc_sum / n, total), traces


# Packs for the fused loop's plant step: voltage bending at several SoCs
# beside a sloped resistance, a 40-cell pack that crosses its window in
# a few 1 s steps, so that its power caps bind inside the window (as 60 and
# 600 s steps make the stock pack's do), demand falls short and the
# charge-sustain latch engages, holds and releases, and a pack whose two
# power limits differ, so that a step reading one for the other is seen.
_LOOP_BATTERIES = {
    "stock": BatteryModel(),
    "bent": BENT_BATTERY,
    "small-pack": BatteryModel(num_cells=40),
    "uneven-caps": BatteryModel(max_discharge_power_w=120_000.0, max_charge_power_w=60_000.0),
}

# Starting tables: coarse integers tie often, within rows and across
# proposals; the other also holds zeros of both signs.
_LOOP_TABLES = {
    "integers": lambda rng, shape: rng.integers(-2, 3, size=shape),
    "signed-zeros": lambda rng, shape: rng.choice([-1.0, -0.0, 0.0, 0.5], shape),
}

# the bumpy_cycle fixture's demand
_BUMPY = (0.0,) * 10 + (35_000.0,) * 25 + (120_000.0,) * 15 + (220_000.0,) * 10 \
    + (18_000.0,) * 20 + (0.0,) * 10

# Thresholds a run lands on exactly: the window ends, where the caps stop
# a draining or charging pack, as the sustain or the release point.
_LOOP_SUSTAIN = {
    "stock": {},
    "sustain-at-soc-min": {"charge_sustain_soc": 0.2},
    "release-at-soc-max": {"charge_sustain_soc": 0.8, "charge_release_margin": 0.0},
}

# A learning rate of 1e-300 leaves an integer entry as it is, so its
# updates land on tied row maxima, before and after the first argmax.
_LoopCase = namedtuple("_LoopCase", "demands dt battery table seed sustain lr",
                       defaults=(_BUMPY, 1.0, "stock", "integers", 6, "stock", 0.5))


def _loop_models(case):
    return dataclasses.replace(default_models(), battery=_LOOP_BATTERIES[case.battery],
                               **_LOOP_SUSTAIN[case.sustain])


# Between them these reach every branch the loop inlines (checked by
# test_the_loop_examples_reach_every_inlined_branch).
_LOOP_EXAMPLES = [
    _LoopCase(),
    _LoopCase(battery="small-pack", table="signed-zeros"),
    _LoopCase((253_000.0, 0.0, 35_000.0, 0.0, 120_000.0, 0.0), dt=600.0, seed=3),
    _LoopCase((0.0, 60_000.0, 0.0, 253_000.0, 5_000.0) * 3, dt=60.0, battery="bent",
              table="signed-zeros", seed=9),
    _LoopCase(battery="small-pack", sustain="sustain-at-soc-min"),
    _LoopCase((0.0, 20_000.0) * 4, dt=60.0, battery="small-pack", sustain="release-at-soc-max"),
    _LoopCase(lr=1e-300),
    _LoopCase((253_000.0, 0.0) * 10, battery="uneven-caps", seed=4),
]


@settings(max_examples=50, deadline=None)
@given(case=st.builds(
    _LoopCase,
    demands=st.lists(st.one_of(st.floats(0.0, 253_000.0),
                               st.sampled_from([0.0, 35_000.0, 120_000.0, 253_000.0])),
                     min_size=1, max_size=30),
    dt=st.sampled_from([1.0, 60.0, 600.0]), battery=st.sampled_from(sorted(_LOOP_BATTERIES)),
    table=st.sampled_from(sorted(_LOOP_TABLES)), seed=st.integers(0, 2**16),
    sustain=st.sampled_from(sorted(_LOOP_SUSTAIN)), lr=st.sampled_from([0.5, 1e-300])))
@example(case=_LOOP_EXAMPLES[0])
@example(case=_LOOP_EXAMPLES[1])
@example(case=_LOOP_EXAMPLES[2])
@example(case=_LOOP_EXAMPLES[3])
@example(case=_LOOP_EXAMPLES[4])
@example(case=_LOOP_EXAMPLES[5])
@example(case=_LOOP_EXAMPLES[6])
@example(case=_LOOP_EXAMPLES[7])
@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(0.3),
    EnsemblePolicy(kind="maximum"),
    EnsemblePolicy(kind="random", t=0.4),
    None,
], ids=["weighted", "maximum", "random", "single"])
@pytest.mark.parametrize("learn", [True, False], ids=["learn", "greedy"])
@pytest.mark.parametrize("soc0", [0.5, 0.285], ids=["mid-soc", "charge-sustain"])
def test_run_episode_matches_the_step_by_step_primitives(grid, actions, policy, learn,
                                                         soc0, case):
    # == on the metrics, the last episode's traces, the table's bits and
    # every RNG state, over three episodes; a frozen call runs agent A
    # alone, and the reference runs the frozen ensemble under the rule,
    # which must execute the same episode (its chooser labels aside)
    models = _loop_models(case)
    cycle = DriveCycle(case.dt, np.array(case.demands), "case")

    def make():
        agent_a, agent_b = _make_agents(grid, actions, seed=case.seed, lr=case.lr)
        agent_a.q.values[:] = _LOOP_TABLES[case.table](
            np.random.default_rng(case.seed), agent_a.q.values.shape)
        return (agent_a,) if policy is None else (agent_a, agent_b)

    fast, slow = make(), make()
    if not learn:
        fast = fast[:1]
    combiner, combiner_slow = (make_rng(case.seed, COMBINER_STREAM) for _ in range(2))
    got = run_episodes(cycle, fast, range(3), models, soc0, grid, actions, policy,
                       combiner, learn, record_traces=True)
    for k in range(3):
        want, traces = _reference_episode(cycle, slow, k, Plant(models, soc0), soc0, grid,
                                          actions, policy, combiner_slow, learn)
        assert got[k].metrics == want
    if not learn:
        traces = [dataclasses.replace(trace, chooser="A") for trace in traces]
    assert got[-1].traces == traces
    for a, b in zip(fast, slow):
        assert a.q.values.tobytes() == b.q.values.tobytes()
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
    if not learn:  # a frozen call draws nothing
        combiner_slow = make_rng(case.seed, COMBINER_STREAM)
    assert combiner.bit_generator.state == combiner_slow.bit_generator.state


def test_the_loop_examples_reach_every_inlined_branch(grid, actions):
    seen = set()
    for case in _LOOP_EXAMPLES:
        models = _loop_models(case)
        battery = models.battery
        max_dis, max_chg = battery.max_discharge_power_w, battery.max_charge_power_w
        sustain = models.charge_sustain_soc
        release = sustain + models.charge_release_margin
        agents = _make_agents(grid, actions, seed=case.seed, lr=case.lr)
        agents[0].q.values[:] = _LOOP_TABLES[case.table](
            np.random.default_rng(case.seed), agents[0].q.values.shape)
        outcomes = []
        for k in range(3):
            _reference_episode(DriveCycle(case.dt, np.array(case.demands), "case"), agents,
                               k, Plant(models, 0.285), 0.285, grid, actions,
                               EnsemblePolicy.weighted(0.3), make_rng(0, COMBINER_STREAM),
                               True, outcomes)
        for soc0, latch, command, out in outcomes:
            seen.add(("latch", latch, out.forced_charging))
            if soc0 == sustain and not latch:
                seen.add("at the sustain point")
            if soc0 == release and latch:
                seen.add("at the release point")
            if out.saturated and battery.soc_min < soc0 < battery.soc_max and (
                    -max_chg < out.p_batt_w < max_dis):
                seen.add("cap binds inside the window")
            if max_dis != max_chg and out.p_batt_w in (max_dis, -max_chg):
                seen.add("discharge limit binds" if out.p_batt_w > 0.0 else "charge limit binds")
            if not out.forced_charging and out.p_egu_w != command:
                seen.add("EGU raised" if out.p_egu_w > command else "EGU lowered")
            if out.shortfall_w > 0.0:
                seen.add("shortfall")
            if out.p_egu_w == 0.0:
                seen.add("engine off")
            if out.soc < models.soc_ref:
                seen.add("SoC penalty")
    assert seen >= {("latch", False, True), ("latch", True, True), ("latch", True, False),
                    ("latch", False, False), "cap binds inside the window", "EGU raised",
                    "EGU lowered", "shortfall", "engine off", "SoC penalty",
                    "at the sustain point", "at the release point", "discharge limit binds",
                    "charge limit binds"}


def test_run_episodes_rejects_a_fuel_curve_below_output_as_plant_step_does(
        grid, actions, flat_cycle):
    egu = default_egu()
    object.__setattr__(egu, "fuel_b0", -1e6)  # bypass the model's own check
    models = dataclasses.replace(default_models(), egu=egu)
    agent = _make_agents(grid, actions)[0]
    agent.q.values[:, 1] = 1.0  # every greedy action is the first running level
    p_dem = float(flat_cycle.demand_w[0])
    with pytest.raises(ValueError, match="engine loss is negative") as want:
        Plant(models, 0.5).step(p_dem, actions.level(1), flat_cycle.dt_s)
    with pytest.raises(ValueError) as got:
        run_episodes(flat_cycle, (agent,), range(1), models, 0.5, grid, actions, learn=False)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# a run in one call against successive one-episode calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("learn,policy", [
    (True, None),
    (True, EnsemblePolicy.weighted(0.3)),
    (True, EnsemblePolicy(kind="maximum")),
    (True, EnsemblePolicy(kind="random", t=0.4)),
    (False, None),
], ids=["learn-single", "learn-weighted", "learn-maximum", "learn-random", "greedy-single"])
def test_run_episodes_equals_successive_one_episode_calls(models, grid, actions,
                                                          bumpy_cycle, policy, learn):
    def make():
        agents = _make_agents(grid, actions, seed=12)
        q = agents[0].q.values  # ties, zeros of both signs
        q[:] = np.random.default_rng(12).choice([-1.0, -0.0, 0.0, 0.5], q.shape)
        return agents[:1] if policy is None else agents

    k0, m = 3, 4
    whole, parts = make(), make()
    combiner, combiner_parts = make_rng(12, COMBINER_STREAM), make_rng(12, COMBINER_STREAM)
    got = run_episodes(bumpy_cycle, whole, range(k0, k0 + m), models, 0.5, grid, actions,
                       policy, combiner, learn, record_traces=True)
    want = [_episode(bumpy_cycle, parts, k, models, 0.5, grid, actions, policy,
                     combiner_parts, learn, record_traces=k == k0 + m - 1)
            for k in range(k0, k0 + m)]
    assert [r.metrics for r in got] == [r.metrics for r in want]
    assert [r.traces is None for r in got] == [True] * (m - 1) + [False]
    assert got[-1].traces == want[-1].traces
    for a, b in zip(whole, parts):
        assert a.q.values.tobytes() == b.q.values.tobytes()
        assert a.rng.random() == b.rng.random()
    assert combiner.random() == combiner_parts.random()


# ---------------------------------------------------------------------------
# RNG protocol v2: per-episode blocks, path independent
# ---------------------------------------------------------------------------


def _episode_traces(cycle, models, grid, actions, config_b, episodes=4):
    agent_a, agent_b = _pair(grid, actions, 5,
                             LearnerConfig(schedule=E2ESchedule.step(0.8, 0.5, 10)),
                             config_b)
    traces = [[(tr.state, tr.action_a, tr.action_final, tr.reward, tr.soc)
               for tr in _episode(cycle, (agent_a, agent_b), k, models, 0.5, grid,
                                  actions, EnsemblePolicy.weighted(1.0),
                                  make_rng(5, COMBINER_STREAM),
                                  record_traces=True).traces]
              for k in range(episodes)]
    return traces, agent_a


def test_agent_a_does_not_depend_on_agent_b_schedule(models, grid, actions,
                                                     bumpy_cycle):
    # under weighted mu = 1 agent A's blocks, and so its whole trajectory,
    # stay the same whether agent B always explores or hardly ever does
    runs = [_episode_traces(bumpy_cycle, models, grid, actions,
                            LearnerConfig(schedule=schedule))
            for schedule in (E2ESchedule.reciprocal(1.0, decay_rate=0.0),
                             E2ESchedule.reciprocal(0.01, decay_rate=0.0),
                             E2ESchedule.step(0.9, 0.5, 1))]
    (traces, agent_a), others = runs[0], runs[1:]
    for other_traces, other_a in others:
        assert other_traces == traces
        np.testing.assert_array_equal(other_a.q.values, agent_a.q.values)
        assert other_a.rng.bit_generator.state == agent_a.rng.bit_generator.state


@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(0.5),
    EnsemblePolicy(kind="maximum"),
    EnsemblePolicy(kind="random", t=0.5),
], ids=["weighted", "maximum", "random"])
def test_stream_positions_count_learning_episodes_only(models, grid, actions,
                                                       bumpy_cycle, policy):
    # each learning episode consumes exactly one block per stream, whatever
    # the path; greedy episodes, agent A's alone, consume nothing
    agent_a, agent_b = _make_agents(grid, actions, seed=9)
    combiner = make_rng(9, COMBINER_STREAM)
    n, learned = len(bumpy_cycle), 0
    for k, learn in enumerate([True, False, True, True, False]):
        _episode(bumpy_cycle, (agent_a, agent_b) if learn else (agent_a,), k, models, 0.5,
                 grid, actions, policy, combiner, learn)
        learned += learn
    for agent, stream in ((agent_a, AGENT_A_STREAM), (agent_b, AGENT_B_STREAM)):
        fresh = make_rng(9, stream)
        for _ in range(learned):
            exploration_draws(fresh, n, actions.n_actions)
        assert agent.rng.bit_generator.state == fresh.bit_generator.state
    fresh = make_rng(9, COMBINER_STREAM)
    if policy.kind == "random":
        fresh.random(learned * n)
    assert combiner.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("soc0", [0.5, 0.282, 0.275],
                         ids=["mid", "hysteresis-band", "below-sustain"])
def test_every_episode_starts_from_the_initial_soc_with_a_fresh_ledger(models, grid, actions,
                                                                      bumpy_cycle, soc0):
    # frozen episodes on one cycle repeat exactly when nothing carries over:
    # not the end SoC, not the charge-sustain latch, not the energy ledger
    agent_a, _ = _make_agents(grid, actions)
    first, *rest = [r.metrics for r in run_episodes(bumpy_cycle, (agent_a,), range(3),
                                                    models, soc0, grid, actions,
                                                    learn=False)]
    assert first.steps == len(bumpy_cycle)
    assert first.end_soc != soc0
    assert rest == [first, first]


# ---------------------------------------------------------------------------
# input checks, once per call (cycles are checked when they are built)
# ---------------------------------------------------------------------------


def _run_once(models, grid, actions, cycle, policy=None, agents=None):
    return _episode(cycle, agents or _make_agents(grid, actions), 0, models, 0.5, grid,
                    actions, policy or EnsemblePolicy.weighted(0.5),
                    make_rng(0, COMBINER_STREAM))


def test_run_episode_rejects_action_levels_above_the_egu_rating(models, grid, flat_cycle):
    too_high = ActionGrid.uniform(max_power_w=models.egu.max_power_w + 1.0)
    with pytest.raises(ValueError, match="p_egu_cmd_w must be within"):
        _run_once(models, grid, too_high, flat_cycle,
                  agents=_make_agents(grid, too_high))


@pytest.mark.parametrize("policy,learn", [
    (EnsemblePolicy(kind="maximum"), True),
    (None, False),
], ids=["maximum", "frozen-single"])
def test_run_episode_rejects_non_finite_q_values_under_maximum(models, grid, actions,
                                                               flat_cycle, policy, learn):
    # maximum compares Q-values and a frozen episode takes each row's argmax
    agents = _make_agents(grid, actions)[:1 if policy is None else 2]
    agents[-1].q.values[7, 3] = np.nan
    with pytest.raises(ValueError, match="Q-values must be finite"):
        _episode(flat_cycle, agents, 0, models, 0.5, grid, actions, policy,
                 make_rng(0, COMBINER_STREAM), learn)


@pytest.mark.parametrize("policy", [
    EnsemblePolicy.weighted(0.5),
    EnsemblePolicy(kind="random", t=0.5),
    None,
], ids=["weighted", "random", "single"])
def test_learning_rejects_non_finite_q_values_under_every_kind(models, grid, actions,
                                                              flat_cycle, policy):
    # the cached row maxima equal max(row) only on finite rows
    agents = _make_agents(grid, actions)[:1 if policy is None else 2]
    agents[0].q.values[7, 3] = np.nan
    before = [agent.rng.bit_generator.state for agent in agents]
    with pytest.raises(ValueError, match="non-finite entries in the table"):
        run_episodes(flat_cycle, agents, range(5), models, 0.5, grid, actions,
                     policy, make_rng(0, COMBINER_STREAM))
    # checked before any draw
    assert [agent.rng.bit_generator.state for agent in agents] == before


@pytest.mark.parametrize("soc0", [0.05, 0.9, float("nan")])
def test_an_initial_soc_outside_the_battery_window_raises_before_any_draw(
        models, grid, actions, flat_cycle, soc0):
    agents = _make_agents(grid, actions)
    agents[0].q.values[:] = 1.0
    combiner = make_rng(0, COMBINER_STREAM)
    streams = [agent.rng.bit_generator.state for agent in agents]
    combiner_state = combiner.bit_generator.state
    with pytest.raises(ValueError, match="outside the battery window"):
        run_episodes(flat_cycle, agents, range(5), models, soc0, grid, actions,
                     EnsemblePolicy(kind="random", t=0.5), combiner)
    assert [agent.rng.bit_generator.state for agent in agents] == streams
    assert combiner.bit_generator.state == combiner_state
    assert (agents[0].q.values == 1.0).all()


def test_two_agents_without_a_policy_name_the_policy(models, grid, actions, flat_cycle):
    with pytest.raises(ValueError, match="policy is required"):
        _episode(flat_cycle, _make_agents(grid, actions), 0, models, 0.5, grid, actions)


def test_random_policy_without_a_combiner_rng_names_it(models, grid, actions, flat_cycle):
    with pytest.raises(ValueError, match="combiner_rng is required"):
        _episode(flat_cycle, _make_agents(grid, actions), 0, models, 0.5, grid, actions,
                 EnsemblePolicy(kind="random", t=0.5))


def _assert_rejected_before_any_draw(models, grid, actions, cycle, agents, match,
                                     learn=True):
    combiner = make_rng(0, COMBINER_STREAM)
    streams = [agent.rng.bit_generator.state for agent in agents]
    with pytest.raises(ValueError, match=match):
        run_episodes(cycle, agents, range(2), models, 0.5, grid, actions,
                     EnsemblePolicy(kind="random", t=0.5), combiner, learn)
    assert [agent.rng.bit_generator.state for agent in agents] == streams
    assert combiner.bit_generator.state == make_rng(0, COMBINER_STREAM).bit_generator.state


def test_a_frozen_call_with_two_agents_is_rejected_before_any_draw(models, grid, actions,
                                                                  flat_cycle):
    # a frozen ensemble is its agent A, which evaluate_policy runs alone
    _assert_rejected_before_any_draw(models, grid, actions, flat_cycle,
                                     _make_agents(grid, actions),
                                     "a frozen episode runs one agent, got two", learn=False)


def test_two_agents_on_distinct_tables_are_rejected_before_any_draw(models, grid,
                                                                     actions, flat_cycle):
    # equal values are not enough: the loop keeps and updates one table
    agent_a, agent_b = _make_agents(grid, actions)
    agent_b.q = Agent.create(grid, actions, agent_b.config, 0, AGENT_B_STREAM).q
    _assert_rejected_before_any_draw(models, grid, actions, flat_cycle, (agent_a, agent_b),
                                     "must share one Q-table, got distinct tables")


@pytest.mark.parametrize("lr,gamma,problem", [
    (0.25, 0.95, "learning_rate"),
    (0.5, 0.9, "discount"),
    (0.25, 0.9, "learning_rate and discount"),
], ids=["learning-rate", "discount", "both"])
def test_a_shared_table_with_unlike_learners_is_rejected_before_any_draw(
        models, grid, actions, flat_cycle, lr, gamma, problem):
    agent_a, agent_b = _make_agents(grid, actions)
    agent_b.config = LearnerConfig(learning_rate=lr, discount=gamma,
                                   schedule=agent_b.config.schedule)
    _assert_rejected_before_any_draw(models, grid, actions, flat_cycle, (agent_a, agent_b),
                                     f"must learn alike, got a different {problem}$")
