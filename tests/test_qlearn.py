"""State/action grids, decay schedules, TD updates, and snapshots."""

import copy
import json
import math
import os
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tugems.drive_cycle import CYCLE_POWER_MAX_W
from tugems.qlearn import (AGENT_A_STREAM, AGENT_B_STREAM, COMBINER_STREAM, SOC_STATE_MAX,
                           SOC_STATE_MIN, ActionGrid, Agent, E2ESchedule, LearnerConfig,
                           QTable, StateGrid, e2e_value,
                           exploration_draws, load_qtable, make_rng, q_update,
                           save_qtable, select_action, threshold_greedy, write_atomic)

# ---------------------------------------------------------------------------
# state grid
# ---------------------------------------------------------------------------


def test_default_grid_shape_and_state_count():
    grid = StateGrid.uniform()
    assert grid.n_p_dem == 23
    assert grid.n_soc == 25
    assert grid.n_states == 575


def test_demand_binning_is_left_closed():
    grid = StateGrid.uniform()
    # default bins are 11000 W wide, so 11000 W opens bin 1
    assert grid.p_dem_bin(10_999.9) == 0
    assert grid.p_dem_bin(11_000.0) == 1
    assert grid.p_dem_bin(0.0) == 0
    assert grid.p_dem_bin(253_000.0) == 22  # last bin is right-closed


def test_binning_clamps_out_of_range_values():
    grid = StateGrid.uniform()
    assert grid.p_dem_bin(-5.0) == 0
    assert grid.p_dem_bin(3e5) == 22
    assert grid.soc_bin(0.05) == 0
    assert grid.soc_bin(0.95) == 24


def _axis(lo, hi):
    """Edges spanning [lo, hi] with one to eight interior edges."""
    interior = st.lists(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=8, unique=True)
    return interior.map(lambda xs: (lo, *sorted(xs), hi))


def _probes(edges):
    """Each edge and its two neighbouring floats, both infinities, NaN, or any float."""
    near = [math.nextafter(e, to) for e in edges for to in (-math.inf, math.inf)]
    return st.one_of(st.sampled_from([*edges, *near, -math.inf, math.inf, math.nan]),
                     st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p_dem_edges=_axis(0.0, CYCLE_POWER_MAX_W),
       soc_edges=_axis(SOC_STATE_MIN, SOC_STATE_MAX))
def test_a_bin_is_the_count_of_interior_edges_at_or_below_a_value(data, p_dem_edges,
                                                                 soc_edges):
    grid = StateGrid(p_dem_edges, soc_edges)
    for edges, bin_of in ((grid.p_dem_edges_w, grid.p_dem_bin), (grid.soc_edges, grid.soc_bin)):
        x = data.draw(_probes(edges))
        # the spec: bins closed on the left, both ends clamped, the last bin closed
        spec = bisect_right(edges, x) - 1
        spec = 0 if spec < 0 else min(spec, len(edges) - 2)
        # run_episodes' forms: the demand's searchsorted, the SoC's bisect_right
        vectorized = int(np.searchsorted(edges[1:-1], np.array([x]), side="right")[0])
        assert bin_of(x) == vectorized == bisect_right(edges[1:-1], x) == spec


def test_grid_rejects_bad_edges():
    with pytest.raises(ValueError, match="at least 3 edges"):
        StateGrid([0.0, 253_000.0], np.linspace(0.2, 0.8, 4))
    with pytest.raises(ValueError, match="ascending"):
        StateGrid([0.0, 2.0, 1.0, 253_000.0], np.linspace(0.2, 0.8, 4))
    with pytest.raises(ValueError, match="span"):
        StateGrid(np.linspace(0.0, 200_000.0, 5), np.linspace(0.2, 0.8, 4))
    with pytest.raises(ValueError, match="span"):
        StateGrid(np.linspace(0.0, 253_000.0, 5), np.linspace(0.3, 0.8, 4))


def test_grid_rejects_a_nan_edge():
    with pytest.raises(ValueError, match="p_dem_edges_w must be strictly ascending"):
        StateGrid([0.0, float("nan"), 253_000.0], np.linspace(0.2, 0.8, 4))
    with pytest.raises(ValueError, match="soc_edges must be strictly ascending"):
        StateGrid(np.linspace(0.0, 253_000.0, 5), [0.2, float("nan"), 0.8])


def test_grid_equality_is_by_edges():
    assert StateGrid.uniform() == StateGrid.uniform()
    assert StateGrid.uniform() != StateGrid.uniform(n_p_dem=10)


# ---------------------------------------------------------------------------
# action grid
# ---------------------------------------------------------------------------


def test_default_action_ladder():
    actions = ActionGrid.uniform()
    assert actions.n_actions == 11
    assert actions.level(0) == 0.0
    assert actions.level(10) == 86_200.0
    assert actions.level(1) == pytest.approx(8_620.0, rel=1e-12)


def test_nearest_level_with_tie_going_lower():
    actions = ActionGrid.uniform()
    assert actions.nearest(4_310.0) == 0   # exactly halfway keeps the lower
    assert actions.nearest(4_310.1) == 1
    assert actions.nearest(-100.0) == 0
    assert actions.nearest(1e6) == 10
    assert actions.nearest(8_620.0) == 1


def test_action_grid_rejects_bad_ladders():
    with pytest.raises(ValueError, match="at least 2"):
        ActionGrid([0.0])
    with pytest.raises(ValueError, match="ascending"):
        ActionGrid([0.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="first action level must be 0"):
        ActionGrid([10.0, 20.0])


def test_action_grid_rejects_a_nan_level():
    with pytest.raises(ValueError, match="action levels must be strictly ascending"):
        ActionGrid([0.0, float("nan"), 5.0])


# ---------------------------------------------------------------------------
# decay schedules
# ---------------------------------------------------------------------------


def test_exponential_schedule_examples():
    sched = E2ESchedule.exponential(0.8)
    assert e2e_value(sched, 0) == pytest.approx(0.8, abs=1e-12)   # k counts from 1
    assert e2e_value(sched, 1) == pytest.approx(0.8, abs=1e-12)
    assert e2e_value(sched, 2) == pytest.approx(0.64, abs=1e-12)  # 0.8**2


def test_step_schedule_examples():
    sched = E2ESchedule.step(0.8, factor=0.5, width=10)
    assert e2e_value(sched, 0) == pytest.approx(0.8, abs=1e-12)
    # (1+4)/10 = 0.5 rounds half away from zero to 1, so theta halves
    assert e2e_value(sched, 4) == pytest.approx(0.4, abs=1e-12)
    assert e2e_value(sched, 13) == pytest.approx(0.4, abs=1e-12)
    assert e2e_value(sched, 14) == pytest.approx(0.2, abs=1e-12)  # (1+14)/10 -> 2


def test_reciprocal_schedule_example():
    sched = E2ESchedule.reciprocal(0.8, decay_rate=0.1)
    assert e2e_value(sched, 0) == pytest.approx(0.8, abs=1e-12)
    assert e2e_value(sched, 10) == pytest.approx(0.4, abs=1e-12)  # 0.8 / (1 + 1)


def test_zero_decay_reciprocal_schedule_never_moves():
    sched = E2ESchedule.reciprocal(0.3, decay_rate=0.0)
    assert [e2e_value(sched, k) for k in (0, 1, 50)] == [0.3, 0.3, 0.3]


@pytest.mark.parametrize("sched", [
    E2ESchedule.reciprocal(0.8, decay_rate=0.0),
    E2ESchedule.exponential(0.8),
    E2ESchedule.step(0.8, 0.5, 10),
    E2ESchedule.reciprocal(0.8, 0.1),
], ids=["zero-decay", "exponential", "step", "reciprocal"])
def test_schedules_start_at_initial_and_never_rise(sched):
    values = [e2e_value(sched, k) for k in range(501)]
    assert values[0] == pytest.approx(0.8, abs=1e-12)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 0.8 for v in values)


@given(k=st.integers(min_value=0, max_value=500),
       initial=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_exponential_matches_closed_form(k, initial):
    sched = E2ESchedule.exponential(initial)
    assert e2e_value(sched, k) == pytest.approx(initial ** max(k, 1), rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError, match="kind"):
        E2ESchedule(kind="linear")
    with pytest.raises(ValueError, match="initial"):
        E2ESchedule.reciprocal(1.3, decay_rate=0.0)
    with pytest.raises(ValueError, match="initial"):
        E2ESchedule.reciprocal(0.0, decay_rate=0.0)
    with pytest.raises(ValueError, match="factor"):
        E2ESchedule(kind="step", factor=1.5, width=10)
    with pytest.raises(ValueError, match="width"):
        E2ESchedule(kind="step", factor=0.5, width=0)
    with pytest.raises(ValueError, match="decay_rate"):
        E2ESchedule(kind="reciprocal", decay_rate=-0.1)
    with pytest.raises(ValueError, match="non-negative"):
        e2e_value(E2ESchedule.reciprocal(0.5, decay_rate=0.0), -1)


def test_schedule_dict_round_trip():
    for sched in (E2ESchedule.reciprocal(0.7, decay_rate=0.0), E2ESchedule.exponential(0.8),
                  E2ESchedule.step(0.8, 0.5, 10), E2ESchedule.reciprocal(0.8, 0.1)):
        assert E2ESchedule.from_dict(sched.to_dict()) == sched
    with pytest.raises(ValueError, match="unknown schedule keys"):
        E2ESchedule.from_dict({"kind": "exponential", "initial": 0.5, "speed": 2})
    with pytest.raises(ValueError, match="unknown schedule keys: \\[1, 'x'\\]"):
        E2ESchedule.from_dict({"kind": "exponential", 1: 0, "x": 0})


@pytest.mark.parametrize("data,match", [
    ({"initial": 0.5}, "kind is missing"),
    ({"kind": "exponential", "initial": "x"}, "initial must be a number, got 'x'"),
    ({"kind": "exponential", "initial": None}, "initial must be a number, got None"),
    ({"kind": "step", "factor": 0.5, "width": True}, "width must be a number, got True"),
    ({"kind": "reciprocal", "decay_rate": [0.1]}, "decay_rate must be a number"),
    ({"kind": "exponential", "initial": 1.0, "factor": 0.5, "width": 10, "decay_rate": 0.1},
     "exponential schedule takes no factor, width, decay_rate"),
    ({"kind": "exponential", "decay_rate": 0.1}, "exponential schedule takes no decay_rate"),
    ({"kind": "step", "factor": 0.5, "width": 2, "decay_rate": 0.1},
     "step schedule takes no decay_rate"),
    ({"kind": "constant", "initial": 0.5}, "kind must be one of .*, got 'constant'"),
])
def test_schedule_from_dict_owns_the_schema(data, match):
    with pytest.raises(ValueError, match=match):
        E2ESchedule.from_dict(data)


@pytest.mark.parametrize("fields,match", [
    ({"kind": "step", "factor": 0.5, "width": True}, "width must be a number, got True"),
    ({"kind": "step", "factor": "0.5", "width": 2}, "factor must be a number, got '0.5'"),
    ({"kind": "exponential", "initial": None}, "initial must be a number, got None"),
    ({"kind": "exponential", "initial": False}, "initial must be a number, got False"),
    ({"kind": "reciprocal", "decay_rate": [0.1]}, "decay_rate must be a number"),
    ({"kind": "exponential", "factor": "x"}, "factor must be a number, got 'x'"),
])
def test_schedule_constructor_checks_value_types(fields, match):
    with pytest.raises(ValueError, match=match):
        E2ESchedule(**fields)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------


def test_select_action_theta_zero_always_exploits():
    q = QTable(1, 4)
    q.values[0] = [0.0, 3.0, 1.0, 2.0]
    rng = make_rng(0, 0)
    picks = {select_action(q, 0, 0.0, rng) for _ in range(50)}
    assert picks == {1}


def test_select_action_theta_one_always_explores():
    q = QTable(1, 4)
    q.values[0] = [0.0, 100.0, 0.0, 0.0]
    rng = make_rng(0, 0)
    picks = {select_action(q, 0, 1.0, rng) for _ in range(400)}
    assert picks == {0, 1, 2, 3}


def test_select_action_greedy_tie_breaks_to_lowest_index():
    q = QTable(1, 3)
    q.values[0] = [5.0, 5.0, 1.0]
    rng = make_rng(1, 0)
    assert select_action(q, 0, 0.0, rng) == 0


def test_select_action_consumes_one_uniform_draw_even_when_greedy():
    # stream alignment: the exploit branch must still advance the RNG
    q = QTable(1, 3)
    rng_a = make_rng(7, 0)
    rng_b = make_rng(7, 0)
    select_action(q, 0, 0.0, rng_a)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_select_action_rejects_theta_out_of_range():
    q = QTable(1, 2)
    with pytest.raises(ValueError, match="theta"):
        select_action(q, 0, 1.5, make_rng(0, 0))


def test_exploration_frequency_tracks_theta():
    # with theta = 0.7 about 30 % of picks should be greedy
    q = QTable(1, 10)
    q.values[0, 9] = 1.0  # greedy pick is action 9
    rng = make_rng(42, 0)
    n = 20_000
    greedy = sum(select_action(q, 0, 0.7, rng) == 9 for _ in range(n))
    # greedy rate = 0.3 exact from the threshold + 0.7/10 from random picks
    assert greedy / n == pytest.approx(0.37, abs=0.01)


# ---------------------------------------------------------------------------
# the TD update
# ---------------------------------------------------------------------------


def test_q_update_blank_slate_full_rate():
    q = QTable(2, 2)
    new = q_update(q, 0, 0, 1.0, 1, LearnerConfig(learning_rate=1.0, discount=1.0))
    assert new == 1.0
    assert q.values[0, 0] == 1.0
    assert np.count_nonzero(q.values) == 1  # nothing else moved


def test_q_update_fixed_point_stays_put():
    q = QTable(2, 2)
    q.values[:] = 2.0
    new = q_update(q, 0, 1, 0.0, 1, LearnerConfig(learning_rate=0.5, discount=1.0))
    assert new == 2.0
    assert np.all(q.values == 2.0)


def test_q_update_scales_the_error_by_the_learning_rate():
    q = QTable(2, 2)
    new = q_update(q, 1, 0, -10.0, 0, LearnerConfig(learning_rate=0.1, discount=0.95))
    assert new == pytest.approx(-1.0, abs=1e-15)


def test_q_update_bootstraps_from_the_next_state_max():
    q = QTable(2, 2)
    q.values[1] = [4.0, 7.0]
    config = LearnerConfig(learning_rate=1.0, discount=0.5)
    new = q_update(q, 0, 0, 2.0, 1, config)
    assert new == pytest.approx(2.0 + 0.5 * 7.0)


def test_q_update_rejects_non_finite_reward():
    q = QTable(1, 1)
    with pytest.raises(ValueError, match="finite"):
        q_update(q, 0, 0, float("nan"), 0, LearnerConfig())


@given(q0=st.floats(-50.0, 50.0), reward=st.floats(-10.0, 10.0),
       lr=st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_q_update_moves_toward_the_target(q0, reward, lr):
    q = QTable(2, 1)
    q.values[0, 0] = q0
    target = reward + 0.9 * q.values[1, 0].max()
    new = q_update(q, 0, 0, reward, 1, LearnerConfig(learning_rate=lr, discount=0.9))
    assert new == pytest.approx(q0 + lr * (target - q0), rel=1e-12, abs=1e-12)


def test_learner_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        LearnerConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="learning_rate"):
        LearnerConfig(learning_rate=1.2)
    with pytest.raises(ValueError, match="discount"):
        LearnerConfig(discount=1.01)
    LearnerConfig(discount=1.0)  # admissible for finite episodes


def test_learning_solves_a_small_chain_mdp():
    """Q-learning under random exploration recovers the value-iteration
    solution of a three-state deterministic chain."""
    # (next state, reward) per state and action
    transitions = {
        (0, 0): (0, 0.0), (0, 1): (1, 1.0),
        (1, 0): (0, 0.0), (1, 1): (2, 2.0),
        (2, 0): (0, 5.0), (2, 1): (2, 0.0),
    }
    gamma = 0.9

    q_star = np.zeros((3, 2))
    for _ in range(2000):
        prev = q_star.copy()
        for (s, a), (s2, r) in transitions.items():
            q_star[s, a] = r + gamma * prev[s2].max()
        if np.abs(q_star - prev).max() < 1e-13:
            break

    q = QTable(3, 2)
    config = LearnerConfig(learning_rate=0.5, discount=gamma)
    rng = make_rng(3, 0)
    state = 0
    for _ in range(20_000):
        action = select_action(q, state, 1.0, rng)  # pure exploration
        next_state, reward = transitions[(state, action)]
        q_update(q, state, action, reward, next_state, config)
        state = next_state
    assert np.abs(q.values - q_star).max() < 1e-6


# ---------------------------------------------------------------------------
# named RNG streams
# ---------------------------------------------------------------------------


def test_stream_names():
    assert (AGENT_A_STREAM, AGENT_B_STREAM, COMBINER_STREAM) == (0, 1, 2)


def test_make_rng_is_reproducible_and_streams_differ():
    a1 = make_rng(11, 0).random(8)
    a2 = make_rng(11, 0).random(8)
    b = make_rng(11, 1).random(8)
    other_seed = make_rng(12, 0).random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other_seed)


@pytest.mark.parametrize("seed,stream,n", [(0, 0, 1), (7, 1, 13), (123, 2, 960)])
def test_a_block_of_uniforms_equals_as_many_scalar_draws(seed, stream, n):
    block = make_rng(seed, stream).random(n)
    scalar = make_rng(seed, stream)
    assert block.tolist() == [scalar.random() for _ in range(n)]


def test_exploration_draws_take_uniforms_then_actions_from_one_stream():
    got_u, got_x = exploration_draws(make_rng(4, 0), 50, 11)
    rng = make_rng(4, 0)
    np.testing.assert_array_equal(got_u, rng.random(50))
    np.testing.assert_array_equal(got_x, rng.integers(11, size=50))
    assert got_x.min() >= 0 and got_x.max() <= 10


def test_threshold_greedy_explores_exactly_below_theta():
    q = QTable(1, 4)
    q.values[0] = [0.0, 3.0, 3.0, 2.0]
    assert threshold_greedy(q, 0, 0.5, 0.5, 3) == 1   # clears theta: argmax, low tie
    assert threshold_greedy(q, 0, 0.5, 0.4999, 3) == 3
    assert threshold_greedy(q, 0, 0.0, 0.0, 3) == 1
    assert threshold_greedy(q, 0, 1.0, 0.9999, 0) == 0
    with pytest.raises(ValueError, match="theta"):
        threshold_greedy(q, 0, -0.1, 0.5, 0)


def test_agent_create_wires_grid_config_and_stream():
    grid = StateGrid.uniform(n_p_dem=4, n_soc=3)
    actions = ActionGrid.uniform(n_levels=5)
    agent = Agent.create(grid, actions, LearnerConfig(), seed=9, stream=0)
    assert agent.q.n_states == 12
    assert agent.q.n_actions == 5
    assert agent.q.values[0].argmax() == 0  # blank table ties to action 0
    twin = Agent.create(grid, actions, LearnerConfig(), seed=9, stream=0)
    assert (select_action(agent.q, 0, 1.0, agent.rng)
            == select_action(twin.q, 0, 1.0, twin.rng))


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


@pytest.fixture
def small_setup():
    grid = StateGrid.uniform(n_p_dem=3, n_soc=2)
    actions = ActionGrid.uniform(n_levels=4)
    q = QTable(grid.n_states, actions.n_actions)
    rng = np.random.default_rng(0)
    q.values[:] = rng.normal(size=q.values.shape)
    return q, grid, actions


def test_snapshot_round_trip_is_bit_exact(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions, schedule=E2ESchedule.step(0.8, 0.5, 10))
    q2, grid2, actions2, sched2, extra2 = load_qtable(path)
    np.testing.assert_array_equal(q2.values, q.values)
    assert grid2 == grid
    assert actions2 == actions
    assert sched2 == E2ESchedule.step(0.8, 0.5, 10)
    assert extra2 == {}


def test_snapshot_extra_block_is_stored(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions, extra={"episodes": 125})
    doc = json.loads(path.read_text())
    assert doc["extra"] == {"episodes": 125}
    assert load_qtable(path)[4] == {"episodes": 125}
    assert doc["schedule"] is None


def test_load_rejects_foreign_format_and_version(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not a"):
        load_qtable(path)
    doc["format"] = "tugems-qtable"
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_qtable(path)


def test_load_rejects_wrong_value_shape(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    doc = json.loads(path.read_text())
    doc["values"] = [row[:-1] for row in doc["values"]]  # drop one action
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="does not match"):
        load_qtable(path)


def test_load_rejects_non_finite_values(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    text = path.read_text()
    first_num = text.index('"values": ') + len('"values": [[')
    end = text.index(",", first_num)
    path.write_text(text[:first_num] + "NaN" + text[end:])
    with pytest.raises(ValueError, match="non-finite"):
        load_qtable(path)


def test_load_verifies_grid_and_action_identity(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    with pytest.raises(ValueError, match="grid does not match"):
        load_qtable(path, expect_grid=StateGrid.uniform(n_p_dem=5, n_soc=2))
    with pytest.raises(ValueError, match="action levels do not match"):
        load_qtable(path, expect_actions=ActionGrid.uniform(n_levels=6))
    # matching expectations pass through
    load_qtable(path, expect_grid=grid, expect_actions=actions)


@pytest.mark.parametrize("bad", [0.5, None, {}, "x", True],
                         ids=["number", "null", "mapping", "string", "boolean"])
@pytest.mark.parametrize("key", ["p_dem_edges_w", "soc_edges", "action_levels_w",
                                 "values"])
def test_load_names_a_missing_or_mistyped_key(small_setup, tmp_path, key, bad):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    doc = json.loads(path.read_text())

    def rejects(value, problem):
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: snapshot key '{key}' "
                                                       f"{problem}")):
            load_qtable(path)

    rejects(bad, "must be a list")
    entries = copy.deepcopy(doc[key])
    if key == "values":
        rejects([entries[0], bad, *entries[2:]], "must hold rows of numbers only")
        entries[1][0] = bad
    else:
        entries[1] = bad
    if not isinstance(bad, float):  # a number is a fine entry
        rejects(entries, f"must hold {'rows of ' if key == 'values' else ''}numbers only")
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}' is missing"):
        load_qtable(path)


@pytest.mark.parametrize("key", ["values", "p_dem_edges_w"])
def test_load_names_an_integer_too_large_for_a_float(small_setup, tmp_path, key):
    # a 400-digit integer is valid JSON but overflows float conversion
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    doc = json.loads(path.read_text())
    if key == "values":
        doc[key][0][0] = 10**399
    else:
        doc[key][-1] = 10**399
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: int too large")):
        load_qtable(path)


def test_load_rejects_a_schedule_that_is_not_a_mapping(small_setup, tmp_path):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    doc = json.loads(path.read_text())
    doc["schedule"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'schedule' must be a mapping"):
        load_qtable(path)


def test_save_replaces_the_file_atomically_and_leaves_no_temp(small_setup, tmp_path,
                                                             monkeypatch):
    q, grid, actions = small_setup
    path = tmp_path / "q.json"
    save_qtable(path, q, grid, actions)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("tugems.qlearn.os.replace", interrupted)
    q.values[:] = 0.0
    with pytest.raises(OSError, match="disk full"):
        save_qtable(path, q, grid, actions)
    assert path.read_bytes() == before  # the old snapshot survives intact
    assert [p.name for p in tmp_path.iterdir()] == ["q.json"]


def test_concurrent_writers_use_distinct_temp_files(tmp_path, monkeypatch):
    # a second writer runs to completion while the first sits between its
    # write and its rename; with a shared temp name the first rename would
    # find its file gone (or publish the other writer's text)
    target = tmp_path / "out.csv"
    real_replace = os.replace
    calls = []

    def interleaved(src, dst):
        calls.append(Path(src))
        if len(calls) == 1:
            write_atomic(target, "second\n")
            assert target.read_text() == "second\n"
        real_replace(src, dst)

    monkeypatch.setattr("tugems.qlearn.os.replace", interleaved)
    write_atomic(target, "first\n")
    assert len(set(calls)) == 2
    assert all(c.parent == tmp_path for c in calls)  # same directory: atomic rename
    assert target.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
