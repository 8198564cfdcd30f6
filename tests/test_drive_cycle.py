"""Drive-cycle CSV loading, validation, and synthesis."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_cycle_csv
from tugems.drive_cycle import (BUILTIN_CYCLE_NAMES, CYCLE_POWER_MAX_W,
                                CycleError, DriveCycle, SynthSpec,
                                builtin_cycle, load_cycle, synth_cycle,
                                validate_cycle)

# ---------------------------------------------------------------------------
# the DriveCycle container
# ---------------------------------------------------------------------------


def test_cycle_length_and_times():
    cycle = DriveCycle(dt_s=0.5, demand_w=np.array([1.0, 2.0, 3.0]))
    assert len(cycle) == 3
    np.testing.assert_array_equal(cycle.times(), [0.0, 0.5, 1.0])


def test_cycle_demand_is_read_only():
    cycle = DriveCycle(dt_s=1.0, demand_w=np.zeros(4))
    with pytest.raises(ValueError):
        cycle.demand_w[0] = 1.0


def test_cycle_copies_its_input_array():
    src = np.array([10.0, 20.0])
    cycle = DriveCycle(dt_s=1.0, demand_w=src)
    src[0] = 999.0
    assert cycle.demand_w[0] == 10.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_a_good_cycle():
    cycle = DriveCycle(dt_s=1.0, demand_w=np.array([0.0, 50_000.0, CYCLE_POWER_MAX_W]))
    assert validate_cycle(cycle.dt_s, cycle.demand_w) == []


def test_validate_names_the_negative_sample():
    problems = validate_cycle(1.0, np.array([0.0, -3.0, 5.0]))
    assert len(problems) == 1
    assert "sample 1" in problems[0]
    assert "negative" in problems[0]


def test_validate_names_the_over_envelope_sample():
    problems = validate_cycle(1.0, np.array([1.0, 2.0, 260_000.0]))
    assert len(problems) == 1
    assert "sample 2" in problems[0]
    assert "exceeds" in problems[0]


def test_validate_flags_non_finite_and_bad_dt():
    problems = validate_cycle(0.0, np.array([np.nan, np.inf]))
    joined = "\n".join(problems)
    assert "dt_s" in joined
    assert "sample 0" in joined and "sample 1" in joined


def test_validate_rejects_empty_cycle():
    problems = validate_cycle(1.0, np.array([]))
    assert any("no samples" in p for p in problems)


@pytest.mark.parametrize("dt,demand,match", [
    (1.0, [10_000.0, np.nan, 10_000.0], "sample 1: demand is not finite"),
    (1.0, [10_000.0, np.inf, 10_000.0], "sample 1: demand is not finite"),
    (1.0, [10_000.0, -np.inf, 10_000.0], "sample 1: demand is not finite"),
    (1.0, [10_000.0, -5.0, 10_000.0], "sample 1: demand -5.0 W is negative"),
    (1.0, [10_000.0, 260_000.0], "sample 1: demand 260000.0 W exceeds"),
    (1.0, [], "no samples"),
    (0.0, [10_000.0], "dt_s must be a positive finite number"),
    (-1.0, [10_000.0], "dt_s must be a positive finite number"),
    (np.nan, [10_000.0], "dt_s must be a positive finite number"),
    (1.0, [[2e4] * 3] * 4, r"demand must be a 1-D array, got shape \(4, 3\)"),
    (1.0, 2e4, r"demand must be a 1-D array, got shape \(\)"),
], ids=["nan", "inf", "-inf", "negative", "over-envelope", "empty", "dt-0", "dt-neg",
        "dt-nan", "2-d", "scalar"])
def test_cycle_construction_rejects_invalid_traces(dt, demand, match):
    with pytest.raises(CycleError, match=match):
        DriveCycle(dt, np.array(demand, dtype=np.float64), "bad")


def test_cycle_construction_lists_every_problem():
    with pytest.raises(CycleError) as exc:
        DriveCycle(dt_s=-1.0, demand_w=np.array([-5.0]))
    assert "dt_s" in str(exc.value)
    assert "negative" in str(exc.value)


def test_cycle_is_frozen():
    cycle = DriveCycle(dt_s=1.0, demand_w=np.zeros(2))
    with pytest.raises(AttributeError):
        cycle.demand_w = np.full(2, -1.0)


def test_cycle_stays_frozen_and_valid_across_pickling():
    cycle = builtin_cycle("PRDC-1-synthetic")
    copy = pickle.loads(pickle.dumps(cycle))
    assert not copy.demand_w.flags.writeable
    with pytest.raises(ValueError):
        copy.demand_w[0] = -1.0
    assert (copy.dt_s, copy.label) == (cycle.dt_s, cycle.label)
    np.testing.assert_array_equal(copy.demand_w, cycle.demand_w)
    assert validate_cycle(copy.dt_s, copy.demand_w) == []
    # unpickling rebuilds through the constructor, so bad state is rejected
    rebuild, (dt_s, _, label) = cycle.__reduce__()
    with pytest.raises(CycleError, match="sample 1: demand is not finite"):
        rebuild(dt_s, np.array([1e4, np.nan]), label)


# ---------------------------------------------------------------------------
# CSV round trip and parse errors
# ---------------------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    demand = rng.uniform(0.0, 250_000.0, size=50)
    cycle = DriveCycle(dt_s=0.25, demand_w=demand, label="rt")
    path = tmp_path / "rt.csv"
    write_cycle_csv(cycle, path)
    back = load_cycle(path)
    assert back.dt_s == cycle.dt_s
    np.testing.assert_array_equal(back.demand_w, cycle.demand_w)
    assert back.label == "rt"  # label comes from the file stem


def test_saved_file_header_and_line_endings(tmp_path):
    cycle = DriveCycle(dt_s=1.0, demand_w=np.array([0.0, 1.5]))
    path = tmp_path / "c.csv"
    write_cycle_csv(cycle, path)
    raw = path.read_bytes()
    assert raw.startswith(b"t_s,p_dem_w\n")
    assert b"\r" not in raw


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,power\n0,1\n")
    with pytest.raises(CycleError, match="header"):
        load_cycle(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CycleError, match="empty"):
        load_cycle(path)


def test_load_rejects_header_only_file(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("t_s,p_dem_w\n")
    with pytest.raises(CycleError, match="no samples"):
        load_cycle(path)


def test_load_names_row_with_wrong_field_count(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("t_s,p_dem_w\n0,1\n1,2,3\n")
    with pytest.raises(CycleError, match="row 3"):
        load_cycle(path)


def test_load_names_row_with_non_numeric_field(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("t_s,p_dem_w\n0,1\n1,oops\n")
    with pytest.raises(CycleError, match="row 3"):
        load_cycle(path)


# A NaN timestamp makes a NaN step, which must fail the spacing check too.
@pytest.mark.parametrize("times, row", [("0 1 2.5", 4), ("0 1 nan 3", 4), ("0 1 2 nan", 5)])
def test_load_names_row_with_non_uniform_spacing(tmp_path, times, row):
    path = tmp_path / "u.csv"
    path.write_text("t_s,p_dem_w\n" + "".join(f"{t},1\n" for t in times.split()))
    with pytest.raises(CycleError, match=f"row {row}: non-uniform time step"):
        load_cycle(path)


def test_load_rejects_decreasing_time(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t_s,p_dem_w\n1,1\n0,2\n")
    with pytest.raises(CycleError, match="increase"):
        load_cycle(path)


def test_load_rejects_out_of_range_demand(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("t_s,p_dem_w\n0,1\n1,-4\n")
    with pytest.raises(CycleError, match="negative"):
        load_cycle(path)


def test_load_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("t_s,p_dem_w\n0,1\u00e9\n".encode("latin-1"))
    with pytest.raises(CycleError, match="not a UTF-8 CSV file"):
        load_cycle(path)


_CSV_ROWS = st.lists(st.tuples(st.floats(), st.floats()), max_size=6).map(
    lambda rows: "t_s,p_dem_w\n" + "".join(f"{t!r},{p!r}\n" for t, p in rows))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=300),
                      st.binary(max_size=300).map(lambda b: b"t_s,p_dem_w\n" + b),
                      st.text(max_size=300).map(lambda t: ("t_s,p_dem_w\n" + t).encode()),
                      _CSV_ROWS.map(str.encode)))
def test_load_cycle_raises_only_cycle_error_on_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-cycle.csv"
    path.write_bytes(data)
    try:
        cycle = load_cycle(path)
    except CycleError:
        return
    assert validate_cycle(cycle.dt_s, cycle.demand_w) == []


def test_load_tolerates_trailing_blank_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_s,p_dem_w\n0,5\n1,6\n\n")
    cycle = load_cycle(path)
    assert len(cycle) == 2


def test_load_single_sample_defaults_dt_to_one_second(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t_s,p_dem_w\n0,42\n")
    cycle = load_cycle(path)
    assert cycle.dt_s == 1.0
    assert cycle.demand_w[0] == 42.0


# ---------------------------------------------------------------------------
# synthetic cycles
# ---------------------------------------------------------------------------


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="segments"):
        SynthSpec(segments=())
    with pytest.raises(ValueError, match="hold"):
        SynthSpec(segments=((1.0, 0.0),))
    with pytest.raises(ValueError, match="below 0"):
        SynthSpec(segments=((500.0, 10.0),), noise_amplitude_w=600.0)
    with pytest.raises(ValueError, match="envelope"):
        SynthSpec(segments=((252_900.0, 10.0),), noise_amplitude_w=600.0)


def test_synth_cycle_piecewise_levels_without_noise():
    spec = SynthSpec(segments=((10.0, 2.0), (20.0, 3.0)))
    cycle = synth_cycle(spec)
    np.testing.assert_array_equal(cycle.demand_w, [10.0, 10.0, 20.0, 20.0, 20.0])
    assert cycle.dt_s == 1.0


def test_synth_cycle_is_deterministic_per_seed():
    spec = SynthSpec(segments=((50_000.0, 30.0),), noise_amplitude_w=1_000.0, seed=5)
    a = synth_cycle(spec)
    b = synth_cycle(spec)
    np.testing.assert_array_equal(a.demand_w, b.demand_w)
    other = synth_cycle(SynthSpec(segments=((50_000.0, 30.0),),
                                  noise_amplitude_w=1_000.0, seed=6))
    assert not np.array_equal(a.demand_w, other.demand_w)


def test_synth_cycle_noise_stays_within_band():
    spec = SynthSpec(segments=((50_000.0, 100.0),), noise_amplitude_w=2_000.0, seed=1)
    cycle = synth_cycle(spec)
    assert np.all(cycle.demand_w >= 48_000.0)
    assert np.all(cycle.demand_w <= 52_000.0)
    assert np.std(cycle.demand_w) > 0.0


# ---------------------------------------------------------------------------
# built-in towing cycles
# ---------------------------------------------------------------------------


def test_builtin_names_and_labels():
    assert BUILTIN_CYCLE_NAMES == ("PRDC-1-synthetic", "PRDC-2-synthetic",
                                   "PRDC-3-synthetic", "PRDC-4-synthetic")
    for name in BUILTIN_CYCLE_NAMES:
        cycle = builtin_cycle(name)
        assert cycle.label == name
        assert cycle.dt_s == 1.0
        assert validate_cycle(cycle.dt_s, cycle.demand_w) == []


def test_builtin_cycles_are_reproducible_and_distinct():
    a1 = builtin_cycle("PRDC-1-synthetic")
    a2 = builtin_cycle("PRDC-1-synthetic")
    np.testing.assert_array_equal(a1.demand_w, a2.demand_w)
    b = builtin_cycle("PRDC-2-synthetic")
    assert len(a1) != len(b) or not np.array_equal(a1.demand_w, b.demand_w)


def test_builtin_learning_cycle_length():
    # two 435 s tow jobs plus the 90 s quiet tail at 1 Hz
    assert len(builtin_cycle("PRDC-1-synthetic")) == 960


def test_builtin_rejects_unknown_name():
    with pytest.raises(CycleError, match="unknown built-in"):
        builtin_cycle("PRDC-9")
