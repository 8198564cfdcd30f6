"""YAML config parsing and the command-line front end."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_eval_episodes, write_cycle_csv
from tugems.cli import main
from tugems.config import DEFAULT_CONFIG, ConfigError, RunConfig, load_config, parse_config
from tugems.drive_cycle import DriveCycle
from tugems.experiment import config_fingerprint
from tugems.qlearn import load_qtable

# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _problems(data: object) -> list[str]:
    """Every problem ``parse_config`` finds in ``data``, or none."""
    try:
        parse_config(data)
    except ConfigError as exc:
        return exc.problems
    return []


def test_empty_config_resolves_to_the_stock_run():
    config = parse_config(None)
    assert config == DEFAULT_CONFIG
    assert config.cycle_builtin == "PRDC-1-synthetic"
    assert config.episodes == 125
    assert config.seeds == (0,)
    assert config.policy.kind == "weighted"
    assert config.agent_a.schedule.kind == "step"
    assert config.agent_b.schedule.kind == "exponential"


def test_full_config_overrides_everything():
    config = parse_config({
        "label": "exp-7",
        "cycle": {"builtin": "PRDC-3-synthetic"},
        "run": {"mode": "single", "episodes": 10, "initial_soc": 0.6,
                "seeds": [4, 5]},
        "agents": {
            "a": {"schedule": {"kind": "reciprocal", "initial": 0.7,
                               "decay_rate": 0.2}},
            "b": {"schedule": {"kind": "reciprocal", "initial": 0.4, "decay_rate": 0.0}},
        },
        "ensemble": {"kind": "random", "t": 0.25},
        "sweep": {"repeats": 5, "base_seed": 2, "episodes": 20},
        "eval": {"cycles": ["PRDC-2-synthetic"], "initial_socs": [0.4]},
        "dp": {"soc_nodes": 51},
    })
    assert config.label == "exp-7"
    assert config.cycle_builtin == "PRDC-3-synthetic"
    assert config.mode == "single"
    assert config.seeds == (4, 5)
    assert config.agent_a.schedule.kind == "reciprocal"
    assert config.agent_b.schedule.initial == 0.4
    assert config.policy.kind == "random"
    assert config.policy.t == 0.25
    assert config.sweep_repeats == 5
    assert config.eval_cycles == ("PRDC-2-synthetic",)
    assert config.dp_soc_nodes == 51
    grid, actions = config.build_grids()  # fixed for every run
    assert grid.n_states == 23 * 25
    assert actions.n_actions == 11


def test_unknown_keys_are_all_reported_with_dotted_paths():
    problems = _problems({
        "episods": 250,
        "run": {"mode": "ensemble", "warmup": 3},
        "agents": {"b": {"discount": 0.9}},
    })
    joined = "\n".join(problems)
    assert "config.episods: unknown key" in joined
    assert "config.run.warmup: unknown key" in joined
    assert "config.agents.b.discount: unknown key" in joined
    assert len(problems) == 3


def test_ensemble_delta_is_an_unknown_key():
    problems = _problems({"ensemble": {"kind": "weighted", "mu": 0.6, "delta": 0.4}})
    assert problems == ["config.ensemble.delta: unknown key"]


def test_cycle_dt_s_is_an_unknown_key():
    # Built-in cycles are 1 s and a cycle file keeps its own spacing.
    problems = _problems({"cycle": {"builtin": "PRDC-1-synthetic", "dt_s": 1.0}})
    assert problems == ["config.cycle.dt_s: unknown key"]


def test_schedule_initial_out_of_range_is_named():
    problems = _problems({
        "agents": {"a": {"schedule": {"kind": "exponential", "initial": 1.3}}}})
    assert len(problems) == 1
    assert problems[0].startswith("config.agents.a.schedule")
    assert "initial" in problems[0]


def test_readme_configuration_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert parse_config(yaml.safe_load(block)) == RunConfig()


def test_schedule_requires_its_kind():
    problems = _problems({"agents": {"b": {"schedule": {"initial": 0.5}}}})
    assert problems == ["config.agents.b.schedule: kind is missing"]


def test_a_schedule_that_is_not_a_mapping_is_one_problem():
    problems = _problems({"agents": {"a": {"schedule": 5}}})
    assert problems == ["config.agents.a.schedule: expected a mapping, got int"]


def test_all_problems_come_back_at_once():
    problems = _problems({
        "run": {"mode": "triple", "episodes": 0},
        "cycle": {"builtin": "PRDC-9-synthetic"},
        "dp": {"soc_nodes": 1},
    })
    joined = "\n".join(problems)
    assert "config.run.mode" in joined
    assert "config.run.episodes" in joined
    assert "config.cycle.builtin" in joined
    assert "config.dp.soc_nodes" in joined
    assert len(problems) == 4


def test_cycle_source_must_be_unique():
    problems = _problems({"cycle": {"builtin": "PRDC-1-synthetic", "path": "x.csv"}})
    assert any("not both" in p for p in problems)


def test_seed_list_validation():
    assert _problems({"run": {"seeds": [0, 1, 2]}}) == []
    assert any("duplicate" in p
               for p in _problems({"run": {"seeds": [1, 1]}}))
    assert any("list of integers" in p
               for p in _problems({"run": {"seeds": "abc"}}))
    assert any("list of integers" in p
               for p in _problems({"run": {"seeds": []}}))


@pytest.mark.parametrize("data,key", [
    ({"ensemble": {"kind": "weighted", "mu": math.nan}}, "config.ensemble.mu"),
    ({"ensemble": {"kind": "random", "t": math.inf}}, "config.ensemble.t"),
    ({"run": {"initial_soc": 10 ** 400}}, "config.run.initial_soc"),
    ({"agents": {"a": {"schedule": {"kind": "exponential", "initial": math.nan}}}},
     "config.agents.a.schedule: initial must be in (0, 1], got nan"),
    ({"agents": {"b": {"schedule": {"kind": "reciprocal", "decay_rate": math.inf}}}},
     "config.agents.b.schedule"),
    ({"agents": {"b": {"schedule": {"kind": "step", "factor": 0.5, "width": math.nan}}}},
     "config.agents.b.schedule"),
    ({"eval": {"initial_socs": [0.5, math.nan]}}, "config.eval.initial_socs"),
    ({"run": {"seeds": [0, -1]}}, "config.run.seeds"),
    ({"agents": {"b": {"schedule": {"kind": "exponential", "decay_rate": 0.1}}}},
     "config.agents.b.schedule: exponential schedule takes no decay_rate"),
], ids=["mu-nan", "t-inf", "soc-huge-int",
        "initial-nan", "decay-inf", "width-nan", "eval-soc-nan", "negative-seed",
        "foreign-schedule-parameter"])
def test_non_finite_numbers_and_negative_seeds_are_named(data, key):
    problems = _problems(data)
    assert len(problems) == 1 and problems[0].startswith(key), problems


def test_initial_soc_must_sit_inside_the_battery_window():
    problems = _problems({"run": {"initial_soc": 0.9}})
    assert len(problems) == 1
    assert "battery" in problems[0] and "0.9" in problems[0]
    problems = _problems({"eval": {"initial_socs": [0.5, 0.1]}})
    assert any("initial_socs" in p and "battery" in p for p in problems)


def test_non_mapping_root_is_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config([1, 2, 3])


def test_config_error_carries_the_problem_list():
    with pytest.raises(ConfigError) as exc:
        parse_config({"run": {"episodes": -1}, "nope": 1})
    assert len(exc.value.problems) == 2


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("label: from-file\nrun:\n  episodes: 7\n")
    config = load_config(path)
    assert config.label == "from-file"
    assert config.episodes == 7


def test_load_config_maps_missing_file_and_bad_yaml_to_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("label: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b"label: \xff\n")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read {latin}: 'utf-8' codec")):
        load_config(latin)
    with pytest.raises(ConfigError, match=re.escape(f"cannot read {tmp_path}: ")):
        load_config(tmp_path)


def test_a_yaml_syntax_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("label: [unclosed")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f'in "{bad}", line 1, column 8' in err and "<unicode string>" not in err


def test_to_dict_fingerprint_is_stable():
    a = config_fingerprint(parse_config({"label": "x"}).to_dict())
    b = config_fingerprint(parse_config({"label": "x"}).to_dict())
    c = config_fingerprint(parse_config({"label": "y"}).to_dict())
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


_WORDS = ["weighted", "maximum", "random", "single", "ensemble", "constant",
          "exponential", "step", "reciprocal", "PRDC-1-synthetic", "kind"]
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=6), st.sampled_from(_WORDS))
_ANY = st.recursive(_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
# Mostly plausible values, so that whole configs get accepted often enough
# for the finiteness check to bite; sometimes anything at all.
_NUMBER = st.one_of(st.floats(0.0, 1.0), st.integers(0, 30),
                    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -1]))
_VALUE = st.one_of(_NUMBER, _NUMBER, st.lists(_NUMBER, min_size=1, max_size=3),
                   st.sampled_from(_WORDS), _ANY)


def _section(keys, values=_VALUE):
    mapping = st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))
    return st.one_of(mapping, mapping, mapping, _ANY)


# A valid parameter set for each schedule kind.
_KIND_PARAMS = {"exponential": {}, "step": {"factor": 0.5, "width": 10},
                "reciprocal": {"decay_rate": 0.1}}
_SCHEDULE = _section(["kind", "initial", "factor", "width", "decay_rate"])
_AGENT = _section(["schedule"], st.one_of(_LEAF, _SCHEDULE))
_CONFIG = st.fixed_dictionaries({}, optional={
    "label": _LEAF,
    "cycle": _section(["builtin", "path"]),
    "run": _section(["mode", "episodes", "initial_soc", "seeds"]),
    "agents": _section(["a", "b"], _AGENT),
    "ensemble": _section(["kind", "mu", "delta", "t"]),
    "sweep": _section(["repeats", "base_seed", "episodes"]),
    "eval": _section(["cycles", "initial_socs"]),
    "dp": _section(["soc_nodes"]),
})

# One field set on the stock config: a bad value is then the only problem.
_FIELDS = [(section, key) for section, keys in (
    ("run", ["episodes", "initial_soc", "seeds"]),
    ("ensemble", ["mu", "t"]),
    ("sweep", ["repeats", "base_seed", "episodes"]), ("eval", ["initial_socs"]),
    ("dp", ["soc_nodes"])) for key in keys]
_ONE_FIELD = st.one_of(
    st.tuples(st.sampled_from(_FIELDS), _VALUE).map(lambda f: {f[0][0]: {f[0][1]: f[1]}}),
    st.tuples(st.sampled_from(list(_KIND_PARAMS)),
              st.sampled_from(["initial", "factor", "width", "decay_rate"]), _VALUE).map(
        lambda f: {"agents": {"b": {"schedule": {"kind": f[0], **_KIND_PARAMS[f[0]],
                                                 f[1]: f[2]}}}}))


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(_CONFIG, _ONE_FIELD))
@example(data={"agents": {"b": {"schedule": {"kind": "exponential", "initial": 1.0, "factor": 0.5,
                                             "width": 10, "decay_rate": 0.1}}}})
@example(data={"ensemble": {"kind": "random", "mu": 0.3}})
@example(data={"ensemble": {"kind": "weighted", "t": 0.2}})
def test_parse_config_raises_only_config_error_and_accepts_only_finite_numbers(data):
    try:
        config = parse_config(data)
    except ConfigError:
        return
    text = json.dumps(config.to_dict(), allow_nan=False)  # raises on NaN or infinity
    assert min(config.seeds) >= 0
    assert parse_config(json.loads(text)) == config
    # A given mu or t reaches the manifest under every kind, not only its own.
    ensemble = data.get("ensemble") if isinstance(data, dict) else None
    for key in ("mu", "t"):
        if isinstance(ensemble, dict) and ensemble.get(key) is not None:
            assert config.to_dict()["ensemble"][key] == ensemble[key]


@pytest.fixture
def workspace(tmp_path):
    """A tiny cycle CSV plus a config file pointing at it."""
    cycle_path = tmp_path / "cycle.csv"
    write_cycle_csv(DriveCycle(1.0, np.full(60, 40_000.0), "flat"), cycle_path)
    config = {
        "label": "cli-test",
        "cycle": {"path": str(cycle_path)},
        "run": {"episodes": 3, "seeds": [0]},
        "sweep": {"repeats": 2, "episodes": 1},
        "eval": {"cycles": [str(cycle_path)], "initial_socs": [0.5]},
        "dp": {"soc_nodes": 41},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    return tmp_path, cfg_path


def test_validate_prints_label_and_fingerprint(workspace, capsys):
    _, cfg = workspace
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK: cli-test (")
    fingerprint = out.split("(")[1].rstrip(")\n")
    assert fingerprint == config_fingerprint(load_config(cfg).to_dict())


def test_validate_rejects_a_broken_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("run:\n  mode: quintuple\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "config.run.mode" in capsys.readouterr().err


def test_missing_config_file_is_a_validation_failure(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "none.yaml")]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["not-utf-8", "directory"])
def test_unreadable_config_file_is_a_validation_failure(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.yaml"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"label: \xff\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert f"cannot read {cfg}" in capsys.readouterr().err


def _write_config(tmp, base, **sections):
    data = yaml.safe_load(base.read_text())
    data.update(sections)
    path = tmp / "variant.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


@pytest.mark.parametrize("sections,key", [
    ({"ensemble": {"kind": "weighted", "mu": math.nan}}, "config.ensemble.mu"),
    ({"plant": {"soc_ref": 0.3}}, "config.plant: unknown key"),
    ({"run": {"episodes": 1, "seeds": [-1]}}, "config.run.seeds"),
    # The state grid, the action ladder and the learner rates are fixed.
    ({"grids": {"p_dem_bins": 23}}, "config.grids: unknown key"),
    ({"agents": {"a": {"learning_rate": 0.5}}}, "config.agents.a.learning_rate: unknown key"),
    # A fixed theta is a reciprocal schedule with decay_rate 0.
    ({"agents": {"a": {"schedule": {"kind": "constant"}}}},
     "config.agents.a.schedule: kind must be one of "
     "('exponential', 'step', 'reciprocal'), got 'constant'"),
], ids=["mu-nan", "plant-section", "negative-seed", "grids-section",
        "agent-learning-rate", "constant-schedule"])
def test_learn_and_validate_reject_bad_numbers_as_config_errors(workspace, capsys,
                                                                sections, key):
    tmp, cfg = workspace
    bad = _write_config(tmp, cfg, **sections)
    assert main(["validate", "--config", str(bad)]) == 1
    assert key in capsys.readouterr().err
    assert main(["learn", "--config", str(bad), "--out", str(tmp / "run")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp / "run").exists()


def test_learn_rejects_a_negative_seed_override(workspace, capsys):
    tmp, cfg = workspace
    assert main(["learn", "--config", str(cfg), "--out", str(tmp / "neg"),
                 "--seed", "-1"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not (tmp / "neg").exists()  # checked before --out is created


@pytest.mark.parametrize("case", ["missing", "nan", "missing-eval"])
def test_every_command_rejects_a_bad_cycle_file_as_validate_does(workspace, capsys, case):
    tmp, cfg = workspace
    nan_csv = tmp / "nan.csv"
    nan_csv.write_text("t_s,p_dem_w\n0,1000\n1,nan\n")
    sections, key, name = {
        "missing": ({"cycle": {"path": "nope.csv"}}, "config.cycle", "nope.csv"),
        "nan": ({"cycle": {"path": str(nan_csv)}}, "config.cycle", "nan.csv"),
        "missing-eval": ({"eval": {"cycles": ["nope.csv"]}}, "config.eval.cycles",
                         "nope.csv"),
    }[case]
    bad = _write_config(tmp, cfg, **sections)
    for command in ("validate", "learn", "sweep", "eval", "dp"):
        out = tmp / f"out-{command}"
        argv = [command, "--config", str(bad)]
        if command != "validate":
            argv += ["--out", str(out)]
        if command == "eval":
            argv += ["--snapshots", str(tmp)]
        assert main(argv) == 1, command
        err = capsys.readouterr().err
        assert key in err and name in err, (command, err)
        assert not out.exists(), command  # checked before --out is created


def test_usage_errors_exit_with_the_validation_code():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--config", "x.yaml"])  # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_learn_writes_curve_snapshots_and_manifest(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "learning_curve.csv").is_file()
    assert (out / "qtable_A.json").is_file()
    assert not list(out.glob("qtable_B*"))  # the run's one table, saved once
    assert not (out / "trace.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "tugems"
    assert manifest["command"] == "learn"
    assert manifest["label"] == "cli-test"
    assert manifest["seeds"] == [0]
    assert manifest["artifacts"] == ["learning_curve.csv", "qtable_A.json"]
    assert manifest["config"] == load_config(cfg).to_dict()
    assert manifest["config_fingerprint"] == config_fingerprint(manifest["config"])
    assert "0" in manifest["final_episode"]
    assert manifest["rng_protocol"] == 2
    snapshot = json.loads((out / "qtable_A.json").read_text())
    assert snapshot["extra"]["rng_protocol"] == 2
    assert not any("time" in key or "date" in key for key in manifest)
    assert "seed 0: final efficiency" in capsys.readouterr().out

    curve = (out / "learning_curve.csv").read_text().splitlines()
    assert curve[0] == "episode,efficiency,oec_j,end_soc"
    assert len(curve) == 4  # header + 3 episodes


def test_learn_is_byte_identical_across_reruns(workspace):
    tmp, cfg = workspace
    out1, out2 = tmp / "r1", tmp / "r2"
    assert main(["learn", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["learn", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("learning_curve.csv", "qtable_A.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert not list(out1.glob("qtable_B*")) and not list(out2.glob("qtable_B*"))


def test_learn_seed_override_and_per_seed_suffixes(workspace):
    tmp, cfg = workspace
    out = tmp / "multi"
    assert main(["learn", "--config", str(cfg), "--out", str(out),
                 "--seed", "3", "--seed", "4"]) == 0
    for seed in (3, 4):
        assert (out / f"learning_curve_seed{seed}.csv").is_file()
        assert (out / f"qtable_A_seed{seed}.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [3, 4]


def test_learn_rejects_duplicate_seed_overrides(workspace, capsys):
    tmp, cfg = workspace
    code = main(["learn", "--config", str(cfg), "--out", str(tmp / "dup"),
                 "--seed", "3", "--seed", "3"])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err
    assert not (tmp / "dup").exists()


def test_learn_traces_flag_writes_the_final_episode(workspace):
    tmp, cfg = workspace
    out = tmp / "traced"
    assert main(["learn", "--config", str(cfg), "--out", str(out),
                 "--traces"]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t_s,state_idx,a_A,a_B,a_final,chooser,reward," \
                       "soc,p_egu_w,p_batt_w,forced"
    assert len(lines) == 61  # header + one row per cycle sample


def test_cli_never_mutates_the_config_file(workspace):
    tmp, cfg = workspace
    before = cfg.read_bytes()
    main(["learn", "--config", str(cfg), "--out", str(tmp / "x")])
    main(["validate", "--config", str(cfg)])
    assert cfg.read_bytes() == before


def test_eval_requires_existing_snapshots(workspace, capsys):
    tmp, cfg = workspace
    code = main(["eval", "--config", str(cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(tmp / "nowhere")])
    assert code == 2
    assert "run 'tugems learn' first" in capsys.readouterr().err


def test_eval_after_learn_writes_the_robustness_table(workspace, capsys):
    tmp, cfg = workspace
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    out = tmp / "ev"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--snapshots", str(run_dir)]) == 0
    lines = (out / "robustness.csv").read_text().splitlines()
    assert lines[0] == "cycle,init_soc,method,end_soc,oec_mj,savings_pct"
    assert len(lines) == 3  # one cycle x one SoC x (baseline, candidate)
    assert "savings" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["snapshots"] == str(run_dir)


def test_eval_falls_back_to_the_lowest_seed_snapshot(workspace):
    tmp, cfg = workspace
    run_dir = tmp / "multi"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir),
                 "--seed", "4", "--seed", "3"]) == 0
    assert not (run_dir / "qtable_A.json").is_file()  # suffixed names only
    out = tmp / "ev-multi"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--snapshots", str(run_dir)]) == 0
    rows = (out / "robustness.csv").read_text().splitlines()
    assert len(rows) == 3

    # the fallback must pick seed 3, not the lexicographically first file
    direct = tmp / "ev-seed3"
    single = tmp / "single3"
    assert main(["learn", "--config", str(cfg), "--out", str(single),
                 "--seed", "3"]) == 0
    assert main(["eval", "--config", str(cfg), "--out", str(direct),
                 "--snapshots", str(single)]) == 0
    assert ((out / "robustness.csv").read_text()
            == (direct / "robustness.csv").read_text())


def _count_loads(monkeypatch) -> list:
    """Record the path of every snapshot the CLI loads."""
    loads = []

    def counting(path, **kwargs):
        loads.append(Path(path))
        return load_qtable(path, **kwargs)

    monkeypatch.setattr("tugems.cli.load_qtable", counting)
    return loads


def test_eval_reads_only_agent_a_snapshot(workspace, monkeypatch):
    # a run saves its one table once; a qtable_B file beside it, as older
    # runs wrote one, is never opened, even when its values differ
    tmp, cfg = workspace
    run_dir = tmp / "multi"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir),
                 "--seed", "3", "--seed", "4"]) == 0
    snap_a = run_dir / "qtable_A_seed3.json"
    loads = _count_loads(monkeypatch)

    def evaluate(name, *extra):
        loads.clear()
        out = tmp / name
        assert main(["eval", "--config", str(cfg), "--out", str(out),
                     "--snapshots", str(run_dir), *extra]) == 0
        return (out / "robustness.csv").read_bytes()

    alone = evaluate("ev-alone")
    assert loads == [snap_a]
    stale = run_dir / "qtable_B_seed3.json"
    doc = json.loads(snap_a.read_text())
    doc["schedule"] = load_config(cfg).agent_b.schedule.to_dict()
    doc["values"][0][0] += 1.0
    stale.write_text(json.dumps(doc))
    assert evaluate("ev-beside") == alone
    assert loads == [snap_a]
    copy_dir = tmp / "copy"
    copy_dir.mkdir()
    copy = copy_dir / snap_a.name
    copy.write_bytes(snap_a.read_bytes())
    evaluate("ev-baseline", "--baseline-snapshots", str(copy_dir))
    assert loads == [snap_a, copy]


def test_eval_against_its_own_snapshot_loads_and_runs_it_once(workspace, monkeypatch):
    # a baseline that is the candidate's own file, by any path, is the
    # candidate's agent: one load and one episode per (cycle, SoC), as
    # without the flag, and the same bytes
    tmp, cfg = workspace
    variant = _write_config(tmp, cfg, eval={"cycles": [str(tmp / "cycle.csv")],
                                            "initial_socs": [0.3, 0.6]})
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(variant), "--out", str(run_dir)]) == 0
    (tmp / "link").symlink_to(run_dir, target_is_directory=True)
    loads = _count_loads(monkeypatch)
    episodes = count_eval_episodes(monkeypatch)

    def evaluate(name, *extra):
        loads.clear()
        episodes.clear()
        out = tmp / name
        assert main(["eval", "--config", str(variant), "--out", str(out),
                     "--snapshots", str(run_dir), *extra]) == 0
        return (out / "robustness.csv").read_bytes()

    alone = evaluate("ev-alone")
    assert (len(loads), len(episodes)) == (1, 2)
    for baseline in (run_dir, tmp / "link"):
        assert evaluate(f"ev-{baseline.name}", "--baseline-snapshots", str(baseline)) == alone
        assert (len(loads), len(episodes)) == (1, 2)


@pytest.mark.parametrize("case", ["missing", "malformed", "huge-integer", "missing-baseline"])
def test_eval_checks_its_snapshots_before_it_creates_out(workspace, capsys, case):
    tmp, cfg = workspace
    run_dir = tmp / "multi"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir),
                 "--seed", "3", "--seed", "4"]) == 0
    snap_a = run_dir / "qtable_A_seed3.json"
    snapshots, extra = run_dir, []
    if case == "missing":
        snapshots = tmp / "nowhere"
        message = "run 'tugems learn' first"
    elif case == "malformed":
        snap_a.write_text("{")
        message = f"tugems: {snap_a}: "
    elif case == "huge-integer":  # one too large for a float
        doc = json.loads(snap_a.read_text())
        doc["values"][0][0] = 10**399
        snap_a.write_text(json.dumps(doc))
        message = f"tugems: {snap_a}: int too large to convert to float"
    else:
        extra = ["--baseline-snapshots", str(tmp / "nowhere")]
        message = "run 'tugems learn' first"
    out = tmp / "ev"
    code = main(["eval", "--config", str(cfg), "--out", str(out),
                 "--snapshots", str(snapshots), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["weighted", "maximum", "random"])
def test_eval_ensemble_rows_equal_their_own_agent_a_baseline(workspace, kind):
    # frozen agents on one table both propose its greedy action, so every
    # rule executes agent A's greedy policy and saves exactly nothing
    tmp, cfg = workspace
    variant = _write_config(tmp, cfg, cycle={"builtin": "PRDC-1-synthetic"},
                            ensemble={"kind": kind},
                            eval={"cycles": ["PRDC-2-synthetic"],
                                  "initial_socs": [0.3, 0.6]})
    run_dir, out = tmp / "run", tmp / "ev"
    assert main(["learn", "--config", str(variant), "--out", str(run_dir)]) == 0
    assert main(["eval", "--config", str(variant), "--out", str(out),
                 "--snapshots", str(run_dir)]) == 0
    rows = [line.split(",") for line in
            (out / "robustness.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for base, cand in zip(rows[0::2], rows[1::2]):
        assert (base[2], cand[2]) == ("step", kind)
        assert cand[3:5] == base[3:5]  # end_soc, oec_mj
        assert float(cand[5]) == 0.0


def test_eval_labels_ensemble_rows_with_the_rule_the_snapshot_records(workspace):
    # learned under maximum, evaluated with a config saying random: the
    # snapshot's rule labels the rows, the config's ensemble section is unread
    tmp, cfg = workspace
    run_dir, out = tmp / "run", tmp / "ev"
    learned = _write_config(tmp, cfg, ensemble={"kind": "maximum"})
    assert main(["learn", "--config", str(learned), "--out", str(run_dir)]) == 0
    assert json.loads((run_dir / "qtable_A.json").read_text())["extra"]["rule"] == "maximum"
    evaluated = _write_config(tmp, cfg, ensemble={"kind": "random", "t": 0.3})
    assert main(["eval", "--config", str(evaluated), "--out", str(out),
                 "--snapshots", str(run_dir)]) == 0
    rows = (out / "robustness.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["step", "maximum"]


@pytest.mark.parametrize("rule", [None, "best", "missing"])
def test_eval_rejects_an_ensemble_snapshot_without_its_rule_before_it_creates_out(
        workspace, capsys, rule):
    tmp, cfg = workspace
    run_dir, out = tmp / "run", tmp / "ev"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    snap = run_dir / "qtable_A.json"
    doc = json.loads(snap.read_text())
    if rule == "missing":
        del doc["extra"]["rule"]
    else:
        doc["extra"]["rule"] = rule
    snap.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(cfg), "--out", str(out), "--snapshots", str(run_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"tugems: {snap}: ensemble snapshot records no rule" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_runs_a_single_mode_snapshot_without_agent_b(workspace):
    tmp, cfg = workspace
    single_cfg = _write_config(tmp, cfg, run={"mode": "single", "episodes": 2})
    run_dir = tmp / "single"
    assert main(["learn", "--config", str(single_cfg), "--out", str(run_dir)]) == 0
    assert not (run_dir / "qtable_B.json").exists()
    assert main(["eval", "--config", str(single_cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(run_dir)]) == 0


def test_eval_with_a_separately_trained_baseline(workspace):
    tmp, cfg = workspace
    ens_dir, base_dir = tmp / "ens", tmp / "base"
    assert main(["learn", "--config", str(cfg), "--out", str(ens_dir)]) == 0
    base_cfg = tmp / "base.yaml"
    data = yaml.safe_load(cfg.read_text())
    data["run"]["mode"] = "single"
    base_cfg.write_text(yaml.safe_dump(data))
    assert main(["learn", "--config", str(base_cfg), "--out",
                 str(base_dir)]) == 0
    assert not (base_dir / "qtable_B.json").exists()
    out = tmp / "ev2"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--snapshots", str(ens_dir),
                 "--baseline-snapshots", str(base_dir)]) == 0
    rows = (out / "robustness.csv").read_text().splitlines()[1:]
    methods = [row.split(",")[2] for row in rows]
    assert methods == ["step", "weighted"]  # baseline labeled by its schedule


def test_dp_writes_the_reference_schedule(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "dp"
    assert main(["dp", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "dp.csv").read_text().splitlines()
    assert lines[0] == "t_s,p_egu_w"
    assert len(lines) == 61
    t, p = lines[1].split(",")
    assert float(t) == 0.0
    assert float(p) in [8_620.0 * i for i in range(11)]
    assert "dp cost" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "dp"
    assert manifest["cost_j"] > 0.0
    assert manifest["rollout_cost_j"] > 0.0


def test_validate_and_dp_accept_two_soc_nodes_and_reject_one(tmp_path, capsys):
    # one minimum: validate accepts exactly the grids the solver runs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"run": {"initial_soc": 0.5}, "dp": {"soc_nodes": 2}}))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["dp", "--config", str(cfg), "--out", str(tmp_path / "dp")]) == 0
    assert "dp cost 95.1644 MJ (rollout 32.4384 MJ" in capsys.readouterr().out
    cfg.write_text(yaml.safe_dump({"dp": {"soc_nodes": 1}}))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "config.dp.soc_nodes: must be >= 2, got 1" in capsys.readouterr().err
    assert main(["dp", "--config", str(cfg), "--out", str(tmp_path / "dp1")]) == 1
    assert "config.dp.soc_nodes" in capsys.readouterr().err


def test_dp_names_a_node_count_too_large_to_allocate(tmp_path, capsys):
    # the bound keeps the value table within a few hundred MB: a count past
    # it is a config error, named before anything is allocated
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"dp": {"soc_nodes": 25_601}}))
    assert main(["validate", "--config", str(cfg)]) == 0
    for nodes in (25_602, 10**15):
        cfg.write_text(yaml.safe_dump({"run": {"initial_soc": 0.5},
                                       "dp": {"soc_nodes": nodes}}))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"config.dp.soc_nodes: must be <= 25601, got {nodes}" in capsys.readouterr().err
        assert main(["dp", "--config", str(cfg), "--out", str(tmp_path / "dp")]) == 1
        assert "config.dp.soc_nodes" in capsys.readouterr().err
        assert not (tmp_path / "dp").exists()


def test_dp_exits_2_when_the_solve_runs_out_of_memory(tmp_path, capsys, monkeypatch):
    # a MemoryError is a runtime failure, reported on one line; the solve is
    # replaced so that nothing is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.0 PiB for an array")

    monkeypatch.setattr("tugems.cli.dp_baseline", out_of_memory)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"run": {"initial_soc": 0.5}}))
    assert main(["dp", "--config", str(cfg), "--out", str(tmp_path / "dp")]) == 2
    err = capsys.readouterr().err
    assert err == "tugems: Unable to allocate 8.0 PiB for an array\n"


def test_sweep_writes_one_row_per_proportion(workspace, capsys):
    tmp, cfg = workspace
    out = tmp / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "mu,delta,mean_eff,std_eff,repeats"
    assert len(lines) == 10  # 0.1 .. 0.9
    assert [line.split(",")[0] for line in lines[1:]] == [
        "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]
    assert "best proportion" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert 0.1 <= manifest["best_mu"] <= 0.9
    assert manifest["rng_protocol"] == 2


@pytest.mark.parametrize("workers,problem", [
    ("0", "must be at least 1, got 0"), ("-2", "must be at least 1, got -2"),
    ("two", "expected an integer, got 'two'")])
def test_sweep_rejects_fewer_than_one_worker(workspace, capsys, workers, problem):
    tmp, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(tmp / "sweep"),
              "--workers", workers])
    assert exc.value.code == 1
    assert f"argument --workers: {problem}" in capsys.readouterr().err
    assert not (tmp / "sweep").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tugems ")


def test_a_boolean_schedule_width_is_a_config_error(workspace, capsys):
    tmp, cfg = workspace
    doc = yaml.safe_load(cfg.read_text())
    doc["agents"] = {"a": {"schedule": {"kind": "step", "factor": 0.5, "width": True}}}
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert main(["learn", "--config", str(cfg), "--out", str(tmp / "run")]) == 1
    assert "width must be a number, got True" in capsys.readouterr().err
    assert not (tmp / "run" / "manifest.json").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda sched: sched.update(initial="x"), "initial must be a number, got 'x'"),
    (lambda sched: sched.pop("kind"), "kind is missing"),
    (lambda sched: sched.update(decay_rate=0.1), "step schedule takes no decay_rate"),
    (lambda sched: sched.update(kind="constant"),
     "kind must be one of ('exponential', 'step', 'reciprocal'), got 'constant'"),
], ids=["string-initial", "no-kind", "foreign-parameter", "constant-kind"])
def test_eval_on_a_malformed_snapshot_schedule_exits_with_the_runtime_code(
        workspace, capsys, edit, message):
    tmp, cfg = workspace
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    snap = run_dir / "qtable_A.json"
    doc = json.loads(snap.read_text())
    edit(doc["schedule"])
    snap.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(run_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{snap}: snapshot schedule: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("null_edge", [False, True], ids=["missing-key", "null-edge"])
def test_eval_on_a_malformed_snapshot_exits_with_the_runtime_code(workspace, capsys,
                                                                  null_edge):
    tmp, cfg = workspace
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    snap = run_dir / "qtable_A.json"
    doc = json.loads(snap.read_text())
    if null_edge:
        doc["soc_edges"][1] = None
    else:
        del doc["soc_edges"]
    snap.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(run_dir)])
    assert code == 2
    err = capsys.readouterr().err
    problem = "must hold numbers only" if null_edge else "is missing"
    assert f"{snap}: snapshot key 'soc_edges' {problem}" in err
    assert "Traceback" not in err


def _swap_soc_edges(text):
    doc = json.loads(text)
    edges = doc["soc_edges"]
    edges[1], edges[2] = edges[2], edges[1]
    return json.dumps(doc)


@pytest.mark.parametrize("edit,message", [
    (_swap_soc_edges, "soc_edges must be strictly ascending"),
    (lambda text: text.replace('"values": [[0.0', '"values": [[NaN', 1),
     "snapshot contains a non-finite number (NaN)"),
    (lambda text: "{" + text[2:], "Expecting property name enclosed in double quotes"),
], ids=["swapped-soc-edges", "nan-token", "not-json"])
def test_eval_names_the_snapshot_that_fails_to_parse(workspace, capsys, edit, message):
    tmp, cfg = workspace
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    snap = run_dir / "qtable_A.json"
    text = snap.read_text()
    snap.write_text(edit(text))
    assert snap.read_text() != text
    code = main(["eval", "--config", str(cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(run_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"tugems: {snap}: {message}" in err
    assert "Traceback" not in err
