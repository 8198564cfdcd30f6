"""YAML config parsing and the command-line front end."""

import json

import numpy as np
import pytest
import yaml

from tugems.cli import main
from tugems.config import (DEFAULT_CONFIG, ConfigError, load_config,
                           parse_config, validate_config)
from tugems.drive_cycle import DriveCycle, save_cycle
from tugems.experiment import config_fingerprint

# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


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
        "cycle": {"builtin": "PRDC-3-synthetic", "dt_s": 0.5},
        "run": {"mode": "single", "episodes": 10, "initial_soc": 0.6,
                "seeds": [4, 5]},
        "grids": {"p_dem_bins": 10, "soc_bins": 8, "action_levels": 5},
        "agents": {
            "a": {"learning_rate": 0.3, "discount": 0.9,
                  "schedule": {"kind": "reciprocal", "initial": 0.7,
                               "decay_rate": 0.2}},
            "b": {"schedule": {"kind": "constant", "initial": 0.4}},
        },
        "ensemble": {"kind": "random", "t": 0.25},
        "plant": {"soc_ref": 0.3},
        "sweep": {"repeats": 5, "base_seed": 2, "episodes": 20},
        "eval": {"cycles": ["PRDC-2-synthetic"], "initial_socs": [0.4]},
        "dp": {"soc_nodes": 51},
    })
    assert config.label == "exp-7"
    assert config.cycle_builtin == "PRDC-3-synthetic"
    assert config.mode == "single"
    assert config.seeds == (4, 5)
    assert config.agent_a.schedule.kind == "reciprocal"
    assert config.agent_a.learning_rate == 0.3
    assert config.agent_b.schedule.initial == 0.4
    assert config.policy.kind == "random"
    assert config.policy.t == 0.25
    assert config.plant_overrides == (("soc_ref", 0.3),)
    assert config.build_models().soc_ref == 0.3
    assert config.sweep_repeats == 5
    assert config.eval_cycles == ("PRDC-2-synthetic",)
    assert config.dp_soc_nodes == 51
    grid, actions = config.build_grids()
    assert grid.n_states == 80
    assert actions.n_actions == 5


def test_unknown_keys_are_all_reported_with_dotted_paths():
    problems = validate_config({
        "episods": 250,
        "run": {"mode": "ensemble", "warmup": 3},
        "grids": {"p_dem_bin": 23},
    })
    joined = "\n".join(problems)
    assert "config.episods: unknown key" in joined
    assert "config.run.warmup: unknown key" in joined
    assert "config.grids.p_dem_bin: unknown key" in joined
    assert len(problems) == 3


def test_weight_sum_violation_is_named():
    problems = validate_config({"ensemble": {"kind": "weighted",
                                             "mu": 0.6, "delta": 0.6}})
    assert len(problems) == 1
    assert "config.ensemble" in problems[0]
    assert "mu + delta" in problems[0]


def test_schedule_initial_out_of_range_is_named():
    problems = validate_config({
        "agents": {"a": {"schedule": {"kind": "constant", "initial": 1.3}}}})
    assert len(problems) == 1
    assert problems[0].startswith("config.agents.a.schedule")
    assert "initial" in problems[0]


def test_schedule_requires_its_kind():
    problems = validate_config({"agents": {"b": {"schedule": {"initial": 0.5}}}})
    assert any("config.agents.b.schedule.kind" in p for p in problems)


def test_all_problems_come_back_at_once():
    problems = validate_config({
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
    problems = validate_config({"cycle": {"builtin": "PRDC-1-synthetic",
                                          "path": "x.csv"}})
    assert any("not both" in p for p in problems)


def test_seed_list_validation():
    assert validate_config({"run": {"seeds": [0, 1, 2]}}) == []
    assert any("duplicate" in p
               for p in validate_config({"run": {"seeds": [1, 1]}}))
    assert any("list of integers" in p
               for p in validate_config({"run": {"seeds": "abc"}}))
    assert any("list of integers" in p
               for p in validate_config({"run": {"seeds": []}}))


def test_initial_soc_must_sit_inside_the_battery_window():
    problems = validate_config({"run": {"initial_soc": 0.9}})
    assert len(problems) == 1
    assert "battery" in problems[0] and "0.9" in problems[0]
    problems = validate_config({"eval": {"initial_socs": [0.5, 0.1]}})
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


def test_to_dict_fingerprint_is_stable():
    a = config_fingerprint(parse_config({"label": "x"}).to_dict())
    b = config_fingerprint(parse_config({"label": "x"}).to_dict())
    c = config_fingerprint(parse_config({"label": "y"}).to_dict())
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


@pytest.fixture
def workspace(tmp_path):
    """A tiny cycle CSV plus a config file pointing at it."""
    cycle_path = tmp_path / "cycle.csv"
    save_cycle(DriveCycle(1.0, np.full(60, 40_000.0), "flat"), cycle_path)
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
    assert (out / "qtable_B.json").is_file()
    assert not (out / "trace.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "tugems"
    assert manifest["command"] == "learn"
    assert manifest["label"] == "cli-test"
    assert manifest["seeds"] == [0]
    assert manifest["artifacts"] == sorted(
        ["learning_curve.csv", "qtable_A.json", "qtable_B.json"])
    assert manifest["config"] == load_config(cfg).to_dict()
    assert manifest["config_fingerprint"] == config_fingerprint(manifest["config"])
    assert "0" in manifest["final_episode"]
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
    for name in ("learning_curve.csv", "qtable_A.json", "qtable_B.json",
                 "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tugems ")


def test_eval_on_a_malformed_snapshot_exits_with_the_runtime_code(workspace, capsys):
    tmp, cfg = workspace
    run_dir = tmp / "run"
    assert main(["learn", "--config", str(cfg), "--out", str(run_dir)]) == 0
    snap = run_dir / "qtable_A.json"
    doc = json.loads(snap.read_text())
    del doc["soc_edges"]
    snap.write_text(json.dumps(doc))
    code = main(["eval", "--config", str(cfg), "--out", str(tmp / "ev"),
                 "--snapshots", str(run_dir)])
    assert code == 2
    assert "'soc_edges' is missing" in capsys.readouterr().err
