"""The benchmark counts a command whose artifacts are corrupted as failed.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tugems import cli  # noqa: E402


def _tiny_learn(tmp_path: Path) -> workloads.Command:
    config = tmp_path / "tiny.yaml"
    config.write_text("run: {mode: single, episodes: 3}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["learn", "--config", str(config), "--out", str(out), "--seed", "5"]
    return workloads.Command("tiny", "learn", argv, out, 3 * 960, config)


@pytest.fixture
def learned(tmp_path: Path) -> Path:
    command = _tiny_learn(tmp_path)
    assert cli.main(command.argv) == 0
    return command.out


def test_clean_artifacts_pass(learned):
    problems, files = checks.command_problems("learn", learned, 0, None)
    assert problems == []
    assert checks.command_problems("learn", learned, 0, files)[0] == []


@pytest.mark.parametrize("name, text", [
    ("learning_curve.csv", "episode,efficiency,oec_j,end_soc\n"),
    ("learning_curve.csv", "episode,efficiency,oec_j,end_soc\n0,0.3,1.0,0.2\n"),
    ("learning_curve.csv", "episode,efficiency,oec_j,end_soc\n0,0.3,1.0\n"),
    ("qtable_A.json", "{not json"),
    ("manifest.json", "[]"),
])
def test_corrupted_artifact_is_a_problem(learned, name, text):
    (learned / name).write_text(text, encoding="utf-8")
    assert checks.command_problems("learn", learned, 0, None)[0]


def test_changed_bytes_differ_from_the_first_run(learned):
    _, reference = checks.command_problems("learn", learned, 0, None)
    snapshot = learned / "qtable_A.json"
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    snapshot.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    problems, _ = checks.command_problems("learn", learned, 0, reference)
    assert problems == ["artifacts differ from the first run of this command"]


def test_missing_artifact_and_nonzero_exit_are_problems(learned):
    assert checks.command_problems("learn", learned, 2, None)[0]
    (learned / "qtable_A.json").unlink()
    assert checks.command_problems("learn", learned, 0, None)[0]


def test_dp_rollout_below_the_slack_bound_is_a_problem(tmp_path):
    (tmp_path / "dp.csv").write_text("t_s,p_egu_w\n0.0,0.0\n", encoding="utf-8")
    doc = {"artifacts": ["dp.csv"], "cost_j": 10.0, "slack_j": 1.0,
           "rollout_cost_j": 9.5, "rollout_end_soc": 0.3}
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert checks.command_problems("dp", tmp_path, 0, None)[0] == []
    doc["rollout_cost_j"] = 8.5
    (tmp_path / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    assert checks.command_problems("dp", tmp_path, 0, None)[0]


class _CorruptingCli:
    """The real CLI, followed by damage to the learning curve it wrote."""

    @staticmethod
    def main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        (out / "learning_curve.csv").write_text("episode\n", encoding="utf-8")
        return code


def test_bench_counts_a_corrupted_artifact_as_a_failed_command(tmp_path):
    command = _tiny_learn(tmp_path)
    workload = workloads.Workload("tiny", [command])

    clean = run.Bench(workload, cli)
    clean.run(workload.commands)
    clean.run(workload.commands)
    assert (clean.attempted, clean.failed) == (2, 0)

    corrupting = run.Bench(workload, _CorruptingCli)
    corrupting.run(workload.commands)
    assert (corrupting.attempted, corrupting.failed) == (1, 1)
    assert "learning_curve.csv" in corrupting.failures[0]
