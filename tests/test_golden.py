"""Golden artifact fingerprints: the CLI's outputs, pinned by sha256.

Each case runs ``learn`` (2 seeds, 10 episodes, the first 480 s of
PRDC-1, with ``--traces``), then ``eval`` and ``dp`` on that output, all
through ``tugems.cli.main``, and compares the sha256 of every artifact
against the values pinned below.  A refactor of the plant or the episode
loop must leave them byte-identical; a deliberate behaviour change re-pins
them once and says why in CHANGES.md.

Paths in the configs and on the command line are relative to the working
directory, because manifests record them verbatim.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from tugems.cli import main
from conftest import write_cycle_csv
from tugems.drive_cycle import DriveCycle, builtin_cycle

PREFIX_S = 480

CASES = {
    "ensemble-weighted": {"mode": "ensemble", "ensemble": {"kind": "weighted", "mu": 0.6}},
    "ensemble-maximum": {"mode": "ensemble", "ensemble": {"kind": "maximum"}},
    "ensemble-random": {"mode": "ensemble", "ensemble": {"kind": "random", "t": 0.3}},
    "single": {"mode": "single", "ensemble": {"kind": "weighted", "mu": 0.5}},
}

GOLDEN = {
    "ensemble-maximum": {
        "run/learning_curve_seed0.csv":
            "6fea1ca9ba2e54c82f0c5b2db530091901db6aea02b3ed95640913039c9693b5",
        "run/learning_curve_seed1.csv":
            "31e504363f86d93632dc1df9461e590e255f4cbd0513b669f48d186121ab831b",
        "run/manifest.json":
            "de4d8b1da32d7fb7f1c3b7be054003f7771fde462d8e6a0810fc382f9dced945",
        "run/qtable_A_seed0.json":
            "14a246d7d30f38d6bcb151f8ea1a079e7314d4b365cc6b31b44b2001f8da8365",
        "run/qtable_A_seed1.json":
            "1b0002d6870f1474722a9ee2da017a020323a22504e0576f2bb1cf5803b98685",
        "run/trace_seed0.csv":
            "5ab03fd55b0c39cd59cc61ef258f18c676176c91cc6f06a0c7f095e935508a08",
        "run/trace_seed1.csv":
            "cd0d169fdcee8536fd0b595e4359806dd14f8ff0362a9904df9c3d7fd3c8bbab",
        "eval/manifest.json":
            "bef05dd5cef934042c0d4968053f2131d1db63adb8c759a16f78d4c38a9fca52",
        "eval/robustness.csv":
            "a6f65ec6ff04ea588d29640a3f627be034f93c0d79337f5dee74162f260bb888",
        "dp/dp.csv":
            "05c313bede751c70b75940c0d39088f409fc5909d3b617b9a591580d7eb372ff",
        "dp/manifest.json":
            "4e8e96e402b005c55ea1ab197e1699faf994562b90939fb81e475c42bd9e0816",
    },
    "ensemble-random": {
        "run/learning_curve_seed0.csv":
            "427ccf7f4b34951001dcc2408314d89ac7317a0881969461d5f5f0dd9ac49a8b",
        "run/learning_curve_seed1.csv":
            "80b6ee190f02dff7d1a3fbfa01cfd74b824829bee0bd5b58b470775788c4265f",
        "run/manifest.json":
            "e186c0bc520b73f96dc7c723c7b92ac99930622dec9fd371ca1b22843d0951c6",
        "run/qtable_A_seed0.json":
            "5a5b1956e32da2e419c1ab14a97f56d6efd086881a6d1dc9c7e875640361ae3d",
        "run/qtable_A_seed1.json":
            "034c537031f6f46be61c1d9a9ed4184e371e153628837f37223b0f5610eef2c8",
        "run/trace_seed0.csv":
            "d4944a2aea9c47f4ab22cf1f5bc715562c21042602b0b1bf5aa8d97b49245dec",
        "run/trace_seed1.csv":
            "59ff39a92c2ec5e8c84aab9e5983ebc7bb9716e7327a1be906c9e45310564a69",
        "eval/manifest.json":
            "3e7f338e898011735ac63d748b0468bdaf11ac46a7e677de330bf2e67edb30dc",
        "eval/robustness.csv":
            "ec800491d0133da62fdd31440527b26f6a93bf95fe5af6adc9b537ebc35de4d0",
        "dp/dp.csv":
            "05c313bede751c70b75940c0d39088f409fc5909d3b617b9a591580d7eb372ff",
        "dp/manifest.json":
            "33d14eadcd5e9e8c0a8af9d60b1b84ef6038fa1f30b94d64ab94da9c0ca1cbff",
    },
    "ensemble-weighted": {
        "run/learning_curve_seed0.csv":
            "d058cc19fa2c16d8081209a0f853024368db3eac8e976737e68deddd93ea3163",
        "run/learning_curve_seed1.csv":
            "28020a0c7134191cfac768569067a84a446e822eb5e7295b0f98ad0b4ab370ae",
        "run/manifest.json":
            "9da8cc688d640f7f3851b5c67a7a810467443f936eb2946be2fa730bcd7bf84e",
        "run/qtable_A_seed0.json":
            "81debc1d0e517f62150fc9a073b1f8c3f3aa9e0adfd4bfb4d81904bdf6206b6f",
        "run/qtable_A_seed1.json":
            "ed64a47f35b91c807cb6c9c3bd9a47a7c19ea5fd9862599c172773c9b0b92592",
        "run/trace_seed0.csv":
            "1e2c9df81ba581edcbe09d136c65bbbd2d3c37fab610fb842a724500b9ba24c2",
        "run/trace_seed1.csv":
            "aa91f1e4c8a77fb71875636a860dac353d8d7a720cd975df69758cedc3304fca",
        "eval/manifest.json":
            "43d946e7d8d9e5e9f551a9624238f29787d3f1eae89407c091a07948e687ebdc",
        "eval/robustness.csv":
            "bc71cb3d1eee2c13ec911d00b7a8e073b34bc74800e2b5088a879f4a434c2485",
        "dp/dp.csv":
            "05c313bede751c70b75940c0d39088f409fc5909d3b617b9a591580d7eb372ff",
        "dp/manifest.json":
            "dc5cd91ea7be276615196dd824f866de3c67cfaeb2c1f729b7f12f311e9ae5b5",
    },
    "single": {
        "run/learning_curve_seed0.csv":
            "29c82a36fce1b453cd98df18fc98467a378ee6db18c6a93fe76ec85705eaa0eb",
        "run/learning_curve_seed1.csv":
            "3dff1eac2e2afc7963d47f4e7366ff8a70e995357a250c115cf5743e20dfeecc",
        "run/manifest.json":
            "c7a646fdb231dbabb14f43c4501ca12afc50d457fbedfab0e2e5ebfd7e769f72",
        "run/qtable_A_seed0.json":
            "366d4de932fc4c8c5bb9d2ab8b64a83206985c3410ca103ff90987b57ec5cfc1",
        "run/qtable_A_seed1.json":
            "1ffdab99cc50f65ce2aefae959a4fac99fbc64ea20e7dd4ad572736cb2607074",
        "run/trace_seed0.csv":
            "7aa29d61e23272ccf0b404f399bd38abc50ed9629911b4d72c5619c423102908",
        "run/trace_seed1.csv":
            "922c8142a872fa6813f0dc6c03856dbf31cad744ba0e539dcf81ad3c58a50650",
        "eval/manifest.json":
            "0e8476a518c979607ba841983892c1e1283a57b423d62eebbfc991db47666dae",
        "eval/robustness.csv":
            "3fe6cce34c5aea26df6c7ebe923499ed03e2a56d0833f8e9d370fabf9312136a",
        "dp/dp.csv":
            "05c313bede751c70b75940c0d39088f409fc5909d3b617b9a591580d7eb372ff",
        "dp/manifest.json":
            "d9a791febd049e95bf63b1b08bf63a3fae2f12a5b56ef1427c5705816186ce6c",
    },
}


def _run_case(name: str) -> dict[str, str]:
    case = CASES[name]
    full = builtin_cycle("PRDC-1-synthetic")
    write_cycle_csv(DriveCycle(full.dt_s, full.demand_w[:PREFIX_S], "PRDC-1-480"),
                    "prdc1_480.csv")
    config = {
        "label": f"golden-{name}",
        "cycle": {"path": "prdc1_480.csv"},
        "run": {"mode": case["mode"], "episodes": 10, "seeds": [0, 1],
                "initial_soc": 0.5},
        "ensemble": case["ensemble"],
        "eval": {"cycles": ["prdc1_480.csv", "PRDC-2-synthetic"],
                 "initial_socs": [0.3, 0.6]},
        "dp": {"soc_nodes": 61},
    }
    with open("cfg.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)
    for argv in (["learn", "--config", "cfg.yaml", "--out", "run", "--traces"],
                 ["eval", "--config", "cfg.yaml", "--out", "eval", "--snapshots", "run"],
                 ["dp", "--config", "cfg.yaml", "--out", "dp"]):
        assert main(argv) == 0, argv
    digests = {}
    for out in ("run", "eval", "dp"):
        for path in sorted(Path(out).iterdir()):
            digests[f"{out}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_golden_fingerprints(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_case(name) == GOLDEN[name]
