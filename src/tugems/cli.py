"""Command-line front end.

Subcommands::

    tugems validate --config cfg.yaml
    tugems learn    --config cfg.yaml --out runs/x [--seed N ...] [--traces]
    tugems sweep    --config cfg.yaml --out runs/x [--workers K]
    tugems eval     --config cfg.yaml --out runs/x --snapshots runs/x
                    [--baseline-snapshots DIR]
    tugems dp       --config cfg.yaml --out runs/x

Exit codes: 0 on success, 1 for configuration or argument problems (a cycle
file that will not load included), 2 for runtime failures (missing
snapshots, infeasible constraints, I/O).  Every command builds the config's
cycles before it creates ``--out``, so each runs exactly the configs
``validate`` accepts; ``eval`` also loads its snapshots first.
Artifacts (CSV tables, Q-table snapshots, ``manifest.json``) carry no
timestamps, so rerunning a command over the same config reproduces them
byte for byte.  Output files, snapshots included, are written atomically
(a uniquely named temp file, then rename) and the config file itself is
never touched.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .dp import dp_baseline, dp_slack_energy_j
from .drive_cycle import DriveCycle
from .experiment import (RunSetup, config_fingerprint, robustness_eval,
                         run_learning, sweep_weights, write_dp_csv,
                         write_learning_curve_csv, write_robustness_csv,
                         write_sweep_csv, write_trace_csv)
from .qlearn import RNG_PROTOCOL, Agent, load_qtable, make_rng, save_qtable, write_atomic

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message: str) -> None:  # noqa: D401 (argparse contract)
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _worker_count(text: str) -> int:
    """``--workers``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tugems",
                     description="Tabular Q-learning energy management for a "
                                 "series-hybrid towing tractor.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p: argparse.ArgumentParser, out: bool = True) -> None:
        p.add_argument("--config", required=True, metavar="FILE",
                       help="YAML run configuration")
        if out:
            p.add_argument("--out", required=True, metavar="DIR",
                           help="directory for artifacts (created if missing)")

    p_learn = sub.add_parser("learn", help="train agents and write the "
                                           "learning curve and Q-table snapshots")
    common(p_learn)
    p_learn.add_argument("--seed", type=int, action="append", metavar="N",
                         help="override config seeds (repeatable)")
    p_learn.add_argument("--traces", action="store_true",
                         help="also write per-step traces of the final episode")

    p_sweep = sub.add_parser("sweep", help="sweep the weighted-combination "
                                           "proportion and write sweep.csv")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=_worker_count, default=1, metavar="K",
                         help="parallel worker processes (default 1)")

    p_eval = sub.add_parser("eval", help="frozen-policy robustness table from "
                                         "trained snapshots")
    common(p_eval)
    p_eval.add_argument("--snapshots", required=True, metavar="DIR",
                        help="directory holding qtable_A.json; multi-seed runs "
                             "fall back to the lowest _seedN snapshot")
    p_eval.add_argument("--baseline-snapshots", metavar="DIR",
                        help="directory holding the baseline qtable_A.json "
                             "(defaults to the ensemble's own agent A)")

    p_dp = sub.add_parser("dp", help="dynamic-programming reference cost for "
                                     "the configured cycle")
    common(p_dp)

    p_val = sub.add_parser("validate", help="check a config file and print "
                                            "its fingerprint")
    common(p_val, out=False)
    return parser


def _write_manifest(out: Path, command: str, config: RunConfig,
                    artifacts: list[str], extra: dict | None = None) -> None:
    doc = {
        "tool": "tugems",
        "tool_version": __version__,
        "command": command,
        "label": config.label,
        "config_fingerprint": config_fingerprint(config.to_dict()),
        "config": config.to_dict(),
        "artifacts": sorted(artifacts),
    }
    if extra:
        doc.update(extra)
    write_atomic(out / "manifest.json",
                 json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load(path: str) -> tuple[RunConfig, DriveCycle, list[DriveCycle]]:
    """Load the config and build its learning and eval cycles, once each; a
    cycle that will not build is a config error."""
    config = load_config(path)
    cycles = []
    for key, build in (("config.cycle", config.build_cycle),
                       ("config.eval.cycles", config.build_eval_cycles)):
        try:
            cycles.append(build())
        except (OSError, ValueError) as exc:
            raise ConfigError([f"{key}: {exc}"]) from exc
    return config, *cycles


def _prepare(args: argparse.Namespace, seeds: list[int] | None = None
             ) -> tuple[RunConfig, DriveCycle, list[DriveCycle], Path]:
    """Load the config and its cycles (:func:`_load`), check a ``--seed``
    override, then create ``--out``."""
    config, cycle, eval_cycles = _load(args.config)
    if seeds and len(set(seeds)) != len(seeds):
        raise ConfigError([f"--seed: duplicate seeds in {seeds}"])
    if seeds and min(seeds) < 0:
        raise ConfigError([f"--seed: must be >= 0, got {min(seeds)}"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, cycle, eval_cycles, out


def _setup(config: RunConfig, cycle: DriveCycle) -> RunSetup:
    """The learning-run setup a config describes on its built cycle."""
    grid, actions = config.build_grids()
    return RunSetup(cycle=cycle, models=config.build_models(),
                    grid=grid, actions=actions, config_a=config.agent_a,
                    config_b=config.agent_b, policy=config.policy,
                    mode=config.mode, episodes=config.episodes,
                    initial_soc=config.initial_soc)


def _cmd_learn(args: argparse.Namespace) -> int:
    config, cycle, _, out = _prepare(args, args.seed)
    seeds = tuple(args.seed) if args.seed else config.seeds
    setup = _setup(config, cycle)
    artifacts: list[str] = []
    finals = {}
    for seed in seeds:
        result = run_learning(setup, seed, record_final_traces=args.traces)
        tag = f"_seed{seed}" if len(seeds) > 1 else ""
        curve = f"learning_curve{tag}.csv"
        write_atomic(out / curve, write_learning_curve_csv(result.episodes))
        artifacts.append(curve)
        snap = f"qtable_A{tag}.json"  # an ensemble's agent B runs on this table
        save_qtable(out / snap, result.agents["A"].q, setup.grid, setup.actions,
                    schedule=config.agent_a.schedule,
                    extra={"label": config.label, "seed": seed,
                           "mode": config.mode, "rng_protocol": RNG_PROTOCOL})
        artifacts.append(snap)
        if args.traces and result.final_traces is not None:
            trace = f"trace{tag}.csv"
            write_atomic(out / trace, write_trace_csv(result.final_traces))
            artifacts.append(trace)
        finals[str(seed)] = {
            "efficiency": result.final.energy_efficiency,
            "oec_j": result.final.oec_j,
            "end_soc": result.final.end_soc,
        }
        eff = result.final.energy_efficiency
        eff_txt = f"{eff:.4f}" if eff is not None else "n/a"
        print(f"seed {seed}: final efficiency {eff_txt}, "
              f"OEC {result.final.oec_j / 1e6:.2f} MJ, "
              f"end SoC {result.final.end_soc:.3f}")
    _write_manifest(out, "learn", config, artifacts,
                    extra={"seeds": list(seeds), "final_episode": finals,
                           "rng_protocol": RNG_PROTOCOL})
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config, cycle, _, out = _prepare(args)
    setup = dataclasses.replace(_setup(config, cycle), episodes=config.sweep_episodes)
    rows = sweep_weights(setup, repeats=config.sweep_repeats,
                         base_seed=config.sweep_base_seed, workers=args.workers)
    write_atomic(out / "sweep.csv", write_sweep_csv(rows))
    best = max(rows, key=lambda r: r.mean_eff)
    print(f"best proportion mu={best.mu}: mean efficiency "
          f"{best.mean_eff:.4f} +/- {best.std_eff:.4f} over {best.repeats} repeats")
    _write_manifest(out, "sweep", config, ["sweep.csv"],
                    extra={"best_mu": best.mu, "best_mean_eff": best.mean_eff,
                           "rng_protocol": RNG_PROTOCOL})
    return EXIT_OK


def _resolve_snapshot(snap_dir: Path) -> Path:
    """Agent A's snapshot: the unsuffixed one if present, else the lowest-seed one."""
    plain = snap_dir / "qtable_A.json"
    if plain.is_file():
        return plain
    seeded = []
    for candidate in snap_dir.glob("qtable_A_seed*.json"):
        suffix = candidate.stem.rsplit("_seed", 1)[1]
        try:
            seeded.append((int(suffix), candidate))
        except ValueError:
            continue
    if seeded:
        return min(seeded)[1]
    return plain


def _load_agent(path: Path, config: RunConfig) -> tuple[Agent, str, dict]:
    """Rebuild frozen agent A from a snapshot around the config's learner,
    which a frozen episode never reads; returns it with a method label (the
    snapshot's schedule kind) and its ``extra`` block."""
    if not path.is_file():
        raise FileNotFoundError(
            f"snapshot {path} not found; run 'tugems learn' first")
    grid, actions = config.build_grids()
    q, _, _, schedule, extra = load_qtable(path, expect_grid=grid, expect_actions=actions)
    agent = Agent(name="A", q=q, config=config.agent_a, rng=make_rng(0, 0))
    label = schedule.kind if schedule is not None else "baseline"
    return agent, label, extra


def _cmd_eval(args: argparse.Namespace) -> int:
    """Load the snapshots, then create ``--out``.  An ensemble run keeps one
    table, whose greedy policy every rule executes when frozen, so its rows
    run that table alone, labelled by the configured rule.  A baseline that
    is the candidate's own file is the candidate's agent, loaded once."""
    config, _, eval_cycles = _load(args.config)
    snap_dir = Path(args.snapshots)
    path = _resolve_snapshot(snap_dir)
    agent, label, extra = _load_agent(path, config)
    base_path = _resolve_snapshot(Path(args.baseline_snapshots or snap_dir))
    if base_path.is_file() and os.path.samefile(base_path, path):
        baseline, base_label = agent, label
    else:
        baseline, base_label, _ = _load_agent(base_path, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid, actions = config.build_grids()
    method = config.policy.kind if extra.get("mode") == "ensemble" else "weighted"
    rows = robustness_eval(agent, baseline, method, eval_cycles,
                           list(config.eval_initial_socs),
                           config.build_models(), grid, actions,
                           baseline_method=base_label)
    write_atomic(out / "robustness.csv", write_robustness_csv(rows))
    for row in rows:
        print(f"{row.cycle} @ SoC {row.init_soc:.0%} [{row.method}]: "
              f"OEC {row.oec_mj:.2f} MJ, end SoC {row.end_soc:.3f}, "
              f"savings {row.savings_pct:+.2f}%")
    _write_manifest(out, "eval", config, ["robustness.csv"],
                    extra={"snapshots": str(snap_dir),
                           "baseline": args.baseline_snapshots or str(snap_dir)})
    return EXIT_OK


def _cmd_dp(args: argparse.Namespace) -> int:
    config, cycle, _, out = _prepare(args)
    models = config.build_models()
    _, actions = config.build_grids()
    result = dp_baseline(cycle, actions, models, config.initial_soc,
                         soc_nodes=config.dp_soc_nodes)
    write_atomic(out / "dp.csv", write_dp_csv(
        list(zip(cycle.times().tolist(), map(actions.level, result.actions)))))
    slack = dp_slack_energy_j(models, result.soc_node_spacing)
    print(f"dp cost {result.cost_j / 1e6:.4f} MJ "
          f"(rollout {result.rollout_cost_j / 1e6:.4f} MJ, "
          f"end SoC {result.rollout_end_soc:.3f}, "
          f"node slack {slack / 1e6:.4f} MJ)")
    _write_manifest(out, "dp", config, ["dp.csv"],
                    extra={"cost_j": result.cost_j,
                           "rollout_cost_j": result.rollout_cost_j,
                           "rollout_end_soc": result.rollout_end_soc,
                           "slack_j": slack})
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config, _, _ = _load(args.config)
    print(f"OK: {config.label} ({config_fingerprint(config.to_dict())})")
    return EXIT_OK


_COMMANDS = {
    "learn": _cmd_learn,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
    "dp": _cmd_dp,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"tugems: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"tugems: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
