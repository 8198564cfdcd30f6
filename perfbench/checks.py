"""Output checks that decide whether a benchmarked command failed.

A command fails when it exits non-zero, when one of the checks below finds a
problem in what it wrote, or when its artifacts differ byte for byte from
those the same command wrote earlier in the same benchmark invocation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# Charge-sustain floor of the acceptance suite (criterion 6).
SOC_FLOOR = 0.27


def _read_csv(path: Path) -> list[dict[str, str]]:
    text = path.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("no data rows")
    header = rows[0]
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError("ragged rows")
    return [dict(zip(header, row)) for row in rows[1:]]


def _number(row: dict[str, str], key: str) -> float:
    value = float(row[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} is not finite ({row[key]})")
    return value


def check_command(kind: str, out: Path) -> list[str]:
    """Problems found in the artifacts a ``tugems <kind>`` run left in ``out``."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        names = list(manifest["artifacts"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json: {exc!r}"]
    problems = []
    tables: dict[str, list[dict[str, str]]] = {}
    for name in names:
        path = out / name
        try:
            if name.endswith(".csv"):
                tables[name] = _read_csv(path)
            else:
                json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc!r}")
    try:
        if kind == "learn":
            for name, rows in tables.items():
                if name.startswith("learning_curve"):
                    end_soc = _number(rows[-1], "end_soc")
                    if end_soc < SOC_FLOOR:
                        problems.append(f"{name}: final end_soc {end_soc} < {SOC_FLOOR}")
        elif kind == "eval":
            for row in tables.get("robustness.csv", []):
                end_soc = _number(row, "end_soc")
                _number(row, "savings_pct")
                if end_soc < SOC_FLOOR:
                    problems.append(f"robustness.csv: end_soc {end_soc} < {SOC_FLOOR} "
                                    f"({row['cycle']} @ {row['init_soc']})")
        elif kind == "sweep":
            for row in tables.get("sweep.csv", []):
                _number(row, "mean_eff")
        elif kind == "dp":
            if manifest["rollout_cost_j"] < manifest["cost_j"] - manifest["slack_j"]:
                problems.append("dp: rollout_cost_j below cost_j - slack_j")
            if manifest["rollout_end_soc"] < SOC_FLOOR:
                problems.append(f"dp: rollout_end_soc {manifest['rollout_end_soc']} "
                                f"< {SOC_FLOOR}")
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"{kind} check: {exc!r}")
    return problems


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file a command left in ``out``, by name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.is_file()}


def command_problems(kind: str, out: Path, exit_code: int | None,
                     reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Problems with one command run, and the digest of what it wrote.

    The command counts as a failed operation when the list is non-empty.
    ``reference`` is the digest the same command (same config and seed)
    produced earlier in this invocation, or None for its first run.
    """
    files = digest(out) if out.is_dir() else {}
    if exit_code != 0:
        problems = [f"exit code {exit_code}"]
    else:
        problems = check_command(kind, out)
    if reference is not None and files != reference:
        problems.append("artifacts differ from the first run of this command")
    return problems, files
