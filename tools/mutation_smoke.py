"""Mutation smoke: each mutant must make its guarding test file fail.

Each mutant is one textual edit inside one top-level definition of a module
under ``src/tugems``.  The edit is applied to a temporary copy of ``src/``
and must match exactly once there, so an edit that drifts out of step with
the code fails loudly instead of leaving the tests passing.  The guarding
test file then runs with ``pytest -x`` against the copy; a mutant it does
not kill fails the script.

Run from anywhere: ``python tools/mutation_smoke.py``.  Exit 0 when every
mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str     # file under src/tugems
    scope: str      # top-level def or class the edit must fall in
    old: str
    new: str
    tests: str      # the test file that must fail


MUTANTS = (
    # the pack's two power caps swapped where every written form of the step
    # binds them
    Mutant("cap swap", "powertrain.py", "_plant_constants",
           "battery.max_discharge_power_w, battery.max_charge_power_w",
           "battery.max_charge_power_w, battery.max_discharge_power_w",
           "tests/test_powertrain.py"),
    # one mutant per written form of the step: the latch engages at the
    # threshold in one form alone, and the tests that pin the forms to each
    # other must see it
    Mutant("sustain flip", "powertrain.py", "ladder_kernel",
           "if soc0 < sustain:", "if soc0 <= sustain:", "tests/test_dp.py"),
    Mutant("array sustain flip", "powertrain.py", "array_kernel",
           "| (soc0 < sustain)", "| (soc0 <= sustain)", "tests/test_dp.py"),
    Mutant("loop sustain flip", "ensemble.py", "run_episodes",
           "if soc0 < sustain:", "if soc0 <= sustain:", "tests/test_ensemble.py"),
    # the scalar step burns fuel at a commanded 0 W, which the plant's own
    # tests must see now that Plant.step runs the ladder
    Mutant("engine-off fuel", "powertrain.py", "ladder_kernel",
           "b0 if p_egu > 0.0", "b0 if p_egu >= 0.0", "tests/test_powertrain.py"),
    # the DP's one forward loop takes the worst level, not the best
    Mutant("rollout argmax", "dp.py", "dp_solve",
           "totals.index(min(totals))", "totals.index(max(totals))", "tests/test_dp.py"),
    # the backward pass keeps the last block's arrays alive while it stages
    # the next, and its latched rows read the block's neighbouring step
    Mutant("block kept alive", "dp.py", "dp_solve",
           "del cost_f, next_f, cost_l, next_l", "pass", "tests/test_dp.py"),
    Mutant("latched step shift", "dp.py", "dp_solve",
           "np.interp(next_l[k], nodes, held)", "np.interp(next_l[k - 1], nodes, held)",
           "tests/test_dp.py"),
    # the rules and the TD update, each against the episode loop's tests:
    # maximum's tie goes to agent B, random takes B when its draw equals t,
    # random's pick is swapped, the bootstrap reads this state's maximum,
    # the blend gives agent B mu, and a draw equal to theta explores
    Mutant("maximum tie", "ensemble.py", "run_episodes",
           "row[action_a] >= row[action_b]", "row[action_a] > row[action_b]",
           "tests/test_ensemble.py"),
    Mutant("random draw at t", "ensemble.py", "run_episodes",
           "combiner_rng.random(n) < policy.t", "combiner_rng.random(n) <= policy.t",
           "tests/test_ensemble.py"),
    Mutant("random pick swap", "ensemble.py", "run_episodes",
           "action_b if pick_b[i] else action_a", "action_a if pick_b[i] else action_b",
           "tests/test_ensemble.py"),
    Mutant("TD bootstrap state", "ensemble.py", "run_episodes",
           "gamma * top[next_state]", "gamma * top[state]", "tests/test_ensemble.py"),
    Mutant("blend weight", "ensemble.py", "combine_weighted",
           "(1.0 - mu) * actions", "mu * actions", "tests/test_ensemble.py"),
    Mutant("exploration at theta", "ensemble.py", "_explore_actions",
           "uniforms < theta", "uniforms <= theta", "tests/test_ensemble.py"),
    # the loop's bins: a demand or an SoC exactly on an interior edge falls
    # in the bin below it
    Mutant("demand bin on an edge", "ensemble.py", "run_episodes",
           'demand_w, side="right")', 'demand_w, side="left")', "tests/test_ensemble.py"),
    Mutant("soc bin on an edge", "ensemble.py", "run_episodes",
           "offset + bisect_right(soc_cuts, soc)",
           "offset + bisect_right(soc_cuts, soc) - (soc in soc_cuts)", "tests/test_ensemble.py"),
)


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's edit made inside its scope; raises
    ``ValueError`` unless the edit matches exactly once there."""
    spans = [(node.lineno, node.end_lineno) for node in ast.parse(source).body
             if getattr(node, "name", None) == mutant.scope]
    if len(spans) != 1:
        raise ValueError(f"{mutant.name}: {len(spans)} top-level {mutant.scope!r} "
                         f"in {mutant.module}, not 1")
    lines = source.splitlines(keepends=True)
    first, last = spans[0]
    body = "".join(lines[first - 1:last])
    if body.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {body.count(mutant.old)} matches of "
                         f"{mutant.old!r} in {mutant.scope}, not 1")
    return "".join(lines[:first - 1]) + body.replace(mutant.old, mutant.new) + "".join(lines[last:])


def survives(mutant: Mutant) -> bool:
    """Run the mutant's test file on a mutated copy of ``src/``; whether
    every test passed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "tugems" / mutant.module
        path.write_text(mutate(path.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test fails; any other code (no tests, a usage or
    # internal error) kills nothing
    if run.returncode not in (0, 1):
        raise ValueError(f"{mutant.name}: pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return run.returncode == 0


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        try:
            alive = survives(mutant)
        except ValueError as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            failed += 1
            continue
        if alive:
            print(f"FAIL {mutant.name}: the mutant survived {mutant.tests}", file=sys.stderr)
            failed += 1
        else:
            print(f"killed {mutant.name} ({mutant.module}, {mutant.scope}) by {mutant.tests}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
