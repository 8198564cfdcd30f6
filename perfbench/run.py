"""tugems benchmark: drive ``tugems.cli.main`` in process and report metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One client runs a workload's commands back to back
(a closed loop) in one process, with numpy's thread pools capped at 1.  A
round is one pass over the workload's commands; rounds repeat until the
next one would end after ``--seconds`` (at least two, so that every
command is repeated with the same seed and its artifacts can be compared
byte for byte).

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object; the lines before it restate every
metric for a reader, together with the error rate and the machine record.
Artifacts, the full result and the span trace go to ``perfbench/out/``.
"""

import os

# Before numpy is first imported, here and in every probe interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2   # not used while tuning; re-check claims on it
SETUP_PROBES_FIRST = 3   # then one more after every untraced round
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


def machine_record() -> dict:
    """What makes results from different machines incomparable."""
    import numpy

    record = {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            info = deps.get(lib, {})
            record[lib] = {k: info[k] for k in
                           ("name", "version", "openblas configuration")
                           if k in info}
    except (TypeError, KeyError, AttributeError):
        record["blas"] = record["lapack"] = "unavailable from numpy.show_config"
    return record


def time_setup(workload) -> float:
    """Seconds from a fresh interpreter's start to ready for ``workload``."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    argv += [f"{c.kind}:{c.config}" for c in workload.commands]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not proc.stdout.startswith("ready"):
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[1]) - t0


class Bench:
    """Runs commands through the CLI and keeps the operation tally."""

    def __init__(self, workload, cli) -> None:
        self.workload = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def _call(self, command, tracer) -> tuple[int | None, str, float]:
        sink = io.StringIO()
        span = tracer.open("cli.main") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(command.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            sink.write(traceback.format_exc())
            code = None
        finally:
            seconds = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        return code, sink.getvalue(), seconds

    def _record(self, command, code: int | None, output: str) -> None:
        problems, files = checks.command_problems(
            command.kind, command.out, code, self.reference.get(command.name))
        self.reference.setdefault(command.name, files)
        self.attempted += 1
        if problems:
            self.failed += 1
            detail = f"\n{output[-2000:]}" if code != 0 else ""
            self.failures.append(f"{command.name}: {'; '.join(problems)}{detail}")

    def run(self, commands, tracer=None) -> list[float]:
        """One pass over ``commands``, back to back; returns each one's seconds."""
        for command in commands:
            shutil.rmtree(command.out, ignore_errors=True)
        results = [self._call(command, tracer) for command in commands]
        for command, (code, output, _) in zip(commands, results):
            self._record(command, code, output)
        return [seconds for _, _, seconds in results]


def best_round(rounds: list[list[float]]) -> float:
    """Round wall time with every command at its fastest over the rounds.

    Every round repeats the same commands with the same seeds, so they do the
    same work.  This machine's throughput drifts by tens of percent over a
    few seconds; the fastest of each command's repeats filters that drift
    far better than the median round does.
    """
    return sum(min(times) for times in zip(*rounds))


def _rounds(bench, seconds: float, tracer, after_plain) -> tuple[list, list]:
    """Per-command seconds of untraced and (with ``tracer``) traced rounds.

    ``after_plain`` runs after every untraced round, inside the time budget.
    """
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    start = time.perf_counter()
    while True:
        trace_now = tracer is not None and len(traced) < len(plain)
        if trace_now:
            tracer.run = len(traced)
            tracer.install()
            try:
                traced.append(bench.run(bench.workload.commands, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(bench.run(bench.workload.commands))
            after_plain()
        done = len(plain) + len(traced)
        last = sum((traced if trace_now else plain)[-1])
        complete = done >= MIN_ROUNDS and (tracer is None or traced)
        if complete and time.perf_counter() - start + last > seconds:
            return plain, traced


def _visited_states(workload) -> float:
    """Mean count of Q-table rows with any non-zero value, over saved tables."""
    counts = []
    for command in workload.prepare + workload.commands:
        for path in sorted(command.out.glob("qtable_*.json")):
            values = json.loads(path.read_text(encoding="utf-8"))["values"]
            counts.append(sum(1 for row in values if any(v != 0.0 for v in row)))
    return statistics.fmean(counts) if counts else 0.0


def _rollout_gap_pct(workload) -> float:
    gaps = []
    for command in workload.commands:
        if command.kind == "dp":
            doc = json.loads((command.out / "manifest.json").read_text(encoding="utf-8"))
            gaps.append(100.0 * (doc["rollout_cost_j"] - doc["cost_j"]) / doc["cost_j"])
    return statistics.fmean(gaps) if gaps else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the rounds may run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tugems" / "__init__.py").is_file():
        print(f"perfbench: no tugems package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tugems
    import tugems.cli
    if Path(tugems.__file__).resolve().parent != SRC / "tugems":
        print(f"perfbench: imported tugems from {tugems.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, work)
    bench = Bench(workload, tugems.cli)
    # Set-up probes are spread over the run, so that a slow spell of the
    # machine does not hit all of them.  The traced run reports no set-up.
    setup: list[float] = []

    def probe() -> None:
        if not args.trace:
            setup.append(time_setup(workload))

    for _ in range(SETUP_PROBES_FIRST):
        probe()
    if workload.prepare:
        bench.run(workload.prepare)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = _rounds(bench, args.seconds, tracer, probe)

    steps = workload.steps
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["qlearn.visited_states"] = (_visited_states(workload), "count")
        metrics["dp.rollout_gap_pct"] = (_rollout_gap_pct(workload), "%")
        overhead = best_round(traced) / best_round(plain) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (best_round(plain), "s"),
            "steps_per_s": (steps / best_round(plain), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    error_rate = bench.failed / bench.attempted
    machine = machine_record()
    absent = tracer.absent if tracer else []
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "program_seeds": workload.program_seeds,
        "steps_per_round": steps,
        "commands": [c.name for c in workload.commands],
        "rounds_untraced": plain,
        "rounds_traced": traced, "setup_probes_s": setup,
        "metrics": reported, "error_rate": error_rate, "attempted": bench.attempted,
        "failed": bench.failed, "failures": bench.failures,
        "absent": absent, "left_out": workload.left_out, "machine": machine,
    }, indent=2) + "\n", encoding="utf-8")

    for failure, count in collections.Counter(bench.failures).items():
        print(f"perfbench: FAILED {count}x {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {len(workload.commands)} commands, "
          f"{steps} controlled steps per round")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {error_rate:.6g} fraction "
          f"({bench.failed} of {bench.attempted} commands failed)")
    for target in absent:
        print(f"  absent: {target}")
    for command in workload.left_out:
        print(f"  not run: {command}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
