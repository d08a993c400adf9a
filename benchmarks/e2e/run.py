"""End-to-end benchmark of ``diversify()`` and ``repro serve``.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --seed 0                  # every workload
    python3 benchmarks/e2e/run.py --seed 0 --trace          # per-layer metrics
    python3 benchmarks/e2e/run.py --workload serve-steady --seed 3 \\
        --seconds 20 --trace 0

Each workload runs in a fresh interpreter, generates its inputs from
``--seed``, measures for about ``--seconds`` seconds and checks the
program's outputs.  An untraced run prints every end-to-end metric of
``BENCHMARK.json``; a traced run prints every per-layer metric instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
appends its raw samples to ``benchmarks/results/e2e/<workload>.jsonl``.
``README.md`` next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    RESULTS,
    ROOT,
    SRC,
    child_env,
    load_spec,
    median,
    pin_to_one_cpu,
)


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return text == "1"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload name; default: all of them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=_flag, const=True,
                        default=False,
                        help="print per-layer metrics from a traced run")
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict):
    """Measure one workload in this process; returns its ``Outcome``."""
    from plan import pipeline_instances, run_plan, sweep_instances
    from serve import run_serve

    layer_names = [m["name"] for m in spec["per_layer"]]
    if name == "sweep-random":
        return run_plan(sweep_instances(seed), seconds, trace, layer_names)
    if name == "pipeline-chain":
        return run_plan(pipeline_instances(seed), seconds, trace, layer_names)
    return run_serve(
        name, seed, seconds, trace, layer_names,
        closed_loop=(name == "serve-bulk"),
    )


def untraced_headline(name: str, seconds: int) -> Optional[float]:
    """Median headline of this checkout's untraced runs of ``name``."""
    path = RESULTS / f"{name}.jsonl"
    if not path.exists():
        return None
    values = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if not record["trace"] and record["seconds"] == seconds and record["correct"]:
            values.append(record["headline"])
    return median(values) if values else None


def resolved_backend(env: Dict[str, str]) -> str:
    """The kernel backend an unconfigured solve resolves to.

    Run in a child process so the C kernels are compiled (and cached)
    before any fresh start is timed: the compile is a one-off build step,
    not set-up a user pays on every start.
    """
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.mrf.backends import active_backend_name; "
         "print(active_backend_name())"],
        env=env, check=True, timeout=600, capture_output=True, text=True,
    )
    return probe.stdout.strip()


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    # Checked first so git never searches the directories above the checkout.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def measure(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    """One workload: build, measure, check, record; returns the result line."""
    env = child_env()
    backend = resolved_backend(env)
    outcome = run_workload(name, seed, seconds, trace, spec)
    metrics = dict(outcome.metrics)
    if trace:
        baseline = untraced_headline(name, seconds)
        if baseline is None:
            # No untraced run in this checkout yet: make one (it is
            # recorded, so later traced runs reuse it).
            plain = run_workload(name, seed, seconds, False, spec)
            _record(name, seed, seconds, False, plain, backend)
            baseline = plain.headline
        metrics["trace.overhead_pct"] = 100.0 * (outcome.headline / baseline - 1.0)
    outcome.metrics = metrics
    line = result_line(outcome, trace, spec)
    _record(name, seed, seconds, trace, outcome, backend)
    print(f"workload {name}  seed {seed}  seconds {seconds}  "
          f"trace {int(trace)}  backend {backend}")
    for metric, value in line["metrics"].items():
        print(f"  {metric:<34} {value['value']:>14.6g} {value['unit']}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
    return line


def result_line(outcome, trace: bool, spec: dict) -> dict:
    """The final JSON object: checks, counts and every metric with its unit.

    Raises ``RuntimeError`` unless the outcome carries exactly the metrics
    ``BENCHMARK.json`` lists for this kind of run.
    """
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = [m["name"] for m in listed]
    if sorted(outcome.metrics) != sorted(expected):
        raise RuntimeError(
            f"produced metrics {sorted(outcome.metrics)}, expected {sorted(expected)}"
        )
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def _record(name, seed, seconds, trace, outcome, backend) -> None:
    """Append one JSON-Lines record with the run's raw samples."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
        "late_ms_max": outcome.late_ms_max,
        "created_unix": time.time(),
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "headline": outcome.headline,
        "metrics": outcome.metrics,
        "samples": outcome.samples,
    }
    if outcome.trace_events:
        path = RESULTS / f"{name}-{seed}-{os.getpid()}.trace.json"
        path.write_text(json.dumps(
            {"traceEvents": outcome.trace_events, "displayTimeUnit": "ms"}
        ))
        record["trace_path"] = str(path)
    with open(RESULTS / f"{name}.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")


def run_all(args: argparse.Namespace, spec: dict, seconds: int) -> dict:
    """Every workload, each in a fresh interpreter; one combined line."""
    combined: Dict[str, object] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace",
             str(int(args.trace))],
            env=child_env(), capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the workloads' finally blocks, which stop
    # the daemons they started.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        result = run_all(args, spec, seconds)
    elif args.workload in names:
        result = measure(args.workload, args.seed, seconds, args.trace, spec)
    else:
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
