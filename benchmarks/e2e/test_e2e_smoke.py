"""Smoke test of the end-to-end benchmark on tiny inputs.

Each workload function runs on a 60-host input for a few seconds, untraced
and traced, and must pass its own correctness checks and produce exactly
the metrics ``BENCHMARK.json`` lists, each with its unit.  Run with
``pytest benchmarks/e2e``.
"""

import pytest

import plan
import serve
from common import load_spec
from run import result_line

SPEC = load_spec()
LAYERS = [m["name"] for m in SPEC["per_layer"]]

#: per-layer metrics that must be non-zero on each workload's traced run.
EXERCISED = {
    "sweep-random": ("diversify.self_s", "batched.s", "batched.calls",
                     "batched.iterations"),
    "pipeline-chain": ("diversify.self_s", "compile.s", "compile.calls",
                       "compile.edges", "solve.s", "solve.iterations",
                       "solve.levels", "solve.level_calls",
                       "solve.us_per_level_call"),
    "serve-steady": ("solve.s", "solve.calls", "stream.solve_ms_per_batch_p50",
                     "service.batches", "service.batch_ms_p50",
                     "wal.append_ms_p50", "ack.ms_p50",
                     "read.assignment_ms_p50", "read.whatif_ms_p50"),
    "serve-bulk": ("solve.s", "service.batches", "service.batch_events_mean",
                   "stream.apply_ms_per_batch_p50", "read.ms_p95"),
}
SERVE_SHAPE = (60, 3, 3, 4)


def _small(name: str, trace: bool):
    if name == "sweep-random":
        instances = plan.sweep_instances(0, cells=((60, 4, 3), (80, 6, 2)))
        return plan.run_plan(instances, 0.1, trace, LAYERS)
    if name == "pipeline-chain":
        instances = plan.pipeline_instances(0, estates=2, hosts=60)
        return plan.run_plan(instances, 0.1, trace, LAYERS)
    seconds = 1 if name == "serve-bulk" else 2
    return serve.run_serve(
        name, 0, seconds, trace, LAYERS, closed_loop=(name == "serve-bulk"),
        shape=SERVE_SHAPE,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "sweep-random", "pipeline-chain", "serve-steady", "serve-bulk",
    ]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(name):
    outcome = _small(name, trace=False)
    line = result_line(outcome, False, SPEC)
    assert line["correct"], outcome.problems
    assert line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for metric, value in line["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] > 0, metric


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(name):
    outcome = _small(name, trace=True)
    outcome.metrics["trace.overhead_pct"] = 0.0  # run.py fills it in
    line = result_line(outcome, True, SPEC)
    assert line["correct"], outcome.problems
    for metric in EXERCISED[name]:
        assert line["metrics"][metric]["value"] > 0, metric


def test_visibility_allows_busy_healthz_ahead_by_one_batch():
    # healthz bumps events_applied just before the view swap: a poll in
    # between reports version 2 with version 3's count.
    sightings = [
        (0.0, 1, 0, True),
        (1.0, 2, 5, False),
        (1.5, 2, 3, True),
        (2.0, 3, 5, True),
    ]
    times, problems = serve.visibility(sightings, 5)
    assert problems == []
    assert times == [1.0, 1.0, 1.0, 2.0, 2.0]


@pytest.mark.parametrize("busy_count, exact", [(2, True), (2, False)])
def test_visibility_rejects_counts_that_disagree_with_the_view(busy_count, exact):
    # An exact read disagreeing with the view, or a busy poll behind it.
    sightings = [(1.0, 2, busy_count, exact), (1.5, 2, 3, True)]
    _, problems = serve.visibility(sightings, 3)
    assert problems
