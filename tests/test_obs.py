"""Tests for the tracing/telemetry layer (repro.obs).

Three contracts matter:

1. **Disabled means free** — with no active trace, the instrumentation
   hooks allocate nothing (the no-op span/timer are shared singletons)
   and solver results carry no stats.
2. **The Chrome export is schema-correct** — Perfetto and
   ``chrome://tracing`` load exactly the documented event shape, so the
   exporter is held to it field by field.
3. **Spans merge across processes** — the runner's process pools land
   their spans in the parent timeline with their own pid/tid.
"""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.mrf.backends import get_backend, resolve_backend
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import SolveStats, get_solver
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays
from repro.obs.report import format_summary, layer_seconds, self_durations, span_table
from repro.runner import Job, run_jobs


@pytest.fixture(autouse=True)
def _no_ambient_trace():
    """Every test starts and ends with tracing disabled."""
    obs.deactivate()
    yield
    obs.deactivate()


def _loopy_mrf(nodes=6):
    """A small frustrated ring: forces the real TRW-S sweep path."""
    mrf = PairwiseMRF()
    for i in range(nodes):
        mrf.add_node([0.1 * i, 0.0])
    agree = np.array([[1.0, 0.0], [0.0, 1.0]])
    for i in range(nodes):
        mrf.add_edge(i, (i + 1) % nodes, agree)
    return mrf


# --------------------------------------------------------------- disabled path


class TestDisabledPath:
    def test_span_returns_shared_singleton(self):
        # Identity, not equality: the disabled path must not allocate a
        # span object per call.
        assert obs.span("a") is obs.span("b")
        assert obs.span("a", cat="solve", x=1) is obs.span("c")

    def test_phase_timer_returns_shared_singleton(self):
        assert obs.phase_timer() is obs.phase_timer("compile")

    def test_noop_span_usable(self):
        with obs.span("ignored", cat="x", a=1) as sp:
            sp.add(b=2)  # silently discarded

    def test_noop_timer_usable(self):
        obs.phase_timer().lap("ignored", n=3)

    def test_instant_and_counter_are_noops(self):
        obs.instant("nothing")
        obs.add_counter("nothing", 2.0)
        assert obs.current_trace() is None

    def test_enabled_reflects_activation(self):
        assert not obs.enabled()
        trace = obs.activate(obs.Trace())
        assert obs.enabled()
        assert obs.deactivate() is trace
        assert not obs.enabled()

    def test_solver_results_carry_no_stats_when_disabled(self):
        result = get_solver("trws").solve(_loopy_mrf())
        assert result.stats is None

    def test_noop_exit_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("boom")


# -------------------------------------------------------------- chrome export


class TestChromeExport:
    def test_complete_event_schema(self):
        trace = obs.activate(obs.Trace())
        with obs.span("outer", cat="demo", items=3):
            pass
        obs.deactivate()
        payload = trace.chrome()
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["name"] == "outer"
        assert event["cat"] == "demo"
        assert event["ph"] == "X"
        assert isinstance(event["ts"], float) and event["ts"] > 0
        assert isinstance(event["dur"], float) and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["args"] == {"items": 3}

    def test_instant_event_schema(self):
        trace = obs.activate(obs.Trace())
        obs.instant("marker", cat="stream", reason="cost_jump")
        obs.deactivate()
        (event,) = trace.events
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert "dur" not in event
        assert event["args"]["reason"] == "cost_jump"

    def test_payload_is_json_serialisable(self, tmp_path):
        trace = obs.activate(obs.Trace())
        with obs.span("a", cat="x"):
            obs.add_counter("widgets", 2)
        obs.deactivate()
        path = tmp_path / "trace.json"
        trace.write_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"][0]["name"] == "a"
        assert loaded["otherData"]["counters"] == {"widgets": 2.0}

    def test_jsonl_one_event_per_line(self):
        trace = obs.activate(obs.Trace())
        with obs.span("a"):
            pass
        obs.instant("b")
        obs.deactivate()
        lines = trace.jsonl().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "a"

    def test_error_spans_tag_the_exception(self):
        trace = obs.activate(obs.Trace())
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("nope")
        obs.deactivate()
        assert trace.events[0]["args"]["error"] == "ValueError"

    def test_ring_buffer_keeps_the_tail(self):
        trace = obs.activate(obs.Trace(limit=3))
        for i in range(10):
            obs.instant(f"e{i}")
        obs.deactivate()
        assert [e["name"] for e in trace.events] == ["e7", "e8", "e9"]

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            obs.Trace(limit=0)


# ------------------------------------------------------------- span structure


class TestSpans:
    def test_nesting_by_time_containment(self):
        trace = obs.activate(obs.Trace())
        with obs.span("outer", cat="demo"):
            with obs.span("inner", cat="demo"):
                pass
        obs.deactivate()
        inner, outer = trace.events
        assert inner["name"] == "inner" and outer["name"] == "outer"
        # Viewers nest X events by time containment per (pid, tid) lane.
        assert inner["pid"] == outer["pid"]
        assert inner["tid"] == outer["tid"]
        assert outer["ts"] <= inner["ts"]
        assert outer["dur"] >= inner["dur"]

    def test_phase_timer_records_back_to_back_laps(self):
        trace = obs.activate(obs.Trace())
        timer = obs.phase_timer("compile")
        timer.lap("one", n=1)
        timer.lap("two")
        obs.deactivate()
        one, two = trace.events
        assert one["name"] == "one" and one["args"] == {"n": 1}
        assert two["name"] == "two" and "args" not in two
        assert one["cat"] == two["cat"] == "compile"
        assert one["ts"] <= two["ts"]

    def test_span_add_attaches_args(self):
        trace = obs.activate(obs.Trace())
        with obs.span("s", cat="x", a=1) as sp:
            sp.add(b=2)
        obs.deactivate()
        assert trace.events[0]["args"] == {"a": 1, "b": 2}

    def test_solver_stats_collected_when_enabled(self):
        solver = get_solver("trws")
        mrf = _loopy_mrf()
        baseline = solver.solve(mrf)
        trace = obs.activate(obs.Trace())
        traced = solver.solve(mrf)
        obs.deactivate()
        assert traced.energy == baseline.energy  # tracing never perturbs
        stats = traced.stats
        assert isinstance(stats, SolveStats)
        assert stats.total_seconds > 0
        assert len(stats.iteration_seconds) == traced.iterations
        assert stats.fwd_level_seconds and stats.bwd_level_seconds
        phases = stats.phase_seconds()
        assert set(phases) == {
            "setup", "forward", "backward", "bound", "energy", "refine",
        }
        assert "trws.solve" in trace.span_names()

    def test_forest_solve_through_mrf_is_traced(self):
        # TRWSSolver.solve(mrf) on a chain takes the exact forest DP; the
        # trace must show it like any other solve (span + SolveStats).
        mrf = PairwiseMRF()
        for i in range(5):
            mrf.add_node([0.1 * i, 0.0])
        agree = np.array([[1.0, 0.0], [0.0, 1.0]])
        for i in range(4):
            mrf.add_edge(i, i + 1, agree)
        baseline = TRWSSolver().solve(mrf)
        trace = obs.activate(obs.Trace())
        try:
            result = TRWSSolver().solve(mrf)
        finally:
            obs.deactivate()
        forest = [e for e in trace.events if e["name"] == "trws.forest"]
        assert len(forest) == 1
        assert forest[0]["args"]["nodes"] == 5
        assert isinstance(result.stats, SolveStats)
        assert result.stats.total_seconds > 0
        assert result.labels == baseline.labels
        assert result.lower_bound == result.energy

    def test_greedy_init_traced_wherever_it_runs(self):
        # One trws.greedy span per greedy refine init, with the node count
        # and the backend that ran: solve_plan, TRWSSolver.solve, and the
        # stream engine's cold and escalated solves.  Solves that take no
        # greedy init record none.
        from repro.mrf.sharded import solve_plan
        from repro.network.topologies import ring_network
        from repro.nvd.similarity import SimilarityTable
        from repro.stream import DynamicDiversifier, SimilarityUpdate

        mrf = _loopy_mrf()
        plan = MRFArrays(mrf)
        network = ring_network(5, services={"svc": ["p0", "p1", "p2"]})
        table = SimilarityTable(pairs={("p0", "p1"): 0.1, ("p1", "p2"): 0.2})
        engine = DynamicDiversifier(network, table)
        trace = obs.activate(obs.Trace())
        try:
            solve_plan(plan)
            TRWSSolver().solve(mrf)
            TRWSSolver(refine=False).solve(mrf)
            assert engine.solve().escalation == "first_solve"
            engine.apply(SimilarityUpdate("p0", "p2", 0.9))
            assert engine.solve().escalation == "cost_jump"
            engine.apply(SimilarityUpdate("p0", "p2", 0.91))
            assert engine.solve().escalation is None
        finally:
            obs.deactivate()
        greedy = [e for e in trace.events if e["name"] == "trws.greedy"]
        assert [e["args"]["nodes"] for e in greedy] == [6, 6, 5, 5]
        backend = resolve_backend().describe()
        for event in greedy:
            assert event["cat"] == "solve"
            assert event["args"]["backend"] == backend

    @pytest.mark.skipif(
        not get_backend("native").available,
        reason="native backend needs a C compiler",
    )
    def test_native_sweeps_time_every_level(self):
        # The C sweep kernels time each level with their own clock; one
        # entry per wavefront level, like the NumPy level loop.
        plan = MRFArrays(_loopy_mrf(nodes=12))
        trace = obs.activate(obs.Trace())
        try:
            result = TRWSSolver(max_iterations=4, seed=0).solve_arrays(
                plan, backend="native"
            )
        finally:
            obs.deactivate()
        stats = result.stats
        assert stats.backend == "native (cc)"
        assert len(stats.fwd_level_seconds) == plan.adjacency.forward_levels
        assert len(stats.bwd_level_seconds) == plan.adjacency.backward_levels
        assert all(seconds >= 0 for seconds in stats.fwd_level_seconds)
        assert sum(stats.fwd_level_seconds) <= stats.forward_seconds
        (solve,) = [e for e in trace.events if e["name"] == "trws.solve"]
        assert solve["args"]["backend"] == "native (cc)"


# ------------------------------------------------------ cross-process capture


def _worker_with_span(value):
    """Worker-side job body recording one span (runs in a pool process)."""
    with obs.span("worker.task", cat="worker", value=value):
        return value * 2


class TestCrossProcess:
    def test_capture_roundtrip(self):
        token = obs.begin_capture()
        with obs.span("captured", cat="w"):
            pass
        events = obs.end_capture(token)
        assert [e["name"] for e in events] == ["captured"]
        assert obs.current_trace() is None

    def test_capture_replaces_inherited_trace(self):
        # A fork-inherited parent trace is a child-memory copy; capture
        # must swap it out so worker spans are not silently lost.
        parent = obs.activate(obs.Trace())
        token = obs.begin_capture()
        assert obs.current_trace() is not parent
        with obs.span("in.capture"):
            pass
        events = obs.end_capture(token)
        assert obs.current_trace() is parent
        assert parent.events == []
        assert [e["name"] for e in events] == ["in.capture"]

    def test_extend_preserves_foreign_pids(self):
        trace = obs.Trace()
        trace.extend([
            {"name": "w", "cat": "x", "ph": "X", "ts": 1.0, "dur": 2.0,
             "pid": 4242, "tid": 1},
        ])
        assert trace.events[0]["pid"] == 4242

    def test_pool_spans_merge_into_parent_timeline(self):
        jobs = [
            Job(key=i, fn=_worker_with_span, kwargs={"value": i})
            for i in range(4)
        ]
        trace = obs.activate(obs.Trace())
        results = run_jobs(jobs, workers=2)
        obs.deactivate()
        assert results == {i: i * 2 for i in range(4)}
        worker_events = [
            e for e in trace.events if e["name"] == "worker.task"
        ]
        assert len(worker_events) == 4
        assert sorted(e["args"]["value"] for e in worker_events) == [0, 1, 2, 3]
        import os

        assert all(e["pid"] != os.getpid() for e in worker_events)

    def test_pool_results_clean_without_tracing(self):
        jobs = [
            Job(key=i, fn=_worker_with_span, kwargs={"value": i})
            for i in range(3)
        ]
        assert run_jobs(jobs, workers=2) == {i: i * 2 for i in range(3)}


# ------------------------------------------------------------------ reporting


def _event(name, cat, ts, dur, pid=1, tid=1):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid}


class TestReport:
    def test_self_time_subtracts_children(self):
        events = [
            _event("child", "solve", ts=10.0, dur=40.0),
            _event("parent", "stream", ts=0.0, dur=100.0),
        ]
        selves = self_durations(events)
        by_name = {events[i]["name"]: selves[i] for i in range(len(events))}
        assert by_name["child"] == 40.0
        assert by_name["parent"] == 60.0

    def test_layer_seconds_groups_by_cat(self):
        events = [
            _event("a", "solve", ts=0.0, dur=1_000_000.0),
            _event("b", "solve", ts=2e6, dur=1_000_000.0, tid=2),
            _event("c", "compile", ts=5e6, dur=500_000.0),
        ]
        layers = layer_seconds(events)
        assert layers["solve"] == pytest.approx(2.0)
        assert layers["compile"] == pytest.approx(0.5)
        assert list(layers) == ["solve", "compile"]  # sorted by share

    def test_span_table_counts_and_totals(self):
        events = [
            _event("x", "solve", ts=0.0, dur=1e6),
            _event("x", "solve", ts=2e6, dur=1e6),
            _event("y", "shard", ts=4e6, dur=5e5),
        ]
        rows = span_table(events)
        assert rows[0][:4] == ("x", "solve", 2, pytest.approx(2.0))
        assert rows[1][:4] == ("y", "shard", 1, pytest.approx(0.5))

    def test_format_summary_mentions_layers_and_counters(self):
        events = [_event("a.b", "solve", ts=0.0, dur=1e6)]
        text = format_summary(events, {"widgets": 3.0})
        assert "solve" in text and "a.b" in text and "widgets" in text

    def test_lanes_are_independent(self):
        # Same wall-clock window on different threads must not be treated
        # as nesting.
        events = [
            _event("t1", "solve", ts=0.0, dur=100.0, tid=1),
            _event("t2", "solve", ts=10.0, dur=50.0, tid=2),
        ]
        selves = self_durations(events)
        assert selves == [100.0, 50.0]


# -------------------------------------------------------------------- logging


class TestLogging:
    def test_parse_level(self):
        from repro.obs.logging import parse_level

        assert parse_level("debug") == logging.DEBUG
        assert parse_level("ERROR") == logging.ERROR
        with pytest.raises(ValueError):
            parse_level("chatty")

    def test_structured_line_format(self):
        import io

        from repro.obs.logging import get_logger, kv, setup_logging

        stream = io.StringIO()
        setup_logging("debug", stream=stream)
        get_logger("test").info("solved batch", extra=kv(events=3, warm=True))
        line = stream.getvalue().strip()
        assert " info " in line
        assert "repro.test" in line
        assert "solved batch" in line
        assert "events=3" in line and "warm=True" in line

    def test_level_threshold(self):
        import io

        from repro.obs.logging import get_logger, setup_logging

        stream = io.StringIO()
        setup_logging("warning", stream=stream)
        get_logger("test").info("hidden")
        get_logger("test").warning("visible")
        text = stream.getvalue()
        assert "hidden" not in text and "visible" in text

    def test_setup_is_idempotent(self):
        import io

        from repro.obs.logging import get_logger, setup_logging

        stream = io.StringIO()
        setup_logging("info", stream=stream)
        setup_logging("info", stream=stream)
        get_logger("test").warning("once")
        assert stream.getvalue().count("once") == 1


class TestTraceCli:
    """``repro trace`` end-to-end: workload under tracing + report files."""

    def _run(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        return capsys.readouterr().out

    def test_trace_diversify_report(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        text = self._run(
            ["trace", "diversify", "--hosts", "10", "--degree", "2",
             "--services", "2", "--products", "3",
             "--out", str(out), "--jsonl", str(jsonl)],
            capsys,
        )
        assert "diversify: energy" in text
        assert f"wrote {out}" in text
        assert f"wrote {jsonl}" in text
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        spans = [json.loads(line) for line in
                 jsonl.read_text().splitlines() if line]
        assert any(s.get("name") == "trws.solve" for s in spans)
        # the breakdown tables follow the file lines
        assert "self" in text or "total" in text

    def test_trace_stream_report(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        text = self._run(
            ["trace", "stream", "--hosts", "10", "--degree", "2",
             "--services", "2", "--products", "3", "--events", "3",
             "--out", str(out)],
            capsys,
        )
        assert "wrote" in text
        assert out.exists()
        # the incremental engine leaves one stream.solve span per solve
        payload = json.loads(out.read_text())
        names = [event.get("name") for event in payload["traceEvents"]]
        assert names.count("stream.solve") == 4  # the first solve + 3 events

    def test_trace_after_deactivate_leaves_recorder_clean(
        self, tmp_path, capsys
    ):
        self._run(
            ["trace", "diversify", "--hosts", "8", "--degree", "2",
             "--services", "2", "--products", "3",
             "--out", str(tmp_path / "t.json")],
            capsys,
        )
        assert not obs.enabled()
