"""Live-daemon tests: HTTP ingestion parity with offline replay, snapshot
restarts, backpressure, read consistency during solves, graceful drain."""

import asyncio
import contextlib
import threading

import pytest

from repro.cli import build_parser
from repro.mrf.backends import resolve_backend
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.service import (
    Backpressure,
    DiversificationService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.stream import ChurnConfig, random_churn_trace, replay_trace


def workload(hosts=30, degree=2, services=2, pps=4, seed=0):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, similarity_density=0.3, seed=seed,
    )
    return random_network(config), random_similarity(config)


@contextlib.contextmanager
def running_service(network, similarity, config=None, service=None):
    """Run a DiversificationService on a daemon thread; yield its client."""
    if service is None:
        service = DiversificationService(
            network.copy(), similarity.copy(),
            config=config or ServiceConfig(port=0),
        )
    started = threading.Event()
    failure = []

    async def runner():
        await service.start()
        started.set()
        await service._stopped.wait()

    def boot():
        try:
            asyncio.run(runner())
        except Exception as problem:  # pragma: no cover - surfaced below
            failure.append(problem)
            started.set()

    thread = threading.Thread(target=boot, daemon=True)
    thread.start()
    assert started.wait(timeout=60), "service did not start"
    if failure:
        raise failure[0]
    client = ServiceClient(port=service.port, timeout=60)
    try:
        yield client, service
    finally:
        with contextlib.suppress(Exception):
            client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive(), "service did not stop"


class TestIngestionParity:
    def test_http_trace_matches_offline_replay(self):
        network, similarity = workload(seed=1)
        trace = random_churn_trace(
            network, ChurnConfig(events=10, seed=1, constraint_weight=0.3)
        )
        report = replay_trace(network.copy(), similarity.copy(), trace)
        offline = report.records[-1].energy

        config = ServiceConfig(port=0, batch_max=1)
        with running_service(network, similarity, config) as (client, _):
            assert client.send(trace, chunk=3) == len(trace)
            client.wait_idle()
            payload = client.assignment()
            assert payload["energy"] == pytest.approx(offline, abs=1e-12)
            assert payload["version"] == len(trace) + 1  # boot solve + 1/event
            assert payload["events_applied"] == len(trace)

    def test_batched_ingestion_reaches_consistent_state(self):
        # Batching solves fewer times; the energy it lands on must still be
        # the energy of its own final assignment (snapshot self-consistency).
        network, similarity = workload(seed=2)
        trace = random_churn_trace(network, ChurnConfig(events=12, seed=2))
        config = ServiceConfig(port=0, batch_max=8)
        with running_service(network, similarity, config) as (client, service):
            client.send(trace)
            client.wait_idle()
            payload = client.assignment()
            assert payload["version"] < len(trace) + 1
            whatif = client.what_if({})
            assert whatif["delta"] == pytest.approx(0.0, abs=1e-9)
            assert service._events_applied == len(trace)


class TestReads:
    def test_host_view_and_404(self):
        network, similarity = workload(seed=3)
        with running_service(network, similarity) as (client, _):
            view = client.host_view("h0")
            assert view["host"] == "h0"
            for service_name, entry in view["services"].items():
                assert entry["assigned"] in entry["candidates"]
            with pytest.raises(ServiceError) as caught:
                client.host_view("h999")
            assert caught.value.status == 404

    def test_what_if_reports_override_delta(self):
        network, similarity = workload(seed=4)
        with running_service(network, similarity) as (client, _):
            payload = client.assignment()
            host = sorted(payload["assignment"])[0]
            service_name = sorted(payload["assignment"][host])[0]
            current = payload["assignment"][host][service_name]
            candidates = client.host_view(host)["services"][service_name][
                "candidates"
            ]
            other = next(c for c in candidates if c != current)
            whatif = client.what_if({host: {service_name: other}})
            assert whatif["changed"] == 1
            assert whatif["baseline_energy"] == pytest.approx(payload["energy"])
            # the solver picked `current`, so overriding can't improve E(N)
            assert whatif["delta"] >= -1e-9

    def test_what_if_rejects_unknown_names(self):
        network, similarity = workload(seed=4)
        with running_service(network, similarity) as (client, _):
            with pytest.raises(ServiceError) as caught:
                client.what_if({"nope": {"svc": "p"}})
            assert caught.value.status == 400

    def test_reads_stay_consistent_while_writer_churns(self):
        network, similarity = workload(hosts=40, seed=5)
        trace = random_churn_trace(
            network, ChurnConfig(events=20, seed=5, constraint_weight=0.3)
        )
        config = ServiceConfig(port=0, batch_max=1, high_water=10_000)
        with running_service(network, similarity, config) as (client, _):
            client.post_events(trace)
            versions = []
            # hammer reads while the writer drains the queue; every view must
            # be self-consistent: re-evaluating its own assignment on its own
            # network copy reproduces its own energy exactly.
            while True:
                whatif = client.what_if({})
                assert whatif["delta"] == pytest.approx(0.0, abs=1e-9)
                versions.append(whatif["version"])
                if client.healthz()["idle"]:
                    break
            assert versions == sorted(versions)  # monotone, no time travel
            final = client.what_if({})
            assert final["version"] == len(trace) + 1
            assert final["delta"] == pytest.approx(0.0, abs=1e-9)


class TestBackpressure:
    def test_429_past_high_water_then_recovery(self):
        network, similarity = workload(seed=6)
        trace = random_churn_trace(network, ChurnConfig(events=25, seed=6))
        config = ServiceConfig(
            port=0, batch_max=1, high_water=4, retry_after=0.05
        )
        with running_service(network, similarity, config) as (client, _):
            with pytest.raises(Backpressure) as caught:
                client.post_events(trace)
            assert caught.value.retry_after == pytest.approx(0.05)
            # honouring Retry-After drains the whole trace eventually
            assert client.send(trace, chunk=4) == len(trace)
            client.wait_idle()
            assert client.assignment()["events_applied"] == len(trace)

    def test_rejected_events_are_counted(self):
        network, similarity = workload(seed=6)
        trace = random_churn_trace(network, ChurnConfig(events=25, seed=6))
        config = ServiceConfig(port=0, high_water=4, retry_after=0.05)
        with running_service(network, similarity, config) as (client, _):
            with pytest.raises(Backpressure):
                client.post_events(trace)
            assert "repro_events_rejected_total 25" in client.metrics_text()


class TestValidation:
    def test_bad_event_is_400_and_nothing_queues(self):
        network, similarity = workload(seed=7)
        with running_service(network, similarity) as (client, service):
            with pytest.raises(ServiceError) as caught:
                client.post_events(
                    [{"type": "link_add", "a": "h0", "b": "h1"},
                     {"type": "reboot"}]
                )
            assert caught.value.status == 400
            assert service._queue.qsize() == 0

    def test_unroutable_path_is_404(self):
        network, similarity = workload(seed=7)
        with running_service(network, similarity) as (client, _):
            with pytest.raises(ServiceError) as caught:
                client._json("GET", "/bogus")
            assert caught.value.status == 404

    def test_inapplicable_event_fails_alone(self):
        # removing a link that does not exist fails that event only
        network, similarity = workload(seed=7)
        config = ServiceConfig(port=0, batch_max=8)
        with running_service(network, similarity, config) as (client, _):
            client.post_events(
                [{"type": "link_remove", "a": "h0", "b": "h0"},
                 {"type": "similarity", "product_a": "s0_p0",
                  "product_b": "s0_p1", "value": 0.9}]
            )
            client.wait_idle()
            text = client.metrics_text()
            assert "repro_events_failed_total 1" in text
            assert "repro_events_applied_total 1" in text


class TestMetricsEndpoint:
    def test_prometheus_exposition(self):
        network, similarity = workload(seed=8)
        with running_service(network, similarity) as (client, _):
            client.assignment()
            text = client.metrics_text()
            assert "# TYPE repro_solves_total counter" in text
            assert "repro_solves_total 1" in text
            assert 'repro_solve_seconds_bucket{le="+Inf"} 1' in text
            assert "repro_reads_total" in text
            assert "# TYPE repro_queue_depth gauge" in text


class TestSnapshotsOverHttp:
    def test_restart_resumes_with_parity(self, tmp_path):
        network, similarity = workload(seed=9)
        trace = random_churn_trace(
            network, ChurnConfig(events=8, seed=9, constraint_weight=0.3)
        )
        follow_up = random_churn_trace(
            network, ChurnConfig(events=4, seed=90)
        )
        report = replay_trace(
            network.copy(), similarity.copy(), list(trace) + list(follow_up)
        )
        offline = report.records[-1].energy

        config = ServiceConfig(port=0, batch_max=1, snapshot_dir=tmp_path)
        with running_service(network, similarity, config) as (client, _):
            client.send(trace)
            client.wait_idle()
        # graceful shutdown wrote a snapshot; restart from it
        restarted = DiversificationService.from_snapshot(
            ServiceConfig(port=0, batch_max=1, snapshot_dir=tmp_path)
        )
        with running_service(None, None, service=restarted) as (client, _):
            health = client.healthz()
            assert health["events_applied"] == len(trace)
            client.send(follow_up)
            client.wait_idle()
            payload = client.assignment()
            assert payload["energy"] == pytest.approx(offline, abs=1e-12)
            assert payload["events_applied"] == len(trace) + len(follow_up)

    def test_snapshot_endpoint_and_retention(self, tmp_path):
        network, similarity = workload(seed=10)
        config = ServiceConfig(
            port=0, batch_max=1, snapshot_dir=tmp_path,
            snapshot_every=1, keep_snapshots=2,
        )
        trace = random_churn_trace(network, ChurnConfig(events=5, seed=10))
        with running_service(network, similarity, config) as (client, _):
            forced = client.snapshot()
            assert forced["snapshot"] is not None
            client.send(trace)
            client.wait_idle()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 2  # retention pruned the rest
        assert names[-1] == "snap-00000006"  # boot solve + 5 events

    def test_snapshot_endpoint_409_when_disabled(self):
        network, similarity = workload(seed=10)
        with running_service(network, similarity) as (client, _):
            with pytest.raises(ServiceError) as caught:
                client.snapshot()
            assert caught.value.status == 409


class TestGracefulShutdown:
    def test_drain_applies_every_acknowledged_event(self):
        network, similarity = workload(seed=11)
        trace = random_churn_trace(network, ChurnConfig(events=15, seed=11))
        config = ServiceConfig(port=0, batch_max=1, high_water=10_000)
        with running_service(network, similarity, config) as (client, service):
            client.post_events(trace)       # acknowledged: all queued
            client.shutdown()               # drain starts immediately
        # running_service joined the thread: the drain has fully finished
        assert service._events_applied == len(trace)

    def test_events_refused_while_draining(self):
        network, similarity = workload(seed=11)
        trace = random_churn_trace(
            network, ChurnConfig(events=40, seed=11)
        )
        config = ServiceConfig(port=0, batch_max=1, high_water=10_000)
        with running_service(network, similarity, config) as (client, _):
            client.post_events(trace)
            client.shutdown()   # draining is set before the 202 goes out
            with pytest.raises(ServiceError) as caught:
                client.post_events(trace[:1])
            assert caught.value.status == 503


class TestCliWiring:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8351
        assert args.batch_max == 64
        assert args.high_water == 1024
        assert not args.restore

    def test_serve_parser_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--snapshot-dir", "/tmp/x",
             "--snapshot-every", "5", "--restore"]
        )
        assert args.port == 0
        assert args.snapshot_every == 5
        assert args.restore


class TestObservability:
    def test_debug_trace_409_when_disabled(self):
        network, similarity = workload(seed=8)
        with running_service(network, similarity) as (client, _):
            with pytest.raises(ServiceError) as failure:
                client.debug_trace()
            assert failure.value.status == 409

    def test_debug_trace_serves_chrome_tail(self):
        network, similarity = workload(seed=8)
        trace_events = random_churn_trace(
            network, ChurnConfig(events=6, seed=8)
        )
        config = ServiceConfig(port=0, batch_max=2, trace_tail=2048)
        with running_service(network, similarity, config) as (client, service):
            client.send(trace_events)
            client.wait_idle()
            payload = client.debug_trace()
            assert payload["displayTimeUnit"] == "ms"
            names = {event["name"] for event in payload["traceEvents"]}
            assert "service.batch" in names
            assert "stream.solve" in names
        # Shutdown releases the process-global trace the service owned.
        from repro import obs

        assert obs.current_trace() is None

    def test_metrics_cover_build_info_and_escalations(self):
        network, similarity = workload(seed=9)
        config = ServiceConfig(port=0, solve_buckets=(0.05, 0.5, 5.0))
        with running_service(network, similarity, config) as (client, _):
            client.wait_idle()
            text = client.metrics_text()
            assert 'repro_build_info{' in text
            assert 'solver="trws"' in text
            assert f'backend="{resolve_backend().describe()}"' in text
            assert "repro_backend_fallbacks_total 0" in text
            assert "sharded" not in text
            # The boot solve is a cold first solve — counted by reason.
            assert 'repro_escalations_total{reason="first_solve"} 1' in text
            # Custom buckets replace the defaults in the histogram.
            assert 'repro_solve_seconds_bucket{le="0.05"}' in text
            assert 'repro_solve_seconds_bucket{le="0.001"}' not in text
            assert "repro_shard_solve_seconds" not in text

    def test_config_validation(self):
        with pytest.raises(ValueError, match="log_level"):
            ServiceConfig(port=0, log_level="chatty")
        with pytest.raises(ValueError, match="trace_tail"):
            ServiceConfig(port=0, trace_tail=-1)
        with pytest.raises(ValueError, match="ascending"):
            ServiceConfig(port=0, solve_buckets=(0.5, 0.1))
        with pytest.raises(ValueError, match="positive"):
            ServiceConfig(port=0, solve_buckets=(0.0, 1.0))

    def test_serve_parser_observability_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--log-level", "debug",
             "--trace-tail", "4096", "--solve-buckets", "0.01,0.1,1"]
        )
        assert args.log_level == "debug"
        assert args.trace_tail == 4096
        assert args.solve_buckets == (0.01, 0.1, 1.0)

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "stream"])
        assert args.workload == "stream"
        assert args.out == "repro-trace.json"
        assert not hasattr(args, "monolithic")  # one engine, no switch


class TestClientResilience:
    def test_malformed_retry_after_falls_back_to_default(self):
        client = ServiceClient(port=1, default_retry_after=0.25)
        for bad in ("soon", "", None, "-3"):
            headers = {} if bad is None else {"Retry-After": bad}
            client._request = lambda *a, **k: (
                429, headers, b'{"error": "busy"}'
            )
            with pytest.raises(Backpressure) as caught:
                client._json("POST", "/events", {})
            assert caught.value.retry_after == 0.25

    def test_valid_retry_after_is_honoured(self):
        client = ServiceClient(port=1, default_retry_after=0.25)
        client._request = lambda *a, **k: (
            429, {"Retry-After": "1.5"}, b'{"error": "busy"}'
        )
        with pytest.raises(Backpressure) as caught:
            client._json("GET", "/healthz")
        assert caught.value.retry_after == 1.5

    def test_transient_errors_retry_then_succeed(self, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: naps.append(s)
        )
        client = ServiceClient(port=1, retries=3, backoff=0.05)
        attempts = []

        def flaky(method, path, payload=None):
            attempts.append(path)
            if len(attempts) < 3:
                raise ConnectionRefusedError("not up yet")
            return 200, {}, b'{"ok": true}'

        client._request_once = flaky
        assert client._json("GET", "/healthz") == {"ok": True}
        assert len(attempts) == 3
        assert len(naps) == 2
        assert naps[1] > naps[0] * 0.5  # backoff grows (modulo jitter)

    def test_transient_errors_exhaust_and_raise(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: None
        )
        client = ServiceClient(port=1, retries=2)

        def dead(method, path, payload=None):
            raise ConnectionResetError("gone")

        client._request_once = dead
        with pytest.raises(ConnectionResetError):
            client._json("GET", "/healthz")

    def test_http_error_statuses_are_not_retried(self):
        client = ServiceClient(port=1, retries=3)
        calls = []

        def server_error(method, path, payload=None):
            calls.append(1)
            return 500, {}, b'{"error": "boom"}'

        client._request_once = server_error
        with pytest.raises(ServiceError):
            client._json("GET", "/healthz")
        assert len(calls) == 1


class TestIdempotentResend:
    def test_duplicate_request_id_applies_once(self):
        network, similarity = workload(seed=11)
        trace_events = random_churn_trace(
            network, ChurnConfig(events=4, seed=11)
        )
        config = ServiceConfig(port=0, batch_max=1)
        with running_service(network, similarity, config) as (client, _):
            first = client.post_events(trace_events[:2], request_id="req-1")
            dup = client.post_events(trace_events[:2], request_id="req-1")
            client.wait_idle()
            payload = client.assignment()
        assert first.get("duplicate") is None
        assert dup["duplicate"] is True
        assert dup["request_id"] == "req-1"
        assert payload["events_applied"] == 2  # not 4

    def test_fresh_request_ids_apply_independently(self):
        network, similarity = workload(seed=12)
        trace_events = random_churn_trace(
            network, ChurnConfig(events=4, seed=12)
        )
        config = ServiceConfig(port=0, batch_max=1)
        with running_service(network, similarity, config) as (client, _):
            client.post_events(trace_events[:2], request_id="req-a")
            client.post_events(trace_events[2:], request_id="req-b")
            client.wait_idle()
            payload = client.assignment()
        assert payload["events_applied"] == 4

    def test_bare_event_list_still_accepted(self):
        # The pre-envelope wire format (a raw JSON array) must keep working.
        network, similarity = workload(seed=13)
        trace_events = random_churn_trace(
            network, ChurnConfig(events=2, seed=13)
        )
        config = ServiceConfig(port=0, batch_max=1)
        with running_service(network, similarity, config) as (client, _):
            wire = ServiceClient.normalize_events(trace_events)
            response = client._json("POST", "/events", wire)
            client.wait_idle()
            payload = client.assignment()
        assert response["queued"] == 2
        assert payload["events_applied"] == 2

    def test_wal_config_validation(self):
        with pytest.raises(ValueError, match="fsync"):
            ServiceConfig(port=0, fsync="sometimes")
        with pytest.raises(ValueError, match="wal_segment_bytes"):
            ServiceConfig(port=0, wal_segment_bytes=0)
        with pytest.raises(ValueError, match="wal_segment_records"):
            ServiceConfig(port=0, wal_segment_records=0)
        config = ServiceConfig(port=0, wal_dir="/tmp/w", fsync="always")
        assert config.wal_enabled
        assert not ServiceConfig(port=0).wal_enabled
