"""Crash-recovery tests for the service tier: kill the daemon at seeded
fault points, restart from snapshot + WAL tail, and demand byte-identical
state versus a twin that never crashed.  Also covers the graceful
degradation ladder (forced cold rebuild -> dead letter), snapshot
corruption fallback, and acknowledged-write durability."""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.service import (
    DiversificationService,
    InjectedCrash,
    ServiceClient,
    ServiceConfig,
    parse_fault_plan,
)
from repro.service.snapshot import latest_valid_snapshot, load_snapshot
from repro.stream import ChurnConfig, random_churn_trace

PARITY_KEYS = ("assignment", "energy", "version", "events_applied")


def workload(hosts=24, seed=0):
    config = RandomNetworkConfig(
        hosts=hosts, degree=2, services=2,
        products_per_service=4, similarity_density=0.3, seed=seed,
    )
    return random_network(config), random_similarity(config)


@contextlib.contextmanager
def running_service(service, crash=False):
    """Run a service on a daemon thread; ``crash=True`` aborts instead of
    draining on exit — the in-process stand-in for SIGKILL."""
    started = threading.Event()
    failure = []
    box = {}

    async def runner():
        box["loop"] = asyncio.get_running_loop()
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
        if crash:
            asyncio.run_coroutine_threadsafe(
                service.abort(), box["loop"]
            ).result(timeout=60)
        else:
            with contextlib.suppress(Exception):
                client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive(), "service did not stop"


def run_to_completion(network, similarity, trace, chunk=3, **config_kw):
    """Feed the whole trace through a fresh service; return the final view."""
    config = ServiceConfig(port=0, batch_max=1, **config_kw)
    service = DiversificationService(
        network.copy(), similarity.copy(), config=config
    )
    with running_service(service) as (client, _):
        client.send(trace, chunk=chunk)
        client.wait_idle()
        return client.assignment()


def crash_after(network, similarity, trace, upto, chunk=3, **config_kw):
    """Ingest ``trace[:upto]``, snapshot on cadence, then die ungracefully."""
    config = ServiceConfig(port=0, batch_max=1, **config_kw)
    service = DiversificationService(
        network.copy(), similarity.copy(), config=config
    )
    with running_service(service, crash=True) as (client, _):
        client.send(trace[:upto], chunk=chunk)
        client.wait_idle()
        return client.assignment()


def metric_value(text, name):
    for line in text.splitlines():
        if line.split(" ")[0] == name:
            return float(line.rsplit(" ", 1)[1])
    return None


class TestCrashRecoveryParity:
    @pytest.mark.parametrize("kill_point", [2, 5, 9])
    def test_snapshot_plus_tail_matches_uncrashed_twin(
        self, tmp_path, kill_point
    ):
        network, similarity = workload(seed=10)
        trace = random_churn_trace(
            network, ChurnConfig(events=12, seed=10, constraint_weight=0.3)
        )
        twin = run_to_completion(network, similarity, trace)
        durable = dict(
            wal_dir=tmp_path / "wal",
            snapshot_dir=tmp_path / "snaps",
            snapshot_every=3,
            fsync="always",
        )
        pre = crash_after(network, similarity, trace, kill_point, **durable)
        restarted = DiversificationService.from_snapshot(
            ServiceConfig(port=0, batch_max=1, **durable)
        )
        with running_service(restarted) as (client, _):
            post = client.assignment()
            for key in PARITY_KEYS:
                assert post[key] == pre[key], key
            client.send(trace[kill_point:], chunk=3)
            client.wait_idle()
            final = client.assignment()
        for key in PARITY_KEYS:
            assert final[key] == twin[key], key

    def test_wal_only_recovery_replays_from_scratch(self, tmp_path):
        network, similarity = workload(seed=11)
        trace = random_churn_trace(network, ChurnConfig(events=8, seed=11))
        twin = run_to_completion(network, similarity, trace)
        crash_after(
            network, similarity, trace, len(trace),
            wal_dir=tmp_path, fsync="always",
        )
        restarted = DiversificationService(
            network.copy(), similarity.copy(),
            config=ServiceConfig(port=0, batch_max=1, wal_dir=tmp_path),
            recover=True,
        )
        with running_service(restarted) as (client, _):
            post = client.assignment()
        for key in PARITY_KEYS:
            assert post[key] == twin[key], key

    def test_seeded_crash_points_sweep(self, tmp_path):
        # Property-style: several seeds, each with a derived kill point;
        # every one must recover to twin parity.
        for seed in (20, 21, 22):
            network, similarity = workload(seed=seed)
            trace = random_churn_trace(
                network, ChurnConfig(events=10, seed=seed)
            )
            kill_point = 1 + seed % len(trace)
            root = tmp_path / f"seed-{seed}"
            durable = dict(
                wal_dir=root / "wal",
                snapshot_dir=root / "snaps",
                snapshot_every=3,
                fsync="always",
            )
            twin = run_to_completion(network, similarity, trace)
            crash_after(network, similarity, trace, kill_point, **durable)
            config = ServiceConfig(port=0, batch_max=1, **durable)
            try:
                restarted = DiversificationService.from_snapshot(config)
            except ValueError:
                # crashed before the first snapshot: the operator path is
                # a fresh bootstrap replaying the whole log (the CLI
                # --restore fallback).
                restarted = DiversificationService(
                    network.copy(), similarity.copy(),
                    config=config, recover=True,
                )
            with running_service(restarted) as (client, _):
                client.send(trace[kill_point:], chunk=3)
                client.wait_idle()
                final = client.assignment()
            for key in PARITY_KEYS:
                assert final[key] == twin[key], (seed, key)

    def test_acked_events_survive_with_fsync_always(self, tmp_path):
        network, similarity = workload(seed=13)
        trace = random_churn_trace(network, ChurnConfig(events=6, seed=13))
        pre = crash_after(
            network, similarity, trace, len(trace),
            wal_dir=tmp_path, fsync="always",
        )
        assert pre["events_applied"] == len(trace)
        restarted = DiversificationService(
            network.copy(), similarity.copy(),
            config=ServiceConfig(port=0, batch_max=1, wal_dir=tmp_path),
            recover=True,
        )
        with running_service(restarted) as (client, _):
            post = client.assignment()
        assert post["events_applied"] == len(trace)

    def test_dirty_wal_without_recover_is_refused(self, tmp_path):
        network, similarity = workload(seed=14)
        trace = random_churn_trace(network, ChurnConfig(events=3, seed=14))
        crash_after(
            network, similarity, trace, len(trace),
            wal_dir=tmp_path, fsync="always",
        )
        with pytest.raises(ValueError, match="already holds records"):
            DiversificationService(
                network.copy(), similarity.copy(),
                config=ServiceConfig(port=0, wal_dir=tmp_path),
            )


class TestSnapshotHardening:
    def _durable(self, tmp_path, **extra):
        base = dict(
            wal_dir=tmp_path / "wal",
            snapshot_dir=tmp_path / "snaps",
            snapshot_every=2,
            fsync="always",
        )
        base.update(extra)
        return base

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        network, similarity = workload(seed=15)
        trace = random_churn_trace(network, ChurnConfig(events=8, seed=15))
        durable = self._durable(tmp_path, keep_snapshots=10)
        pre = crash_after(network, similarity, trace, len(trace), **durable)
        snaps = sorted((tmp_path / "snaps").glob("snap-*"))
        assert len(snaps) >= 2
        # vandalise the newest generation's arrays
        (snaps[-1] / "arrays.npz").write_bytes(b"not a zip")
        found = latest_valid_snapshot(tmp_path / "snaps")
        assert found is not None and found[0] == snaps[-2]
        restarted = DiversificationService.from_snapshot(
            ServiceConfig(port=0, batch_max=1, **durable)
        )
        with running_service(restarted) as (client, _):
            post = client.assignment()
        for key in PARITY_KEYS:
            assert post[key] == pre[key], key

    def test_sha256_tamper_is_detected(self, tmp_path):
        network, similarity = workload(seed=16)
        trace = random_churn_trace(network, ChurnConfig(events=4, seed=16))
        durable = self._durable(tmp_path)
        crash_after(network, similarity, trace, len(trace), **durable)
        snaps = sorted((tmp_path / "snaps").glob("snap-*"))
        arrays = snaps[-1] / "arrays.npz"
        blob = bytearray(arrays.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="sha256|checksum|integrity"):
            load_snapshot(snaps[-1])

    def test_meta_records_wal_seq_and_view(self, tmp_path):
        network, similarity = workload(seed=17)
        trace = random_churn_trace(network, ChurnConfig(events=4, seed=17))
        durable = self._durable(tmp_path)
        crash_after(network, similarity, trace, len(trace), **durable)
        found = latest_valid_snapshot(tmp_path / "snaps")
        assert found is not None
        snapshot = found[1]
        assert snapshot.wal_seq > 0
        assert snapshot.view is not None
        assert snapshot.view["energy"] is not None
        assert snapshot.meta["arrays_sha256"]


class TestGracefulDegradation:
    def test_solver_failure_escalates_to_forced_cold_rebuild(self):
        network, similarity = workload(seed=18)
        trace = random_churn_trace(network, ChurnConfig(events=5, seed=18))
        config = ServiceConfig(
            port=0, batch_max=1, fault_plan=parse_fault_plan("solve:error:3")
        )
        service = DiversificationService(
            network.copy(), similarity.copy(), config=config
        )
        with running_service(service) as (client, _):
            client.send(trace, chunk=2)
            client.wait_idle()
            payload = client.assignment()
            text = client.metrics_text()
        assert payload["events_applied"] == len(trace)
        assert payload["version"] == len(trace) + 1
        assert metric_value(text, "repro_writer_failures_total") == 1.0
        assert 'repro_escalations_total{reason="forced"} 1' in text

    def test_twice_failed_batch_lands_in_dead_letter(self, tmp_path):
        network, similarity = workload(seed=19)
        trace = random_churn_trace(network, ChurnConfig(events=5, seed=19))
        config = ServiceConfig(
            port=0, batch_max=1, wal_dir=tmp_path,
            fault_plan=parse_fault_plan("solve:error:3:2"),
        )
        service = DiversificationService(
            network.copy(), similarity.copy(), config=config
        )
        with running_service(service) as (client, _):
            client.send(trace, chunk=2)
            client.wait_idle()
            payload = client.assignment()
            text = client.metrics_text()
        # the queue kept moving: every event applied, one batch quarantined
        assert payload["events_applied"] == len(trace)
        assert metric_value(text, "repro_dead_letter_total") == 1.0
        assert metric_value(text, "repro_writer_failures_total") == 2.0
        rows = [
            json.loads(line)
            for line in (tmp_path / "dead-letter.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 1
        assert rows[0]["seq"] == 2  # boot solve is hit 1, event 2's solve dies
        assert "type" in rows[0]["event"]

    def test_snapshot_failure_is_counted_and_survived(self, tmp_path):
        network, similarity = workload(seed=23)
        trace = random_churn_trace(network, ChurnConfig(events=6, seed=23))
        config = ServiceConfig(
            port=0, batch_max=1, snapshot_dir=tmp_path, snapshot_every=2,
            fault_plan=parse_fault_plan("snapshot:error:1"),
        )
        service = DiversificationService(
            network.copy(), similarity.copy(), config=config
        )
        with running_service(service) as (client, _):
            client.send(trace, chunk=2)
            client.wait_idle()
            text = client.metrics_text()
        assert metric_value(text, "repro_snapshot_failures_total") == 1.0
        assert list(tmp_path.glob("snap-*"))  # later generations landed

    def test_injected_crash_is_not_swallowed_by_except_exception(self):
        with pytest.raises(InjectedCrash):
            try:
                raise InjectedCrash("boom")
            except Exception:  # noqa: BLE001 - the guarantee under test
                pytest.fail("InjectedCrash must escape Exception handlers")


class TestWalIngestion:
    def test_wal_metrics_and_health_surface(self, tmp_path):
        network, similarity = workload(seed=24)
        trace = random_churn_trace(network, ChurnConfig(events=4, seed=24))
        config = ServiceConfig(port=0, batch_max=2, wal_dir=tmp_path)
        service = DiversificationService(
            network.copy(), similarity.copy(), config=config
        )
        with running_service(service) as (client, _):
            client.send(trace, chunk=2)
            client.wait_idle()
            health = client.healthz()
            text = client.metrics_text()
        assert health["wal"] is True
        assert health["wal_seq"] == len(trace)
        assert metric_value(text, "repro_wal_records_total") == len(trace)
        assert metric_value(text, "repro_wal_last_seq") == len(trace)

    def test_compaction_prunes_covered_segments(self, tmp_path):
        network, similarity = workload(seed=25)
        trace = random_churn_trace(network, ChurnConfig(events=10, seed=25))
        config = ServiceConfig(
            port=0, batch_max=1,
            wal_dir=tmp_path / "wal",
            snapshot_dir=tmp_path / "snaps",
            snapshot_every=2,
            wal_segment_records=2,
        )
        service = DiversificationService(
            network.copy(), similarity.copy(), config=config
        )
        with running_service(service) as (client, _):
            client.send(trace, chunk=2)
            client.wait_idle()
        segments = list((tmp_path / "wal").glob("wal-*.log"))
        # ten events at two records/segment would be five segments;
        # snapshot-anchored compaction must have pruned the covered ones.
        assert len(segments) < 5
