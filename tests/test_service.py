"""Tests for the service layer's offline pieces: event codec, config,
metrics, and on-disk snapshots (byte-identical restore + warm parity)."""

import hashlib
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.costs import assignment_energy
from repro.mrf.backends import get_backend
from repro.network.constraints import GLOBAL, AvoidCombination, FixProduct
from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.service import (
    SNAPSHOT_SCHEMA,
    DiversificationService,
    ServiceClient,
    ServiceConfig,
    ServiceMetrics,
    latest_snapshot,
    load_snapshot,
    prune_snapshots,
    restore_engine,
    restore_plan,
    save_snapshot,
)
from repro.stream import (
    ChurnConfig,
    CombinationUpdate,
    DynamicDiversifier,
    HostJoin,
    HostLeave,
    LinkAdd,
    LinkRemove,
    event_from_dict,
    event_to_dict,
    random_churn_trace,
)

LEGACY_SNAPSHOTS = Path(__file__).parent / "data" / "sharded_daemon_snapshot"
SRC = Path(__file__).resolve().parents[1] / "src"


def workload(hosts=24, degree=2, services=2, pps=4, seed=0):
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=pps, similarity_density=0.3, seed=seed,
    )
    return random_network(config), random_similarity(config)


def churny_engine(events=10, seed=0, constraint_weight=0.3, **options):
    """An engine that has lived through a trace (plan patched in place)."""
    network, similarity = workload(seed=seed)
    trace = random_churn_trace(
        network,
        ChurnConfig(events=events, seed=seed, constraint_weight=constraint_weight),
    )
    engine = DynamicDiversifier(network, similarity, **options)
    engine.solve()
    for event in trace:
        engine.apply(event)
        engine.solve()
    return engine, trace


def estate_engine():
    """A solved engine on the 30-host, 2-service, 4-product estate."""
    network, similarity = workload(hosts=30, seed=3)
    engine = DynamicDiversifier(network, similarity)
    engine.solve()
    return engine


class TestEventCodec:
    def test_round_trip_every_type(self):
        network, _ = workload()
        trace = random_churn_trace(
            network,
            ChurnConfig(events=60, seed=4, constraint_weight=0.5),
        )
        seen = set()
        for event in trace:
            wire = event_to_dict(event)
            seen.add(wire["type"])
            again = event_from_dict(json.loads(json.dumps(wire)))
            assert event_to_dict(again) == wire
            assert type(again) is type(event)

        assert "link_add" in seen or "link_remove" in seen

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"type": "reboot"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            event_from_dict({"type": "link_add", "a": "h0"})

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            event_from_dict(["link_add"])


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.port == 8351
        assert not config.snapshots_enabled

    def test_snapshot_dir_coerced_to_path(self, tmp_path):
        config = ServiceConfig(snapshot_dir=str(tmp_path))
        assert config.snapshots_enabled
        assert config.snapshot_dir == tmp_path

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 70000},
            {"fsync": "sometimes"},
            {"batch_max": 0},
            {"high_water": 0},
            {"retry_after": 0.0},
            {"snapshot_every": -1},
            {"keep_snapshots": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestServiceMetrics:
    def test_counters_and_gauges_render(self):
        metrics = ServiceMetrics()
        metrics.inc("events_ingested_total", 5)
        metrics.set_gauge("queue_depth", 3)
        text = metrics.render()
        assert "repro_events_ingested_total 5" in text
        assert "repro_queue_depth 3" in text
        # pre-registered counters scrape as zero even before first use
        assert "repro_snapshots_total 0" in text

    def test_histogram_is_cumulative(self):
        metrics = ServiceMetrics()
        metrics.observe_solve(0.0005)   # below first bound
        metrics.observe_solve(0.03)     # mid bucket
        metrics.observe_solve(99.0)     # beyond last bound -> +Inf only
        text = metrics.render()
        assert 'repro_solve_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_solve_seconds_bucket{le="0.05"} 2' in text
        assert 'repro_solve_seconds_bucket{le="5.0"} 2' in text
        assert 'repro_solve_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_solve_seconds_count 3" in text


class TestSnapshotRoundTrip:
    def test_arrays_restore_byte_identical(self, tmp_path):
        engine, _ = churny_engine(seed=1)
        host = engine.network.hosts[0]
        engine.apply(CombinationUpdate(AvoidCombination(
            GLOBAL, "s0", engine.network.candidates(host, "s0")[0],
            "s1", engine.network.candidates(host, "s1")[0],
        )))
        engine.solve()
        path = save_snapshot(engine, tmp_path, version=7)
        snapshot = load_snapshot(path)
        assert snapshot.version == 7

        live = engine.plan
        live.flush()
        restored = restore_plan(snapshot)

        assert restored.variables == live.variables
        assert restored.candidates == live.candidates
        for name in ("unary", "label_counts", "edge_first", "edge_second",
                     "edge_cid", "cost"):
            assert np.array_equal(
                getattr(restored.plan, name), getattr(live.plan, name)
            ), name
        assert np.array_equal(restored.messages, live.messages)
        assert np.array_equal(restored.labels, live.labels)
        for name in ("_edge_first", "_edge_second", "_edge_cid"):
            assert np.array_equal(
                getattr(restored, name), getattr(live, name)
            ), name
        assert restored._combo_cids == live._combo_cids
        assert live._combo_cids  # the trace left combination tables

    def test_restore_compiles_nothing(self, tmp_path, monkeypatch):
        import repro.core.compile as compile_module

        engine, _ = churny_engine(seed=2)
        path = save_snapshot(engine, tmp_path, version=1)
        calls = []
        compile_plan = compile_module.compile_plan

        def counted(*args, **kwargs):
            calls.append(1)
            return compile_plan(*args, **kwargs)

        monkeypatch.setattr(compile_module, "compile_plan", counted)
        restored, _ = restore_engine(path)
        assert calls == []
        assert restored.solve().warm
        # The counter sees the engine's compiles: a cold rebuild is one.
        restored.solve(force_cold=True)
        assert calls == [1]

    def test_restore_keeps_the_compile_checks(self, tmp_path):
        engine, _ = churny_engine(seed=2)
        snapshot = load_snapshot(save_snapshot(engine, tmp_path, version=1))
        for change in ({"pairwise_weight": -1.0},
                       {"service_weights": {"svc0": -0.5}}):
            meta = {**snapshot.meta, **change}
            with pytest.raises(ValueError, match="non-negative"):
                restore_engine(replace(snapshot, meta=meta))
        host = snapshot.network.hosts[0]
        service = snapshot.network.services_of(host)[0]
        constraints = snapshot.constraints.copy()
        constraints.add(FixProduct(host, service, "no-such-product"))
        with pytest.raises(ValueError):
            restore_engine(replace(snapshot, constraints=constraints))

    def test_restore_rejects_a_bp_snapshot_solver(self, tmp_path):
        # Loopy BP's messages are no TRW-S state: a snapshot an older BP
        # daemon wrote must not resume silently under TRW-S.
        path = save_snapshot(estate_engine(), tmp_path, version=1)
        meta = json.loads((path / "meta.json").read_text())
        assert meta["solver"] == "trws"
        (path / "meta.json").write_text(json.dumps({**meta, "solver": "bp"}))
        with pytest.raises(ValueError, match="'bp' daemon"):
            restore_engine(path)

    def test_self_loop_in_snapshot_edges_is_rejected(self, tmp_path):
        # A corrupted snapshot used to hang the plan build: a self-loop
        # never lets the wavefront levels settle.
        engine, _ = churny_engine(seed=3)
        snapshot = load_snapshot(save_snapshot(engine, tmp_path, version=1))
        edge_second = snapshot.edge_second.copy()
        edge_second[1] = snapshot.edge_first[1]
        node = int(edge_second[1])
        with pytest.raises(ValueError, match=rf"edge 1 \({node}, {node}\)"):
            restore_plan(replace(snapshot, edge_second=edge_second))

    def test_restore_rejects_label_counts_off_the_candidate_ranges(
        self, tmp_path
    ):
        # A unary block cut to fewer labels than the node's candidate range
        # would restore and solve with a product silently excluded.
        engine, _ = churny_engine(seed=2)
        snapshot = load_snapshot(save_snapshot(engine, tmp_path, version=1))
        counts = snapshot.label_counts.copy()
        unary = snapshot.unary.copy()
        counts[0] -= 1
        unary[0, counts[0]:] = 0.0
        host, service = snapshot.meta["variables"][0]
        with pytest.raises(
            ValueError,
            match=rf"node 0 \({host}, {service}\) has {counts[0]} labels but",
        ):
            restore_engine(replace(snapshot, label_counts=counts, unary=unary))

    def test_restore_rejects_a_stored_label_out_of_range(self, tmp_path):
        engine, _ = churny_engine(seed=2)
        snapshot = load_snapshot(save_snapshot(engine, tmp_path, version=1))
        labels = snapshot.labels.copy()
        labels[5] = snapshot.label_counts[5]
        with pytest.raises(
            ValueError, match=rf"node 5 \(.*\) stores label {labels[5]} outside"
        ):
            restore_engine(replace(snapshot, labels=labels))

    def test_restore_checks_matrix_key_count(self, tmp_path):
        snapshot = load_snapshot(save_snapshot(estate_engine(), tmp_path, 1))
        keys = snapshot.meta["matrix_meta"][:-1]
        with pytest.raises(ValueError, match=r"1 matrix keys for 2 matrices"):
            restore_plan(
                replace(snapshot, meta={**snapshot.meta, "matrix_meta": keys})
            )

    def test_restore_checks_matrix_key_shape(self, tmp_path):
        snapshot = load_snapshot(save_snapshot(estate_engine(), tmp_path, 1))
        matrices = list(snapshot.matrices)
        matrices[1] = matrices[1][:, :-1]
        with pytest.raises(
            ValueError, match=r"matrix 1 has shape \(4, 3\), not its key's"
        ):
            restore_plan(replace(snapshot, matrices=matrices))

    @pytest.mark.parametrize("corruption", ["weight", "cost id"])
    def test_restore_checks_matrix_key_of_each_edge(self, tmp_path, corruption):
        snapshot = load_snapshot(save_snapshot(estate_engine(), tmp_path, 1))
        keys = [list(key) for key in snapshot.meta["matrix_meta"]]
        cid = snapshot.edge_cid.copy()
        if corruption == "weight":
            keys[0][2] *= 2
            edge = int(np.argmax(cid == 0))
            problem = rf"snapshot edge {edge} \(.* does not fit"
        else:
            # The plan build checks every cost id before the keys.
            cid[3] = len(keys)
            problem = rf"edge 3 \(.*\) has cost id {len(keys)} outside"
        with pytest.raises(ValueError, match=problem):
            restore_plan(replace(
                snapshot, meta={**snapshot.meta, "matrix_meta": keys},
                edge_cid=cid,
            ))

    def test_restore_checks_matrix_key_swap(self, tmp_path):
        # Swapped keys used to restore silently: the next similarity
        # update then re-scored the wrong matrices, and the engine
        # reported energies its assignments do not have.
        snapshot = load_snapshot(save_snapshot(estate_engine(), tmp_path, 1))
        keys = list(snapshot.meta["matrix_meta"])
        keys[0], keys[-1] = keys[-1], keys[0]
        with pytest.raises(ValueError, match=r"does not fit the key of matrix"):
            restore_plan(
                replace(snapshot, meta={**snapshot.meta, "matrix_meta": keys})
            )

    def test_older_snapshot_rotated_edge_keys_are_ignored(self, tmp_path):
        """Older builds wrote per-edge ``edge_keys`` and ``combo_cids``
        and trusted them on restore; keys that disagree with the edge
        columns made the next ``LinkRemove`` delete the wrong edges.  Every
        key is read off the endpoints now, so they change nothing."""
        engine = estate_engine()
        path = save_snapshot(engine, tmp_path, version=1)
        meta = json.loads((path / "meta.json").read_text())
        with np.load(path / "arrays.npz") as blob:
            ends = zip(blob["edge_first"].tolist(), blob["edge_second"].tolist())
        keys = []
        for first, second in ends:
            (host_a, svc_a), (host_b, svc_b) = (
                meta["variables"][first], meta["variables"][second]
            )
            tag = svc_a if host_a != host_b else [svc_a, svc_b]
            keys.append([sorted([host_a, host_b]), tag])
        meta["edge_keys"] = keys[1:] + keys[:1]
        meta["combo_cids"] = []
        (path / "meta.json").write_text(json.dumps(meta))

        restored, _ = restore_engine(path)
        a, b = engine.network.links[0]
        for twin in (restored, engine):
            twin.apply(LinkRemove(a, b))
        result, expected = restored.solve(), engine.solve()
        assert result.energy == expected.energy
        assert np.array_equal(restored.plan.labels, engine.plan.labels)
        assert result.energy == pytest.approx(
            assignment_energy(
                restored.network, restored.similarity, result.assignment,
                constraints=restored.constraints,
            ),
            abs=1e-9,
        )

    def test_restore_rejects_a_unary_block_of_the_wrong_shape(self, tmp_path):
        engine, _ = churny_engine(seed=2)
        path = save_snapshot(engine, tmp_path, version=1)
        snapshot = load_snapshot(path)
        widest = int(np.argmax(snapshot.label_counts))
        with pytest.raises(
            ValueError, match=rf"node {widest} \(.*\) has .* unary block's width"
        ):
            restore_plan(replace(snapshot, unary=snapshot.unary[:, :-1]))
        with pytest.raises(ValueError, match="node table"):
            restore_plan(replace(snapshot, unary=snapshot.unary[:-1]))
        # On disk, the block's width must match the recorded lmax.
        arrays = path / "arrays.npz"
        with np.load(arrays) as blob:
            blocks = dict(blob)
        blocks["lmax"] = blocks["lmax"] + 1
        np.savez(arrays, **blocks)
        meta = json.loads((path / "meta.json").read_text())
        meta["arrays_sha256"] = hashlib.sha256(arrays.read_bytes()).hexdigest()
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="lmax"):
            load_snapshot(path)

    def test_padding_width_survives_a_snapshot(self, tmp_path):
        """A wider host joins and the widest host leaves: the plan keeps
        the wider padding, and so do the snapshot and the restored plan,
        whose warm solves then match the engine that never restarted."""
        network, similarity = workload(seed=7)
        engine = DynamicDiversifier(network, similarity)
        engine.solve()
        wide = (
            ("s0", tuple(f"s0_p{k}" for k in range(6))),
            ("s1", network.candidates("h0", "s1")),
        )
        engine.apply(HostJoin("wide", wide, ("h0", "h1")))
        assert engine.solve().warm
        engine.apply(HostLeave("wide"))
        assert engine.solve().warm
        live = engine.plan
        assert live.plan.lmax == 6 and live.plan.label_counts.max() == 4

        path = save_snapshot(engine, tmp_path, version=1)
        with np.load(path / "arrays.npz") as blob:
            assert blob["unary"].shape[1] == blob["lmax"][0] == 6
        restored, _ = restore_engine(path)
        again = restored.plan
        for name in ("unary", "label_counts", "mask", "unary_inf",
                     "edge_first", "edge_second", "edge_cid", "cost",
                     "gamma"):
            left, right = getattr(live.plan, name), getattr(again.plan, name)
            assert (left.dtype, left.shape) == (right.dtype, right.shape)
            assert left.tobytes() == right.tobytes(), name
        assert again.messages.shape == (2 * live.edge_count, 6)
        assert again.messages.tobytes() == live.messages.tobytes()

        follow_up = random_churn_trace(
            network, ChurnConfig(events=6, seed=5, constraint_weight=0.3)
        )
        for event in follow_up:
            engine.apply(event)
            restored.apply(event)
            expected, result = engine.solve(), restored.solve()
            assert result.warm == expected.warm
            assert result.energy == expected.energy
            assert result.lower_bound == expected.lower_bound
            assert np.array_equal(again.labels, live.labels)
            assert again.messages.tobytes() == live.messages.tobytes()

    def test_warm_solve_matches_never_restarted_engine(self, tmp_path):
        engine, _ = churny_engine(seed=2)
        path = save_snapshot(engine, tmp_path, version=1, events_applied=10)

        twin, snapshot = restore_engine(path)
        assert snapshot.events_applied == 10

        network = engine.network
        follow_up = random_churn_trace(
            network, ChurnConfig(events=6, seed=99, constraint_weight=0.3)
        )
        for event in follow_up:
            engine.apply(event)
            twin.apply(event)
            original = engine.solve()
            restarted = twin.solve()
            assert restarted.warm == original.warm
            assert restarted.energy == pytest.approx(original.energy, abs=1e-12)
            assert (
                restarted.assignment.as_dict() == original.assignment.as_dict()
            )

    def test_structural_events_after_restore_match_twin(self, tmp_path):
        """A plan restored mid-trace edits its rows exactly like a plan
        that never went through a snapshot: link ids, alive masks and the
        rest of the installed state are complete."""
        network, similarity = workload(seed=11)
        trace = random_churn_trace(
            network,
            ChurnConfig(events=8, seed=11, constraint_weight=0.3),
        )
        saver = DynamicDiversifier(network.copy(), similarity.copy())
        twin = DynamicDiversifier(network.copy(), similarity.copy())
        for engine in (saver, twin):
            engine.solve()
            for event in trace[:4]:
                engine.apply(event)
                engine.solve()
        path = save_snapshot(saver, tmp_path, version=1)
        restored, _ = restore_engine(path)

        def step(events):
            for engine in (restored, twin):
                engine.apply_all(events)
            result, expected = restored.solve(), twin.solve()
            assert result.energy == expected.energy
            assert result.lower_bound == expected.lower_bound
            assert np.array_equal(restored.plan.labels, twin.plan.labels)
            assert np.array_equal(
                restored.plan.messages, twin.plan.messages
            )

        for event in trace[4:]:
            step([event])
        live = twin.network
        a, b = live.links[0]
        leaver = next(h for h in live.hosts if h not in (a, b))
        template = live.hosts[-1]
        peers = tuple(
            h for h in live.hosts if h not in (leaver, template)
        )[:2]
        step([LinkRemove(a, b)])
        step([HostLeave(leaver)])
        step([HostJoin("newcomer", tuple(live.service_ranges(template)),
                       peers)])
        # One batch mixing all three.
        step([LinkRemove(peers[0], "newcomer"), HostLeave(template),
              HostJoin("second", tuple(live.service_ranges(peers[1])),
                       (peers[1],))])

    def test_restore_preserves_constraints_and_cost_model(self, tmp_path):
        engine, _ = churny_engine(
            seed=3, unary_constant=0.05, pairwise_weight=2.0
        )
        path = save_snapshot(engine, tmp_path, version=1)
        twin, _ = restore_engine(path)
        assert len(twin.constraints) == len(engine.constraints)
        assert twin.plan.unary_constant == engine.plan.unary_constant
        assert twin.plan.pairwise_weight == engine.plan.pairwise_weight
        assert twin.similarity._pairs == engine.similarity._pairs

    def test_meta_records_schema_and_energy(self, tmp_path):
        engine, _ = churny_engine(seed=4)
        result = engine.solve()
        path = save_snapshot(
            engine, tmp_path, version=3, events_applied=10, energy=result.energy
        )
        meta = json.loads((path / "meta.json").read_text())
        assert meta["schema"] == SNAPSHOT_SCHEMA
        assert meta["version"] == 3
        assert meta["energy"] == pytest.approx(result.energy)
        # Edge keys are read off the endpoints; older builds stored them.
        assert not {"edge_keys", "combo_cids"} & set(meta)

    def test_load_rejects_future_schema(self, tmp_path):
        engine, _ = churny_engine(seed=5, events=2)
        path = save_snapshot(engine, tmp_path, version=1)
        meta = json.loads((path / "meta.json").read_text())
        meta["schema"] = SNAPSHOT_SCHEMA + 1
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_latest_and_prune(self, tmp_path):
        engine, _ = churny_engine(seed=6, events=2)
        for version in (1, 2, 3, 4):
            save_snapshot(engine, tmp_path, version=version)
        assert latest_snapshot(tmp_path).name == "snap-00000004"
        prune_snapshots(tmp_path, keep=2)
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert remaining == ["snap-00000003", "snap-00000004"]

    def test_latest_on_empty_directory(self, tmp_path):
        assert latest_snapshot(tmp_path) is None



class TestShardedDaemonSnapshot:
    """Upgrade path: snapshots of a ``repro serve --sharded`` daemon.

    ``tests/data/sharded_daemon_snapshot`` was written by the last build
    with the flag (commit 5e289f5): schema 2, plus a ``shard_cache`` meta
    key and ``shards_total``/``shards_solved`` view fields that this build
    neither reads nor writes.
    """

    def _snapshots(self, tmp_path):
        snaps = tmp_path / "snaps"
        shutil.copytree(LEGACY_SNAPSHOTS, snaps)
        return snaps

    def test_legacy_keys_load_and_warm_restart(self, tmp_path):
        snapshot = load_snapshot(self._snapshots(tmp_path) / "snap-00000003")
        assert snapshot.meta["schema"] == SNAPSHOT_SCHEMA == 2
        assert snapshot.meta["shard_cache"]
        assert snapshot.view["shards_total"] == 4
        engine, _ = restore_engine(snapshot)
        first = engine.solve()
        assert first.warm
        assert first.energy <= snapshot.view["energy"] + 1e-9
        network, similarity = engine.network, engine.similarity
        for event in random_churn_trace(
            network.copy(), ChurnConfig(events=4, seed=3)
        ):
            engine.apply(event)
            result = engine.solve()
            assert result.energy == pytest.approx(
                assignment_energy(
                    network, similarity, result.assignment,
                    constraints=engine.constraints,
                ),
                abs=1e-9,
            )

    def test_new_snapshots_drop_the_shard_keys(self, tmp_path):
        snaps = self._snapshots(tmp_path)
        service = DiversificationService.from_snapshot(
            ServiceConfig(port=0, snapshot_dir=str(snaps))
        )
        assert service.view.version == 3
        service._write_snapshot()
        meta = load_snapshot(latest_snapshot(snaps)).meta
        assert meta["schema"] == SNAPSHOT_SCHEMA
        assert "shard_cache" not in meta
        assert not {"shards_total", "shards_solved"} & set(meta["view"])

    def test_serve_restore_republishes_and_continues(self, tmp_path):
        snaps = self._snapshots(tmp_path)
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--snapshot-dir", str(snaps), "--restore"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        # A reader thread drains the daemon's output (a full pipe would
        # block it) and hands the lines over with a deadline.
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in daemon.stdout],
            daemon=True,
        )
        reader.start()
        try:
            deadline = time.monotonic() + 60
            match = None
            while match is None:  # log lines precede the banner
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
            client = ServiceClient(port=int(match.group(1)))
            health = client.healthz()
            assert "sharded" not in health
            restored = client.assignment()
            assert restored["version"] == 3
            legacy = load_snapshot(snaps / "snap-00000003").view
            assert restored["energy"] == legacy["energy"]
            a, b = load_snapshot(snaps / "snap-00000003").network.links[0]
            client.post_events([LinkRemove(a, b), LinkAdd(a, b)])
            client.wait_idle()
            assert client.assignment()["version"] > 3
            client.shutdown()
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            reader.join(timeout=10)
            daemon.stdout.close()
        assert not reader.is_alive()
        meta = load_snapshot(latest_snapshot(snaps)).meta
        assert meta["version"] > 3
        assert "shard_cache" not in meta


class TestBackendMetrics:
    @pytest.mark.skipif(
        not get_backend("native").available,
        reason="native backend needs a C compiler",
    )
    def test_forced_fallback_raises_the_counter_untraced(self):
        # 70 candidate products: past the C kernels' 64-label limit, so
        # every native kernel call of the solve runs on NumPy instead.
        from repro.network.topologies import ring_network
        from repro.nvd.similarity import SimilarityTable

        products = [f"p{i}" for i in range(70)]
        network = ring_network(4, services={"svc": products})
        similarity = SimilarityTable(pairs={("p0", "p1"): 0.5})
        service = DiversificationService(
            network, similarity,
            config=ServiceConfig(port=0, engine_options={"backend": "native"}),
        )
        assert not obs.enabled()
        text = service.metrics.render()
        assert 'backend="native (cc)"' in text
        assert "repro_backend_fallbacks_total 0" in text
        service._ingest([])
        counted = service.metrics.counters()["backend_fallbacks_total"]
        assert counted > 0
        assert f"repro_backend_fallbacks_total {counted}" in service.metrics.render()


class TestPublishSpan:
    def test_one_batch_emits_one_view_publish(self):
        network, similarity = workload(seed=12)
        trace = random_churn_trace(network, ChurnConfig(events=5, seed=12))
        service = DiversificationService(
            network, similarity, config=ServiceConfig(port=0)
        )
        recorded = obs.activate(obs.Trace())
        try:
            service._ingest(list(enumerate(trace, start=1)))
        finally:
            obs.deactivate()
        names = [
            event["name"] for event in recorded.events
            if event.get("ph") == "X"
        ]
        assert names.count("service.batch") == 1
        assert names.count("view.publish") == 1
        # The publish follows the batch: the view copies are not solve time.
        assert names.index("view.publish") > names.index("service.batch")
        assert service._view is not None
        assert service._view.events_applied == len(trace)


class TestViewIsolation:
    def test_whatif_leaves_the_view_values(self):
        network, similarity = workload(seed=13)
        service = DiversificationService(
            network, similarity, config=ServiceConfig(port=0)
        )
        service._ingest([])
        view = service.view
        values = dict(view.values)
        (host, name), product = next(iter(values.items()))
        other = next(
            p for p in view.network.candidates(host, name) if p != product
        )
        assert view.whatif_energy({host: {name: other}})["changed"] == 1
        assert view.values == values

    def test_published_view_survives_the_next_batch(self):
        """The view's network is a copy-on-write copy of the live one: the
        writer's next batch of link and host events leaves the published
        hosts, links, neighbours and ``/hosts/<host>`` payloads as they
        were."""
        network, similarity = workload(seed=13)
        service = DiversificationService(
            network, similarity, config=ServiceConfig(port=0)
        )
        service._ingest([])
        view = service.view
        hosts = view.network.hosts
        links = view.network.links
        neighbors = {host: view.network.neighbors(host) for host in hosts}
        payloads = {host: view.host_payload(host) for host in hosts}

        a, b = links[0]
        spare = next(
            (x, y) for x in hosts for y in hosts
            if x < y and not view.network.has_link(x, y)
        )
        leaving = next(h for h in hosts if h not in (a, b, *spare))
        services = tuple(
            (service_name, view.network.candidates(a, service_name))
            for service_name in view.network.services_of(a)
        )
        events = [
            LinkRemove(a, b),
            LinkAdd(*spare),
            HostLeave(leaving),
            HostJoin("newcomer", services=services, links=(a, b)),
            HostJoin(leaving, services=services, links=(spare[0],)),
        ]
        service._ingest(list(enumerate(events, start=1)))
        assert service.metrics.counters().get("events_failed_total", 0) == 0
        assert service.view.version == view.version + 1
        assert service.view.network.has_link(*spare)

        assert view.network.hosts == hosts
        assert view.network.links == links
        assert {h: view.network.neighbors(h) for h in hosts} == neighbors
        assert {h: view.host_payload(h) for h in hosts} == payloads
