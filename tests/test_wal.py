"""Unit tests for the write-ahead log and the fault-injection harness:
record round-trips, rotation, torn-tail and corruption handling,
compaction, fsync policies, fault plans, and the ``repro wal`` CLI."""

import os
import struct

import pytest

from repro.cli import build_parser, main
from repro.service import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    WriteAheadLog,
    parse_fault_plan,
    random_fault_plan,
    replay_wal,
    truncate_torn_tail,
)
from repro.stream.events import HostLeave, LinkAdd, LinkRemove, event_to_dict


def events(n, prefix="h"):
    return [LinkAdd(f"{prefix}{i}", f"{prefix}{i + 1}") for i in range(n)]


def segment_paths(root):
    return sorted(p for p in os.listdir(root) if p.endswith(".log"))


class TestAppendReplay:
    def test_round_trip_preserves_events_and_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        batch = [LinkAdd("h0", "h1"), LinkRemove("h1", "h2"), HostLeave("h3")]
        assert wal.append(batch) == (1, 3)
        assert wal.append([LinkAdd("h4", "h5")]) == (4, 4)
        wal.close()
        replayed = list(replay_wal(tmp_path))
        assert [seq for seq, _ in replayed] == [1, 2, 3, 4]
        assert [event_to_dict(e) for _, e in replayed[:3]] == [
            event_to_dict(e) for e in batch
        ]

    def test_replay_after_seq_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(5))
        wal.close()
        assert [seq for seq, _ in replay_wal(tmp_path, after_seq=3)] == [4, 5]

    def test_empty_append_is_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ValueError, match="at least one"):
            wal.append([])
        assert wal.last_seq == 0
        wal.close()
        assert list(replay_wal(tmp_path)) == []

    def test_last_seq_tracks_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 0
        wal.append(events(3))
        assert wal.last_seq == 3
        wal.close()


class TestRotation:
    def test_record_bound_rotates_with_continuous_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=2)
        for _ in range(3):
            wal.append(events(2))
        wal.close()
        assert len(segment_paths(tmp_path)) >= 3
        assert [seq for seq, _ in replay_wal(tmp_path)] == list(range(1, 7))

    def test_byte_bound_rotates(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_bytes=64)
        for _ in range(4):
            wal.append(events(1))
        wal.close()
        assert len(segment_paths(tmp_path)) >= 3
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3, 4]

    def test_reopen_continues_after_last_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(3))
        wal.close()
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 3
        assert wal.append(events(1)) == (4, 4)
        wal.close()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3, 4]


class TestCorruption:
    def _truncate_tail(self, tmp_path, drop):
        last = tmp_path / segment_paths(tmp_path)[-1]
        size = last.stat().st_size
        with open(last, "r+b") as fh:
            fh.truncate(size - drop)

    def test_torn_tail_drops_only_the_torn_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(4))
        wal.close()
        self._truncate_tail(tmp_path, 3)
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3]

    def test_crc_mismatch_ends_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(4))
        wal.close()
        last = tmp_path / segment_paths(tmp_path)[-1]
        blob = bytearray(last.read_bytes())
        blob[-2] ^= 0xFF  # flip a payload byte of the final record
        last.write_bytes(bytes(blob))
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3]

    def test_recovery_truncates_then_appends_cleanly(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(3))
        wal.close()
        self._truncate_tail(tmp_path, 2)
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 2
        assert wal.append(events(1)) == (3, 3)
        wal.close()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3]

    def test_truncate_torn_tail_repairs_in_place(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(3))
        wal.close()
        assert truncate_torn_tail(tmp_path) == []
        self._truncate_tail(tmp_path, 1)
        actions = truncate_torn_tail(tmp_path)
        assert [a["action"] for a in actions] == ["truncated"]
        assert truncate_torn_tail(tmp_path) == []
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2]

    def test_torn_record_orphans_later_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=2)
        wal.append(events(2))
        wal.append(events(2))
        wal.close()
        first = tmp_path / segment_paths(tmp_path)[0]
        with open(first, "r+b") as fh:
            fh.truncate(first.stat().st_size - 1)
        # seq 2 is torn, so seqs 3-4 in the next segment are unreachable.
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1]
        actions = truncate_torn_tail(tmp_path)
        assert "unlinked" in {a["action"] for a in actions}

    def test_oversized_length_header_is_corruption_not_allocation(
        self, tmp_path
    ):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(1))
        wal.close()
        last = tmp_path / segment_paths(tmp_path)[-1]
        with open(last, "ab") as fh:
            fh.write(struct.pack("<QII", 2, 1 << 30, 0))
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1]

    def test_non_monotonic_seq_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=1)
        wal.append(events(1))
        wal.append(events(1))
        wal.close()
        paths = segment_paths(tmp_path)
        # swap the two segments' names so seqs run 2, 1
        a, b = (tmp_path / paths[0]), (tmp_path / paths[1])
        tmp = tmp_path / "swap"
        a.rename(tmp)
        b.rename(a)
        tmp.rename(b)
        with pytest.raises(ValueError, match="monotonic|order"):
            list(replay_wal(tmp_path))


class TestCompaction:
    def test_compact_prunes_fully_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=2)
        for _ in range(3):
            wal.append(events(2))
        removed = wal.compact(4)
        assert len(removed) == 2
        assert [seq for seq, _ in replay_wal(tmp_path)] == [5, 6]
        wal.close()

    def test_compact_never_removes_the_active_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(4))
        assert wal.compact(4) == []
        assert wal.segment_count == 1
        assert wal.append(events(1)) == (5, 5)
        wal.close()

    def test_replay_after_compaction_resumes_from_snapshot_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path, segment_records=2)
        for _ in range(4):
            wal.append(events(2))
        wal.compact(6)
        assert [seq for seq, _ in replay_wal(tmp_path, after_seq=6)] == [7, 8]
        wal.close()


class TestFsyncPolicies:
    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_always_fsyncs_every_append(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        wal = WriteAheadLog(tmp_path, fsync="always")
        base = len(calls)
        wal.append(events(1))
        wal.append(events(1))
        assert len(calls) - base == 2
        wal.close()

    def test_batch_fsyncs_only_on_sync(self, tmp_path, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
        wal = WriteAheadLog(tmp_path, fsync="batch")
        base = len(calls)
        wal.append(events(2))
        assert len(calls) == base
        wal.sync()
        assert len(calls) == base + 1
        wal.close()

    def test_off_never_fsyncs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(events(2))
        wal.sync()
        wal.close()
        assert calls == []

    def test_unsynced_appends_survive_abandon(self, tmp_path):
        # buffering=0 writes reach the OS immediately; abandon() skips the
        # final fsync (simulating SIGKILL) yet the records must replay.
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.append(events(3))
        wal.abandon()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2, 3]


class TestFaultPlans:
    def test_parse_spec_round_trip(self):
        plan = parse_fault_plan("wal.append:crash:3,solve:error:1:2")
        assert isinstance(plan, FaultPlan)
        assert len(plan.rules) == 2
        assert plan.rules[0] == FaultRule("wal.append", "crash", after=3)
        assert plan.rules[1] == FaultRule("solve", "error", after=1, count=2)

    def test_parse_rejects_unknown_point_and_action(self):
        with pytest.raises(ValueError):
            parse_fault_plan("tea.break:error")
        with pytest.raises(ValueError):
            parse_fault_plan("wal.append:maybe")

    def test_rule_fires_in_window_only(self):
        plan = FaultPlan([FaultRule("solve", "error", after=2, count=2)])
        assert [plan.fire("solve") for _ in range(5)] == [
            None, "error", "error", None, None,
        ]

    def test_count_zero_fires_forever(self):
        plan = FaultPlan([FaultRule("solve", "error", after=1, count=0)])
        assert all(plan.fire("solve") == "error" for _ in range(4))

    def test_random_plan_is_deterministic(self):
        assert repr(random_fault_plan(11, 50)) == repr(random_fault_plan(11, 50))

    def test_append_error_rolls_back_cleanly(self, tmp_path):
        plan = parse_fault_plan("wal.append:error:2")
        wal = WriteAheadLog(tmp_path, faults=plan)
        wal.append(events(1))
        with pytest.raises(InjectedFault):
            wal.append(events(2))
        assert wal.last_seq == 1
        assert wal.append(events(1)) == (2, 2)
        wal.close()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2]

    def test_fsync_error_under_always_keeps_log_consistent(self, tmp_path):
        plan = parse_fault_plan("wal.fsync:error:1")
        wal = WriteAheadLog(tmp_path, fsync="always", faults=plan)
        with pytest.raises(InjectedFault):
            wal.append(events(1))
        assert wal.last_seq == 0  # unacknowledged record rolled back
        assert wal.append(events(1)) == (1, 1)
        wal.close()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1]

    def test_torn_write_recovers_on_reopen(self, tmp_path):
        plan = parse_fault_plan("wal.append:torn:2")
        wal = WriteAheadLog(tmp_path, fsync="off", faults=plan)
        wal.append(events(1))
        with pytest.raises(InjectedCrash):
            wal.append(events(1))
        wal.abandon()
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1]
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 1
        assert wal.append(events(1)) == (2, 2)
        wal.close()

    def test_crash_action_raises_base_exception(self, tmp_path):
        plan = parse_fault_plan("wal.append:crash:1")
        wal = WriteAheadLog(tmp_path, fsync="off", faults=plan)
        caught = None
        try:
            wal.append(events(1))
        except Exception:  # noqa: BLE001 - the point: Exception won't catch it
            caught = "exception"
        except InjectedCrash:
            caught = "crash"
        assert caught == "crash"
        wal.abandon()
        # the record was written (then "crashed"), so it replays
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1]


class TestWalCli:
    def _write_log(self, tmp_path, count=3):
        wal = WriteAheadLog(tmp_path)
        wal.append(events(count))
        wal.close()

    def test_parser_accepts_wal_actions(self):
        parser = build_parser()
        for action in ("inspect", "replay", "truncate"):
            args = parser.parse_args(["wal", action, "/tmp/x"])
            assert args.wal_action == action

    def test_serve_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--wal", "/tmp/w", "--fsync", "always",
             "--fault-plan", "solve:error:5"]
        )
        assert args.wal == "/tmp/w"
        assert args.fsync == "always"
        assert args.fault_plan == "solve:error:5"

    def test_inspect_lists_segments(self, tmp_path, capsys):
        self._write_log(tmp_path)
        assert main(["wal", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wal-000000000001.log" in out
        assert "ok" in out

    def test_inspect_empty_dir(self, tmp_path, capsys):
        assert main(["wal", "inspect", str(tmp_path)]) == 0
        assert "no WAL segments" in capsys.readouterr().out

    def test_truncate_reports_clean_log(self, tmp_path, capsys):
        self._write_log(tmp_path)
        assert main(["wal", "truncate", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_truncate_repairs_torn_tail(self, tmp_path, capsys):
        self._write_log(tmp_path)
        last = tmp_path / segment_paths(tmp_path)[-1]
        with open(last, "r+b") as fh:
            fh.truncate(last.stat().st_size - 1)
        assert main(["wal", "truncate", str(tmp_path)]) == 0
        assert "truncated" in capsys.readouterr().out
        assert [seq for seq, _ in replay_wal(tmp_path)] == [1, 2]

    def test_replay_reports_final_energy(self, tmp_path, capsys):
        from repro.network.generator import (
            RandomNetworkConfig,
            random_network,
        )
        from repro.stream import ChurnConfig, random_churn_trace

        generator = RandomNetworkConfig(
            hosts=12, degree=2, services=2, products_per_service=3, seed=4
        )
        trace = random_churn_trace(
            random_network(generator), ChurnConfig(events=4, seed=4)
        )
        wal = WriteAheadLog(tmp_path)
        wal.append(trace)
        wal.close()
        assert main(
            ["wal", "replay", str(tmp_path), "--hosts", "12", "--degree", "2",
             "--services", "2", "--products", "3", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed 4 event(s)" in out
        assert "final energy" in out


class TestWalReplaySnapshotCli:
    """``repro wal replay --snapshot-dir``: snapshot + log-tail offline."""

    def _workload(self, tmp_path, events=6, anchor=4):
        from repro.network.generator import (
            RandomNetworkConfig,
            random_network,
            random_similarity,
        )
        from repro.service import save_snapshot
        from repro.stream import (
            ChurnConfig,
            DynamicDiversifier,
            random_churn_trace,
        )

        generator = RandomNetworkConfig(
            hosts=12, degree=2, services=2, products_per_service=3, seed=4
        )
        net, table = random_network(generator), random_similarity(generator)
        trace = random_churn_trace(net, ChurnConfig(events=events, seed=4))
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(trace)
        wal.close()
        engine = DynamicDiversifier(net.copy(), table.copy())
        for event in trace[:anchor]:
            engine.apply(event)
        engine.solve()
        save_snapshot(
            engine, tmp_path / "snaps", version=1, wal_seq=anchor
        )
        return trace

    def test_replay_resumes_from_snapshot(self, tmp_path, capsys):
        self._workload(tmp_path, events=6, anchor=4)
        assert main(
            ["wal", "replay", str(tmp_path / "wal"),
             "--snapshot-dir", str(tmp_path / "snaps")]
        ) == 0
        out = capsys.readouterr().out
        assert "restored snap-" in out
        assert "(wal_seq 4)" in out
        # only the tail after the anchor replays
        assert "replayed 2 event(s) after seq 4" in out
        assert "final energy" in out

    def test_replay_skips_missing_snapshot(self, tmp_path, capsys):
        self._workload(tmp_path, events=5, anchor=2)
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(
            ["wal", "replay", str(tmp_path / "wal"),
             "--snapshot-dir", str(empty),
             "--hosts", "12", "--degree", "2", "--services", "2",
             "--products", "3", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "no valid snapshot" in out
        assert "replayed 5 event(s) after seq 0" in out

    def test_snapshot_and_full_replay_agree(self, tmp_path, capsys):
        self._workload(tmp_path, events=6, anchor=3)
        assert main(
            ["wal", "replay", str(tmp_path / "wal"),
             "--snapshot-dir", str(tmp_path / "snaps")]
        ) == 0
        from_snapshot = capsys.readouterr().out.splitlines()[-1]
        assert main(
            ["wal", "replay", str(tmp_path / "wal"),
             "--hosts", "12", "--degree", "2", "--services", "2",
             "--products", "3", "--seed", "4"]
        ) == 0
        from_scratch = capsys.readouterr().out.splitlines()[-1]
        # both paths end on the same "final energy ... over N hosts" line
        assert from_snapshot == from_scratch
