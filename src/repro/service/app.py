"""The always-on diversification daemon behind ``repro serve``.

:class:`DiversificationService` turns the streaming engine into a
long-lived asyncio service:

* **Ingestion** — churn/constraint events arrive as JSON over HTTP
  (``POST /events``, the :func:`~repro.stream.events.event_from_dict` wire
  format), land on a bounded queue, and are applied in batches by a
  **single writer task** driving one
  :class:`~repro.stream.incremental.DynamicDiversifier`.  Past the
  configured high-water mark ingestion answers ``429`` with a
  ``Retry-After`` header — backpressure instead of unbounded memory.
* **Reads** — ``GET /assignment``, ``GET /hosts/<host>`` and the what-if
  ``POST /energy`` are served from an immutable :class:`ReadView` swapped
  in atomically after every solve.  Readers never touch live engine
  state, so they never block the writer and never observe a half-applied
  batch; the solver itself runs on a one-thread executor, keeping the
  event loop free to answer reads mid-solve.
* **Durability** — with a write-ahead log configured
  (:mod:`repro.service.wal`), every acknowledged event is appended to a
  checksummed, segmented log *before* the 202 goes out, under the
  configured fsync policy.  Restart recovery is snapshot + WAL-tail
  replay (:meth:`DiversificationService.from_snapshot` +
  :meth:`DiversificationService.start`), byte-identical to a process
  that never crashed.  The writer degrades gracefully: a solver
  exception escalates to a forced cold rebuild, and a batch that fails
  both attempts is quarantined to a dead-letter sidecar instead of
  wedging the queue.  :mod:`repro.service.faults` injects deterministic
  failures at every stage of this pipeline for the recovery tests.
* **Operations** — ``GET /healthz``, Prometheus-format ``GET /metrics``
  (solve latency histogram, per-reason escalation counters,
  ``repro_build_info``), the ``GET /debug/trace`` tail of the
  :mod:`repro.obs` span ring buffer (``ServiceConfig.trace_tail``),
  structured logs via :mod:`repro.obs.logging`, periodic plan snapshots
  to disk (:mod:`repro.service.snapshot`) and a graceful shutdown
  (``POST /shutdown`` or SIGINT/SIGTERM) that drains the queue,
  snapshots, and only then stops answering.

The single-writer design is what makes the consistency story trivial:
every mutation of network, plan, and message state happens on one task in
batch order, exactly like an offline :func:`~repro.stream.driver.
replay_trace` — which is why the HTTP path reproduces its energies
bit-for-bit (the parity contract of ``tests/test_service_http.py`` and
``tools/service_smoke.py``).

``docs/service.md`` is the operator-facing reference for everything here.
"""

from __future__ import annotations

import asyncio
import json
import platform
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro import __version__, obs
from repro.core.costs import HARD_COST, assignment_energy
from repro.obs.logging import get_logger, kv
from repro.network.assignment import ProductAssignment
from repro.network.constraints import ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.service.config import ServiceConfig
from repro.service.faults import InjectedFault
from repro.service.metrics import ServiceMetrics
from repro.service.snapshot import (
    latest_valid_snapshot,
    prune_snapshots,
    restore_engine,
    save_snapshot,
)
from repro.service.wal import WriteAheadLog
from repro.stream.events import Event, event_from_dict, event_to_dict
from repro.stream.incremental import DynamicDiversifier

__all__ = ["ReadView", "DiversificationService"]

#: writer-queue sentinel: drain what is left, then exit the writer task.
_STOP = object()

#: request bodies above this are rejected with 413 before parsing.
_MAX_BODY = 16 * 1024 * 1024

#: bound on the idempotency cache of seen ``request_id`` values.
_SEEN_LIMIT = 1024


@dataclass(frozen=True)
class ReadView:
    """One immutable, snapshot-consistent view of the service state.

    Built by the writer after every solve and swapped in atomically;
    every read endpoint answers from the view current at request time, so
    a response is always internally consistent (assignment, energy and
    version all describe the same solve) even while the next batch is
    being applied.  The network/similarity/constraints members are
    *copies* — what-if evaluation works on them without ever touching
    live engine state.  The network copy is copy-on-write
    (:meth:`~repro.network.model.Network.copy`): it shares per-host
    containers with the live network until the writer next writes to a
    host, and the writer copies a host's containers before that write.
    """

    version: int
    events_applied: int
    energy: float
    lower_bound: float
    certified_optimal: bool
    warm: bool
    stability: float
    solve_seconds: float
    values: Dict[Tuple[str, str], str]
    network: Network
    similarity: SimilarityTable
    constraints: ConstraintSet
    cost_model: Dict[str, object] = field(default_factory=dict)

    def assignment_payload(self) -> Dict[str, object]:
        """The ``GET /assignment`` response body."""
        nested: Dict[str, Dict[str, str]] = {}
        for (host, service), product in sorted(self.values.items()):
            nested.setdefault(host, {})[service] = product
        return {
            "version": self.version,
            "events_applied": self.events_applied,
            "energy": self.energy,
            "lower_bound": self.lower_bound,
            "certified_optimal": self.certified_optimal,
            "warm": self.warm,
            "stability": self.stability,
            "hosts": len(self.network),
            "links": self.network.edge_count(),
            "assignment": nested,
        }

    def host_payload(self, host: str) -> Optional[Dict[str, object]]:
        """The ``GET /hosts/<host>`` response body, or None if unknown."""
        if host not in self.network:
            return None
        services = {}
        for service in self.network.services_of(host):
            services[service] = {
                "assigned": self.values.get((host, service)),
                "candidates": list(self.network.candidates(host, service)),
            }
        return {
            "version": self.version,
            "host": host,
            "services": services,
            "neighbors": self.network.neighbors(host),
            "constraints": [
                constraint.describe()
                for constraint in self.constraints
                if getattr(constraint, "host", None) == host
            ],
        }

    def whatif_energy(self, changes: Mapping[str, Mapping[str, str]]) -> Dict[str, object]:
        """The ``POST /energy`` evaluation: current assignment + overrides.

        Builds the current assignment on the view's *copies*, applies the
        ``{host: {service: product}}`` overrides, and evaluates the
        paper's E(N) via :func:`repro.core.costs.assignment_energy` —
        a pure read, the live plan is never touched.  Unknown hosts,
        services or products raise ``ValueError`` (HTTP 400).

        The baseline is re-evaluated with the same function rather than
        taken from the solver-reported ``self.energy`` (whose summation
        order differs by float round-off), so a no-op what-if reports a
        delta of exactly ``0.0``.
        """
        # The overrides are assigned onto a copy: the view stays as read.
        assignment = ProductAssignment.from_decoded(
            self.network, dict(self.values)
        )
        baseline = assignment_energy(
            self.network,
            self.similarity,
            assignment,
            constraints=self.constraints,
            **self.cost_model,
        )
        changed = 0
        for host, overrides in changes.items():
            if host not in self.network:
                raise ValueError(f"unknown host {host!r}")
            for service, product in overrides.items():
                assignment.assign(host, service, product)
                changed += 1
        if changed:
            energy = assignment_energy(
                self.network,
                self.similarity,
                assignment,
                constraints=self.constraints,
                **self.cost_model,
            )
        else:
            energy = baseline
        return {
            "version": self.version,
            "energy": energy,
            "baseline_energy": baseline,
            "delta": energy - baseline,
            "changed": changed,
            "feasible": bool(energy < HARD_COST),
        }


class DiversificationService:
    """Asyncio daemon owning one live plan and answering traffic over HTTP.

    Args:
        network / similarity / constraints: the initial model state; the
            service owns and mutates them as events stream in (pass copies
            to keep originals).
        config: every operational knob (:class:`ServiceConfig`).
        engine: pre-built engine to adopt instead of constructing one —
            the warm-restart path (:meth:`from_snapshot`) uses it.
        events_applied: ingestion counter to resume from (restarts).
        initial_view: a pre-crash :class:`ReadView` to republish instead
            of running a boot solve (restored from snapshot meta).
        version: solve counter to resume from (keeps the read-view
            version monotonic across restarts).
        wal_floor: the WAL sequence already reflected in the adopted
            engine state — recovery replays only records past it.
        recover: allow (and perform, at :meth:`start`) WAL-tail replay.
            Without it, a configured WAL directory that already holds
            records is refused — silently appending new history after
            an unreplayed past would poison future recoveries.

    Use as::

        service = DiversificationService(network, similarity, config=config)
        asyncio.run(service.run())          # serve until SIGINT/SIGTERM

    or drive the lifecycle explicitly in a running loop —
    ``await service.start()`` … ``await service.shutdown()`` — which is
    what the tests and benchmarks do.
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        similarity: Optional[SimilarityTable] = None,
        config: Optional[ServiceConfig] = None,
        constraints: Optional[ConstraintSet] = None,
        engine: Optional[DynamicDiversifier] = None,
        events_applied: int = 0,
        initial_view: Optional[ReadView] = None,
        version: int = 0,
        wal_floor: int = 0,
        recover: bool = False,
    ) -> None:
        self.config = config or ServiceConfig()
        if engine is None:
            if network is None or similarity is None:
                raise ValueError(
                    "DiversificationService needs (network, similarity) "
                    "or a pre-built engine"
                )
            engine = DynamicDiversifier(
                network,
                similarity,
                warm_start=self.config.warm_start,
                constraints=constraints,
                **self.config.engine_options,
            )
        self._engine = engine
        self.metrics = ServiceMetrics(solve_buckets=self.config.solve_buckets)
        self.metrics.set_gauge("queue_high_water", self.config.high_water)
        #: the kernel backend the engine's solves resolve to; its
        #: fallback count is exported as ``backend_fallbacks_total``.
        self._backend = engine.backend
        self._fallbacks = self._backend.fallbacks
        self.metrics.set_build_info(
            version=__version__,
            python=platform.python_version(),
            solver=engine.solver_name,
            warm_start=self.config.warm_start,
            backend=self._backend.describe(),
        )
        self._log = get_logger("service")
        #: the trace ring buffer this service owns (None when disabled or
        #: when an ambient trace — e.g. ``repro trace`` — was joined).
        self._trace: Optional[obs.Trace] = None
        if self.config.trace_tail > 0 and not obs.enabled():
            self._trace = obs.Trace(limit=self.config.trace_tail)
            obs.activate(self._trace)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._view: Optional[ReadView] = initial_view
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self._draining = False
        self._shutting_down = False
        self._solves = version
        self._inflight = 0
        self._events_applied = events_applied
        self._last_snapshot_path: Optional[str] = None
        self._recover = recover
        self._seq = wal_floor
        self._applied_seq = wal_floor
        self._seen_requests: "OrderedDict[str, Dict[str, object]]" = (
            OrderedDict()
        )
        self._wal: Optional[WriteAheadLog] = None
        self._wal_executor: Optional[ThreadPoolExecutor] = None
        if self.config.wal_enabled:
            self._wal = WriteAheadLog(
                self.config.wal_dir,  # type: ignore[arg-type]
                fsync=self.config.fsync,
                segment_bytes=self.config.wal_segment_bytes,
                segment_records=self.config.wal_segment_records,
                faults=self.config.fault_plan,
            )
            if self._wal.last_seq > wal_floor and not recover:
                raise ValueError(
                    f"WAL directory {self.config.wal_dir} already holds "
                    f"records up to seq {self._wal.last_seq}; restart with "
                    "--restore to replay them, or point --wal at a fresh "
                    "directory"
                )
            # Appends are serialized on their own one-thread executor so
            # an fsync never stalls reads on the event loop and never
            # queues behind a multi-second solve on the writer executor.
            self._wal_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-wal"
            )
            self._seq = self._wal.last_seq
            self.metrics.set_gauge("wal_last_seq", self._wal.last_seq)
            self.metrics.set_gauge("wal_segments", self._wal.segment_count)
        self._dead_letter_path = None
        if self.config.wal_enabled:
            self._dead_letter_path = (
                self.config.wal_dir / "dead-letter.jsonl"  # type: ignore
            )
        elif self.config.snapshots_enabled:
            self._dead_letter_path = (
                self.config.snapshot_dir / "dead-letter.jsonl"  # type: ignore
            )

    @classmethod
    def from_snapshot(
        cls, config: ServiceConfig, path: Optional[str] = None
    ) -> "DiversificationService":
        """Warm-restart a service from a snapshot directory.

        ``path`` names one ``snap-<version>/`` directory; by default the
        newest *valid* snapshot under ``config.snapshot_dir`` is used —
        corrupt or partial directories (failed sha256, torn write) are
        skipped with a warning, falling back to the next-newest.  The
        first solve after restart is warm (restored messages + labels),
        the ingestion and version counters resume where the snapshot
        left them, and the saved read view is republished as-is, so no
        boot solve runs.  With a WAL configured, :meth:`start` then
        replays every record past the snapshot's ``wal_seq`` — recovery
        is snapshot + tail, byte-identical to a never-crashed twin.
        """
        if path is None:
            if not config.snapshots_enabled:
                raise ValueError("config.snapshot_dir is not set")
            found = latest_valid_snapshot(config.snapshot_dir)  # type: ignore[arg-type]
            if found is None:
                raise ValueError(
                    f"no valid snapshot under {config.snapshot_dir}"
                )
            path = found[1]
        engine, snapshot = restore_engine(
            path,
            warm_start=config.warm_start,
            **config.engine_options,
        )
        meta_view = snapshot.view
        initial_view = None
        if (
            meta_view is not None
            and meta_view.get("energy") is not None
            and engine._values is not None
        ):
            plan = engine.plan
            initial_view = ReadView(
                version=int(meta_view.get("version", snapshot.version)),
                events_applied=int(
                    meta_view.get("events_applied", snapshot.events_applied)
                ),
                energy=float(meta_view["energy"]),
                lower_bound=float(meta_view.get("lower_bound", float("-inf"))),
                certified_optimal=bool(
                    meta_view.get("certified_optimal", False)
                ),
                warm=bool(meta_view.get("warm", False)),
                stability=float(meta_view.get("stability", 1.0)),
                solve_seconds=float(meta_view.get("solve_seconds", 0.0)),
                values=dict(engine._values),
                network=engine.network.copy(),
                similarity=engine.similarity.copy(),
                constraints=engine.constraints.copy(),
                cost_model={
                    "unary_constant": plan.unary_constant,
                    "pairwise_weight": plan.pairwise_weight,
                    "service_weights": plan.service_weights or None,
                },
            )
        return cls(
            config=config,
            engine=engine,
            events_applied=snapshot.events_applied,
            initial_view=initial_view,
            version=snapshot.version,
            wal_floor=snapshot.wal_seq,
            recover=True,
        )

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound listen port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def view(self) -> Optional[ReadView]:
        """The current immutable read view (None before :meth:`start`)."""
        return self._view

    async def start(self) -> None:
        """Recover (WAL replay), publish the first view, start serving.

        A fresh service runs the boot solve here; a restored one
        republishes the snapshot's view instead, then replays the WAL
        tail through the ordinary ingest path — so the first solve a
        recovered daemon runs is exactly the solve its never-crashed
        twin would have run next.
        """
        loop = asyncio.get_running_loop()
        if self._view is None:
            # The boot solve comes FIRST: a never-crashed twin solved the
            # bootstrap state before any event arrived, so a WAL-only
            # recovery (no snapshot view) must too, or version drifts.
            await loop.run_in_executor(self._executor, self._ingest, [])
        if self._wal is not None and self._recover:
            await loop.run_in_executor(self._executor, self._replay_wal)
        self._writer_task = asyncio.create_task(self._writer_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._log.info(
            "service listening",
            extra=kv(
                host=self.config.host,
                port=self.port,
                solver=self._engine.solver_name,
                trace_tail=self.config.trace_tail,
            ),
        )

    async def run(self) -> None:
        """Start, install signal handlers, serve until shutdown completes."""
        await self.start()
        await self.run_until_stopped()

    async def run_until_stopped(self) -> None:
        """After :meth:`start`: handle SIGINT/SIGTERM, block until stopped."""
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self.shutdown()),
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful stop: drain the queue, final snapshot, close the server.

        Idempotent.  New events are refused (503) the moment draining
        starts; everything already queued is still applied and solved, so
        an acknowledged event is never lost by a clean shutdown.
        """
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        self._draining = True
        await self._queue.put(_STOP)
        if self._writer_task is not None:
            await self._writer_task
        loop = asyncio.get_running_loop()
        if self.config.snapshots_enabled:
            await loop.run_in_executor(self._executor, self._write_snapshot)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        if self._wal_executor is not None:
            self._wal_executor.shutdown(wait=True)
        if self._wal is not None:
            self._wal.close()
        if self._trace is not None and obs.current_trace() is self._trace:
            obs.deactivate()
        self._log.info(
            "service stopped",
            extra=kv(solves=self._solves, events=self._events_applied),
        )
        self._stopped.set()

    async def abort(self) -> None:
        """Die in place — the crash-simulation stop the recovery tests use.

        Unlike :meth:`shutdown` this is deliberately *not* graceful: the
        queue is NOT drained, no snapshot is written, and the WAL is
        dropped without a final fsync — exactly the state a ``SIGKILL``
        leaves behind, minus the dead process.  Everything durable must
        therefore be recoverable by snapshot + WAL-tail replay alone.
        """
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        self._draining = True
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
            except Exception:  # pragma: no cover - crash path is best-effort
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self._wal_executor is not None:
            self._wal_executor.shutdown(wait=True, cancel_futures=True)
        if self._wal is not None:
            self._wal.abandon()
        if self._trace is not None and obs.current_trace() is self._trace:
            obs.deactivate()
        self._log.warning(
            "service aborted (simulated crash)",
            extra=kv(solves=self._solves, queued=self._queue.qsize()),
        )
        self._stopped.set()

    # ------------------------------------------------------------ writer side

    async def _writer_loop(self) -> None:
        """The single writer: batch events off the queue, apply, solve."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            stop = item is _STOP
            batch: List[Tuple[int, Event]] = [] if stop else [item]
            while not stop and len(batch) < self.config.batch_max:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _STOP:
                    stop = True
                    break
                batch.append(item)
            if batch:
                self._inflight = len(batch)
                try:
                    await loop.run_in_executor(self._executor, self._ingest, batch)
                finally:
                    self._inflight = 0
                self.metrics.set_gauge("queue_depth", self._queue.qsize())
            if stop:
                # Drain whatever raced in behind the sentinel, then exit.
                leftovers: List[Tuple[int, Event]] = []
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is not _STOP:
                        leftovers.append(item)
                if leftovers:
                    self._inflight = len(leftovers)
                    try:
                        await loop.run_in_executor(
                            self._executor, self._ingest, leftovers
                        )
                    finally:
                        self._inflight = 0
                self.metrics.set_gauge("queue_depth", 0)
                return

    def _replay_wal(self) -> None:
        """Replay the WAL tail through the ingest path (writer thread).

        Records past the snapshot anchor are re-applied in ``batch_max``
        groups — the same batching discipline live traffic gets — so at
        ``batch_max=1`` the recovered engine walks the exact solve
        sequence of its never-crashed twin.  Torn trailing records were
        already dropped (with a warning) when the WAL opened.
        """
        assert self._wal is not None
        records = list(self._wal.replay(after_seq=self._applied_seq))
        if not records:
            return
        with obs.span(
            "wal.replay",
            cat="service",
            records=len(records),
            after_seq=self._applied_seq,
        ):
            for start in range(0, len(records), self.config.batch_max):
                chunk = records[start : start + self.config.batch_max]
                self._ingest(chunk, replay=True)
        self.metrics.inc("wal_replayed_total", len(records))
        self._log.info(
            "wal tail replayed",
            extra=kv(records=len(records), last_seq=records[-1][0]),
        )

    def _solve_batch(self, force_cold: bool = False):
        """One engine solve, routed through the ``solve`` fault point.

        Native kernel calls that fell back to NumPy during the solve are
        added to ``backend_fallbacks_total``, traced or not.
        """
        faults = self.config.fault_plan
        if faults is not None:
            action = faults.fire("solve")
            if action == "crash":
                faults.crash()
            if action == "error":
                raise InjectedFault("injected solver failure")
        try:
            return self._engine.solve(force_cold=force_cold)
        finally:
            fallbacks = self._backend.fallbacks
            self.metrics.inc("backend_fallbacks_total", fallbacks - self._fallbacks)
            self._fallbacks = fallbacks

    def _dead_letter(self, batch: List[Tuple[int, Event]], problem) -> None:
        """Quarantine a twice-failed batch to the dead-letter sidecar."""
        self.metrics.inc("dead_letter_total", len(batch))
        path = self._dead_letter_path
        self._log.error(
            "batch quarantined to dead letter",
            extra=kv(
                events=len(batch), error=str(problem), path=str(path)
            ),
        )
        if path is None:
            return
        try:
            with open(path, "a") as sidecar:
                for seq, event in batch:
                    sidecar.write(
                        json.dumps(
                            {
                                "seq": seq,
                                "event": event_to_dict(event),
                                "error": str(problem),
                            }
                        )
                        + "\n"
                    )
        except OSError:  # pragma: no cover - sidecar is best-effort
            self._log.error("dead-letter write failed")

    def _ingest(
        self, batch: List[Tuple[int, Event]], replay: bool = False
    ) -> None:
        """Apply one ``(seq, event)`` batch and re-solve (writer thread only).

        A bad event — e.g. removing a link that is already gone — fails
        alone: it is counted and skipped, the rest of the batch applies.
        After the solve the fresh :class:`ReadView` is swapped in and, when
        due, a snapshot is written.  Failure handling degrades in stages:
        a solver exception is retried once as a forced cold rebuild
        (escalation ``"forced"``), and a batch failing both attempts is
        quarantined to the dead-letter sidecar — the queue keeps moving
        and readers keep the last good view.
        """
        if self._wal is not None and not replay:
            # The batch-policy flush point: everything acknowledged so far
            # (including this batch) becomes durable before it mutates
            # engine state.  "always" already synced; "off" no-ops.
            try:
                self._wal.sync()
            except OSError as problem:
                self.metrics.inc("wal_failures_total")
                self._log.error(
                    "wal fsync failed; durability window extended",
                    extra=kv(error=str(problem)),
                )
        last_seq = batch[-1][0] if batch else self._applied_seq
        with obs.span(
            "service.batch", cat="service", events=len(batch), replay=replay
        ) as batch_span:
            applied = 0
            for _, event in batch:
                try:
                    self._engine.apply(event)
                except Exception:
                    self.metrics.inc("events_failed_total")
                    self._log.warning(
                        "event failed",
                        extra=kv(event=type(event).__name__),
                    )
                else:
                    applied += 1
            try:
                result = self._solve_batch()
            except Exception as problem:
                self.metrics.inc("writer_failures_total")
                self._log.warning(
                    "solver failed; escalating to cold rebuild",
                    extra=kv(error=str(problem)),
                )
                try:
                    result = self._solve_batch(force_cold=True)
                except Exception as worse:
                    self.metrics.inc("writer_failures_total")
                    self._dead_letter(batch, worse)
                    self._events_applied += applied
                    self._applied_seq = last_seq
                    self.metrics.inc("events_applied_total", applied)
                    batch_span.add(applied=applied, dead_letter=True)
                    return
            batch_span.add(
                applied=applied,
                warm=result.warm,
                energy=result.energy,
                seconds=result.seconds,
            )
        self._events_applied += applied
        self._applied_seq = last_seq
        self._solves += 1
        self.metrics.inc("events_applied_total", applied)
        self.metrics.inc("solves_total")
        self.metrics.inc(
            "solves_warm_total" if result.warm else "solves_cold_total"
        )
        self.metrics.observe_solve(result.seconds)
        if result.escalation is not None:
            self.metrics.inc_escalation(result.escalation)
        self._log.debug(
            "batch solved",
            extra=kv(
                version=self._solves,
                events=applied,
                warm=result.warm,
                escalation=result.escalation,
                seconds=round(result.seconds, 6),
                energy=result.energy,
            ),
        )
        plan = self._engine.plan
        self.metrics.set_gauge("plan_nodes", plan.node_count)
        self.metrics.set_gauge("plan_edges", plan.edge_count)
        # The copies make the view independent of the live engine; they run
        # after ``service.batch`` closes, on the path to visibility.
        with obs.span("view.publish", cat="service", version=self._solves):
            self._view = ReadView(
                version=self._solves,
                events_applied=self._events_applied,
                energy=result.energy,
                lower_bound=result.lower_bound,
                certified_optimal=result.certified_optimal,
                warm=result.warm,
                stability=result.stability,
                solve_seconds=result.seconds,
                values=result.assignment.as_dict(),
                network=self._engine.network.copy(),
                similarity=self._engine.similarity.copy(),
                constraints=self._engine.constraints.copy(),
                cost_model={
                    "unary_constant": plan.unary_constant,
                    "pairwise_weight": plan.pairwise_weight,
                    "service_weights": plan.service_weights or None,
                },
            )
        if (
            self.config.snapshots_enabled
            and self.config.snapshot_every
            and self._solves % self.config.snapshot_every == 0
        ):
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Write a snapshot of the live engine (writer thread only).

        The snapshot records the WAL sequence it is anchored at and the
        published read-view counters; on success, WAL segments wholly
        below the anchor are compacted away.  A failed write (including
        an injected ``snapshot`` fault) is counted and logged but never
        takes the writer down — the staged temp dir is cleaned up and the
        previous snapshot generation keeps covering recovery.
        """
        if not self.config.snapshots_enabled:
            return
        view = self._view
        view_meta = None
        if view is not None:
            view_meta = {
                "version": view.version,
                "events_applied": view.events_applied,
                "energy": view.energy,
                "lower_bound": view.lower_bound,
                "certified_optimal": view.certified_optimal,
                "warm": view.warm,
                "stability": view.stability,
                "solve_seconds": view.solve_seconds,
            }
        with obs.span("service.snapshot", cat="service", version=self._solves):
            try:
                path = save_snapshot(
                    self._engine,
                    self.config.snapshot_dir,  # type: ignore[arg-type]
                    version=self._solves,
                    events_applied=self._events_applied,
                    energy=view.energy if view is not None else None,
                    wal_seq=self._applied_seq,
                    view=view_meta,
                    faults=self.config.fault_plan,
                )
            except Exception as problem:
                self.metrics.inc("snapshot_failures_total")
                self._log.error(
                    "snapshot failed; previous generation still covers "
                    "recovery",
                    extra=kv(error=str(problem)),
                )
                return
            prune_snapshots(
                self.config.snapshot_dir,  # type: ignore[arg-type]
                self.config.keep_snapshots,
            )
        self._last_snapshot_path = str(path)
        self.metrics.inc("snapshots_total")
        if self._wal is not None:
            removed = self._wal.compact(self._applied_seq)
            if removed:
                self._log.debug(
                    "wal compacted",
                    extra=kv(
                        segments=len(removed), up_to=self._applied_seq
                    ),
                )
            self.metrics.set_gauge("wal_segments", self._wal.segment_count)
        self._log.debug("snapshot written", extra=kv(path=str(path)))

    # -------------------------------------------------------------- HTTP side

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (``Connection: close`` semantics)."""
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, body = request
            status, payload, headers = await self._route(method, path, body)
            text = (
                payload
                if isinstance(payload, str)
                else json.dumps(payload, indent=1) + "\n"
            )
            content_type = (
                "text/plain; charset=utf-8"
                if isinstance(payload, str)
                else "application/json"
            )
            raw = text.encode()
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(raw)}",
                "Connection: close",
            ]
            head.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + raw)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object, Dict[str, str]]:
        """Dispatch one request; returns (status, payload, extra headers)."""
        no_headers: Dict[str, str] = {}
        if method == "GET" and path == "/healthz":
            return 200, self._health_payload(), no_headers
        if method == "GET" and path == "/metrics":
            return 200, self.metrics.render(), no_headers
        if method == "GET" and path == "/debug/trace":
            trace = obs.current_trace()
            if trace is None:
                return (
                    409,
                    {"error": "tracing is disabled (set trace_tail > 0)"},
                    no_headers,
                )
            return 200, trace.chrome(), no_headers
        if method == "GET" and path == "/assignment":
            self.metrics.inc("reads_total")
            view = self._view
            if view is None:  # pragma: no cover - start() always publishes
                return 503, {"error": "no solve yet"}, no_headers
            return 200, view.assignment_payload(), no_headers
        if method == "GET" and path.startswith("/hosts/"):
            self.metrics.inc("reads_total")
            view = self._view
            if view is None:  # pragma: no cover
                return 503, {"error": "no solve yet"}, no_headers
            payload = view.host_payload(path[len("/hosts/") :])
            if payload is None:
                return 404, {"error": "unknown host"}, no_headers
            return 200, payload, no_headers
        if method == "POST" and path == "/energy":
            return self._route_whatif(body)
        if method == "POST" and path == "/events":
            return await self._route_events(body)
        if method == "POST" and path == "/snapshot":
            if not self.config.snapshots_enabled:
                return 409, {"error": "snapshots are disabled"}, no_headers
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self._write_snapshot)
            return 200, {"snapshot": self._last_snapshot_path}, no_headers
        if method == "POST" and path == "/shutdown":
            # refuse new events before the response even goes out — an
            # event acknowledged after shutdown would race the drain
            self._draining = True
            asyncio.ensure_future(self.shutdown())
            return 202, {"status": "draining"}, no_headers
        return 404, {"error": f"no route {method} {path}"}, no_headers

    async def _route_events(
        self, body: bytes
    ) -> Tuple[int, object, Dict[str, str]]:
        """``POST /events``: decode, dedup, WAL-append, enqueue.

        Accepts a bare event dict, a list of them, or the idempotency
        envelope ``{"request_id": ..., "events": [...]}`` — a request id
        already acknowledged returns the cached 202 with ``duplicate:
        true`` and queues nothing, so a client retry after a lost
        response never double-applies a chunk.  With a WAL configured
        the events are appended (and, under ``--fsync always``, synced)
        *before* the 202: acknowledged means durable.  A failed append
        rolls back cleanly and answers 503 — nothing was queued, so the
        client retry is safe.
        """
        if self._draining:
            return 503, {"error": "service is draining"}, {}
        try:
            payload = json.loads(body.decode() or "null")
            request_id = None
            if isinstance(payload, dict) and "events" in payload:
                request_id = payload.get("request_id")
                if request_id is not None and not isinstance(
                    request_id, str
                ):
                    raise ValueError("request_id must be a string")
                payload = payload["events"]
            entries = payload if isinstance(payload, list) else [payload]
            events = [event_from_dict(entry) for entry in entries]
        except (ValueError, UnicodeDecodeError) as problem:
            return 400, {"error": str(problem)}, {}
        if request_id is not None and request_id in self._seen_requests:
            cached = dict(self._seen_requests[request_id])
            cached["duplicate"] = True
            return 202, cached, {}
        depth = self._queue.qsize()
        if depth + len(events) > self.config.high_water:
            self.metrics.inc("events_rejected_total", len(events))
            return (
                429,
                {
                    "error": "ingestion queue past its high-water mark",
                    "queue_depth": depth,
                    "high_water": self.config.high_water,
                },
                {"Retry-After": f"{self.config.retry_after:g}"},
            )
        if events and self._wal is not None:
            loop = asyncio.get_running_loop()
            try:
                first, _last = await loop.run_in_executor(
                    self._wal_executor, self._wal.append, events
                )
            except (OSError, RuntimeError) as problem:
                self.metrics.inc("wal_failures_total")
                self._log.error(
                    "wal append failed; events refused",
                    extra=kv(error=str(problem)),
                )
                return (
                    503,
                    {"error": f"write-ahead log append failed: {problem}"},
                    {},
                )
            self.metrics.inc("wal_appends_total")
            self.metrics.inc("wal_records_total", len(events))
            self.metrics.set_gauge("wal_last_seq", self._wal.last_seq)
            self._seq = self._wal.last_seq
        else:
            first = self._seq + 1
            self._seq += len(events)
        for position, event in enumerate(events):
            self._queue.put_nowait((first + position, event))
        self.metrics.inc("events_ingested_total", len(events))
        depth = self._queue.qsize()
        self.metrics.set_gauge("queue_depth", depth)
        response: Dict[str, object] = {
            "queued": len(events),
            "queue_depth": depth,
        }
        if request_id is not None:
            response["request_id"] = request_id
            self._seen_requests[request_id] = response
            while len(self._seen_requests) > _SEEN_LIMIT:
                self._seen_requests.popitem(last=False)
        return 202, response, {}

    def _route_whatif(
        self, body: bytes
    ) -> Tuple[int, object, Dict[str, str]]:
        """``POST /energy``: what-if evaluation on the current view."""
        self.metrics.inc("reads_total")
        view = self._view
        if view is None:  # pragma: no cover - start() always publishes
            return 503, {"error": "no solve yet"}, {}
        try:
            payload = json.loads(body.decode() or "{}")
            changes = payload.get("changes", {}) if isinstance(payload, dict) else None
            if not isinstance(changes, dict):
                raise ValueError(
                    'body must be {"changes": {host: {service: product}}}'
                )
            return 200, view.whatif_energy(changes), {}
        except (ValueError, UnicodeDecodeError, KeyError) as problem:
            return 400, {"error": str(problem)}, {}

    def _health_payload(self) -> Dict[str, object]:
        """The ``GET /healthz`` body."""
        view = self._view
        depth = self._queue.qsize()
        return {
            "status": "draining" if self._draining else "ok",
            "version": view.version if view is not None else 0,
            "events_applied": self._events_applied,
            "queue_depth": depth,
            "idle": depth == 0 and self._inflight == 0,
            "solver": self._engine.solver_name,
            "wal": self._wal is not None,
            "wal_seq": self._wal.last_seq if self._wal is not None else 0,
        }


#: the subset of HTTP reason phrases the service emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one HTTP/1.x request: (method, path, body), or None on EOF.

    Minimal by design: request line, headers (only ``Content-Length`` is
    honoured), then the body.  Query strings are stripped from the path.
    Oversized bodies raise ``ValueError`` → connection closed.
    """
    line = await reader.readline()
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, target = parts[0].upper(), parts[1]
    length = 0
    while True:
        header = await reader.readline()
        if not header or header in (b"\r\n", b"\n"):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    if length > _MAX_BODY:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    path = target.partition("?")[0]
    return method, path, body
