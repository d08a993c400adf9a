"""Serve workloads: a ``repro serve`` daemon driven over HTTP.

The daemon boots from benchmark-written ``--network``/``--similarity``
JSON and runs with ``--wal DIR --fsync batch``.  One harness process
talks to it through :class:`repro.service.ServiceClient` from two
threads, each request on its own connection:

* a **sender** posting churn events -- open loop at a fixed rate
  (``serve-steady``) or closed loop in chunks (``serve-bulk``);
* a **reader** issuing scheduled reads (alternating ``GET /assignment``
  and a no-op ``POST /energy``) and, between them, polling ``GET
  /healthz`` every 10 ms to see when each view version appears.

Event *i* (in send order) is visible at the first moment a read returns
a view with ``events_applied >= i``.
"""

from __future__ import annotations

import ctypes
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import uuid
from bisect import bisect_right
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    RESULTS,
    SETUP_STARTS,
    Outcome,
    Span,
    Speedometer,
    child_env,
    median,
    percentile,
)

#: the served estate: hosts, degree, services, products per service.
SERVE_SHAPE = (1000, 10, 3, 6)
#: the fixed similarity catalogue (see plan.py for why it is fixed): every
#: product pair of a service shares 45-55%.  With the sparse catalogue of
#: the plan workloads most links cost nothing, the energy comes from a few
#: hundred conflicted links, and the final energy of a bulk run swung 12%
#: with the seed.
CATALOGUE = dict(seed=0, similarity_density=1.0)
CATALOGUE_RANGE = (0.45, 0.55)
#: the churn of both serve workloads: joins, leaves, link changes and
#: similarity re-scores within the catalogue's range.  A joining host gets
#: as many links as the estate's degree, so the estate neither thins nor
#: thickens.  Constraint events are left out: a pin that strands the
#: served solution escalates to a full-budget solve whose length varies
#: 2-10x, and the number a seed drew made bulk solve time vary 70%.  For
#: the same reason no re-score leaves the catalogue's range, which would
#: cross the ``cost_jump`` escalation threshold.
CHURN = dict(sim_low=CATALOGUE_RANGE[0], sim_high=CATALOGUE_RANGE[1])

#: serve-steady: one event per POST at this rate, reads at READ_RATE.  A
#: warm re-solve of this estate takes 40-50 ms inside the daemon on a
#: 2-core machine, so 5 events/s keeps the writer about a third busy;
#: with the writer two thirds busy, queueing amplified every change in
#: machine speed.
STEADY_RATE = 5.0
STEADY_READ_RATE = 10.0
#: events the daemon's writer applies per solve at most (``--batch-max``).
BATCH_MAX = 64
#: serve-bulk: trace length, chunk size and read rate.  A POST enqueues
#: its events at once and the writer takes at most BATCH_MAX from the
#: queue, so with chunks of BATCH_MAX every batch is one chunk.  With
#: smaller chunks the writer took whatever had queued up, and the solve
#: time of one trace varied by half between replays.  The trace drains in
#: 2-3 s on a 2-core machine, so a run replays it on fresh daemons
#: (MIN_REPLAYS times or more, while ``--seconds`` leaves room).
BULK_EVENTS = 512
BULK_CHUNK = BATCH_MAX
BULK_READ_RATE = 20.0
MIN_REPLAYS = 3

#: /healthz poll period between scheduled reads.
POLL_S = 0.010
#: /metrics scrape period: ``solve_s`` normalises the daemon's solve
#: seconds of each such interval by the speed of the machine within it,
#: which changes within a run.
SCRAPE_PERIOD_S = 1.0
#: reference probes (see ``common``) are taken by the reader at most this
#: often, and this many at a time around each boot and after the load.
#: The daemon shares the harness's one CPU, so a probe's thread CPU time
#: does not count the daemon's turns: it times the CPU under load as at
#: rest, and the probes follow the machine through a 2 s drain too.
PROBE_PERIOD_S = 0.25
PROBES_AT_REST = 3
#: a run whose open-loop sender is more than LATE_S late on more than
#: LATE_SHARE of its sends is invalid.
LATE_S = 0.050
LATE_SHARE = 0.01
#: trace ring buffer of a traced daemon; large enough for a whole run.
TRACE_TAIL = 1_000_000
#: no run waits longer than this for its last event to become visible.
DEADLINE_S = 120.0
#: relative tolerance of the energy cross-check.
TOLERANCE = 1e-9


# ------------------------------------------------------------------ inputs


def serve_inputs(
    seed: int, events: int, shape: Tuple[int, int, int, int] = SERVE_SHAPE
):
    """The boot network, similarity catalogue and churn trace for ``seed``."""
    from repro.network.generator import (
        RandomNetworkConfig,
        random_network,
        random_similarity,
    )
    from repro.stream.events import ChurnConfig, random_churn_trace

    hosts, degree, services, products = shape
    graph = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=products, seed=seed,
    )
    catalogue = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services,
        products_per_service=products, **CATALOGUE,
    )
    network = random_network(graph)
    similarity = random_similarity(catalogue, *CATALOGUE_RANGE)
    trace = random_churn_trace(
        network,
        ChurnConfig(events=events, seed=seed, join_degree=degree, **CHURN),
    )
    return network, similarity, trace


# ------------------------------------------------------------------ daemon


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(
        self, workdir: Path, network_path: Path, similarity_path: Path,
        high_water: int, trace_tail: int = 0,
    ) -> None:
        self.workdir = workdir
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--network", str(network_path), "--similarity", str(similarity_path),
            "--wal", str(workdir / f"wal-{uuid.uuid4().hex[:8]}"),
            "--fsync", "batch", "--batch-max", str(BATCH_MAX),
            "--high-water", str(high_water),
            "--log-level", "warning",
        ]
        if trace_tail:
            self.argv += ["--trace-tail", str(trace_tail)]
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self._log = None

    def start(self) -> float:
        """Spawn; returns seconds until the first 200 from ``/healthz``."""
        from repro.service import ServiceClient

        self._log = open(self.workdir / "daemon.log", "a")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True, preexec_fn=_die_with_parent,
        )
        port = self._read_port(began + DEADLINE_S)
        self.client = ServiceClient(port=port, retries=0, timeout=DEADLINE_S)
        while True:
            try:
                self.client.healthz()
                return time.perf_counter() - began
            except ConnectionError:
                if self.proc.poll() is not None:
                    raise RuntimeError("repro serve exited while starting")
                time.sleep(0.002)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.wait()} before "
                    f"listening; see {self.workdir / 'daemon.log'}"
                )
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                return int(found.group(1))
        raise RuntimeError("repro serve did not start listening in time")

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` in MB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(kib.group(1)) / 1024.0 if kib else float("nan")

    def stop(self) -> None:
        """Graceful shutdown; kills the process if it does not drain."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.client is not None:
                self.client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, RuntimeError, HTTPException, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            if self._log is not None:
                self._log.close()
            self.proc = None


_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the daemon child: have Linux SIGTERM it when the harness dies.

    Covers a harness killed outright; a graceful exit stops the daemon
    itself.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, int(signal.SIGTERM))
    except (OSError, AttributeError):
        pass


# -------------------------------------------------------------- the load


@dataclass
class Record:
    """What the two client threads observed."""

    #: per event: when it was due, and the wall clock when its 202 arrived
    #: (to line up with the daemon's trace timestamps).
    due: List[float] = field(default_factory=list)
    acked_wall: List[float] = field(default_factory=list)
    #: per POST: acknowledgement latency from due time, and lateness.
    ack_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    #: (time, version, events_applied or None, exact) in observation order;
    #: see :func:`visibility` for ``exact``.
    sightings: List[Tuple[float, int, Optional[int], bool]] = field(
        default_factory=list
    )
    #: (kind, latency from due time) per scheduled read.
    reads: List[Tuple[str, float]] = field(default_factory=list)
    #: (time, ``repro_solve_seconds_sum``) per ``/metrics`` scrape.
    solve_sums: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, what: str, problem: Exception) -> None:
        with self.lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem!r}")


def _sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _post(client, record: Record, events: Sequence, due: float) -> None:
    """One ``POST /events``; every event in it shares ``due``."""
    started = time.perf_counter()
    record.late_s.append(started - due)
    with record.lock:
        record.attempted += 1
    try:
        client.post_events(events)
    except Exception as problem:  # any failed request is a failed operation
        record.fail("POST /events", problem)
    acked = time.perf_counter()
    wall = time.time()
    record.ack_s.append(acked - due)
    for _ in events:
        record.due.append(due)
        record.acked_wall.append(wall)


def send_open_loop(client, record: Record, events: Sequence, rate: float, t0: float) -> None:
    """One event per POST, event *i* due at ``t0 + i / rate``."""
    for index, event in enumerate(events):
        due = t0 + index / rate
        _sleep_until(due)
        _post(client, record, [event], due)


def send_closed_loop(client, record: Record, events: Sequence, chunk: int) -> None:
    """Chunks of ``chunk`` events, each posted as the previous one is acked."""
    for start in range(0, len(events), chunk):
        _post(client, record, events[start:start + chunk], time.perf_counter())


def read_and_probe(
    client, record: Record, rate: float, t0: float, total: int,
    sender_done: threading.Event, deadline: float, speed: Speedometer,
    seed: int,
) -> None:
    """Scheduled reads at ``rate`` plus ``/healthz`` polls between them, a
    reference probe at most every ``PROBE_PERIOD_S`` and a ``/metrics``
    scrape at most every ``SCRAPE_PERIOD_S``.

    Read *j* is due at a seeded uniform moment within ``[t0 + j / rate,
    t0 + (j + 1) / rate)``.  On the open loop's grid instead, every event
    would be posted at the same moment as a ``GET /assignment``; which of
    the two the daemon serves first made visible latency bimodal, with
    the median in the gap between the modes.

    Stops once the sender is done and an idle ``/healthz`` reports every
    event applied, or at ``deadline``.
    """
    jitter = random.Random(seed)
    index = 0
    next_probe = next_scrape = t0
    while True:
        due = t0 + (index + jitter.random()) / rate
        while time.perf_counter() < due:
            try:
                health = client.healthz()
            except Exception as problem:
                with record.lock:
                    record.attempted += 1
                record.fail("GET /healthz", problem)
            else:
                applied = int(health["events_applied"])
                idle = bool(health["idle"])
                record.sightings.append((
                    time.perf_counter(), int(health["version"]), applied, idle,
                ))
                if sender_done.is_set() and idle and applied >= total:
                    return
                if time.perf_counter() >= next_probe:
                    speed.probe()
                    next_probe = time.perf_counter() + PROBE_PERIOD_S
            if time.perf_counter() >= next_scrape:
                try:
                    record.solve_sums.append(_solve_sum(client))
                except Exception as problem:
                    with record.lock:
                        record.attempted += 1
                    record.fail("GET /metrics", problem)
                next_scrape = time.perf_counter() + SCRAPE_PERIOD_S
            if time.perf_counter() > deadline:
                return
            time.sleep(max(0.0, min(POLL_S, due - time.perf_counter())))
        kind = "assignment" if index % 2 == 0 else "whatif"
        with record.lock:
            record.attempted += 1
        try:
            if kind == "assignment":
                body = client.assignment()
                record.sightings.append((
                    time.perf_counter(), int(body["version"]),
                    int(body["events_applied"]), True,
                ))
            else:
                body = client.what_if({})
                record.sightings.append((
                    time.perf_counter(), int(body["version"]), None, True,
                ))
                if body["delta"] != 0.0:
                    record.problems.append(
                        f"no-op what-if returned delta {body['delta']!r}"
                    )
        except Exception as problem:
            record.fail(f"read {kind}", problem)
        record.reads.append((kind, time.perf_counter() - due))
        index += 1


def visibility(
    sightings: Sequence[Tuple[float, int, Optional[int], bool]], total: int
) -> Tuple[List[Optional[float]], List[str]]:
    """When each event 1..``total`` first became visible, and check failures.

    A version's time is its first sighting by any read.  A sighting is
    *exact* when its ``events_applied`` describes that version: read from
    the view itself (``GET /assignment``) or from ``/healthz`` while the
    writer was idle.  ``/healthz`` bumps its counter just before the view
    swap, so a poll during a batch may read the next batch's count with
    the old version: such a count may run ahead of the view, up to the
    count of the next version seen, never behind it.  Exact counts of one
    version must agree.  Any other disagreement fails the run.
    """
    first: Dict[int, float] = {}
    exact: Dict[int, int] = {}
    racy: Dict[int, int] = {}
    problems = []
    for moment, version, applied, is_exact in sightings:
        first.setdefault(version, moment)
        if applied is None:
            continue
        if not is_exact:
            racy[version] = min(racy.get(version, applied), applied)
        elif exact.setdefault(version, applied) != applied:
            problems.append(
                f"version {version}: events_applied {exact[version]} and "
                f"{applied} in two exact reads"
            )
    versions = sorted(first)
    applied_of = {v: exact.get(v, racy.get(v)) for v in versions}
    for position, version in enumerate(versions):
        if version not in exact or version not in racy:
            continue
        ceiling = next(
            (applied_of[v] for v in versions[position + 1:]
             if applied_of[v] is not None),
            exact[version],
        )
        if not exact[version] <= racy[version] <= ceiling:
            problems.append(
                f"version {version}: the view holds {exact[version]} events, "
                f"/healthz reported {racy[version]}"
            )
    times: List[Optional[float]] = [None] * total
    following = 1
    for version in versions:
        applied = applied_of[version]
        if applied is None:
            continue
        while following <= min(applied, total):
            times[following - 1] = first[version]
            following += 1
    return times, problems


# --------------------------------------------------------------- the run


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus exposition text -> ``{series: value}``."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            values[series] = float(value)
    return values


def _solve_sum(client) -> Tuple[float, float]:
    """(time, the daemon's ``repro_solve_seconds_sum``) from ``/metrics``."""
    values = parse_metrics(client.metrics_text())
    return time.perf_counter(), values["repro_solve_seconds_sum"]


def normalised_solve_seconds(
    sums: Sequence[Tuple[float, float]], speed: Speedometer
) -> float:
    """The rise of the solve-seconds counter, each interval between two
    scrapes normalised by the machine's speed within it."""
    return sum(
        (later - earlier) * speed.scale(began, ended)
        for (began, earlier), (ended, later) in zip(sums, sums[1:])
    )


def run_serve(
    name: str, seed: int, seconds: float, trace: bool,
    layer_names: Sequence[str], closed_loop: bool,
    shape: Tuple[int, int, int, int] = SERVE_SHAPE,
) -> Outcome:
    """Drive fresh daemons with the workload's load, check and measure.

    ``serve-steady`` drives one daemon for ``seconds``; ``serve-bulk``
    replays its trace and reports medians over the replays (a traced run:
    the replay with the median time to drain).  Every boot is
    timed, topped up to ``SETUP_STARTS`` boots for ``setup_s``.  Every
    time is normalised to the reference speed (see ``common``).
    """
    from repro.network.io import network_to_json
    from repro.nvd.io import save_similarity

    total = BULK_EVENTS if closed_loop else max(1, int(STEADY_RATE * seconds))
    network, similarity, events = serve_inputs(seed, total, shape)
    workdir = RESULTS / "tmp" / f"{name}-{seed}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    replays: List[Outcome] = []
    boots: List[Span] = []
    speed = Speedometer()
    try:
        inputs = (workdir / "network.json", workdir / "similarity.json")
        inputs[0].write_text(network_to_json(network))
        save_similarity(similarity, inputs[1])
        began = time.perf_counter()
        while True:
            outcome, boot = _drive(
                workdir, inputs, network, similarity, events, seconds, trace,
                layer_names, closed_loop, speed, seed,
            )
            replays.append(outcome)
            boots.append(boot)
            elapsed = time.perf_counter() - began
            if not closed_loop or (
                len(replays) >= MIN_REPLAYS
                and elapsed + elapsed / len(replays) > seconds
            ):
                break
        while len(boots) < SETUP_STARTS:
            daemon = Daemon(workdir, *inputs, high_water=max(1024, total))
            try:
                boots.append(_boot(daemon, speed))
            finally:
                daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ranked = sorted(replays, key=lambda replay: replay.headline)
    chosen = ranked[(len(ranked) - 1) // 2]
    chosen.attempted = sum(replay.attempted for replay in replays)
    chosen.failed = sum(replay.failed for replay in replays)
    chosen.problems = [p for replay in replays for p in replay.problems]
    setup = [speed.normalise(*boot) for boot in boots]
    chosen.samples["setup_s"] = setup
    chosen.samples["setup_wall_s"] = [end - began for began, end in boots]
    chosen.samples["replay_headlines_ms"] = [r.headline for r in replays]
    chosen.samples["reference_s"] = [took for _, took in speed.samples]
    if not trace:
        # Replays do the same work, but the machine's speed moves each
        # one's times by about a tenth; the median of each metric over the
        # replays, and percentiles over all their events, vary less.
        metrics = {
            metric: median([replay.metrics[metric] for replay in replays])
            for metric in chosen.metrics
        }
        visible_s = [s for replay in replays for s in replay.samples["visible_s"]]
        metrics["visible_ms_p50"] = 1000.0 * percentile(visible_s, 50)
        metrics["visible_ms_p90"] = 1000.0 * percentile(visible_s, 90)
        metrics["setup_s"] = median(setup)
        chosen.metrics = metrics
        chosen.samples["replay_metrics"] = [replay.metrics for replay in replays]
    return chosen


def _boot(daemon: Daemon, speed: Speedometer) -> Span:
    """Start ``daemon`` between reference probes; the boot's span."""
    speed.probe(PROBES_AT_REST)
    began = time.perf_counter()
    daemon.start()
    span = (began, time.perf_counter())
    speed.probe(PROBES_AT_REST)
    return span


def _drive(
    workdir: Path, inputs: Tuple[Path, Path], network, similarity,
    events: Sequence, seconds: float, trace: bool,
    layer_names: Sequence[str], closed_loop: bool, speed: Speedometer,
    seed: int,
) -> Tuple[Outcome, Span]:
    """Boot a daemon, drive it with ``events``, check and measure.

    Returns the outcome (without ``setup_s``) and the boot's span.
    """
    total = len(events)
    daemon = Daemon(
        workdir, *inputs, high_water=max(1024, total),
        trace_tail=TRACE_TAIL if trace else 0,
    )
    try:
        boot = _boot(daemon, speed)
        client = daemon.client
        record = Record()
        before = parse_metrics(client.metrics_text())
        record.solve_sums.append(
            (time.perf_counter(), before["repro_solve_seconds_sum"])
        )
        run_wall_start = time.time()
        sender_done = threading.Event()
        t0 = time.perf_counter() + 0.05
        deadline = t0 + seconds + DEADLINE_S

        def send() -> None:
            try:
                if closed_loop:
                    _sleep_until(t0)
                    send_closed_loop(client, record, events, BULK_CHUNK)
                else:
                    send_open_loop(client, record, events, STEADY_RATE, t0)
            finally:
                sender_done.set()

        read_rate = BULK_READ_RATE if closed_loop else STEADY_READ_RATE
        # Daemon threads: an interrupted run must not wait for them.
        threads = [
            threading.Thread(target=send, name="e2e-sender", daemon=True),
            threading.Thread(
                target=read_and_probe, name="e2e-reader", daemon=True,
                args=(client, record, read_rate, t0, total, sender_done,
                      deadline, speed, seed),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * DEADLINE_S)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        client.wait_idle(timeout=DEADLINE_S)
        speed.probe(PROBES_AT_REST)
        final = client.assignment()
        noop = client.what_if({})
        after = parse_metrics(client.metrics_text())
        record.solve_sums.append(
            (time.perf_counter(), after["repro_solve_seconds_sum"])
        )
        trace_events = client.debug_trace()["traceEvents"] if trace else []
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    problems = list(record.problems)
    times, visibility_problems = visibility(record.sightings, total)
    problems += visibility_problems
    missing = sum(1 for moment in times if moment is None)
    if missing:
        problems.append(f"{missing} of {total} events never seen visible")
    visible_s = [
        speed.normalise(due, moment) for moment, due in zip(times, record.due)
        if moment is not None
    ]
    problems += _final_checks(
        network, similarity, events, final, noop, before, after, total
    )
    late_s = [] if closed_loop else record.late_s
    late = sum(1 for lateness in late_s if lateness > LATE_S)
    if late > LATE_SHARE * len(late_s):
        problems.append(
            f"invalid run: {late} of {len(late_s)} sends more than "
            f"{1000 * LATE_S:.0f} ms late"
        )
    first_post = min(record.due) if record.due else t0
    last_visible = max((m for m in times if m is not None), default=first_post)
    drain_s = max(last_visible - first_post, 1e-9)
    load_scale = speed.scale(first_post, last_visible)
    reads_by_kind = {
        kind: [latency for k, latency in record.reads if k == kind]
        for kind in ("assignment", "whatif")
    }
    samples = {
        "events": total,
        "visible_s": visible_s,
        "ack_s": record.ack_s,
        "late_s": record.late_s,
        "read_s": reads_by_kind,
        "events_per_s": total / drain_s,
        "load_scale": load_scale,
        "solve_sums": record.solve_sums,
        "final_energy": final["energy"],
        "final_lower_bound": final["lower_bound"],
    }
    common = dict(
        headline=1000.0 * (
            drain_s * load_scale if closed_loop else median(visible_s)
        ),
        attempted=record.attempted,
        failed=record.failed + int(sum(
            after[counter] - before[counter]
            for counter in ("repro_events_failed_total", "repro_dead_letter_total")
        )),
        problems=problems, samples=samples,
        late_ms_max=1000.0 * max(late_s, default=0.0),
    )
    if trace:
        layers = _serve_layers(
            trace_events, run_wall_start, record, before, after,
            reads_by_kind, problems,
        )
        metrics = {metric: layers.pop(metric, 0.0) for metric in layer_names}
        samples["unlisted_layers"] = layers
        return Outcome(
            metrics=metrics, trace_events=trace_events, **common
        ), boot
    energy = float(final["energy"])
    metrics = {
        "solve_s": normalised_solve_seconds(record.solve_sums, speed),
        "energy": energy,
        "bound_ratio": float(final["lower_bound"]) / energy,
        "peak_rss_mb": peak,
        "visible_ms_p50": 1000.0 * percentile(visible_s, 50),
        "visible_ms_p90": 1000.0 * percentile(visible_s, 90),
    }
    return Outcome(metrics=metrics, **common), boot


def _final_checks(network, similarity, events, final, noop, before, after, total) -> List[str]:
    """Checks on the daemon's state once every event is applied."""
    from repro.core.costs import assignment_energy
    from repro.network.assignment import ProductAssignment
    from repro.network.constraints import ConstraintSet
    from repro.stream.events import apply_event

    problems = []
    if final["events_applied"] != total:
        problems.append(
            f"final events_applied {final['events_applied']} != {total} sent"
        )
    if noop["delta"] != 0.0:
        problems.append(f"final no-op what-if delta {noop['delta']!r}")
    for counter in ("repro_events_failed_total", "repro_dead_letter_total"):
        if after.get(counter, 0) - before.get(counter, 0):
            problems.append(f"{counter} = {after[counter]:g}")
    model, table, constraints = network.copy(), similarity.copy(), ConstraintSet()
    for event in events:
        apply_event(model, table, event, constraints)
    assignment = ProductAssignment(model)
    for host, services in final["assignment"].items():
        for service, product in services.items():
            assignment.assign(host, service, product)
    expected = assignment_energy(model, table, assignment, constraints=constraints)
    energy = float(final["energy"])
    if abs(energy - expected) > TOLERANCE * max(1.0, abs(energy)):
        problems.append(f"final energy {energy!r} != recomputed {expected!r}")
    return problems


# ----------------------------------------------------------------- tracing


def _serve_layers(
    events: List[dict], run_wall_start: float, record: Record,
    before: Dict[str, float], after: Dict[str, float],
    reads_by_kind: Dict[str, List[float]], problems: List[str],
) -> Dict[str, float]:
    """Per-layer metrics from the daemon's trace and ``/metrics`` deltas."""
    from repro.obs.report import self_durations

    spans = [e for e in events if e.get("ph") == "X"]
    selfs = self_durations(spans)
    start_us = run_wall_start * 1e6
    run = [(e, s) for e, s in zip(spans, selfs) if e["ts"] >= start_us]

    def named(name: str) -> List[dict]:
        return [e for e, _ in run if e["name"] == name]

    def delta(series: str) -> float:
        return after.get(series, 0.0) - before.get(series, 0.0)

    batches = sorted(named("service.batch"), key=lambda e: e["ts"])
    solves_total = delta("repro_solves_total")
    if len(batches) != solves_total:
        problems.append(
            f"{len(batches)} service.batch spans but solves_total rose by "
            f"{solves_total:g}: the trace dropped spans"
        )
    # Attribute writer-thread spans to the batch that contains them.
    starts = [b["ts"] for b in batches]
    apply_ms = [0.0] * len(batches)
    solve_ms = [0.0] * len(batches)
    for span, _ in run:
        if span["name"] not in ("stream.apply", "trws.solve"):
            continue
        slot = bisect_right(starts, span["ts"]) - 1
        if slot < 0 or span["tid"] != batches[slot]["tid"]:
            continue
        if span["ts"] > batches[slot]["ts"] + batches[slot]["dur"]:
            continue
        target = apply_ms if span["name"] == "stream.apply" else solve_ms
        target[slot] += span["dur"] / 1000.0
    # Queue wait: the start of the batch that applied event i minus its ack.
    waits = []
    applied = 0
    for batch in batches:
        count = int(batch.get("args", {}).get("events", 0))
        for index in range(applied, min(applied + count, len(record.acked_wall))):
            waits.append(1000.0 * (batch["ts"] / 1e6 - record.acked_wall[index]))
        applied += count
    solves = named("trws.solve")
    native = sum(
        1 for e in solves
        if str(e.get("args", {}).get("backend", "")).startswith("native")
    )
    compiles = [e for e, _ in run if e.get("cat") == "compile"]
    layers = {
        "compile.s": sum(e["dur"] for e in compiles) / 1e6,
        "compile.calls": float(len(named("compile.index"))),
        "compile.edges": float(sum(
            e.get("args", {}).get("edges", 0) for e in named("compile.edges")
        )),
        "solve.s": sum(e["dur"] for e in solves) / 1e6,
        "solve.calls": float(len(solves)),
        "solve.iterations": float(sum(
            e.get("args", {}).get("iterations", 0) for e in solves
        )),
        "solve.native_share": native / len(solves) if solves else 0.0,
        "stream.apply_ms_per_batch_p50": percentile(apply_ms, 50),
        "stream.solve_ms_per_batch_p50": percentile(solve_ms, 50),
        "stream.rebuilds": float(len(named("stream.rebuild"))),
        "stream.cold_share": (
            delta("repro_solves_cold_total") / solves_total if solves_total else 0.0
        ),
        "wal.append_ms_p50": percentile(
            [e["dur"] / 1000.0 for e in named("wal.append")], 50
        ),
        "service.batches": float(len(batches)),
        "service.batch_events_mean": (
            sum(int(b.get("args", {}).get("events", 0)) for b in batches)
            / len(batches) if batches else 0.0
        ),
        "service.batch_ms_p50": percentile([b["dur"] / 1000.0 for b in batches], 50),
        "service.batch_ms_p95": percentile([b["dur"] / 1000.0 for b in batches], 95),
        "service.self_ms_p50": percentile(
            [s / 1000.0 for e, s in run if e["name"] == "service.batch"], 50
        ),
        "queue.wait_ms_p50": percentile(waits, 50),
        "queue.wait_ms_p95": percentile(waits, 95),
        "read.assignment_ms_p50": 1000.0 * percentile(reads_by_kind["assignment"], 50),
        "read.whatif_ms_p50": 1000.0 * percentile(reads_by_kind["whatif"], 50),
        "read.ms_p95": 1000.0 * percentile(
            [latency for _, latency in record.reads], 95
        ),
        "ack.ms_p50": 1000.0 * percentile(record.ack_s, 50),
        "ack.ms_p95": 1000.0 * percentile(record.ack_s, 95),
    }
    # One metric per escalation reason BENCHMARK.json names; a reason the
    # daemon adds later stays in the JSON-Lines record only.
    for series in after:
        found = re.fullmatch(r'repro_escalations_total\{reason="(\w+)"\}', series)
        if found:
            layers[f"stream.escalations.{found.group(1)}"] = delta(series)
    return layers
