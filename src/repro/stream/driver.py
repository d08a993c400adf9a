"""Churn-scenario driver: replay an event trace, re-solve, record metrics.

:func:`replay_trace` feeds an event trace through a
:class:`~repro.stream.incremental.DynamicDiversifier`, re-solving after
every event and recording per-event latency, energy, warm/cold mode and
assignment stability.  With ``compare_cold=True`` every event additionally
times a from-scratch cold rebuild+solve of the mutated network — the
baseline the warm-start speedup claims are measured against (the cold
engine sees the same network objects but never mutates them).

The resulting :class:`ChurnReport` renders the per-event table behind
``repro stream`` and feeds ``benchmarks/bench_stream_churn.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.network.constraints import ConstraintSet
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.events import Event
from repro.stream.incremental import DynamicDiversifier, StreamSolveResult

__all__ = ["ChurnRecord", "ChurnReport", "replay_trace"]


@dataclass(frozen=True)
class ChurnRecord:
    """Metrics of one replayed event.

    Attributes:
        step: position in the trace (0-based).
        event: human-readable event description.
        seconds: incremental re-solve latency (plan patch + solver).
        energy: post-event optimal energy.
        warm: whether the re-solve was warm-started.
        iterations: solver sweeps of the re-solve.
        stability: fraction of surviving variables keeping their product.
        hosts / links: network size after the event.
        cold_seconds / cold_energy: from-scratch rebuild+solve baseline for
            the same state (None unless the replay compared cold).
    """

    step: int
    event: str
    seconds: float
    energy: float
    warm: bool
    iterations: int
    stability: float
    hosts: int
    links: int
    cold_seconds: Optional[float] = None
    cold_energy: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        """cold / incremental latency, when a cold baseline was timed."""
        if self.cold_seconds is None or self.seconds <= 0:
            return None
        return self.cold_seconds / self.seconds

    def row(self) -> str:
        """One formatted per-event row for the churn table."""
        mode = "warm" if self.warm else "cold"
        text = (
            f"[{self.step:>3}] {self.event:<28} {mode:<4} "
            f"{1000 * self.seconds:8.1f}ms  E={self.energy:10.4f}  "
            f"stab={self.stability:5.3f}  it={self.iterations:<3} "
            f"hosts={self.hosts:<4} links={self.links}"
        )
        if self.cold_seconds is not None:
            text += (
                f"  cold={1000 * self.cold_seconds:8.1f}ms"
                f" ({self.speedup:4.1f}x)"
            )
        return text


@dataclass
class ChurnReport:
    """Replay outcome: the initial solve plus one record per event."""

    initial: StreamSolveResult
    records: List[ChurnRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Total incremental re-solve time over the trace."""
        return sum(r.seconds for r in self.records)

    @property
    def total_cold_seconds(self) -> Optional[float]:
        """Total cold-baseline time, or None when not compared."""
        timed = [r.cold_seconds for r in self.records if r.cold_seconds is not None]
        return sum(timed) if timed else None

    @property
    def warm_count(self) -> int:
        """Number of events re-solved on the warm path."""
        return sum(1 for r in self.records if r.warm)

    @property
    def mean_stability(self) -> float:
        """Mean per-event assignment stability (1.0 with no records)."""
        if not self.records:
            return 1.0
        return sum(r.stability for r in self.records) / len(self.records)

    def summary(self) -> str:
        """Multi-line replay summary (totals, stability, speedup)."""
        lines = [
            f"initial solve: {1000 * self.initial.seconds:.1f}ms, "
            f"energy {self.initial.energy:.4f}",
            f"{len(self.records)} events, {self.warm_count} warm re-solves, "
            f"mean stability {self.mean_stability:.3f}, "
            f"total incremental time {1000 * self.total_seconds:.1f}ms",
        ]
        cold = self.total_cold_seconds
        if cold is not None and self.total_seconds > 0:
            lines.append(
                f"cold rebuild+solve baseline {1000 * cold:.1f}ms "
                f"→ warm speedup {cold / self.total_seconds:.1f}x"
            )
        return "\n".join(lines)

    def format_rows(self) -> str:
        """The per-event table, one row per record."""
        return "\n".join(record.row() for record in self.records)


def replay_trace(
    network: Network,
    similarity: SimilarityTable,
    trace: Sequence[Event],
    warm_start: bool = True,
    compare_cold: bool = False,
    rebuild_fraction: float = 0.25,
    constraints: Optional[ConstraintSet] = None,
    **engine_options,
) -> ChurnReport:
    """Replay ``trace`` over ``network``, re-solving after every event.

    Mutates ``network``, ``similarity`` and ``constraints`` in place (pass
    copies to keep the originals).  ``engine_options`` are forwarded to
    :class:`DynamicDiversifier` (cost model + solver options).

    With ``compare_cold=True`` each event also times a fresh engine's cold
    solve of the same mutated state (same network, similarity *and*
    constraint set), filling the records' ``cold_seconds``/``cold_energy``
    — the measured baseline for the warm-start speedup and the
    energy-parity check.

    >>> from repro.network import chain_network
    >>> from repro.nvd import SimilarityTable
    >>> from repro.stream import LinkRemove, PinService
    >>> net = chain_network(8)
    >>> table = SimilarityTable(products=["p0", "p1"])
    >>> report = replay_trace(
    ...     net, table,
    ...     [LinkRemove("h1", "h2"), PinService("h0", "svc", "p0")],
    ... )
    >>> len(report.records)
    2
    >>> report.warm_count
    2
    >>> report.records[1].event
    'pin h0.svc=p0'
    """
    engine = DynamicDiversifier(
        network,
        similarity,
        warm_start=warm_start,
        rebuild_fraction=rebuild_fraction,
        constraints=constraints,
        **engine_options,
    )
    report = ChurnReport(initial=engine.solve())
    for step, event in enumerate(trace):
        engine.apply(event)
        result = engine.solve()
        cold_seconds = cold_energy = None
        if compare_cold:
            cold_engine = DynamicDiversifier(
                network,
                similarity,
                warm_start=False,
                constraints=engine.constraints,
                **engine_options,
            )
            cold_result = cold_engine.solve()
            cold_seconds = cold_result.seconds
            cold_energy = cold_result.energy
        report.records.append(
            ChurnRecord(
                step=step,
                event=event.describe(),
                seconds=result.seconds,
                energy=result.energy,
                warm=result.warm,
                iterations=result.iterations,
                stability=result.stability,
                hosts=len(network),
                links=network.edge_count(),
                cold_seconds=cold_seconds,
                cold_energy=cold_energy,
            )
        )
    return report
