"""Deterministic fault injection for the service durability tier.

A :class:`FaultPlan` is a small, seeded script of failures — *crash after
the Nth WAL append*, *fsync raises OSError*, *torn write*, *solver
exception*, *snapshot failure mid-stage* — that the write-ahead log, the
writer loop and the snapshot writer consult at well-defined **fault
points**.  Because the plan is data (parsed from a compact spec string or
drawn from a seeded RNG), the same failure fires at exactly the same
event on every run, which is what makes the crash-recovery parity tests
in ``tests/test_service_recovery.py`` and the ``--crash`` leg of
``tools/service_smoke.py`` reproducible instead of flaky.

Fault points and the actions they honour:

==============  ==========================  =================================
point           actions                     fired by
==============  ==========================  =================================
``wal.append``  ``crash``/``torn``/``error``  :meth:`WriteAheadLog.append`
``wal.fsync``   ``error``                     every WAL ``fsync`` call
``solve``       ``error``/``crash``           the writer loop, before solving
``snapshot``    ``error``/``crash``           ``save_snapshot``, post-stage,
                                              pre-rename
==============  ==========================  =================================

Actions: ``error`` raises :class:`InjectedFault` (an ``OSError``) at the
point; ``torn`` writes only a prefix of the record then crashes; ``crash``
stops the process — ``SIGKILL`` for a real daemon (``hard=True``, the
``repro serve --fault-plan`` path) or an :class:`InjectedCrash` for
in-process tests.  :class:`InjectedCrash` derives from ``BaseException``
on purpose: ordinary ``except Exception`` recovery code must not swallow
a simulated machine death.

>>> plan = parse_fault_plan("wal.append:crash:3")
>>> plan.fire("wal.append"), plan.fire("wal.append")
(None, None)
>>> plan.fire("wal.append")
'crash'
>>> plan.fire("wal.append") is None
True
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "parse_fault_plan",
    "random_fault_plan",
]

#: fault points the service consults, mapped to the actions each honours.
FAULT_POINTS = {
    "wal.append": ("crash", "torn", "error"),
    "wal.fsync": ("error",),
    "solve": ("error", "crash"),
    "snapshot": ("error", "crash"),
}


class InjectedFault(OSError):
    """The I/O-level failure an ``error`` action raises at a fault point."""


class InjectedCrash(BaseException):
    """A simulated process death (``crash``/``torn`` in soft mode).

    Derives from ``BaseException`` so graceful-degradation handlers
    (``except Exception``) cannot absorb it — a crash is supposed to take
    the process down, and the in-process emulation must behave the same.
    """


@dataclass
class FaultRule:
    """One scripted failure: fire ``action`` at hits [after, after+count).

    ``count`` is the number of consecutive hits that fail (default 1);
    ``count=0`` means *every* hit from ``after`` onwards fails.
    """

    point: str
    action: str
    after: int = 1
    count: int = 1
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"expected one of {sorted(FAULT_POINTS)}"
            )
        if self.action not in FAULT_POINTS[self.point]:
            raise ValueError(
                f"point {self.point!r} does not support action "
                f"{self.action!r}; supported: {FAULT_POINTS[self.point]}"
            )
        if self.after < 1:
            raise ValueError("after must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")

    def check(self) -> Optional[str]:
        """Count one hit; return the action when this hit is scripted."""
        self.hits += 1
        if self.hits < self.after:
            return None
        if self.count and self.hits >= self.after + self.count:
            return None
        return self.action


class FaultPlan:
    """A deterministic script of failures consulted at fault points.

    Args:
        rules: the scripted failures, each counting its own hits.
        hard: when True, ``crash()`` kills the process with ``SIGKILL``
            (real daemon runs); when False it raises
            :class:`InjectedCrash` (in-process tests).
    """

    def __init__(self, rules: List[FaultRule], hard: bool = False) -> None:
        self.rules = list(rules)
        self.hard = hard

    def fire(self, point: str) -> Optional[str]:
        """Count one hit at ``point``; return a scripted action or None."""
        for rule in self.rules:
            if rule.point != point:
                continue
            action = rule.check()
            if action is not None:
                return action
        return None

    def crash(self) -> None:
        """Die — for real (``SIGKILL``) or by raising :class:`InjectedCrash`."""
        if self.hard:
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedCrash("injected crash")

    def __repr__(self) -> str:
        specs = ",".join(
            f"{r.point}:{r.action}:{r.after}"
            + (f":{r.count}" if r.count != 1 else "")
            for r in self.rules
        )
        return f"FaultPlan({specs!r}, hard={self.hard})"


def parse_fault_plan(spec: str, hard: bool = False) -> FaultPlan:
    """Parse a compact fault-plan spec into a :class:`FaultPlan`.

    The spec is a comma-separated list of ``point:action[:after[:count]]``
    clauses — ``after`` is the 1-based hit that fails (default 1), and
    ``count`` how many consecutive hits fail from there (default 1,
    ``0`` = forever).  This is the format ``repro serve --fault-plan``
    accepts.

    >>> plan = parse_fault_plan("wal.fsync:error:2, solve:error:1:2")
    >>> len(plan.rules)
    2
    """
    rules = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(
                f"bad fault clause {clause!r}; "
                "expected point:action[:after[:count]]"
            )
        point, action = parts[0], parts[1]
        after = int(parts[2]) if len(parts) > 2 else 1
        count = int(parts[3]) if len(parts) > 3 else 1
        rules.append(FaultRule(point, action, after=after, count=count))
    if not rules:
        raise ValueError("empty fault plan")
    return FaultPlan(rules, hard=hard)


def random_fault_plan(
    seed: int, horizon: int, hard: bool = False
) -> FaultPlan:
    """A seeded single-crash plan: die on a random append within ``horizon``.

    The crash position is drawn deterministically from ``seed``, so a
    property-style test sweeping seeds explores different kill points
    while every individual run stays exactly reproducible.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    position = random.Random(seed).randint(1, horizon)
    return FaultPlan(
        [FaultRule("wal.append", "crash", after=position)], hard=hard
    )
