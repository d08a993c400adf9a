#!/usr/bin/env python3
"""Fingerprint every solve of the streaming engine on the serve traces.

Replays the churn traces of the ``serve-*`` benchmark workloads
(``benchmarks/e2e/serve.py``: 1000 hosts, degree 10, 3 services, 6
products) through :class:`repro.stream.DynamicDiversifier` in process and
prints one line per solve: the energy, bound and stability (``repr``, so
every bit shows), plus a sha256 of the labels, the message array, the
plan's edge and unary arrays and the decoded assignment (the sorted items
of ``result.assignment.as_dict()``).  Two source trees that print the same
lines solve and decode byte-identically; ``diff`` the outputs to compare
them.

Runs every combination of seed (0, 1) and batch size (64 events, 1 event)
over a 512-event trace::

    python tools/stream_fingerprint.py                    # this checkout
    python tools/stream_fingerprint.py --root OTHER_TREE  # another one
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

SEEDS = (0, 1)
BATCHES = (64, 1)
EVENTS = 512


def digest(*arrays) -> str:
    """sha256 (first 16 hex digits) over the arrays' dtypes, shapes and
    bytes."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype.str, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def assignment_digest(result) -> str:
    """sha256 (first 16 hex digits) of the decoded assignment's sorted
    ``((host, service), product)`` items."""
    items = sorted(result.assignment.as_dict().items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def fingerprint(engine) -> str:
    """One solve's plan, message and label state as a digest."""
    plan = engine.plan
    # ``parts()`` has led its tuple with per-node unary vectors and, since,
    # with the padded stack and label counts; the tool reads only the last
    # four entries and takes the unary values (every node's labels, in
    # node order) off the flushed plan, so it runs on either form.
    *_, first, second, cid, matrices = plan.parts()
    parts = digest(
        plan.plan.unary[plan.plan.mask], first, second, cid, *matrices
    )
    state = digest(plan.messages, plan.labels)
    arrays = plan.plan
    live = digest(
        arrays.unary, arrays.edge_first, arrays.edge_second, arrays.edge_cid,
        arrays.cost,
    )
    return f"parts={parts} state={state} plan={live}"


def run(seed: int, batch: int, events: int) -> None:
    from serve import serve_inputs

    from repro.stream import DynamicDiversifier

    network, similarity, trace = serve_inputs(seed, events)
    engine = DynamicDiversifier(network, similarity)
    tag = f"seed={seed} batch={batch}"
    for solve in range(0, len(trace) // batch + 1):
        if solve:
            engine.apply_all(trace[(solve - 1) * batch : solve * batch])
        result = engine.solve()
        print(
            f"{tag} solve={solve} energy={result.energy!r} "
            f"bound={result.lower_bound!r} warm={int(result.warm)} "
            f"stability={result.stability!r} "
            f"{fingerprint(engine)} assignment={assignment_digest(result)}",
            flush=True,
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parents[1]),
        help="source tree to fingerprint (default: this checkout)",
    )
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
    for seed in SEEDS:
        for batch in BATCHES:
            run(seed, batch, EVENTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
