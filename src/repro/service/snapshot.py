"""Versioned plan snapshots: save a live engine, warm-restart it later.

A snapshot captures everything a :class:`~repro.stream.incremental.
DynamicDiversifier` needs to resume exactly where it stopped:

* the **model state** — network, similarity table and operator constraint
  set (JSON, the human-auditable part);
* the **plan parts** — padded unary stack, edge arrays, the deduplicated
  cost-matrix stack and the stream bookkeeping (the variable table and
  each matrix's key) that maps future events onto them;
* the **solver state** — the directed-message array and the
  previous-solution labels that make the first post-restart solve *warm*.

Restoring rebuilds the :class:`~repro.stream.plan.StreamPlan` from the
saved parts (no recompile), so the plan arrays are **byte-identical** to
the saved ones and the next warm solve is bit-for-bit the solve a
never-restarted engine would have run — the restart-parity contract
asserted in ``tests/test_service.py``.

Layout (format ``schema = 2``): one ``snap-<version>/`` directory per
snapshot holding ``meta.json`` (model state + bookkeeping) and
``arrays.npz`` (the NumPy blocks).  Directories are written under a
temporary name and renamed into place, so a crash mid-write never leaves a
half snapshot where :func:`latest_snapshot` would find it.  Since schema 2
the meta also records a sha256 of ``arrays.npz`` (verified on load), the
write-ahead-log sequence number the snapshot is anchored at (``wal_seq``
— WAL segments at or below it are prunable) and the published read-view
counters, so a restore republishes the exact pre-crash view without an
extra boot solve.  Schema-1 snapshots still load (no hash to verify,
``wal_seq`` 0).  :func:`latest_valid_snapshot` is the crash-tolerant
lookup: it walks snapshots newest-first and *skips* corrupt or partial
directories with a warning instead of raising, so one torn write never
blocks ``--restore``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.compile import check_model
from repro.mrf.vectorized import MRFArrays
from repro.obs.logging import get_logger
from repro.service.faults import InjectedFault
from repro.network.constraints import ConstraintSet
from repro.network.io import network_from_json, network_to_json
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable
from repro.stream.incremental import DynamicDiversifier
from repro.stream.plan import StreamPlan

__all__ = [
    "SNAPSHOT_SCHEMA",
    "Snapshot",
    "save_snapshot",
    "load_snapshot",
    "restore_plan",
    "restore_engine",
    "latest_snapshot",
    "latest_valid_snapshot",
    "prune_snapshots",
]

#: on-disk format version; bump on breaking layout changes.  Schema 2
#: added ``arrays_sha256``/``wal_seq``/``view`` to the meta; schema-1
#: directories remain loadable.
SNAPSHOT_SCHEMA = 2

_ACCEPTED_SCHEMAS = (1, 2)

_META_NAME = "meta.json"
_ARRAYS_NAME = "arrays.npz"
_PREFIX = "snap-"

_LOG = get_logger("service.snapshot")


@dataclass
class Snapshot:
    """One loaded snapshot: model state, plan parts and solver state.

    The in-memory form of a ``snap-<version>/`` directory, as
    :func:`load_snapshot` returns it and :func:`restore_plan` /
    :func:`restore_engine` consume it.  ``meta`` keeps the raw
    ``meta.json`` payload (cost model, bookkeeping, counters).
    """

    version: int
    network: Network
    similarity: SimilarityTable
    constraints: ConstraintSet
    meta: Dict[str, object]
    unary: np.ndarray  # (nodes, lmax) padded stack, zeros outside the mask
    label_counts: np.ndarray
    edge_first: np.ndarray
    edge_second: np.ndarray
    edge_cid: np.ndarray
    matrices: List[np.ndarray]
    messages: np.ndarray
    labels: Optional[np.ndarray]

    @property
    def events_applied(self) -> int:
        """Events the saved engine had ingested when the snapshot ran."""
        return int(self.meta.get("events_applied", 0))

    @property
    def wal_seq(self) -> int:
        """WAL sequence the snapshot is anchored at (0 = no WAL/schema 1)."""
        return int(self.meta.get("wal_seq") or 0)

    @property
    def view(self) -> Optional[Dict[str, object]]:
        """The read-view counters published when the snapshot ran, if saved."""
        view = self.meta.get("view")
        return dict(view) if isinstance(view, dict) else None


# ---------------------------------------------------------------------- save


def save_snapshot(
    engine: DynamicDiversifier,
    directory: Union[str, Path],
    version: int,
    events_applied: int = 0,
    energy: Optional[float] = None,
    wal_seq: Optional[int] = None,
    view: Optional[Dict[str, object]] = None,
    faults=None,
) -> Path:
    """Write one snapshot of a live engine; returns the snapshot path.

    Flushes pending structural deltas first (the saved plan is always the
    materialised one), then writes ``arrays.npz`` + ``meta.json`` into
    ``directory/snap-<version>/`` via a temp-dir rename, so readers never
    observe a partial snapshot.  The meta records a sha256 of the arrays
    blob (verified on load), the WAL anchor ``wal_seq`` and the published
    read-view counters ``view``.  ``faults`` is the optional
    :class:`~repro.service.faults.FaultPlan` consulted at the
    ``snapshot`` fault point (after staging, before the rename — the
    worst place to die).  The engine is not otherwise disturbed —
    message state, labels and dirty counters stay live.
    """
    plan = engine.plan
    plan.flush()
    # The flushed stack is as wide as the live plan and its messages.
    unary, counts, edge_first, edge_second, edge_cid, matrices = plan.parts()
    mat_shapes = np.asarray([m.shape for m in matrices], dtype=np.int64)
    mat_shapes = mat_shapes.reshape(len(matrices), 2)
    mat_data = np.concatenate([m.ravel() for m in matrices] or [np.zeros(0)])
    labels = plan.labels
    meta = {
        "schema": SNAPSHOT_SCHEMA,
        "version": int(version),
        "created_unix": int(time.time()),
        "solver": engine.solver_name,
        "events_applied": int(events_applied),
        "energy": None if energy is None else float(energy),
        "wal_seq": int(wal_seq or 0),
        "view": dict(view) if view else None,
        "has_labels": labels is not None,
        "unary_constant": plan.unary_constant,
        "pairwise_weight": plan.pairwise_weight,
        "service_weights": plan.service_weights,
        "network": json.loads(
            network_to_json(plan.network, plan.constraints)
        ),
        "similarity": _similarity_to_dict(plan.similarity),
        "variables": [list(variable) for variable in plan.variables],
        "matrix_meta": [
            [list(range_a), list(range_b), weight]
            for range_a, range_b, weight in plan._matrix_meta
        ],
    }

    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    target = root / f"{_PREFIX}{int(version):08d}"
    staging = root / f".{target.name}.tmp"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        np.savez(
            staging / _ARRAYS_NAME,
            unary=unary,
            label_counts=counts,
            lmax=np.asarray([unary.shape[1]], dtype=np.int64),
            edge_first=edge_first,
            edge_second=edge_second,
            edge_cid=edge_cid,
            mat_shapes=mat_shapes,
            mat_data=mat_data,
            messages=plan.messages,
            labels=(
                labels if labels is not None else np.zeros(0, dtype=np.int64)
            ),
        )
        meta["arrays_sha256"] = _sha256_file(staging / _ARRAYS_NAME)
        (staging / _META_NAME).write_text(json.dumps(meta, indent=1))
        if faults is not None:
            action = faults.fire("snapshot")
            if action == "error":
                raise InjectedFault("injected snapshot failure mid-stage")
            if action == "crash":
                faults.crash()
        if target.exists():
            shutil.rmtree(target)
        os.replace(staging, target)
    finally:
        if staging.exists():  # pragma: no cover - crash-path hygiene
            shutil.rmtree(staging)
    return target


# ---------------------------------------------------------------------- load


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Read one ``snap-<version>/`` directory back into a :class:`Snapshot`.

    Validates the format version; raises ``ValueError`` on unknown schemas
    or malformed layouts (missing files, inconsistent array sizes).  The
    unary block is kept as stored, one padded ``(nodes, lmax)`` stack.
    """
    root = Path(path)
    meta_path = root / _META_NAME
    arrays_path = root / _ARRAYS_NAME
    if not meta_path.exists() or not arrays_path.exists():
        raise ValueError(f"{root} is not a snapshot directory")
    meta = json.loads(meta_path.read_text())
    if meta.get("schema") not in _ACCEPTED_SCHEMAS:
        raise ValueError(
            f"snapshot schema {meta.get('schema')!r} unsupported "
            f"(this build reads schemas {_ACCEPTED_SCHEMAS})"
        )
    expected_sha = meta.get("arrays_sha256")
    if expected_sha is not None:
        actual_sha = _sha256_file(arrays_path)
        if actual_sha != expected_sha:
            raise ValueError(
                f"snapshot {root.name} is corrupt: arrays.npz sha256 "
                f"{actual_sha[:12]}... does not match recorded "
                f"{str(expected_sha)[:12]}..."
            )
    network, constraints = network_from_json(json.dumps(meta["network"]))
    similarity = _similarity_from_dict(meta["similarity"])

    with np.load(arrays_path) as blob:
        unary = blob["unary"]
        lmax = int(blob["lmax"][0])
        shapes = blob["mat_shapes"]
        data = blob["mat_data"]
        matrices: List[np.ndarray] = []
        offset = 0
        for rows, cols in shapes:
            size = int(rows) * int(cols)
            matrices.append(
                data[offset : offset + size].reshape(int(rows), int(cols)).copy()
            )
            offset += size
        if offset != data.size:
            raise ValueError("snapshot matrix block size mismatch")
        labels = blob["labels"].astype(np.int64)
        snapshot = Snapshot(
            version=int(meta["version"]),
            network=network,
            similarity=similarity,
            constraints=constraints,
            meta=meta,
            unary=unary,
            label_counts=blob["label_counts"].astype(np.int64),
            edge_first=blob["edge_first"].astype(np.int64),
            edge_second=blob["edge_second"].astype(np.int64),
            edge_cid=blob["edge_cid"].astype(np.int64),
            matrices=matrices,
            messages=blob["messages"].copy(),
            labels=labels if meta.get("has_labels") else None,
        )
    if len(snapshot.edge_first) * 2 != len(snapshot.messages):
        raise ValueError("snapshot message block does not match edge count")
    if unary.ndim != 2 or {unary.shape[1], snapshot.messages.shape[-1]} != {lmax}:
        raise ValueError(
            f"snapshot unary block {unary.shape} and message width "
            f"{snapshot.messages.shape[-1]} do not match lmax {lmax}"
        )
    return snapshot


def restore_plan(snapshot: Snapshot) -> StreamPlan:
    """Reconstruct the live :class:`StreamPlan` a snapshot captured.

    Builds the plan straight from the saved parts — **no recompile** — so
    every plan array is byte-identical to the saved one, and the message
    and label state resume exactly.  The model still gets the checks a
    compile runs (:func:`repro.core.compile.check_model`): negative
    weights and constraints that do not fit the network raise
    ``ValueError``, and so do a node table that does not fit the network
    (:func:`_check_nodes`) and matrix keys that do not fit the matrices
    or their edges (:func:`_check_matrices`).  Every edge's link and
    services are read off its endpoints.  The returned plan is fully
    live: future events patch it the same way they would have patched
    the original.  Meta keys this build does not read (a ``shard_cache``
    written by an older sharded daemon, the ``edge_keys`` and
    ``combo_cids`` of older builds) are ignored.
    """
    meta = snapshot.meta
    plan = StreamPlan.__new__(StreamPlan)
    plan.network = snapshot.network
    plan.similarity = snapshot.similarity
    plan.constraints = snapshot.constraints
    plan.unary_constant = float(meta["unary_constant"])
    plan.pairwise_weight = float(meta["pairwise_weight"])
    plan.service_weights = dict(meta.get("service_weights") or {})
    # The checks a compile of this model would run: no recompile here.
    check_model(
        plan.network, plan.constraints, plan.pairwise_weight,
        plan.service_weights,
    )

    variables = [
        (str(host), str(service)) for host, service in meta["variables"]
    ]
    candidates = [
        snapshot.network.candidates(host, service)
        for host, service in variables
    ]
    _check_nodes(variables, candidates, snapshot)
    # Copies, like the messages and labels below: the live plan writes
    # its stack in place and the snapshot stays as loaded.
    unary = snapshot.unary.copy()
    matrices = list(snapshot.matrices)
    matrix_meta = [
        (tuple(range_a), tuple(range_b), float(weight))
        for range_a, range_b, weight in meta["matrix_meta"]
    ]
    # The plan build rejects edges that are not two distinct nodes, or
    # whose cost id is no matrix, first.
    arrays = MRFArrays.from_dense(
        unary,
        snapshot.label_counts,
        snapshot.edge_first,
        snapshot.edge_second,
        snapshot.edge_cid,
        matrices,
    )
    _check_matrices(variables, candidates, matrix_meta, snapshot, plan._weight)
    plan.install(
        variables=variables,
        candidates=candidates,
        unary=unary,
        label_counts=snapshot.label_counts,
        matrices=matrices,
        matrix_meta=matrix_meta,
        edge_first=snapshot.edge_first,
        edge_second=snapshot.edge_second,
        edge_cid=snapshot.edge_cid,
        plan=arrays,
        messages=snapshot.messages.copy(),
        labels=(
            snapshot.labels.copy() if snapshot.labels is not None else None
        ),
    )
    return plan


def _check_nodes(variables, candidates, snapshot: Snapshot) -> None:
    """Raise ``ValueError`` naming the first node whose stored state does
    not fit the model it is restored onto."""
    counts, unary, n = snapshot.label_counts, snapshot.unary, len(variables)
    labels = np.zeros(n, np.int64) if snapshot.labels is None else snapshot.labels
    if {len(counts), len(unary), len(labels)} != {n}:
        raise ValueError(f"snapshot node table does not cover its {n} nodes")
    ranges = np.asarray([len(range_) for range_ in candidates], dtype=np.int64)
    width = unary.shape[1]
    for bad, problem in (
        (counts != ranges, lambda i: f"has {counts[i]} labels but its "
         f"candidate range {ranges[i]}"),
        (counts > width, lambda i: f"has {counts[i]} labels, more than the "
         f"unary block's width {width}"),
        ((labels < 0) | (labels >= counts), lambda i: f"stores label "
         f"{labels[i]} outside its {counts[i]} candidates"),
    ):
        if bad.any():
            node = int(np.argmax(bad))
            host, service = variables[node]
            raise ValueError(
                f"snapshot node {node} ({host}, {service}) {problem(node)}"
            )


def _check_matrices(
    variables, candidates, matrix_meta, snapshot: Snapshot, weight
) -> None:
    """Raise ``ValueError`` naming the first matrix or edge whose stored
    key does not fit: one key per matrix, a similarity matrix shaped by
    its key's two ranges, and every similarity edge's endpoint ranges and
    service weight equal to its matrix's key.  Combination tables carry
    :data:`~repro.core.compile.COMBO_META` and are exempt."""
    matrices, m = snapshot.matrices, len(snapshot.matrices)
    if len(matrix_meta) != m:
        raise ValueError(
            f"snapshot has {len(matrix_meta)} matrix keys for {m} matrices"
        )
    for cid, ((range_a, range_b, _), matrix) in enumerate(
        zip(matrix_meta, matrices)
    ):
        if range_a and matrix.shape != (len(range_a), len(range_b)):
            raise ValueError(
                f"snapshot matrix {cid} has shape {matrix.shape}, not its "
                f"key's ({len(range_a)}, {len(range_b)})"
            )
    # A similarity edge's first and second nodes carry its matrix's row
    # and column (range, λ·weight) key, compared as interned ids (-1: a
    # key no node carries); combination tables have empty ranges.
    ids: Dict[object, int] = {}
    node = np.fromiter(
        (
            ids.setdefault((range_, weight(service)), len(ids))
            for (_, service), range_ in zip(variables, candidates)
        ),
        np.int64,
        len(variables),
    )
    row = np.fromiter((ids.get((a, w), -1) for a, _, w in matrix_meta), np.int64, m)
    col = np.fromiter((ids.get((b, w), -1) for _, b, w in matrix_meta), np.int64, m)
    similar = np.fromiter((bool(a) for a, _, _ in matrix_meta), bool, m)
    # The plan build has checked every cost id against the matrices.
    first, second, cid = snapshot.edge_first, snapshot.edge_second, snapshot.edge_cid
    bad = similar[cid] & ((node[first] != row[cid]) | (node[second] != col[cid]))
    if bad.any():
        e = int(np.argmax(bad))
        lo, hi, c = int(first[e]), int(second[e]), int(cid[e])
        raise ValueError(
            f"snapshot edge {e} ({lo}, {hi}) between {variables[lo]} and "
            f"{variables[hi]} does not fit the key of matrix {c} "
            f"(of {m} matrices)"
        )


def restore_engine(
    path: Union[str, Path, Snapshot],
    warm_start: bool = True,
    **engine_options,
) -> Tuple[DynamicDiversifier, Snapshot]:
    """Warm-restart an engine from a snapshot directory.

    Loads the snapshot and builds a :class:`DynamicDiversifier` around the
    restored plan (:func:`restore_plan`: network, similarity, constraints,
    cost model, messages and labels; nothing is compiled), so the first
    :meth:`~DynamicDiversifier.solve` after a restart is warm.  A
    snapshot taken by another solver's daemon (an older build's loopy BP)
    raises ``ValueError``: its messages are not TRW-S state.
    ``engine_options`` are forwarded to the engine (``rebuild_fraction``,
    ...).  ``path`` also accepts an already-loaded :class:`Snapshot` (the
    :func:`latest_valid_snapshot` hand-off, avoiding a second read).

    Returns ``(engine, snapshot)`` — the snapshot carries the counters
    (``events_applied``, ``wal_seq``) a resuming service continues from.
    """
    snapshot = path if isinstance(path, Snapshot) else load_snapshot(path)
    solver = snapshot.meta["solver"]
    if solver != DynamicDiversifier.solver_name:
        raise ValueError(
            f"snapshot was taken by a {solver!r} daemon; only "
            f"{DynamicDiversifier.solver_name!r} snapshots resume"
        )
    engine = DynamicDiversifier._resume(
        restore_plan(snapshot), warm_start=warm_start, **engine_options
    )
    return engine, snapshot


# ----------------------------------------------------------------- directory


def latest_snapshot(directory: Union[str, Path]) -> Optional[Path]:
    """The highest-versioned snapshot in a directory, or None when empty."""
    root = Path(directory)
    if not root.is_dir():
        return None
    best: Optional[Path] = None
    best_version = -1
    for entry in root.iterdir():
        version = _snapshot_version(entry)
        if version is not None and version > best_version:
            best, best_version = entry, version
    return best


def latest_valid_snapshot(
    directory: Union[str, Path],
) -> Optional[Tuple[Path, Snapshot]]:
    """The newest snapshot that actually loads, skipping corrupt ones.

    Walks ``snap-<version>/`` directories newest-first and returns the
    first that passes every integrity check (files present, schema known,
    sha256 matching, array blocks consistent).  Corrupt or partial
    directories — a torn ``arrays.npz``, a missing ``meta.json``, a
    bit-flip — are *skipped with a warning* instead of raising, so one
    bad write never blocks ``--restore``; the WAL tail covers the gap.
    Returns ``(path, snapshot)`` or ``None`` when nothing valid exists.
    """
    root = Path(directory)
    if not root.is_dir():
        return None
    candidates = sorted(
        (
            entry
            for entry in root.iterdir()
            if _snapshot_version(entry) is not None
        ),
        key=lambda entry: _snapshot_version(entry) or 0,
        reverse=True,
    )
    for entry in candidates:
        try:
            return entry, load_snapshot(entry)
        except (
            ValueError,
            OSError,
            KeyError,
            zipfile.BadZipFile,
        ) as problem:
            _LOG.warning(
                "skipping corrupt snapshot %s: %s", entry.name, problem
            )
    return None


def prune_snapshots(directory: Union[str, Path], keep: int) -> List[Path]:
    """Delete all but the newest ``keep`` snapshots; returns what was removed."""
    root = Path(directory)
    if not root.is_dir():
        return []
    snapshots = sorted(
        (entry for entry in root.iterdir() if _snapshot_version(entry) is not None),
        key=lambda entry: _snapshot_version(entry) or 0,
    )
    removed = []
    for entry in snapshots[: max(0, len(snapshots) - keep)]:
        shutil.rmtree(entry)
        removed.append(entry)
    return removed


def _snapshot_version(path: Path) -> Optional[int]:
    """Parse ``snap-<version>`` directory names; None for anything else."""
    if not path.is_dir() or not path.name.startswith(_PREFIX):
        return None
    try:
        return int(path.name[len(_PREFIX) :])
    except ValueError:
        return None


# ------------------------------------------------------------------ internal


def _sha256_file(path: Path) -> str:
    """Hex sha256 of a file, streamed in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _similarity_to_dict(table: SimilarityTable) -> Dict[str, object]:
    """JSON form of a similarity table (products, pairs, counts)."""
    return {
        "products": table.products,
        "pairs": [
            [a, b, value] for (a, b), value in sorted(table._pairs.items())
        ],
        "vulnerability_counts": dict(table.vulnerability_counts),
        "shared_counts": [
            [a, b, count]
            for (a, b), count in sorted(table.shared_counts.items())
        ],
    }


def _similarity_from_dict(payload: Dict[str, object]) -> SimilarityTable:
    """Inverse of :func:`_similarity_to_dict`."""
    table = SimilarityTable(
        products=[str(p) for p in payload.get("products", ())],
        vulnerability_counts={
            str(k): int(v)
            for k, v in (payload.get("vulnerability_counts") or {}).items()
        },
    )
    for a, b, value in payload.get("pairs", ()):
        table.set(str(a), str(b), float(value))
    for a, b, count in payload.get("shared_counts", ()):
        table.shared_counts[(str(a), str(b))] = int(count)
    return table
