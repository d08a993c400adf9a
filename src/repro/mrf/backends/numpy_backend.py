"""The NumPy kernel backend — the reference implementation.

The sweep-level methods walk the plan's per-level views in a Python loop;
each level runs the vectorized block kernels the solvers used before the
backend registry existed (same operations, same order, same
``SolverScratch`` buffer names).  This backend *defines* the bit-level
contract every other backend is gated against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.mrf.backends.base import KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Vectorized NumPy kernels (always available; the parity reference)."""

    name = "numpy"
    kind = "numpy"

    @property
    def available(self) -> bool:
        return True

    # ------------------------------------------------- sweep-level kernels

    def forward_sweep(
        self, plan, messages, beliefs, labels, scratch, level_seconds=None
    ):
        for index, level in enumerate(plan.fwd_levels):
            if level_seconds is not None:
                start = time.perf_counter()
            _condition(plan, level, beliefs, messages, labels, scratch)
            _send(plan, level, messages, beliefs, scratch)
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def backward_sweep(
        self, plan, messages, beliefs, scratch, level_seconds=None
    ):
        for index, block in enumerate(plan.bwd_levels):
            if level_seconds is not None:
                start = time.perf_counter()
            _send(plan, block, messages, beliefs, scratch)
            if level_seconds is not None:
                level_seconds[index] += time.perf_counter() - start
        return self

    def icm(self, plan, current, max_sweeps, scratch):
        for _ in range(max_sweeps):
            changed = False
            for level in plan.fwd_levels:
                cond = scratch.array("icm_cond", (len(level.nodes), plan.lmax))
                plan.unary_inf.take(level.nodes, axis=0, out=cond, mode="clip")
                if len(level.all_nbr):
                    np.add.at(
                        cond,
                        level.all_seg,
                        plan.cost[level.all_cid, :, current[level.all_nbr]],
                    )
                best = np.argmin(cond, axis=1)
                if not np.array_equal(best, current[level.nodes]):
                    changed = True
                current[level.nodes] = best
            if not changed:
                break
        return self

    def decode(self, plan, beliefs, messages, labels, scratch):
        for level in plan.fwd_levels:
            _condition(plan, level, beliefs, messages, labels, scratch)
        return self

    # ----------------------------------------------------- per-call kernels

    def bound_chunk_mins(self, plan, messages, start, stop, scratch):
        to_second = messages[2 * start : 2 * stop : 2]
        to_first = messages[2 * start + 1 : 2 * stop : 2]
        reduced = scratch.array("bound_cost", (stop - start, plan.lmax, plan.lmax))
        plan.cost.take(plan.edge_cid[start:stop], axis=0, out=reduced, mode="clip")
        np.subtract(reduced, to_first[:, :, None], out=reduced)
        np.subtract(reduced, to_second[:, None, :], out=reduced)
        return reduced.min(axis=(1, 2))

    # --------------------------------------------------------- BP kernels

    def bp_beliefs(self, plan, messages, beliefs):
        np.copyto(beliefs, plan.unary_inf)
        np.add.at(beliefs, plan.slot_receiver, messages)

    def bp_round(self, plan, messages, beliefs, damping, scratch):
        slots = 2 * plan.edge_count
        lmax = plan.lmax
        base = scratch.array("bp_base", (slots, lmax))
        diff = scratch.array("bp_diff", (slots, lmax))
        cost = scratch.array("bp_cost", (slots, lmax, lmax))
        updated = scratch.array("bp_new", (slots, lmax))
        rowmin = scratch.array("bp_rowmin", (slots, 1))
        beliefs.take(plan.slot_sender, axis=0, out=base, mode="clip")
        messages.take(plan.slot_reverse, axis=0, out=diff, mode="clip")
        np.subtract(base, diff, out=base)
        plan.cost.take(plan.slot_cid, axis=0, out=cost, mode="clip")
        np.add(cost, base[:, :, None], out=cost)
        cost.min(axis=1, out=updated)
        updated.min(axis=1, keepdims=True, out=rowmin)
        np.subtract(updated, rowmin, out=updated)
        np.copyto(updated, 0.0, where=plan.slot_pad)
        if damping > 0.0:
            np.multiply(updated, 1.0 - damping, out=updated)
            np.multiply(messages, damping, out=diff)
            np.add(updated, diff, out=updated)
        np.subtract(updated, messages, out=diff)
        np.abs(diff, out=diff)
        max_change = float(diff.max())
        np.copyto(messages, updated)
        return max_change


def _send(plan, block, messages, beliefs, scratch):
    """One level's block message update; mutates messages and beliefs."""
    k = len(block.snd)
    if not k:
        return
    lmax = plan.lmax
    base = scratch.array("send_base", (k, lmax))
    tmp = scratch.array("send_tmp", (k, lmax))
    cost = scratch.array("send_cost", (k, lmax, lmax))
    new = scratch.array("send_new", (k, lmax))
    rowmin = scratch.array("send_rowmin", (k, 1))
    beliefs.take(block.snd, axis=0, out=base, mode="clip")
    np.multiply(base, block.gam, out=base)
    messages.take(block.inn, axis=0, out=tmp, mode="clip")
    np.subtract(base, tmp, out=base)
    plan.cost.take(block.cid, axis=0, out=cost, mode="clip")
    np.add(cost, base[:, :, None], out=cost)
    cost.min(axis=1, out=new)
    new.min(axis=1, keepdims=True, out=rowmin)
    np.subtract(new, rowmin, out=new)
    # Padded receiver labels came out +inf; store the 0 convention.
    np.copyto(new, 0.0, where=block.pad)
    messages.take(block.out, axis=0, out=tmp, mode="clip")
    np.subtract(new, tmp, out=tmp)
    np.add.at(beliefs, block.rcv, tmp)
    messages[block.out] = new


def _condition(plan, level, beliefs, messages, labels, scratch):
    """Label one level by sequential conditioning on earlier levels: each
    node takes the argmin of its belief with every earlier neighbour's
    message replaced by the pairwise column of that neighbour's label."""
    cond = scratch.array("cond", (len(level.nodes), plan.lmax))
    beliefs.take(level.nodes, axis=0, out=cond, mode="clip")
    if len(level.ext_nbr):
        np.add.at(
            cond,
            level.ext_seg,
            plan.cost[level.ext_cid, :, labels[level.ext_nbr]]
            - messages[level.ext_in],
        )
    labels[level.nodes] = np.argmin(cond, axis=1)
