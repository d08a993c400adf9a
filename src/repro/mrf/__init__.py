"""Discrete pairwise Markov Random Field engine.

The paper (Section V) casts optimal diversification as MAP inference on a
discrete pairwise MRF and solves it with sequential tree-reweighted message
passing (TRW-S).  This subpackage provides:

``repro.mrf.graph``
    :class:`PairwiseMRF` — nodes with per-node label spaces and unary costs,
    edges with pairwise cost matrices.
``repro.mrf.trws``
    The TRW-S solver (Kolmogorov), with its monotonic-chain lower bound —
    the one message-passing solver on plans.
``repro.mrf.icm``
    Iterated conditional modes — a cheap local-search baseline/refiner.
``repro.mrf.exact``
    Brute-force enumeration for ground truth on small instances.
``repro.mrf.reference``
    Per-node TRW-S and loopy BP: the parity oracle of the vectorized
    TRW-S and the paper's Section V-C comparator (``bp-ref``).
``repro.mrf.vectorized``
    :class:`MRFArrays` — the array plan every vectorized solve runs on,
    with its cached connected-component labelling.
``repro.mrf.sharded``
    :func:`solve_plan` — the plan-level TRW-S cold solve of
    ``diversify()``.
``repro.mrf.solvers``
    Common :class:`SolverResult` type and a name → solver registry.
``repro.mrf.backends``
    Pluggable kernel backends for the plan kernels (NumPy reference and
    the compiled ``native`` tier), bit-for-bit identical.
"""

from repro.mrf.backends import (
    available_backends,
    get_backend,
    resolve_backend,
    set_default_backend,
)
from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import (
    SolverResult,
    active_kernel_backend,
    available_solvers,
    get_solver,
    solve,
)
from repro.mrf.trws import TRWSSolver
from repro.mrf.icm import ICMSolver
from repro.mrf.exact import ExactSolver
from repro.mrf.anneal import SimulatedAnnealingSolver
from repro.mrf.sharded import solve_plan
from repro.mrf.vectorized import MRFArrays, SolverScratch

__all__ = [
    "MRFArrays",
    "PairwiseMRF",
    "SolverScratch",
    "SolverResult",
    "TRWSSolver",
    "ICMSolver",
    "ExactSolver",
    "SimulatedAnnealingSolver",
    "active_kernel_backend",
    "available_backends",
    "available_solvers",
    "get_backend",
    "get_solver",
    "resolve_backend",
    "set_default_backend",
    "solve",
    "solve_plan",
]
