"""The paper's primary contribution: optimal diversification.

``repro.core.costs``
    Builds the diversification MRF from a network, a similarity table and a
    constraint set — the paper's cost function (Eqs. 1-3) with constraints
    folded into unary masks and intra-host pairwise tables (Section V-A/B).
``repro.core.compile``
    The one network→plan compiler: emits the
    :class:`~repro.mrf.vectorized.MRFArrays` plan without materialising a
    Python-level MRF — the plan every ``diversify`` solve and every cold
    streaming rebuild runs on.
``repro.core.diversify``
    The top-level API: :func:`~repro.core.diversify.diversify` returns the
    (constrained) optimal product assignment α̂ / α̂_C (Definition 5).
``repro.core.baselines``
    Comparison assignments: mono-culture α_m, random α_r and a greedy
    colouring heuristic in the spirit of O'Donnell & Sethu.
"""

from repro.core.costs import MRFBuild, assignment_energy, build_mrf
from repro.core.compile import CompiledPlan, compile_plan
from repro.core.diversify import DiversificationResult, diversify
from repro.core.baselines import (
    greedy_assignment,
    mono_assignment,
    random_assignment,
)

__all__ = [
    "MRFBuild",
    "build_mrf",
    "assignment_energy",
    "CompiledPlan",
    "compile_plan",
    "DiversificationResult",
    "diversify",
    "mono_assignment",
    "random_assignment",
    "greedy_assignment",
]
