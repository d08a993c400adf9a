"""Common solver protocol and registry.

Every solver consumes a :class:`~repro.mrf.graph.PairwiseMRF` and produces a
:class:`SolverResult`.  The registry lets callers pick a solver by name
(``"trws"``, ``"bp"``, ``"icm"``, ``"exact"``), which is how
:func:`repro.core.diversify.diversify` exposes its ``solver=`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from repro.mrf.graph import PairwiseMRF

__all__ = [
    "SolveStats",
    "SolverResult",
    "Solver",
    "register_solver",
    "get_solver",
    "available_solvers",
    "active_kernel_backend",
    "solve",
]


@dataclass
class SolveStats:
    """Per-phase timing telemetry for one solve, collected while tracing.

    Attached to :attr:`SolverResult.stats` when :func:`repro.obs.enabled`
    was true during the solve; ``None`` otherwise (the disabled path
    collects nothing).  All times are seconds on the monotonic clock.

    Attributes:
        total_seconds: wall time of the whole ``solve_arrays`` call.
        setup_seconds: scratch/message/belief preparation before sweeping.
        forward_seconds: total time in forward sweeps (TRW-S) or message
            updates (BP).
        backward_seconds: total time in backward sweeps (TRW-S only).
        bound_seconds: lower-bound evaluation time (TRW-S only).
        energy_seconds: primal energy/decode evaluation time.
        refine_seconds: ICM refinement / polish time after the main loop.
        iteration_seconds: per-iteration wall times, index-aligned with
            the result's ``energy_trace``.
        fwd_level_seconds: per-wavefront-level time in the forward sweep,
            accumulated across iterations (one entry per level).
        bwd_level_seconds: likewise for the backward sweep.
        backend: the kernel backend whose sweeps actually ran, e.g.
            ``"native (cc)"``, or ``"numpy"`` when the native guard sent
            the plan to the NumPy reference (the span's ``backend=``).
    """

    total_seconds: float = 0.0
    setup_seconds: float = 0.0
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0
    bound_seconds: float = 0.0
    energy_seconds: float = 0.0
    refine_seconds: float = 0.0
    iteration_seconds: List[float] = field(default_factory=list)
    fwd_level_seconds: List[float] = field(default_factory=list)
    bwd_level_seconds: List[float] = field(default_factory=list)
    backend: str = ""

    def phase_seconds(self) -> Dict[str, float]:
        """The named phases as a dict (BENCH per-phase attribution)."""
        return {
            "setup": self.setup_seconds,
            "forward": self.forward_seconds,
            "backward": self.backward_seconds,
            "bound": self.bound_seconds,
            "energy": self.energy_seconds,
            "refine": self.refine_seconds,
        }


@dataclass
class SolverResult:
    """Outcome of MAP inference on a pairwise MRF.

    Attributes:
        labels: one label index per node (the MAP estimate found).
        energy: E(labels) under the MRF being solved.
        lower_bound: a valid lower bound on the optimal energy when the
            solver provides one (TRW-S's chain bound); ``-inf`` otherwise.
        iterations: sweeps/passes performed.
        converged: True when the solver met its convergence criterion
            before exhausting its iteration budget.
        solver: name of the producing solver.
        energy_trace: best energy after each iteration (diagnostics).
        bound_trace: lower bound after each iteration (diagnostics).
        stats: per-phase :class:`SolveStats` when the solve ran under an
            active trace (see :mod:`repro.obs`); ``None`` otherwise.
    """

    labels: List[int]
    energy: float
    lower_bound: float = float("-inf")
    iterations: int = 0
    converged: bool = False
    solver: str = ""
    energy_trace: List[float] = field(default_factory=list)
    bound_trace: List[float] = field(default_factory=list)
    stats: Optional[SolveStats] = None

    @property
    def optimality_gap(self) -> float:
        """energy − lower_bound (0 certifies a global optimum)."""
        return self.energy - self.lower_bound

    def is_certified_optimal(self, tolerance: float = 1e-9) -> bool:
        """True when the gap to the lower bound certifies global optimality."""
        return np.isfinite(self.lower_bound) and self.optimality_gap <= tolerance


class Solver(Protocol):
    """Anything with a ``solve(mrf) -> SolverResult`` method."""

    def solve(self, mrf: PairwiseMRF) -> SolverResult:  # pragma: no cover
        """Run MAP inference on ``mrf``."""
        ...


_REGISTRY: Dict[str, Callable[..., Solver]] = {}


def register_solver(name: str, factory: Callable[..., Solver]) -> None:
    """Register a solver factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def get_solver(name: str, **options) -> Solver:
    """Instantiate a registered solver by name.

    >>> solver = get_solver("trws", max_iterations=10)
    >>> type(solver).__name__
    'TRWSSolver'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown solver {name!r}; available: {available_solvers()}"
        ) from None
    return factory(**options)


def available_solvers() -> List[str]:
    """Sorted names of registered solvers.

    The registry is populated when :mod:`repro.mrf` imports: the
    vectorized pair (``trws``/``bp``), their per-node reference twins
    (``trws-ref``/``bp-ref``, kept for parity tests), and the
    refine/baseline solvers (``icm``, ``exact``, ``anneal``).

    >>> import repro.mrf  # registers the built-in solvers
    >>> [name for name in available_solvers() if name.startswith("trws")]
    ['trws', 'trws-ref']
    """
    return sorted(_REGISTRY)


def active_kernel_backend() -> str:
    """Identity of the kernel backend the vectorized solvers would use now.

    Resolves the same way a solve does (``backend=`` argument absent):
    process default, then ``REPRO_BACKEND``, then auto-detection — e.g.
    ``"numpy"`` or ``"native (cc)"``.  Surfaced by ``repro --help`` next
    to :func:`available_solvers` so operators can see which kernel tier a
    deployment actually runs; see :mod:`repro.mrf.backends`.
    """
    from repro.mrf.backends import active_backend_name

    return active_backend_name()


def solve(mrf: PairwiseMRF, solver: str = "trws", **options) -> SolverResult:
    """One-shot convenience: instantiate ``solver`` and run it on ``mrf``."""
    return get_solver(solver, **options).solve(mrf)


def _register_builtins() -> None:
    """Populate the registry with the built-in solvers (import-time)."""
    from repro.mrf.trws import TRWSSolver
    from repro.mrf.bp import LoopyBPSolver
    from repro.mrf.icm import ICMSolver
    from repro.mrf.exact import ExactSolver
    from repro.mrf.anneal import SimulatedAnnealingSolver
    from repro.mrf.reference import ReferenceBPSolver, ReferenceTRWSSolver

    register_solver("trws", TRWSSolver)
    register_solver("bp", LoopyBPSolver)
    register_solver("icm", ICMSolver)
    register_solver("exact", ExactSolver)
    register_solver("anneal", SimulatedAnnealingSolver)
    register_solver("trws-ref", ReferenceTRWSSolver)
    register_solver("bp-ref", ReferenceBPSolver)


_register_builtins()
