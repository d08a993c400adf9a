"""Tests for the kernel-backend registry and numpy/native bit-parity.

Two layers:

- registry semantics (strict :func:`get_backend`, env-var selection,
  process default precedence, graceful warn-once fallback) — these run
  everywhere;
- bit-for-bit parity of the ``native`` (C) backend's whole-sweep
  kernels against the NumPy level loop across monolithic TRW-S, BP,
  plan-level solves and warm-start streaming, on small random plans and on
  a long-diameter chain+chord plan; plus the native guard's fallbacks and
  how solves record them — these auto-skip where no C compiler is found.
"""

import warnings

import numpy as np
import pytest

import repro.mrf.backends as backends
from helpers import make_random_mrf
from repro import obs
from repro.mrf.backends import (
    KernelBackend,
    active_backend_name,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.mrf.backends.native import FALLBACK_COUNTER
from repro.mrf.bp import LoopyBPSolver
from repro.mrf.graph import PairwiseMRF
from repro.mrf.sharded import solve_plan
from repro.mrf.trws import TRWSSolver
from repro.mrf.vectorized import MRFArrays, SolverScratch

NATIVE_AVAILABLE = get_backend("native").available

BACKENDS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not NATIVE_AVAILABLE,
            reason="native backend needs a C compiler",
        ),
    ),
]

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native backend needs a C compiler"
)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate every test from ambient backend selection state."""
    monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
    monkeypatch.setattr(backends, "_default", None)
    monkeypatch.setattr(backends, "_warned", set())


class TestRegistry:
    def test_available_backends_lists_both(self):
        listed = available_backends()
        assert listed["numpy"] is True
        assert "native" in listed

    def test_get_backend_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend 'bogus'"):
            get_backend("bogus")

    def test_resolve_backend_unknown_name_raises(self):
        # Explicit unknown names are misconfiguration, not a missing
        # toolchain: strict even on the graceful path.
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("bogus")

    def test_resolve_backend_passes_instances_through(self):
        numpy_backend = get_backend("numpy")
        assert resolve_backend(numpy_backend) is numpy_backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "numpy")
        assert resolve_backend().name == "numpy"

    def test_env_var_unknown_name_falls_back(self, monkeypatch):
        # A REPRO_BACKEND typo degrades like a missing toolchain instead
        # of crashing every solve; explicit names stay strict.
        monkeypatch.setenv(backends.BACKEND_ENV, "bogus")
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            assert resolve_backend().name == "numpy"

    def test_env_var_auto_matches_default(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "auto")
        assert resolve_backend() is resolve_backend(None)

    def test_default_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "native")
        set_default_backend("numpy")
        assert resolve_backend().name == "numpy"

    def test_explicit_argument_beats_default(self):
        set_default_backend("numpy")
        if NATIVE_AVAILABLE:
            assert resolve_backend("native").name == "native"
        assert resolve_backend("numpy").name == "numpy"

    def test_set_default_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_default_backend("bogus")
        assert backends._default is None

    def test_set_default_backend_auto_clears(self):
        set_default_backend("numpy")
        set_default_backend("auto")
        assert backends._default is None
        set_default_backend("numpy")
        set_default_backend(None)
        assert backends._default is None

    def test_active_backend_name_with_explicit_choice(self):
        assert active_backend_name("numpy") == "numpy"

    def test_auto_prefers_native_when_available(self):
        resolved = resolve_backend("auto")
        if NATIVE_AVAILABLE:
            assert resolved.name == "native"
        else:
            assert resolved.name == "numpy"


class _UnavailableBackend(KernelBackend):
    """A registered backend whose toolchain is 'missing'."""

    name = "test-unavailable"
    kind = "stub"

    @property
    def available(self) -> bool:
        return False


class TestGracefulFallback:
    @pytest.fixture()
    def unavailable(self):
        register_backend(_UnavailableBackend())
        yield "test-unavailable"
        backends._REGISTRY.pop("test-unavailable", None)

    def test_falls_back_to_numpy_with_warning(self, unavailable):
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            resolved = resolve_backend(unavailable)
        assert resolved.name == "numpy"

    def test_warns_only_once_per_backend(self, unavailable):
        with pytest.warns(RuntimeWarning):
            resolve_backend(unavailable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(unavailable).name == "numpy"

    def test_unavailable_env_var_still_solves(self, unavailable, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, unavailable)
        mrf = make_random_mrf(6, 0.5, 3, seed=0)
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            result = TRWSSolver(max_iterations=3).solve(mrf)
        assert result.labels == TRWSSolver(max_iterations=3).solve(mrf).labels

    def test_unavailable_instance_falls_back(self):
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            assert resolve_backend(_UnavailableBackend()).name == "numpy"


def _chain_chord_mrf(hosts: int = 240, seed: int = 0) -> PairwiseMRF:
    """A pipeline-estate-shaped plan: a chain backbone with a chord
    spanning 15% of the hosts every 10%.  The chords keep it loopy, and
    the chain gives one wavefront level per host — the long-diameter shape
    where per-level dispatch used to dominate."""
    rng = np.random.default_rng(seed)
    mrf = PairwiseMRF()
    for _ in range(hosts):
        mrf.add_node(rng.uniform(0.0, 1.0, size=4))
    shared = rng.uniform(0.05, 0.8, size=(4, 4))  # one similarity table
    for i in range(hosts - 1):
        mrf.add_edge(i, i + 1, shared)
    span, every = 3 * hosts // 20, hosts // 10
    for i in range(0, hosts - span - 10, every):
        mrf.add_edge(i, i + span, shared)
    return mrf


def _instances():
    """Small but structurally varied parity instances, plus one
    long-diameter plan with ≥200 wavefront levels."""
    return [
        make_random_mrf(10, 0.4, 4, seed=1),
        make_random_mrf(14, 0.25, 3, seed=2),
        make_random_mrf(9, 0.0, 3, seed=3, tree=True),
        make_random_mrf(1, 0.0, 2, seed=4),
        _chain_chord_mrf(),
    ]


def _assert_results_identical(got, want):
    assert got.labels == want.labels
    assert got.energy == want.energy
    assert got.lower_bound == want.lower_bound
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.energy_trace == want.energy_trace
    assert got.bound_trace == want.bound_trace


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolverParity:
    """The compiled tier must be bit-for-bit the NumPy reference."""

    def test_trws_monolithic(self, backend):
        for mrf in _instances():
            plan = MRFArrays(mrf)
            reference_messages = plan.zero_messages()
            messages = plan.zero_messages()
            solver = TRWSSolver(max_iterations=8, seed=0)
            reference = solver.solve_arrays(
                plan, messages=reference_messages, backend="numpy"
            )
            result = solver.solve_arrays(
                plan, messages=messages, backend=backend
            )
            _assert_results_identical(result, reference)
            np.testing.assert_array_equal(messages, reference_messages)

    def test_bp_damped_and_undamped(self, backend):
        for damping in (0.0, 0.5):
            for mrf in _instances():
                plan = MRFArrays(mrf)
                reference_messages = plan.zero_messages()
                messages = plan.zero_messages()
                solver = LoopyBPSolver(max_iterations=12, damping=damping)
                reference = solver.solve_arrays(
                    plan, messages=reference_messages, backend="numpy"
                )
                result = solver.solve_arrays(
                    plan, messages=messages, backend=backend
                )
                _assert_results_identical(result, reference)
                np.testing.assert_array_equal(messages, reference_messages)

    def test_plan_primitives(self, backend):
        for mrf in (
            make_random_mrf(12, 0.35, 4, seed=6), _chain_chord_mrf(seed=6)
        ):
            self._check_plan_primitives(MRFArrays(mrf), backend)

    @staticmethod
    def _check_plan_primitives(plan, backend):
        rng = np.random.default_rng(0)
        messages = rng.uniform(-1.0, 1.0, size=(2 * plan.edge_count, plan.lmax))
        beliefs = np.where(
            np.isfinite(plan.unary_inf),
            rng.uniform(0.0, 2.0, size=plan.unary_inf.shape),
            np.inf,
        )
        reference = plan.decode(beliefs, messages, backend="numpy")
        np.testing.assert_array_equal(
            plan.decode(beliefs, messages, backend=backend), reference
        )
        # The bound's chain minima, then their sum: bit for bit.
        mins = {}
        for name in ("numpy", backend):
            mins[name] = np.full(len(plan.chains[1]), np.nan)
            get_backend(name).chain_bound(
                plan, messages, mins[name], SolverScratch()
            )
        np.testing.assert_array_equal(mins[backend], mins["numpy"])
        assert plan.dual_bound(messages, backend=backend) == plan.dual_bound(
            messages, backend="numpy"
        )
        np.testing.assert_array_equal(
            plan.icm(reference, backend=backend),
            plan.icm(reference, backend="numpy"),
        )

    def test_solve_plan_via_global_default(self, backend):
        # A sparse multi-component plan: the per-component refine pick
        # runs under the process-wide default backend.
        plan = MRFArrays(make_random_mrf(18, 0.15, 3, seed=7))
        assert plan.component_count > 1
        set_default_backend("numpy")
        reference = solve_plan(plan, seed=0, max_iterations=6)
        set_default_backend(backend)
        result = solve_plan(plan, seed=0, max_iterations=6)
        _assert_results_identical(result, reference)

    def test_warm_start_streaming(self, backend):
        """Cost patch + warm re-solve from caller-owned messages."""
        for mrf in (
            make_random_mrf(12, 0.35, 4, seed=5), _chain_chord_mrf(seed=5)
        ):
            self._check_warm_start(mrf, backend)

    @staticmethod
    def _check_warm_start(mrf, backend):
        def run(chosen):
            plan = MRFArrays(mrf)
            messages = plan.zero_messages()
            solver = TRWSSolver(max_iterations=6, seed=0)
            cold = solver.solve_arrays(
                plan, messages=messages, backend=chosen
            )
            cid = int(plan.edge_cid[0])
            rows = int(plan.label_counts[plan.edge_first[0]])
            cols = int(plan.label_counts[plan.edge_second[0]])
            patch = np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols)
            plan.set_cost_matrix(cid, patch)
            plan.set_unary(0, plan.unary[0, : int(plan.label_counts[0])] + 0.25)
            warm = solver.solve_arrays(
                plan, messages=messages, default_inits=False, backend=chosen
            )
            return cold, warm, messages

        ref_cold, ref_warm, ref_messages = run("numpy")
        cold, warm, messages = run(backend)
        _assert_results_identical(cold, ref_cold)
        _assert_results_identical(warm, ref_warm)
        np.testing.assert_array_equal(messages, ref_messages)

    def test_scratch_reuse_is_bit_identical(self, backend):
        mrf = make_random_mrf(11, 0.3, 4, seed=8)
        plan = MRFArrays(mrf)
        solver = TRWSSolver(max_iterations=5, seed=0)
        scratch = SolverScratch()
        # Warm the scratch on a different instance first so reuse paths run.
        solver.solve_arrays(
            MRFArrays(make_random_mrf(7, 0.5, 3, seed=9)),
            scratch=scratch, backend=backend,
        )
        with_scratch = solver.solve_arrays(plan, scratch=scratch, backend=backend)
        without = solver.solve_arrays(plan, backend=backend)
        _assert_results_identical(with_scratch, without)


@needs_native
class TestCKernels:
    """The C library is the one native implementation: run it directly."""

    def test_describe_reports_cc(self):
        assert get_backend("native").describe() == "native (cc)"

    def test_trws_parity_chain(self):
        native = get_backend("native")
        for mrf in (
            _chain_chord_mrf(hosts=200, seed=11),
            make_random_mrf(7, 0.0, 3, seed=12, tree=True),
        ):
            plan = MRFArrays(mrf)
            if mrf.node_count == 200:  # the chain: one level per host
                assert len(plan.fwd_levels) == 200
            reference_messages = plan.zero_messages()
            messages = plan.zero_messages()
            solver = TRWSSolver(max_iterations=4, seed=0)
            reference = solver.solve_arrays(
                plan, messages=reference_messages, backend="numpy"
            )
            result = solver.solve_arrays(plan, messages=messages, backend=native)
            _assert_results_identical(result, reference)
            np.testing.assert_array_equal(messages, reference_messages)

    def test_bp_parity_chain(self):
        native = get_backend("native")
        plan = MRFArrays(_chain_chord_mrf(hosts=200, seed=13))
        for damping in (0.0, 0.3):
            solver = LoopyBPSolver(max_iterations=6, damping=damping)
            reference = solver.solve_arrays(plan, backend="numpy")
            result = solver.solve_arrays(plan, backend=native)
            _assert_results_identical(result, reference)

    def test_bp_on_plans_with_unread_slot_arrays(self):
        # The BP-only slot arrays are built when BP first reads them, and
        # marshalling a plan for the TRW-S sweeps must not force them.
        mrf = _chain_chord_mrf(hosts=200, seed=15)
        solver = LoopyBPSolver(max_iterations=6, damping=0.3)
        eager = MRFArrays(mrf)
        for name in ("slot_sender", "slot_reverse", "slot_cid", "slot_pad"):
            getattr(eager, name)
        reference = solver.solve_arrays(eager, backend="numpy")
        for backend in ("numpy", "native"):
            plan = MRFArrays(mrf)
            TRWSSolver(max_iterations=2, seed=0).solve_arrays(
                plan, backend="native"
            )
            assert plan._bp is None
            _assert_results_identical(
                solver.solve_arrays(plan, backend=backend), reference
            )
            for name in ("slot_sender", "slot_reverse", "slot_cid", "slot_pad"):
                np.testing.assert_array_equal(
                    getattr(plan, name), getattr(eager, name)
                )

    def test_greedy_parity_chain_and_after_replace_edges(self):
        # The greedy kernel reads the forward sweep's full-adjacency rows
        # through the marshalled plan; a replace_edges rebuild must be
        # re-marshalled before the next call.
        plan = MRFArrays(_chain_chord_mrf(hosts=200, seed=16))
        np.testing.assert_array_equal(
            plan.greedy_labels(backend="native"),
            plan.greedy_labels(backend="numpy"),
        )
        keep = np.arange(0, plan.edge_count, 2)
        plan.replace_edges(
            plan.edge_first[keep], plan.edge_second[keep],
            plan.edge_cid[keep], list(plan.cost[: plan.stacked]),
        )
        np.testing.assert_array_equal(
            plan.greedy_labels(backend="native"),
            plan.greedy_labels(backend="numpy"),
        )

    def test_icm_respects_max_sweeps(self):
        plan = MRFArrays(_chain_chord_mrf(hosts=200, seed=14))
        start = np.zeros(plan.node_count, dtype=np.int64)
        for sweeps in (0, 1, 2):
            np.testing.assert_array_equal(
                plan.icm(start, max_sweeps=sweeps, backend="native"),
                plan.icm(start, max_sweeps=sweeps, backend="numpy"),
            )


def _wide_plan() -> MRFArrays:
    """A 5-node chain padded to 70 labels — past the C kernels' 64."""
    rng = np.random.default_rng(14)
    unaries = [rng.uniform(0.0, 1.0, size=3) for _ in range(5)]
    matrices = [rng.uniform(0.0, 1.0, size=(3, 3)) for _ in range(4)]
    return MRFArrays.from_parts(
        unaries,
        np.arange(4), np.arange(1, 5), np.arange(4),
        matrices, lmax=70,
    )


@needs_native
class TestNativeFallbackGuards:
    """Plans and arrays the C kernels can't take route to NumPy, and the
    fallback is counted and recorded — never silent."""

    def test_oversized_lmax_falls_back(self):
        # The native tier caps label width at 64 (stack row buffers);
        # wider plans must run on the NumPy kernels with equal results.
        plan = _wide_plan()
        reference_messages = plan.zero_messages()
        messages = plan.zero_messages()
        solver = TRWSSolver(max_iterations=3, seed=0)
        reference = solver.solve_arrays(
            plan, messages=reference_messages, backend="numpy"
        )
        result = solver.solve_arrays(plan, messages=messages, backend="native")
        _assert_results_identical(result, reference)
        np.testing.assert_array_equal(messages, reference_messages)

    def test_non_contiguous_messages_fall_back(self):
        native = get_backend("native")
        plan = MRFArrays(make_random_mrf(6, 0.5, 3, seed=15))
        wide = np.zeros((2 * plan.edge_count, 2 * plan.lmax))
        messages = wide[:, :: 2]  # valid shape, non-contiguous rows
        reference = plan.dual_bound(messages, backend="numpy")
        before = native.fallbacks
        assert plan.dual_bound(messages, backend=native) == reference
        assert native.fallbacks == before + 1
        beliefs = plan.padded_beliefs()
        labels = np.zeros(plan.node_count, dtype=np.int64)
        ran = native.forward_sweep(
            plan, messages, beliefs, labels, SolverScratch()
        )
        assert ran.name == "numpy"

    def test_out_of_range_cost_id_never_reaches_c(self):
        # Cost ids come from callers unchecked and the C kernels index the
        # cost stack raw: a bad id must reach NumPy, which raises.
        rng = np.random.default_rng(16)
        plan = MRFArrays.from_parts(
            [rng.uniform(0.0, 1.0, size=3) for _ in range(4)],
            np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([0, 1, 5]),
            [rng.uniform(0.0, 1.0, size=(3, 3)) for _ in range(2)],
        )
        with pytest.raises(IndexError):
            get_backend("native").forward_sweep(
                plan, plan.zero_messages(), plan.padded_beliefs(),
                np.zeros(plan.node_count, dtype=np.int64), SolverScratch(),
            )

    def test_wide_plan_greedy_falls_back_once(self):
        plan = _wide_plan()
        native = get_backend("native")
        reference = plan.greedy_labels(backend="numpy")
        before = native.fallbacks
        trace = obs.activate(obs.Trace())
        try:
            labels = plan.greedy_labels(backend="native")
        finally:
            obs.deactivate()
        np.testing.assert_array_equal(labels, reference)
        # One guarded call, one fallback: counted by the backend (traced
        # or not) and by the trace, and the span names the backend that ran.
        assert native.fallbacks == before + 1
        assert trace.counters[FALLBACK_COUNTER] == 1
        (greedy,) = [e for e in trace.events if e["name"] == "trws.greedy"]
        assert greedy["args"] == {"nodes": 5, "backend": "numpy"}
        plan.greedy_labels(backend="native")
        assert native.fallbacks == before + 2

    def test_non_contiguous_greedy_labels_fall_back(self):
        native = get_backend("native")
        plan = MRFArrays(make_random_mrf(6, 0.5, 3, seed=15))
        labels = np.zeros(2 * plan.node_count, dtype=np.int64)[::2]
        before = native.fallbacks
        assert native.greedy(plan, labels, SolverScratch()).name == "numpy"
        assert native.fallbacks == before + 1
        np.testing.assert_array_equal(
            labels, plan.greedy_labels(backend="numpy")
        )

    def test_fallback_recorded_under_tracing(self):
        trace = obs.activate(obs.Trace())
        try:
            result = TRWSSolver(max_iterations=3, seed=0).solve_arrays(
                _wide_plan(), backend="native"
            )
        finally:
            obs.deactivate()
        assert result.stats.backend == "numpy"
        (solve,) = [e for e in trace.events if e["name"] == "trws.solve"]
        assert solve["args"]["backend"] == "numpy"
        # One count per guarded call that ran on NumPy (≥ 2 per iteration).
        assert trace.counters[FALLBACK_COUNTER] >= 2 * result.iterations

    def test_native_run_recorded_under_tracing(self):
        plan = MRFArrays(_chain_chord_mrf(hosts=200))
        trace = obs.activate(obs.Trace())
        try:
            result = TRWSSolver(max_iterations=3, seed=0).solve_arrays(
                plan, backend="native"
            )
            bp = LoopyBPSolver(max_iterations=2).solve_arrays(
                plan, backend="native"
            )
        finally:
            obs.deactivate()
        assert result.stats.backend == bp.stats.backend == "native (cc)"
        backends_seen = {
            e["args"]["backend"] for e in trace.events
            if e["name"] in ("trws.solve", "bp.solve")
        }
        assert backends_seen == {"native (cc)"}
        assert FALLBACK_COUNTER not in trace.counters
