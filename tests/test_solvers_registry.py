"""Tests for the solver registry and result type (repro.mrf.solvers)."""

import importlib

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.diversify import diversify
from repro.mrf.backends import KernelBackend
from repro.mrf.graph import PairwiseMRF
from repro.mrf.sharded import solve_plan
from repro.mrf.solvers import (
    SolverResult,
    available_solvers,
    get_solver,
    register_solver,
    solve,
)
from repro.mrf.vectorized import MRFArrays
from repro.network.topologies import chain_network
from repro.nvd.similarity import SimilarityTable
from repro.service import ServiceConfig
from repro.stream import DynamicDiversifier, replay_trace


class TestRegistry:
    def test_builtins_registered(self):
        assert {"trws", "icm", "exact", "bp-ref"} <= set(available_solvers())

    def test_get_solver_instantiates(self):
        solver = get_solver("trws", max_iterations=7)
        assert solver.max_iterations == 7

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="trws"):
            get_solver("does-not-exist")

    def test_dual_decomposition_solver_removed(self):
        assert "trws-dual" not in available_solvers()
        with pytest.raises(KeyError, match="unknown solver 'trws-dual'"):
            get_solver("trws-dual")

    def test_custom_registration(self):
        class Stub:
            def solve(self, mrf):
                return SolverResult(labels=[0] * mrf.node_count, energy=0.0)

        register_solver("stub-test", Stub)
        try:
            assert "stub-test" in available_solvers()
            mrf = PairwiseMRF()
            mrf.add_node([0.0])
            assert solve(mrf, solver="stub-test").labels == [0]
        finally:
            from repro.mrf import solvers as module

            module._REGISTRY.pop("stub-test", None)

    def test_solve_convenience(self):
        mrf = PairwiseMRF()
        mrf.add_node([2.0, 1.0])
        result = solve(mrf, solver="exact")
        assert result.labels == [1]


class TestSolverResult:
    def test_gap_and_certification(self):
        result = SolverResult(labels=[0], energy=1.0, lower_bound=1.0)
        assert result.optimality_gap == 0.0
        assert result.is_certified_optimal()

    def test_uncertified_without_bound(self):
        result = SolverResult(labels=[0], energy=1.0)
        assert not result.is_certified_optimal()

    def test_uncertified_with_gap(self):
        result = SolverResult(labels=[0], energy=1.0, lower_bound=0.5)
        assert not result.is_certified_optimal()
        assert result.optimality_gap == pytest.approx(0.5)


def _chain():
    return chain_network(3), SimilarityTable(products=["p0", "p1"])


def _parse(*argv):
    return lambda: build_parser().parse_args(list(argv))


def _two_nodes():
    return MRFArrays.from_parts(
        [np.zeros(2)] * 2, np.array([0]), np.array([1]), np.array([0]),
        [np.eye(2)],
    )


#: Loopy BP's production path and the ``solver`` knob that picked it, with
#: the error each removed surface fails with now.
REMOVED_SURFACES = {
    "stream --solver": (_parse("stream", "--solver", "bp"), SystemExit),
    "serve --solver": (_parse("serve", "--solver", "bp"), SystemExit),
    "wal --solver": (_parse("wal", "replay", "d", "--solver", "bp"), SystemExit),
    "trace --solver": (_parse("trace", "diversify", "--solver", "bp"), SystemExit),
    "diversify(solver='bp')": (lambda: diversify(*_chain(), solver="bp"), KeyError),
    "ServiceConfig(solver=)": (lambda: ServiceConfig(solver="trws"), TypeError),
    "DynamicDiversifier(solver=)": (
        lambda: DynamicDiversifier(*_chain(), solver="trws"), TypeError,
    ),
    "replay_trace(solver=)": (
        lambda: replay_trace(*_chain(), [], solver="trws"), TypeError,
    ),
    "solve_plan(solver=)": (
        lambda: solve_plan(_two_nodes(), solver="trws"), TypeError,
    ),
    "repro.mrf.bp": (lambda: importlib.import_module("repro.mrf.bp"), ImportError),
    "KernelBackend.bp_round": (lambda: KernelBackend.bp_round, AttributeError),
    "KernelBackend.decode": (lambda: KernelBackend.decode, AttributeError),
    "MRFArrays.decode": (lambda: MRFArrays.decode, AttributeError),
}


@pytest.mark.parametrize("surface", sorted(REMOVED_SURFACES))
def test_removed_surface_fails_cleanly(surface):
    call, error = REMOVED_SURFACES[surface]
    with pytest.raises(error) as raised:
        call()
    if error is SystemExit:
        assert raised.value.code == 2  # argparse's usage error
