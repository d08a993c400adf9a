"""Tests for the solver registry and result type (repro.mrf.solvers)."""

import pytest

from repro.mrf.graph import PairwiseMRF
from repro.mrf.solvers import (
    SolverResult,
    available_solvers,
    get_solver,
    register_solver,
    solve,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"trws", "bp", "icm", "exact"} <= set(available_solvers())

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
