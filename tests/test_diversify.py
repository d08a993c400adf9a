"""Tests for the top-level diversification API (repro.core.diversify)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from helpers import edge_similarity_loop, pipeline_estate
from repro.core import diversify, mono_assignment
from repro.core.costs import assignment_energy
from repro.network.constraints import (
    GLOBAL,
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    ForbidProduct,
    RequireCombination,
)
from repro.network.model import Network
from repro.network.topologies import chain_network, ring_network
from repro.nvd.similarity import SimilarityTable


class TestUnconstrained:
    def test_chain_alternates(self, two_product_table):
        net = chain_network(5)
        result = diversify(net, two_product_table)
        labels = [result.assignment.get(h, "svc") for h in net.hosts]
        assert all(a != b for a, b in zip(labels, labels[1:]))
        # Alternation leaves every edge at the cross-product similarity 0.4.
        assert result.similarity_total == pytest.approx(4 * 0.4)
        assert result.satisfied

    def test_even_ring_two_colourable(self, two_product_table):
        result = diversify(ring_network(6), two_product_table)
        assert result.similarity_total == pytest.approx(6 * 0.4)

    def test_odd_ring_pays_one_edge(self, two_product_table):
        result = diversify(ring_network(5), two_product_table)
        # An odd cycle with two products: four edges at 0.4, one forced to
        # carry identical products (similarity 1.0).
        assert result.similarity_total == pytest.approx(4 * 0.4 + 1.0)

    def test_beats_mono(self, two_product_table):
        net = ring_network(8)
        optimal = diversify(net, two_product_table)
        mono = mono_assignment(net)
        mono_energy = assignment_energy(net, two_product_table, mono)
        assert optimal.energy < mono_energy

    def test_summary_text(self, two_product_table):
        result = diversify(chain_network(3), two_product_table)
        text = result.summary()
        assert "energy=" in text and "constraints satisfied" in text

    def test_mean_edge_similarity(self, two_product_table):
        result = diversify(ring_network(5), two_product_table)
        assert result.mean_edge_similarity == pytest.approx((4 * 0.4 + 1.0) / 5)


class TestConstrained:
    @pytest.fixture
    def net(self):
        network = Network()
        spec = {"os": ["w", "l"], "wb": ["ie", "ch"]}
        for name in ("a", "b", "c", "d"):
            network.add_host(name, spec)
        network.add_links([("a", "b"), ("b", "c"), ("c", "d")])
        return network

    @pytest.fixture
    def sim(self):
        return SimilarityTable(pairs={("w", "l"): 0.3, ("ie", "ch"): 0.2})

    def test_fix_product_respected(self, net, sim):
        cs = ConstraintSet([FixProduct("b", "os", "l")])
        result = diversify(net, sim, constraints=cs)
        assert result.assignment.get("b", "os") == "l"
        assert result.satisfied
        # Neighbours dodge the pinned product.
        assert result.assignment.get("a", "os") == "w"
        assert result.assignment.get("c", "os") == "w"

    def test_forbid_product_respected(self, net, sim):
        cs = ConstraintSet([ForbidProduct("a", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.assignment.get("a", "wb") == "ch"
        assert result.satisfied

    def test_avoid_combination_respected(self, net, sim):
        cs = ConstraintSet([AvoidCombination(GLOBAL, "os", "l", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.satisfied
        for host in net.hosts:
            if result.assignment.get(host, "os") == "l":
                assert result.assignment.get(host, "wb") != "ie"

    def test_require_combination_respected(self, net, sim):
        cs = ConstraintSet([RequireCombination(GLOBAL, "os", "w", "wb", "ie")])
        result = diversify(net, sim, constraints=cs)
        assert result.satisfied
        for host in net.hosts:
            if result.assignment.get(host, "os") == "w":
                assert result.assignment.get(host, "wb") == "ie"

    def test_constraints_cost_diversity(self, net, sim):
        free = diversify(net, sim)
        pinned = diversify(
            net, sim, constraints=ConstraintSet([FixProduct("b", "os", "l"),
                                                 FixProduct("c", "os", "l")])
        )
        assert pinned.similarity_total >= free.similarity_total

    def test_infeasible_reported_not_raised(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"], "wb": ["ie"]})
        sim = SimilarityTable()
        # 'wb' can only be ie, but both os options forbid combining with ie.
        cs = ConstraintSet(
            [
                AvoidCombination("a", "os", "w", "wb", "ie"),
                AvoidCombination("a", "os", "l", "wb", "ie"),
            ]
        )
        result = diversify(network, sim, constraints=cs)
        assert not result.satisfied
        assert len(result.violations) == 1


class TestSolverSelection:
    def test_exact_solver(self, two_product_table):
        result = diversify(chain_network(4), two_product_table, solver="exact")
        assert result.certified_optimal
        assert result.similarity_total == pytest.approx(3 * 0.4)

    def test_icm_solver_runs(self, two_product_table):
        result = diversify(chain_network(4), two_product_table, solver="icm")
        assert result.assignment.is_complete()

    def test_unknown_solver_raises(self, two_product_table):
        with pytest.raises(KeyError):
            diversify(chain_network(3), two_product_table, solver="magic")

    def test_solver_options_forwarded(self, two_product_table):
        result = diversify(
            chain_network(3), two_product_table, max_iterations=1
        )
        assert result.solver_result.iterations == 1

    def test_replicated_network_solves_with_trws(self):
        # Every host runs the same services with the same ranges (the
        # shape of the paper's scalability tables): plain TRW-S on the
        # compiled plan, like every other network.
        net = ring_network(
            6, services={"os": ["w", "l", "m"], "db": ["d1", "d2", "d3"]}
        )
        sim = SimilarityTable(
            pairs={("w", "l"): 0.5, ("l", "m"): 0.3, ("d1", "d2"): 0.6}
        )
        result = diversify(net, sim)
        assert result.solver_result.solver == "trws"

    def test_removed_option_raises_type_error(self, two_product_table):
        # ``fast_path`` is no option: it raises like any unknown solver
        # option, also on forests, whose exact DP takes no options.
        with pytest.raises(TypeError, match="unexpected keyword"):
            diversify(chain_network(3), two_product_table, fast_path=False)

    @pytest.mark.parametrize("solver", ["trws", "icm", "exact", "anneal"])
    def test_shards_option_removed(self, solver, two_product_table):
        # ``shards`` is gone with the dual tier: it reaches the solver
        # constructor like any unknown option and raises there.
        with pytest.raises(TypeError, match="unexpected keyword.*shards"):
            diversify(
                chain_network(6), two_product_table, solver=solver,
                shards="cut",
            )

    @pytest.mark.parametrize("shards", ["components", "zones", "4"])
    def test_removed_shard_modes_raise(self, shards, two_product_table):
        with pytest.raises(TypeError, match="unexpected keyword.*shards"):
            diversify(chain_network(3), two_product_table, shards=shards)

    def test_trws_matches_exact_on_small_net(self):
        net = ring_network(5, services={"svc": ["p0", "p1", "p2"]})
        sim = SimilarityTable(
            pairs={("p0", "p1"): 0.5, ("p1", "p2"): 0.3, ("p0", "p2"): 0.1}
        )
        trws = diversify(net, sim)
        exact = diversify(net, sim, solver="exact")
        assert trws.energy == pytest.approx(exact.energy, abs=1e-9)


class TestCertificate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pipeline_estate_certified_optimal(self, seed):
        # A chain backbone with long chords, one wavefront level per host:
        # the TRW-S bound over monotonic chains meets the energy.
        network, table, preferences = pipeline_estate(300, seed=seed)
        result = diversify(network, table, preferences=preferences)
        assert result.certified_optimal
        assert result.lower_bound <= result.energy + 1e-9


class TestHeterogeneousNetworks:
    def test_per_host_ranges(self):
        network = Network()
        network.add_host("legacy", {"os": ["xp"]})
        network.add_host("modern", {"os": ["xp", "w10"]})
        network.add_link("legacy", "modern")
        sim = SimilarityTable(pairs={("xp", "w10"): 0.0})
        result = diversify(network, sim)
        assert result.assignment.get("legacy", "os") == "xp"
        assert result.assignment.get("modern", "os") == "w10"

    def test_disjoint_services_no_coupling(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"]})
        network.add_host("b", {"db": ["m", "p"]})
        network.add_link("a", "b")
        result = diversify(network, SimilarityTable())
        assert result.assignment.is_complete()
        assert result.similarity_total == 0.0


class TestSimilaritySummary:
    """``similarity_total`` and ``mean_edge_similarity`` come from the
    compiled arrays; they equal (``==``) a plain loop over the links."""

    @staticmethod
    def _estate():
        # Heterogeneous service sets and ranges: shared services couple
        # only where both hosts run them, "e" has a one-product range.
        network = Network()
        network.add_host("a", {"os": ["w", "l", "m"], "web": ["ap", "ng"]})
        network.add_host("b", {"os": ["w", "l"], "db": ["pg", "my"]})
        network.add_host(
            "c",
            {"web": ["ap", "ng", "ii"], "db": ["pg", "my"], "os": ["l", "m"]},
        )
        network.add_host("d", {"os": ["w", "m"], "web": ["ng", "ii"]})
        network.add_host("e", {"db": ["my"], "os": ["w", "l", "m"]})
        network.add_links(
            [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("c", "e"), ("b", "e"), ("d", "e")]
        )
        similarity = SimilarityTable(pairs={
            ("w", "l"): 0.31, ("l", "m"): 0.17, ("w", "m"): 0.73,
            ("ap", "ng"): 0.29, ("ng", "ii"): 0.11, ("ap", "ii"): 0.6,
            ("pg", "my"): 0.43,
        })
        return network, similarity

    CONSTRAINTS = ConstraintSet([
        FixProduct("a", "os", "l"),
        ForbidProduct("d", "os", "w"),
        # Intra-host combination edges: coupled in the plan, never summed.
        AvoidCombination(GLOBAL, "os", "m", "web", "ii"),
        RequireCombination("c", "db", "pg", "os", "l"),
    ])
    OPTIONS = {
        "plain": {},
        "constrained": {"constraints": CONSTRAINTS},
        "weighted": {
            "constraints": CONSTRAINTS,
            "pairwise_weight": 2.5,
            "service_weights": {"os": 3.0, "db": 0.5},
            "preferences": {("b", "db", "my"): 0.2, ("e", "os", "w"): -0.1},
        },
    }

    @pytest.mark.parametrize("solver", ["trws", "icm", "exact"])
    @pytest.mark.parametrize("case", sorted(OPTIONS))
    def test_equals_the_loop_over_links(self, solver, case):
        network, similarity = self._estate()
        result = diversify(
            network, similarity, solver=solver, **self.OPTIONS[case]
        )
        total, coupled = edge_similarity_loop(
            network, similarity, result.assignment
        )
        assert coupled == 14
        assert result.similarity_total == total
        assert result.mean_edge_similarity == total / coupled

    @pytest.mark.parametrize("solver", ["trws", "icm"])
    def test_random_estates_match_the_loop(self, solver):
        from repro.network.generator import (
            RandomNetworkConfig,
            random_network,
            random_similarity,
        )

        for seed in range(4):
            config = RandomNetworkConfig(
                hosts=40, degree=4, services=3, seed=seed
            )
            network = random_network(config)
            similarity = random_similarity(config)
            result = diversify(network, similarity, solver=solver)
            total, coupled = edge_similarity_loop(
                network, similarity, result.assignment
            )
            assert result.similarity_total == total
            assert result.mean_edge_similarity == total / coupled

    def test_no_coupled_edges(self):
        network = Network()
        network.add_host("a", {"os": ["w", "l"]})
        network.add_host("b", {"os": ["w", "l"]})
        for solver in ("trws", "icm"):
            result = diversify(network, SimilarityTable(), solver=solver)
            assert result.similarity_total == 0.0
            assert result.mean_edge_similarity == 0.0


class TestImportGraph:
    @staticmethod
    def _fresh(probe: str) -> str:
        """Stdout of ``probe`` in a fresh interpreter, which sees the real
        import graph."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        return subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()

    def test_solve_path_loads_no_pool_modules(self):
        # The solve path runs in-process: importing it must not pull in
        # the experiment runner or multiprocessing (startup every caller
        # pays).
        # Only modules the import itself adds count, so site hooks that load
        # multiprocessing first (subprocess coverage) cannot fail the test.
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.core.diversify\n"
            "print(','.join(sorted(m for m in set(sys.modules) - before"
            " if m.split('.')[0] == 'multiprocessing'"
            " or m.startswith('repro.runner'))))\n"
        )
        assert self._fresh(probe) == ""

    def test_package_and_cli_load_no_networkx(self):
        # Only Network.to_networkx and the random-graph generator use
        # networkx; importing the package or the CLI must not pay its
        # startup cost.
        probe = (
            "import sys\n"
            "import repro, repro.cli\n"
            "print('networkx' in sys.modules)\n"
        )
        assert self._fresh(probe) == "False"
