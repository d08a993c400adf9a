"""Tests for per-service criticality weights in the cost model."""

import pytest

from repro.core import diversify
from repro.core.costs import assignment_energy, build_mrf
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable


@pytest.fixture
def net():
    network = Network()
    spec = {"os": ["w", "l"], "wb": ["ie", "ch"]}
    for name in ("a", "b", "c"):
        network.add_host(name, spec)
    network.add_link("a", "b")
    network.add_link("b", "c")
    return network


@pytest.fixture
def sim():
    return SimilarityTable(pairs={("w", "l"): 0.5, ("ie", "ch"): 0.5})


class TestBuild:
    def test_weight_scales_matrices(self, net, sim):
        build = build_mrf(net, sim, service_weights={"os": 3.0})
        os_edge = build.mrf.edge_id(build.index[("a", "os")], build.index[("b", "os")])
        wb_edge = build.mrf.edge_id(build.index[("a", "wb")], build.index[("b", "wb")])
        assert build.mrf.edge_cost(os_edge)[0, 1] == pytest.approx(1.5)
        assert build.mrf.edge_cost(wb_edge)[0, 1] == pytest.approx(0.5)

    def test_unlisted_services_weight_one(self, net, sim):
        build = build_mrf(net, sim, service_weights={"os": 2.0})
        wb_edge = build.mrf.edge_id(build.index[("a", "wb")], build.index[("b", "wb")])
        assert build.mrf.edge_cost(wb_edge)[0, 0] == pytest.approx(1.0)

    def test_negative_weight_rejected(self, net, sim):
        with pytest.raises(ValueError):
            build_mrf(net, sim, service_weights={"os": -1.0})

    def test_composes_with_pairwise_weight(self, net, sim):
        build = build_mrf(net, sim, pairwise_weight=2.0, service_weights={"os": 3.0})
        os_edge = build.mrf.edge_id(build.index[("a", "os")], build.index[("b", "os")])
        assert build.mrf.edge_cost(os_edge)[0, 1] == pytest.approx(3.0)

    def test_differently_weighted_matrices_not_shared(self, net, sim):
        build = build_mrf(net, sim, service_weights={"os": 2.0})
        os_edge = build.mrf.edge_id(build.index[("a", "os")], build.index[("b", "os")])
        wb_edge = build.mrf.edge_id(build.index[("a", "wb")], build.index[("b", "wb")])
        assert build.mrf.edge_cost(os_edge) is not build.mrf.edge_cost(wb_edge)


class TestEnergyParity:
    def test_energy_matches_direct_evaluation(self, net, sim):
        weights = {"os": 2.5, "wb": 0.5}
        build = build_mrf(net, sim, service_weights=weights)
        labels = [0, 1, 1, 0, 0, 1]
        assignment = build.labels_to_assignment(net, labels)
        assert build.mrf.energy(labels) == pytest.approx(
            assignment_energy(net, sim, assignment, service_weights=weights)
        )


class TestOptimisation:
    def test_weights_steer_scarce_diversity(self):
        """With one product pair per service and a 3-clique, one service
        must carry similarity on every edge; the optimiser should sacrifice
        the *cheap* service, protecting the critical one."""
        network = Network()
        spec = {"critical": ["c1", "c2"], "cheap": ["x1", "x2"]}
        for name in ("a", "b", "c"):
            network.add_host(name, spec)
        network.add_links([("a", "b"), ("b", "c"), ("a", "c")])
        table = SimilarityTable(pairs={("c1", "c2"): 0.5, ("x1", "x2"): 0.5})
        result = diversify(
            network, table, service_weights={"critical": 10.0, "cheap": 1.0},
        )
        # On the triangle, each service has one forced same-product edge at
        # best; verify the forced sim-1.0 edge never lands on 'critical'
        # unnecessarily more than on 'cheap'.
        def forced_edges(service):
            picks = {h: result.assignment.get(h, service) for h in network.hosts}
            return sum(
                1 for a, b in network.links if picks[a] == picks[b]
            )

        assert forced_edges("critical") <= forced_edges("cheap")

    def test_weighted_solve_reports_trws(self, net, sim):
        result = diversify(net, sim, service_weights={"os": 2.0})
        assert result.solver_result.solver == "trws"
