"""End-to-end integration tests across all subsystems.

The full paper pipeline: synthetic NVD feed → similarity table → network
modelling → constrained MRF optimisation → BN diversity metric → MTTC
simulation.  Nothing here mocks anything.
"""

import pytest

from repro import (
    AvoidCombination,
    ConstraintSet,
    FixProduct,
    Network,
    diversify,
    diversity_metric,
    mean_time_to_compromise,
    mono_assignment,
    random_assignment,
)
from repro.core.costs import assignment_energy
from repro.network.constraints import GLOBAL
from repro.nvd.generator import (
    SyntheticNVDConfig,
    generate_synthetic_nvd,
    product_cpe_map,
)
from repro.nvd.similarity import similarity_table_from_database


@pytest.fixture(scope="module")
def pipeline():
    """NVD feed → similarity table → enterprise network."""
    config = SyntheticNVDConfig(seed=3, cves_per_year=150, years=(2005, 2015))
    database = generate_synthetic_nvd(config)
    table = similarity_table_from_database(
        database, product_cpe_map(config), since=2005, until=2015
    )

    windows = ["microsoft windows_7", "microsoft windows_8.1", "microsoft windows_10"]
    linux = ["canonical ubuntu_14.04", "debian debian_8.0"]
    browsers = [
        "microsoft internet_explorer_10", "google chrome_50", "mozilla firefox_45",
    ]
    databases = ["microsoft sql_server_2014", "oracle mysql_5.5", "mariadb mariadb_10.0"]

    network = Network()
    network.add_host("gateway", {"os": windows + linux, "wb": browsers})
    network.add_host("web", {"os": windows + linux, "wb": browsers, "db": databases})
    network.add_host("app", {"os": windows + linux, "db": databases})
    network.add_host("db", {"os": windows + linux, "db": databases})
    network.add_host("hmi", {"os": windows, "wb": browsers})
    network.add_host("plc-gw", {"os": [windows[0]]})  # legacy, no flexibility
    network.add_links(
        [
            ("gateway", "web"), ("web", "app"), ("app", "db"),
            ("app", "hmi"), ("hmi", "plc-gw"), ("gateway", "hmi"),
        ]
    )
    return network, table


class TestFullPipeline:
    def test_optimisation_improves_on_baselines(self, pipeline):
        network, table = pipeline
        optimal = diversify(network, table)
        assert optimal.assignment.is_complete()
        mono_energy = assignment_energy(network, table, mono_assignment(network))
        random_energy = assignment_energy(
            network, table, random_assignment(network, seed=0)
        )
        assert optimal.energy <= mono_energy
        assert optimal.energy <= random_energy

    def test_constrained_pipeline(self, pipeline):
        network, table = pipeline
        constraints = ConstraintSet(
            [
                FixProduct("gateway", "os", "microsoft windows_10"),
                AvoidCombination(
                    GLOBAL, "os", "canonical ubuntu_14.04",
                    "wb", "microsoft internet_explorer_10",
                ),
            ]
        )
        result = diversify(network, table, constraints=constraints)
        assert result.satisfied
        assert result.assignment.get("gateway", "os") == "microsoft windows_10"
        unconstrained = diversify(network, table)
        assert result.energy >= unconstrained.energy - 1e-9

    def test_metrics_rank_optimal_above_mono(self, pipeline):
        network, table = pipeline
        optimal = diversify(network, table).assignment
        mono = mono_assignment(network)

        d_optimal = diversity_metric(network, optimal, table, "gateway", "plc-gw")
        d_mono = diversity_metric(network, mono, table, "gateway", "plc-gw")
        assert d_optimal.d_bn >= d_mono.d_bn
        assert d_optimal.p_without == pytest.approx(d_mono.p_without)

        kwargs = dict(entry="gateway", target="plc-gw", runs=200, seed=2)
        mttc_optimal = mean_time_to_compromise(network, optimal, table, **kwargs)
        mttc_mono = mean_time_to_compromise(network, mono, table, **kwargs)
        assert mttc_optimal.mttc >= mttc_mono.mttc

    def test_energy_reported_matches_reevaluation(self, pipeline):
        network, table = pipeline
        result = diversify(network, table)
        direct = assignment_energy(network, table, result.assignment)
        assert result.energy == pytest.approx(direct)
