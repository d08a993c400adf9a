"""Tests for the experiment drivers (repro.experiments).

These are the integration tests of the reproduction: each paper artefact's
driver must run end-to-end and produce the paper's qualitative shape.
Heavier variants live in benchmarks/.
"""

import pytest

from repro import experiments
from repro.casestudy.stuxnet import stuxnet_case_study
from repro.network.generator import RandomNetworkConfig


@pytest.fixture(scope="module")
def case():
    return stuxnet_case_study()


class TestFig1:
    def test_exact_paper_probabilities(self):
        results = experiments.fig1_motivational()
        assert results["a"] == pytest.approx(0.0)
        assert results["b"] == pytest.approx(0.125)
        assert results["c"] == pytest.approx(0.5)


class TestFig4:
    @pytest.fixture(scope="class")
    def assignments(self, case):
        return experiments.fig4_assignments(case)

    def test_three_assignments(self, assignments):
        assert set(assignments) == {
            "optimal", "host_constrained", "product_constrained",
        }

    def test_all_complete_and_satisfied(self, assignments):
        for result in assignments.values():
            assert result.assignment.is_complete()
            assert result.satisfied

    def test_constraints_cost_energy(self, assignments):
        assert assignments["optimal"].energy <= assignments["host_constrained"].energy
        assert assignments["optimal"].energy <= assignments["product_constrained"].energy

    def test_pins_honoured(self, assignments, case):
        constrained = assignments["host_constrained"].assignment
        for pin in case.c1.fixed_products():
            assert constrained.get(pin.host, pin.service) == pin.product

    def test_constrained_solutions_differ_from_optimal(self, assignments):
        optimal = assignments["optimal"].assignment
        assert optimal.diff(assignments["host_constrained"].assignment)

    def test_case_study_certificate(self, assignments):
        # The TRW-S lower bound over monotonic chains certifies each
        # case-study solve to within 1e-3 (the sum-of-minima bound it
        # replaced read 24.620 / 27.128 / -1 999 971.87).
        energies = {
            "optimal": 28.464,
            "host_constrained": 44.038,
            "product_constrained": 45.236,
        }
        for name, energy in energies.items():
            result = assignments[name]
            assert result.energy == pytest.approx(energy, abs=1e-9), name
            assert result.lower_bound <= result.energy + 1e-9, name
            assert result.energy - result.lower_bound <= 1e-3, name


class TestTable5:
    @pytest.fixture(scope="class")
    def reports(self, case):
        return experiments.table5_diversity(case)

    def test_paper_row_order(self, reports):
        assert list(reports) == [
            "optimal", "host_constrained", "product_constrained", "random", "mono",
        ]

    def test_reference_probability_constant(self, reports):
        references = {round(r.p_without, 12) for r in reports.values()}
        assert len(references) == 1

    def test_paper_ordering(self, reports):
        """The paper's Table V ordering: α̂ > α̂C1 ≥ α̂C2 > αr > αm."""
        assert reports["optimal"].d_bn > reports["host_constrained"].d_bn
        assert reports["host_constrained"].d_bn >= reports["product_constrained"].d_bn - 1e-9
        assert reports["product_constrained"].d_bn > reports["random"].d_bn
        assert reports["random"].d_bn > reports["mono"].d_bn

    def test_all_bounded(self, reports):
        assert all(0.0 < r.d_bn <= 1.0 for r in reports.values())


class TestTable6:
    def test_small_run_shape(self, case):
        results = experiments.table6_mttc(case, runs=60, seed=3)
        assert len(results) == 4 * 5
        for entry in case.entries:
            mono = results[("mono", entry)]
            optimal = results[("optimal", entry)]
            assert mono.runs == optimal.runs == 60
            # Mono-culture must never be meaningfully more resilient.
            assert mono.mttc <= optimal.mttc * 1.15

    def test_mono_clearly_weakest_from_corporate(self, case):
        results = experiments.table6_mttc(
            case, runs=150, seed=3, labels=("optimal", "mono")
        )
        assert results[("mono", "c4")].mttc < results[("optimal", "c4")].mttc

    def test_parallel_matches_serial(self, case):
        serial = experiments.table6_mttc(
            case, runs=30, seed=3, labels=("optimal", "mono")
        )
        parallel = experiments.table6_mttc(
            case, runs=30, seed=3, labels=("optimal", "mono"), workers=2
        )
        assert list(serial) == list(parallel)
        for key in serial:
            assert serial[key] == parallel[key]


class TestScalability:
    def test_cell_runs_and_reports(self):
        cell = experiments.scalability_cell(
            RandomNetworkConfig(hosts=60, degree=6, services=3, seed=0)
        )
        assert cell.seconds > 0
        assert cell.edges == 180
        assert "hosts=60" in cell.row()
        # Quality beside time: the row prints the cell's energy.
        assert f"energy={cell.energy:.6f}" in cell.row()
        assert cell.row().index("time=") < cell.row().index("energy=")

    def test_table7_rows_structure(self):
        rows = experiments.table7_rows(
            host_counts=(30, 60), densities=(("mini", 4, 2),), seed=1
        )
        assert set(rows) == {("mini", 30), ("mini", 60)}

    def test_table8_rows_structure(self):
        rows = experiments.table8_rows(degrees=(3, 5), scales=(("mini", 40, 2),))
        assert set(rows) == {("mini", 3), ("mini", 5)}

    def test_table9_rows_structure(self):
        rows = experiments.table9_rows(service_counts=(2, 4), scales=(("mini", 40, 4),))
        assert set(rows) == {("mini", 2), ("mini", 4)}

    def test_cell_rejects_removed_dual_options(self):
        # The dual-decomposition tier is gone, and with it the cell's
        # ``shards``/``dual_options`` knobs.
        config = RandomNetworkConfig(hosts=40, degree=2, services=2, seed=0)
        for option in ({"shards": "cut"}, {"dual_options": {"parts": 2}}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                experiments.scalability_cell(config, **option)

    def test_more_services_cost_more_time(self):
        # 16x the services: the per-sweep message work scales with the
        # stacked service count, so even under machine-load noise the
        # larger workload must be measurably slower.
        small = experiments.scalability_cell(
            RandomNetworkConfig(hosts=200, degree=8, services=2, seed=0)
        )
        large = experiments.scalability_cell(
            RandomNetworkConfig(hosts=200, degree=8, services=32, seed=0)
        )
        assert large.seconds > small.seconds
