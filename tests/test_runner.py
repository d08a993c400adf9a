"""Tests for the parallel experiment engine (repro.runner).

The contract under test: a job grid produces *identical* results whether it
runs serially or over a process pool — same keys, same order, same values —
because every job carries its own deterministic seed and results are
collected in job order, not completion order.
"""

import os
import warnings

import pytest

from repro import experiments
from repro.analysis.sensitivity import (
    calibration_sensitivity,
    similarity_perturbation_sensitivity,
)
from repro.network.topologies import ring_network
from repro.nvd.similarity import SimilarityTable
from repro.runner import Job, derive_seed, resolve_workers, run_jobs
from repro.runner import engine as runner_engine


def _square(x, seed=0):
    return (x * x, seed)


def _fail(message):
    raise RuntimeError(message)


def _logged_cell(x, log, seed=None):
    """Append ``x`` to ``log`` (one line per run); cell 1 has no input."""
    with open(log, "a") as handle:
        handle.write(f"{x}\n")
    if x == 1:
        raise FileNotFoundError(f"cell {x} has no input")
    return x


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(11, ("table7", 100)) == derive_seed(11, ("table7", 100))

    def test_spreads_over_base_and_key(self):
        seeds = {
            derive_seed(base, key)
            for base in (0, 1, 2)
            for key in (("a", 1), ("a", 2), ("b", 1))
        }
        assert len(seeds) == 9

    def test_in_range(self):
        for key in range(50):
            assert 0 <= derive_seed(7, key) < 2**31


class TestResolveWorkers:
    @pytest.mark.parametrize("value", [None, 0, 1])
    def test_serial_values(self, value):
        assert resolve_workers(value) == 1

    def test_all_cpus(self):
        assert resolve_workers(-1) >= 1

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_env_override_fills_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_env_override_all_cpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        assert resolve_workers(None) >= 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 1

    def test_env_junk_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_env_blank_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers(None) == 1


class TestRunJobs:
    def _jobs(self):
        return [
            Job(key=i, fn=_square, kwargs={"x": i}, seed=derive_seed(9, i))
            for i in range(6)
        ]

    def test_serial_results_in_job_order(self):
        results = run_jobs(self._jobs(), workers=None)
        assert list(results) == list(range(6))
        assert results[3] == (9, derive_seed(9, 3))

    def test_parallel_equals_serial(self):
        serial = run_jobs(self._jobs(), workers=1)
        parallel = run_jobs(self._jobs(), workers=2)
        assert serial == parallel
        assert list(serial) == list(parallel)

    def test_seed_not_injected_when_pinned(self):
        job = Job(key="k", fn=_square, kwargs={"x": 2, "seed": 123}, seed=456)
        assert job.run() == (4, 123)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_jobs([Job(key="a", fn=_square, kwargs={"x": 1}),
                      Job(key="a", fn=_square, kwargs={"x": 2})])

    def test_job_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_jobs([Job(key=i, fn=_fail, kwargs={"message": "boom"})
                      for i in range(3)], workers=2)

    def test_unpicklable_jobs_fall_back_to_serial(self):
        jobs = [Job(key=i, fn=lambda x=i: x * 10, kwargs={}) for i in range(3)]
        with pytest.warns(RuntimeWarning, match="serially"):
            results = run_jobs(jobs, workers=2)
        assert results == {0: 0, 1: 10, 2: 20}

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise PermissionError("no process support in this sandbox")

        monkeypatch.setattr(runner_engine, "ProcessPoolExecutor", broken_pool)
        with pytest.warns(RuntimeWarning, match="pool unavailable"):
            results = run_jobs(self._jobs(), workers=4)
        assert results == run_jobs(self._jobs(), workers=None)

    def test_job_error_reraises_once_with_worker_traceback(self, tmp_path):
        # A job's own exception is not a pool failure: no serial re-run
        # (each cell runs once, no warning), and the worker traceback
        # rides along as the cause.
        log = tmp_path / "runs.txt"
        jobs = [
            Job(key=i, fn=_logged_cell, kwargs={"x": i, "log": str(log)})
            for i in range(3)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FileNotFoundError, match="cell 1") as raised:
                run_jobs(jobs, workers=2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        cause = raised.value.__cause__
        assert isinstance(cause, runner_engine._RemoteTraceback)
        assert "_logged_cell" in str(cause) and "FileNotFoundError" in str(cause)
        assert sorted(log.read_text().split()) == ["0", "1", "2"]

    def test_chunksize_results_identical(self):
        # 24 jobs on 2 workers go out in chunks of 24 // (4·2) = 3 jobs:
        # chunking moves scheduling only, never results or their order.
        jobs = [
            Job(key=i, fn=_square, kwargs={"x": i}, seed=derive_seed(9, i))
            for i in range(24)
        ]
        serial = run_jobs(jobs, workers=1)
        chunked = run_jobs(jobs, workers=2)
        assert chunked == serial
        assert list(chunked) == list(serial)
        # Each chunk runs in one worker process.
        pids = run_jobs([Job(key=i, fn=os.getpid) for i in range(24)], workers=2)
        assert all(
            len({pids[i] for i in range(start, start + 3)}) == 1
            for start in range(0, 24, 3)
        )


class TestExperimentGrids:
    """Same seeds ⇒ identical table rows, serial vs parallel."""

    def test_table7_rows_parallel_identical(self):
        kwargs = dict(host_counts=(20, 30), densities=(("mini", 4, 2),),
                      seed=1, max_iterations=2)
        serial = experiments.table7_rows(**kwargs)
        parallel = experiments.table7_rows(workers=2, **kwargs)
        assert list(serial) == list(parallel)
        for key in serial:
            assert serial[key].config == parallel[key].config
            assert serial[key].energy == parallel[key].energy
            assert serial[key].edges == parallel[key].edges

    def test_table8_and_table9_accept_workers(self):
        rows8 = experiments.table8_rows(degrees=(3,), scales=(("mini", 24, 2),),
                                        workers=2, max_iterations=2)
        rows9 = experiments.table9_rows(service_counts=(2,),
                                        scales=(("mini", 24, 3),),
                                        workers=2, max_iterations=2)
        assert set(rows8) == {("mini", 3)}
        assert set(rows9) == {("mini", 2)}

    def test_scalability_sweep_keys_ordered(self):
        from repro.network.generator import RandomNetworkConfig

        configs = {
            ("a", hosts): RandomNetworkConfig(hosts=hosts, degree=3,
                                              services=2, seed=0)
            for hosts in (16, 20, 24)
        }
        rows = experiments.scalability_sweep(configs, workers=2,
                                             max_iterations=2)
        assert list(rows) == list(configs)

    def test_perturbation_rows_byte_identical(self):
        network = ring_network(8, services={"svc": ["p0", "p1", "p2"]})
        table = SimilarityTable(
            pairs={("p0", "p1"): 0.6, ("p1", "p2"): 0.2, ("p0", "p2"): 0.4}
        )
        kwargs = dict(noise_levels=(0.1, 0.3), seeds=(0, 1))
        serial = similarity_perturbation_sensitivity(network, table, **kwargs)
        parallel = similarity_perturbation_sensitivity(network, table,
                                                       workers=2, **kwargs)
        assert [r.row() for r in serial] == [r.row() for r in parallel]

    def test_calibration_cells_parallel_identical(self):
        kwargs = dict(p_avgs=(0.1,), p_maxs=(0.2, 0.3))
        serial = calibration_sensitivity(**kwargs)
        parallel = calibration_sensitivity(workers=2, **kwargs)
        assert [c.row() for c in serial] == [c.row() for c in parallel]

    def test_duplicate_grid_values_yield_one_row_each(self):
        # Repeated user-supplied grid values must behave like the original
        # loops (one row per occurrence), not collide as runner job keys.
        network = ring_network(6, services={"svc": ["p0", "p1"]})
        table = SimilarityTable(pairs={("p0", "p1"): 0.5})
        rows = similarity_perturbation_sensitivity(
            network, table, noise_levels=(0.2,), seeds=(0, 0)
        )
        assert len(rows) == 2
        assert rows[0].row() == rows[1].row()
