"""Paper Table VIII — optimisation time vs average degree.

Fixed host count (mid-scale: 1000 hosts, 15 services), degree swept
5 → 50.  The paper's observation, asserted here, is that degree has a
*milder* effect than host count: time grows sub-linearly-ish in degree
(message work is proportional to edges, but the per-node sweep overhead
is fixed), and a 10× degree increase costs far less than 10× time... the
precise paper claim is simply "the degree has less influence on the
computational time than the number of hosts".
"""

import pytest

from repro.experiments import scalability_cell
from repro.network.generator import RandomNetworkConfig

DEGREES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
HOSTS = 1000
SERVICES = 15
#: runs per cell of the degree-50/degree-5 check, which compares the
#: fastest of each.  With one run per cell the ratio read anywhere from
#: 4.8x to 9.5x, and once crossed its 10x bar on noise alone.
RATIO_RUNS = 3

_results = {}


def _config(degree):
    return RandomNetworkConfig(
        hosts=HOSTS, degree=degree, services=SERVICES, seed=0
    )


@pytest.mark.parametrize("degree", DEGREES)
def test_table8_benchmark(benchmark, degree):
    cell = benchmark.pedantic(
        scalability_cell, args=(_config(degree),), rounds=1, iterations=1
    )
    assert cell.edges == HOSTS * degree // 2
    _results[degree] = cell


def _min_seconds(degree):
    """Fastest of ``RATIO_RUNS`` runs of one cell (the table's run counts)."""
    reruns = [
        scalability_cell(_config(degree)).seconds
        for _ in range(RATIO_RUNS - 1)
    ]
    return min([_results[degree].seconds, *reruns])


def test_table8_shape_and_artifact(benchmark, write_artifact, record_bench):
    if len(_results) < len(DEGREES):
        pytest.skip("benchmark cells did not run (collection filter?)")
    low, high = _min_seconds(5), _min_seconds(50)
    # Growing degree costs more time overall...
    assert high > low
    # ...but a 10x degree increase costs less than a 10x time increase
    # (the paper's "less influence than the number of hosts").
    assert high < 10 * low, f"degree 50 {high:.3f}s vs degree 5 {low:.3f}s"
    lines = ["Table VIII — optimisation time vs degree (1000 hosts, 15 services)",
             "(paper mid-scale row: 0.76s at degree 5 → 6.31s at degree 50)"]
    for degree, cell in sorted(_results.items()):
        lines.append("  " + cell.row())
    benchmark(write_artifact, "table8_degree", "\n".join(lines))
    record_bench(
        "table8_degree",
        seconds=sum(cell.seconds for cell in _results.values()),
        cells={str(degree): round(cell.seconds, 6)
               for degree, cell in sorted(_results.items())},
    )
