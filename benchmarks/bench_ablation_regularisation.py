"""Ablation — strength of the similarity penalty λ (pairwise_weight).

The paper's Eq. 3 calls the pairwise cost "a strong regularization on the
product assignment".  This bench sweeps λ and records the induced total
edge similarity.  Because the unary term is a constant (no product
preferences), any λ > 0 yields the same optimiser — the interesting regime
is λ interacting with *preferences*: we add soft preferences for a
mono-culture (everyone prefers the same product) and show the similarity
penalty progressively overriding them as λ grows.
"""


from repro.core.diversify import diversify
from repro.network.topologies import ring_network
from repro.nvd.similarity import SimilarityTable

WEIGHTS = (0.0, 0.1, 0.5, 1.0, 4.0)


def test_regularisation_sweep(benchmark, write_artifact):
    network = ring_network(12, services={"svc": ["p0", "p1", "p2"]})
    similarity = SimilarityTable(
        pairs={("p0", "p1"): 0.6, ("p1", "p2"): 0.6, ("p0", "p2"): 0.6}
    )
    # Everyone mildly prefers p0 — the mono-culture pull the penalty fights.
    preferences = {
        (host, "svc", "p0"): -0.3 for host in network.hosts
    }

    def sweep():
        rows = {}
        for weight in WEIGHTS:
            result = diversify(
                network, similarity,
                pairwise_weight=weight, preferences=preferences,
                max_iterations=60,
            )
            mono_hosts = sum(
                1 for host in network.hosts
                if result.assignment.get(host, "svc") == "p0"
            )
            rows[weight] = (result.similarity_total, mono_hosts)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # λ=0: preferences win, full mono-culture; large λ: diversity wins.
    assert rows[0.0][1] == 12
    assert rows[4.0][1] < 12
    assert rows[4.0][0] < rows[0.0][0]
    # Monotone (non-increasing) similarity as the penalty grows.
    totals = [rows[w][0] for w in WEIGHTS]
    assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))

    lines = ["Ablation — similarity-penalty strength λ vs induced mono-culture",
             f"{'lambda':>8}{'total edge sim':>16}{'hosts on p0':>13}"]
    for weight in WEIGHTS:
        total, mono = rows[weight]
        lines.append(f"{weight:>8.1f}{total:>16.3f}{mono:>13d}")
    write_artifact("ablation_regularisation", "\n".join(lines))
