"""Random network workloads for the scalability study (paper Section VIII).

The paper benchmarks the optimiser on "randomly generated networks"
parameterised by host count, average degree and services per host (its
Tables VII-IX).  :func:`random_network` reproduces that workload: a random
(near-)regular host graph with ``degree`` average degree, each host running
``services`` services, each choosable from ``products_per_service``
products.  :func:`random_similarity` draws the accompanying similarity
table.

Everything is deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first random graph
    import networkx as nx

__all__ = ["RandomNetworkConfig", "random_network", "random_similarity"]


@dataclass(frozen=True)
class RandomNetworkConfig:
    """Parameters for one scalability workload.

    Attributes:
        hosts: number of hosts |H|.
        degree: target average degree (paper sweeps 5-50).
        services: services per host (paper sweeps 5-30).
        products_per_service: size of every candidate range (the paper does
            not publish this; its case study uses 3-4, we default to 4).
        similarity_density: fraction of product pairs with non-zero
            similarity in the generated table.
        seed: PRNG seed.
    """

    hosts: int
    degree: int
    services: int
    products_per_service: int = 4
    similarity_density: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hosts < 2:
            raise ValueError("need at least 2 hosts")
        if not 0 < self.degree < self.hosts:
            raise ValueError(f"degree must be in (0, hosts); got {self.degree}")
        if self.services < 1:
            raise ValueError("need at least one service per host")
        if self.products_per_service < 2:
            raise ValueError("diversification needs >= 2 products per service")
        if not 0.0 <= self.similarity_density <= 1.0:
            raise ValueError("similarity_density must be a probability")

    def service_names(self) -> List[str]:
        """The synthetic service names ``s0..s{services-1}``."""
        return [f"s{i}" for i in range(self.services)]

    def product_names(self, service: str) -> List[str]:
        """The synthetic candidate products of ``service``."""
        return [f"{service}_p{j}" for j in range(self.products_per_service)]

    def expected_edges(self) -> int:
        """Approximate link count of the drawn topology."""
        return self.hosts * self.degree // 2


def random_network(config: RandomNetworkConfig) -> Network:
    """Generate the random network for a scalability workload.

    The host graph is a random regular graph when ``hosts * degree`` is even
    (the paper's fixed-degree sweeps suggest near-regular graphs); otherwise
    a G(n, m) graph with the same edge count.  Products are namespaced per
    service so every service contributes an independent label space, as in
    the paper's model.
    """
    rng = random.Random(config.seed)
    graph = _host_graph(config, rng)
    services = {
        name: config.product_names(name) for name in config.service_names()
    }
    network = Network()
    for index in range(config.hosts):
        network.add_host(f"h{index}", services)
    for a, b in graph.edges():
        network.add_link(f"h{a}", f"h{b}")
    return network


def random_similarity(
    config: RandomNetworkConfig,
    low: float = 0.05,
    high: float = 0.8,
) -> SimilarityTable:
    """Draw a similarity table for the workload's product universe.

    A ``similarity_density`` fraction of same-service product pairs receives
    a similarity drawn uniformly from [low, high]; cross-service pairs stay
    at zero (products of different services never interact in the paper's
    pairwise cost).
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"need 0 <= low <= high <= 1, got [{low}, {high}]")
    rng = random.Random(config.seed + 1)
    table = SimilarityTable()
    for service in config.service_names():
        products = config.product_names(service)
        for product in products:
            table.add_product(product)
        for i, a in enumerate(products):
            for b in products[i + 1 :]:
                if rng.random() < config.similarity_density:
                    table.set(a, b, round(rng.uniform(low, high), 3))
    return table


def _host_graph(config: RandomNetworkConfig, rng: random.Random) -> nx.Graph:
    """A connected-ish random host graph with the target average degree."""
    import networkx as nx

    n, d = config.hosts, config.degree
    if (n * d) % 2 == 0 and d < n:
        graph = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
    else:
        edges = n * d // 2
        graph = nx.gnm_random_graph(n, edges, seed=rng.randrange(2**31))
    # Attach any isolated hosts so every host participates in diversification.
    isolated = [node for node in graph.nodes if graph.degree(node) == 0]
    others = [node for node in graph.nodes if graph.degree(node) > 0]
    for node in isolated:
        if others:
            graph.add_edge(node, rng.choice(others))
            others.append(node)
    return graph
