"""Standard topologies and the paper's Fig. 1 motivational network.

These builders produce small, regular :class:`~repro.network.model.Network`
instances used throughout tests, examples and the motivational-example
benchmark.  Every host gets the same service → candidate-products map, which
is the homogeneous setting of the paper's illustrative figures.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from repro.network.model import Network

__all__ = [
    "chain_network",
    "ring_network",
    "star_network",
    "grid_network",
    "tree_network",
    "complete_network",
    "scale_free_network",
    "motivational_network",
    "MOTIVATIONAL_ENTRY",
    "MOTIVATIONAL_TARGET",
]

_DEFAULT_SERVICES: Mapping[str, Sequence[str]] = {"svc": ("p0", "p1")}


def _uniform(count: int, services: Optional[Mapping[str, Sequence[str]]]) -> Network:
    network = Network()
    spec = services or _DEFAULT_SERVICES
    for index in range(count):
        network.add_host(f"h{index}", spec)
    return network


def chain_network(
    count: int, services: Optional[Mapping[str, Sequence[str]]] = None
) -> Network:
    """h0 - h1 - ... - h(n-1)."""
    network = _uniform(count, services)
    network.add_links((f"h{i}", f"h{i + 1}") for i in range(count - 1))
    return network


def ring_network(
    count: int, services: Optional[Mapping[str, Sequence[str]]] = None
) -> Network:
    """A cycle of ``count`` hosts (count >= 3)."""
    if count < 3:
        raise ValueError("a ring needs at least 3 hosts")
    network = _uniform(count, services)
    network.add_links((f"h{i}", f"h{(i + 1) % count}") for i in range(count))
    return network


def star_network(
    leaves: int, services: Optional[Mapping[str, Sequence[str]]] = None
) -> Network:
    """A hub ``h0`` connected to ``leaves`` leaf hosts."""
    network = _uniform(leaves + 1, services)
    network.add_links(("h0", f"h{i}") for i in range(1, leaves + 1))
    return network


def grid_network(
    rows: int, cols: int, services: Optional[Mapping[str, Sequence[str]]] = None
) -> Network:
    """A rows × cols 4-neighbour lattice; hosts are named ``h<r>_<c>``."""
    network = Network()
    spec = services or _DEFAULT_SERVICES
    for r in range(rows):
        for c in range(cols):
            network.add_host(f"h{r}_{c}", spec)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_link(f"h{r}_{c}", f"h{r}_{c + 1}")
            if r + 1 < rows:
                network.add_link(f"h{r}_{c}", f"h{r + 1}_{c}")
    return network


def tree_network(
    depth: int,
    branching: int = 2,
    services: Optional[Mapping[str, Sequence[str]]] = None,
) -> Network:
    """A complete ``branching``-ary tree of the given depth (root ``h0``)."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    count = sum(branching**level for level in range(depth + 1))
    network = _uniform(count, services)
    for parent in range(count):
        for child_slot in range(branching):
            child = parent * branching + child_slot + 1
            if child < count:
                network.add_link(f"h{parent}", f"h{child}")
    return network


def complete_network(
    count: int, services: Optional[Mapping[str, Sequence[str]]] = None
) -> Network:
    """The complete graph K_n."""
    network = _uniform(count, services)
    network.add_links(
        (f"h{i}", f"h{j}") for i in range(count) for j in range(i + 1, count)
    )
    return network


def scale_free_network(
    count: int,
    attach: int = 2,
    seed: int = 0,
    services: Optional[Mapping[str, Sequence[str]]] = None,
) -> Network:
    """A preferential-attachment (Barabási–Albert) network of ``count`` hosts.

    Growth starts from a seed clique of ``attach + 1`` hosts; every later
    host attaches to ``attach`` distinct existing hosts drawn with
    probability proportional to their current degree (sampling from the
    repeated-endpoints urn).  The result is a single connected component
    with a heavy-tailed degree distribution — the "giant component" shape
    of real estates, which no component split can break up.
    Deterministic for a given ``seed``.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    core = attach + 1
    if count < core:
        raise ValueError(f"need at least {core} hosts for attach={attach}")
    network = _uniform(count, services)
    rng = random.Random(seed)
    # Urn of endpoint repeats: a host appears once per incident link, so a
    # uniform draw from the urn is a degree-proportional draw.
    urn: list = []
    for i in range(core):
        for j in range(i + 1, core):
            network.add_link(f"h{i}", f"h{j}")
            urn.extend((i, j))
    for new in range(core, count):
        targets: set = set()
        while len(targets) < attach:
            targets.add(rng.choice(urn))
        for target in sorted(targets):
            network.add_link(f"h{new}", f"h{target}")
            urn.extend((new, target))
    return network


#: Entry and target hosts of the paper's Fig. 1 example.
MOTIVATIONAL_ENTRY = "entry"
MOTIVATIONAL_TARGET = "target"

#: The alternating (fully diversified) labelling of the Fig. 1 example.
MOTIVATIONAL_DIVERSIFIED = {
    "entry": "circle",
    "m1": "triangle",
    "m2": "circle",
    "target": "triangle",
    "x1": "triangle",
    "x2": "circle",
    "x3": "triangle",
    "x4": "circle",
}


def motivational_network(
    multi_label: bool = False,
) -> Network:
    """The 8-host network of the paper's motivational example (Fig. 1).

    An ``entry`` host reaches a ``target`` host over the 3-hop path
    ``entry - m1 - m2 - target``; four side hosts ``x1``-``x4`` hang off the
    path hosts, giving the 8-host graph the figure sketches.  With
    ``multi_label=False`` every host runs a single service choosable between
    the figure's two products (``circle`` / ``triangle``) — panels (a) and
    (b).  With ``multi_label=True`` the three path hosts before the target
    additionally run a second service whose only product is ``square`` —
    panel (c)'s extra attack vector, exploitable end-to-end except on the
    final hop.

    With the alternating assignment :data:`MOTIVATIONAL_DIVERSIFIED` and an
    infection rate equal to the similarity, the target-compromise
    probability reproduces the figure: 0 in panel (a) (similarity 0),
    ``0.5³ = 0.125`` in panel (b) (similarity 0.5), and ``0.5`` in panel
    (c) (the square exploit carries the first two hops at rate 1).
    """
    single = {"svc": ("circle", "triangle")}
    network = Network()
    names = ["entry", "m1", "m2", "target", "x1", "x2", "x3", "x4"]
    for name in names:
        network.add_host(name, single)
    if multi_label:
        for name in ("entry", "m1", "m2"):
            network.add_service(name, "svc2", ("square",))
    network.add_links(
        [
            ("entry", "m1"),
            ("m1", "m2"),
            ("m2", "target"),
            ("entry", "x1"),
            ("m1", "x2"),
            ("m2", "x3"),
            ("target", "x4"),
        ]
    )
    return network
