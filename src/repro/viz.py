"""Text and Graphviz visualisation of networks and assignments.

No plotting dependencies: :func:`to_dot` emits Graphviz DOT source (render
with ``dot -Tpng``), and :func:`ascii_summary` prints a terminal-friendly
overview.  Both can colour-grade edges by the assigned-product similarity,
which is how Fig. 4-style "where is my network still fragile?" pictures
are produced from a :class:`~repro.core.diversify.DiversificationResult`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.network.assignment import ProductAssignment
from repro.network.model import Network
from repro.nvd.similarity import SimilarityTable

__all__ = ["to_dot", "ascii_summary"]


def to_dot(
    network: Network,
    assignment: Optional[ProductAssignment] = None,
    similarity: Optional[SimilarityTable] = None,
    zones: Optional[Mapping[str, Sequence[str]]] = None,
    title: str = "network",
) -> str:
    """Render the network as Graphviz DOT.

    Args:
        assignment: when given, each host's label lists its products.
        similarity: when given (with ``assignment``), edges are coloured by
            the mean assigned-product similarity across shared services —
            green (diverse) through red (similar) — so mono-culture
            corridors stand out.
        zones: optional zone → hosts grouping rendered as clusters (the
            case study passes its ``ZONES``).
        title: graph name / label.
    """
    lines = [f'graph "{_escape(title)}" {{']
    lines.append('  graph [label="%s", fontsize=18, style=rounded];' % _escape(title))
    lines.append("  node [shape=box, style=rounded, fontsize=10];")

    zone_of: Dict[str, str] = {}
    if zones:
        for zone, hosts in zones.items():
            for host in hosts:
                zone_of[host] = zone
        for index, (zone, hosts) in enumerate(zones.items()):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f'    label="{_escape(zone)}"; color=gray;')
            for host in hosts:
                if host in network:
                    lines.append(f"    {_node_line(network, host, assignment)}")
            lines.append("  }")
    for host in network.hosts:
        if host not in zone_of:
            lines.append(f"  {_node_line(network, host, assignment)}")

    for a, b in network.links:
        attributes = ""
        if assignment is not None and similarity is not None:
            value = _link_similarity(network, assignment, similarity, a, b)
            if value is not None:
                colour = _heat_colour(value)
                attributes = (
                    f' [color="{colour}", penwidth={1 + 3 * value:.2f},'
                    f' tooltip="similarity {value:.3f}"]'
                )
        lines.append(f'  "{_escape(a)}" -- "{_escape(b)}"{attributes};')
    lines.append("}")
    return "\n".join(lines)


def ascii_summary(
    network: Network,
    assignment: Optional[ProductAssignment] = None,
    similarity: Optional[SimilarityTable] = None,
    top_edges: int = 10,
) -> str:
    """Terminal overview: size, degree stats, and the most similar edges."""
    degrees = [network.degree(host) for host in network.hosts]
    lines = [
        f"network: {len(network)} hosts, {network.edge_count()} links, "
        f"{network.variable_count()} (host, service) installations",
    ]
    if degrees:
        lines.append(
            f"degree: min {min(degrees)}, max {max(degrees)}, "
            f"mean {sum(degrees) / len(degrees):.2f}"
        )
    if assignment is not None and similarity is not None:
        scored = []
        for a, b in network.links:
            value = _link_similarity(network, assignment, similarity, a, b)
            if value is not None:
                scored.append((value, a, b))
        scored.sort(reverse=True)
        lines.append(f"most similar edges (top {min(top_edges, len(scored))}):")
        for value, a, b in scored[:top_edges]:
            lines.append(f"  {a} -- {b}: mean similarity {value:.3f}")
    return "\n".join(lines)


def _node_line(
    network: Network, host: str, assignment: Optional[ProductAssignment]
) -> str:
    if assignment is None:
        label = host
    else:
        picks = assignment.products_at(host)
        products = "\\n".join(picks[s] for s in network.services_of(host) if s in picks)
        label = f"{host}\\n{products}" if products else host
    return f'"{_escape(host)}" [label="{label}"];'


def _link_similarity(
    network: Network,
    assignment: ProductAssignment,
    similarity: SimilarityTable,
    a: str,
    b: str,
) -> Optional[float]:
    values = []
    for service in network.shared_services(a, b):
        product_a = assignment.get(a, service)
        product_b = assignment.get(b, service)
        if product_a is not None and product_b is not None:
            values.append(similarity.get(product_a, product_b))
    if not values:
        return None
    return sum(values) / len(values)


def _heat_colour(value: float) -> str:
    """Green (0) → yellow (0.5) → red (1) in HTML hex."""
    value = min(1.0, max(0.0, value))
    if value < 0.5:
        red = int(255 * (2 * value))
        green = 200
    else:
        red = 255
        green = int(200 * (2 - 2 * value))
    return f"#{red:02x}{green:02x}30"


def _escape(text: str) -> str:
    return text.replace('"', r"\"")
