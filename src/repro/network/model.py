"""The network model (paper Definition 2).

A :class:`Network` is N = ⟨H, L, S, P⟩: a set of hosts, undirected links
between hosts, per-host service sets, and per-(host, service) ranges of
candidate products.  The model deliberately gives every host a *customised*
service set and every service a host-specific product range — the paper
stresses this flexibility (Section VII-A) because in a real ICS the products
installable on a WinCC client differ from those on a vendor workstation.

Products and services are plain strings; similarity between products is kept
separately in :class:`~repro.nvd.similarity.SimilarityTable` so the same
network can be evaluated under different vulnerability data.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - networkx loads on first export
    import networkx as nx

__all__ = ["Network", "NetworkError"]


class NetworkError(ValueError):
    """Raised on malformed network operations (unknown hosts, self-links...)."""


class Network:
    """An undirected network of hosts with services and candidate products.

    >>> net = Network()
    >>> net.add_host("h0", {"web": ["wb1", "wb2"], "db": ["db1", "db2"]})
    >>> net.add_host("h1", {"web": ["wb1", "wb2"]})
    >>> net.add_link("h0", "h1")
    >>> sorted(net.shared_services("h0", "h1"))
    ['web']
    """

    def __init__(self) -> None:
        # host -> service -> tuple of candidate products (ordered, no dups)
        self._hosts: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self._links: Set[Tuple[str, str]] = set()
        self._adjacency: Dict[str, Set[str]] = {}
        # None while no copy shares a container with this network.  Else
        # the hosts whose service dict and adjacency set this network has
        # made its own since the last copy (see copy()); every other
        # host's containers may be shared and are copied on first write.
        self._owned: Optional[Set[str]] = None

    # ------------------------------------------------------------- building

    def add_host(
        self,
        host: str,
        services: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        """Add a host with its service → candidate-products map.

        Re-adding an existing host raises; use :meth:`set_candidates` to
        amend a host's product ranges.
        """
        if host in self._hosts:
            raise NetworkError(f"host {host!r} already exists")
        self._hosts[host] = {}
        self._adjacency[host] = set()
        if self._owned is not None:
            self._owned.add(host)
        for service, products in (services or {}).items():
            self.add_service(host, service, products)

    def add_service(self, host: str, service: str, products: Sequence[str]) -> None:
        """Declare that ``host`` runs ``service``, choosable from ``products``."""
        self._require_host(host)
        candidates = _unique(products)
        if not candidates:
            raise NetworkError(
                f"service {service!r} at host {host!r} needs at least one candidate product"
            )
        if service in self._hosts[host]:
            raise NetworkError(f"service {service!r} already declared at host {host!r}")
        self._own(host)
        self._hosts[host][service] = candidates

    def set_candidates(self, host: str, service: str, products: Sequence[str]) -> None:
        """Replace the candidate range of an existing (host, service)."""
        self._require_service(host, service)
        candidates = _unique(products)
        if not candidates:
            raise NetworkError("candidate range cannot be emptied")
        self._own(host)
        self._hosts[host][service] = candidates

    def add_link(self, a: str, b: str) -> None:
        """Add an undirected link; self-links and duplicates raise."""
        self._require_host(a)
        self._require_host(b)
        if a == b:
            raise NetworkError(f"self-link at {a!r}")
        key = _edge_key(a, b)
        if key in self._links:
            raise NetworkError(f"link {key} already exists")
        self._links.add(key)
        self._own(a)
        self._own(b)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def add_links(self, pairs: Iterable[Tuple[str, str]]) -> None:
        """Add several undirected links."""
        for a, b in pairs:
            self.add_link(a, b)

    # ------------------------------------------------------------- mutation

    def remove_link(self, a: str, b: str) -> None:
        """Remove an undirected link; removing a missing link raises.

        Part of the churn-mutation surface consumed by :mod:`repro.stream`:
        hosts keep their services and candidate ranges, only the coupling
        disappears.
        """
        self._require_host(a)
        self._require_host(b)
        key = _edge_key(a, b)
        if key not in self._links:
            raise NetworkError(f"link {key} does not exist")
        self._links.discard(key)
        self._own(a)
        self._own(b)
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)

    def remove_host(self, host: str) -> None:
        """Remove a host together with all its links and services."""
        self._require_host(host)
        for neighbor in self._adjacency[host]:
            self._own(neighbor)
            self._adjacency[neighbor].discard(host)
            self._links.discard(_edge_key(host, neighbor))
        del self._adjacency[host]
        del self._hosts[host]
        if self._owned is not None:
            self._owned.discard(host)

    # -------------------------------------------------------------- queries

    @property
    def hosts(self) -> List[str]:
        """Host names in insertion order."""
        return list(self._hosts)

    @property
    def links(self) -> List[Tuple[str, str]]:
        """Undirected links as sorted (a, b) tuples, in deterministic order."""
        return sorted(self._links)

    def __contains__(self, host: str) -> bool:
        return host in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def has_link(self, a: str, b: str) -> bool:
        """True when an undirected link couples ``a`` and ``b``."""
        return _edge_key(a, b) in self._links

    def neighbors(self, host: str) -> List[str]:
        """Hosts adjacent to ``host``, sorted."""
        self._require_host(host)
        return sorted(self._adjacency[host])

    def degree(self, host: str) -> int:
        """Number of links incident to ``host``."""
        self._require_host(host)
        return len(self._adjacency[host])

    def services_of(self, host: str) -> List[str]:
        """Services declared at ``host`` (S_hi), in declaration order."""
        self._require_host(host)
        return list(self._hosts[host])

    def has_service(self, host: str, service: str) -> bool:
        """True when ``host`` exists and runs ``service``."""
        return host in self._hosts and service in self._hosts[host]

    def candidates(self, host: str, service: str) -> Tuple[str, ...]:
        """The candidate products p(s) for ``service`` at ``host``."""
        self._require_service(host, service)
        return self._hosts[host][service]

    def service_ranges(self, host: str) -> List[Tuple[str, Tuple[str, ...]]]:
        """(service, candidate products) pairs at ``host``, declaration order.

        One validated lookup for the whole host instead of one per
        (host, service).
        """
        self._require_host(host)
        return list(self._hosts[host].items())

    def tables(
        self,
    ) -> Tuple[
        Mapping[str, Mapping[str, Tuple[str, ...]]], AbstractSet[Tuple[str, str]]
    ]:
        """Read-only views of the model's own containers, without a copy:
        host → service → candidate products (hosts in insertion order,
        services in declaration order), and the links as an unsorted set
        of ``(a, b)`` pairs with ``a < b``.

        What the network→plan compiler reads the whole network through in
        one pass.  The views follow later mutations; callers must not
        write to them.

        >>> net = Network()
        >>> net.add_host("b", {"os": ["w", "l"]})
        >>> net.add_host("a", {"os": ["w"]})
        >>> net.add_link("b", "a")
        >>> services, links = net.tables()
        >>> dict(services["b"]), sorted(links)
        ({'os': ('w', 'l')}, [('a', 'b')])
        """
        return MappingProxyType(self._hosts), self._links

    def all_services(self) -> List[str]:
        """The union S of services across hosts, in first-seen order."""
        seen: Dict[str, None] = {}
        for services in self._hosts.values():
            for service in services:
                seen.setdefault(service)
        return list(seen)

    def all_products(self, service: Optional[str] = None) -> List[str]:
        """The union P of products (optionally of one service), first-seen order."""
        seen: Dict[str, None] = {}
        for services in self._hosts.values():
            for name, products in services.items():
                if service is not None and name != service:
                    continue
                for product in products:
                    seen.setdefault(product)
        return list(seen)

    def shared_services(self, a: str, b: str) -> List[str]:
        """Services run on both hosts (S_hi ∩ S_hj) — the coupled services."""
        self._require_host(a)
        self._require_host(b)
        return [s for s in self._hosts[a] if s in self._hosts[b]]

    def hosts_with_service(self, service: str) -> List[str]:
        """All hosts that run ``service``."""
        return [h for h, services in self._hosts.items() if service in services]

    def edge_count(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    def variable_count(self) -> int:
        """Number of (host, service) decision variables in the network."""
        return sum(len(services) for services in self._hosts.values())

    def assignment_space_size(self) -> int:
        """|Π p(s)| — the size of the full assignment search space."""
        size = 1
        for services in self._hosts.values():
            for products in services.values():
                size *= len(products)
        return size

    # ---------------------------------------------------------------- export

    def to_networkx(self) -> nx.Graph:
        """Export the host graph to networkx (host attrs carry services)."""
        import networkx as nx

        graph = nx.Graph()
        for host, services in self._hosts.items():
            graph.add_node(host, services={s: list(p) for s, p in services.items()})
        graph.add_edges_from(self._links)
        return graph

    def copy(self) -> "Network":
        """An independent copy of the network (same host, service and
        candidate order), copy-on-write.

        Only the three outer containers are copied: both networks share
        every host's service dict and adjacency set until one of them
        writes to it, and a mutator copies a host's containers on its
        first write after a copy.  So a mutation of either network never
        shows in the other, and a copy costs O(hosts + links) pointer
        copies rather than one dict and one set per host.  Nothing is
        re-validated; candidate tuples are immutable and shared.
        """
        clone = Network()
        clone._hosts = dict(self._hosts)
        clone._links = set(self._links)
        clone._adjacency = dict(self._adjacency)
        # Every per-host container is shared now: neither side owns one.
        clone._owned = set()
        self._owned = set()
        return clone

    def __repr__(self) -> str:
        return (
            f"Network({len(self._hosts)} hosts, {len(self._links)} links, "
            f"{self.variable_count()} variables)"
        )

    # -------------------------------------------------------------- internal

    def _own(self, host: str) -> None:
        """Before a write to ``host``'s service dict or adjacency set: copy
        both if a copy may share them (see :meth:`copy`)."""
        owned = self._owned
        if owned is not None and host not in owned:
            self._hosts[host] = dict(self._hosts[host])
            self._adjacency[host] = set(self._adjacency[host])
            owned.add(host)

    def _require_host(self, host: str) -> None:
        if host not in self._hosts:
            raise NetworkError(f"unknown host {host!r}")

    def _require_service(self, host: str, service: str) -> None:
        self._require_host(host)
        if service not in self._hosts[host]:
            raise NetworkError(f"host {host!r} does not run service {service!r}")


def _edge_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _unique(items: Sequence[str]) -> Tuple[str, ...]:
    seen: Dict[str, None] = {}
    for item in items:
        seen.setdefault(item)
    return tuple(seen)
