"""Product assignments (paper Definition 3).

A :class:`ProductAssignment` is the map α′ : H × S → P assigning one product
to each (host, service) pair; α(h, S_h) — the tuple of products at a host —
is :meth:`ProductAssignment.products_at`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.network.model import Network

__all__ = ["ProductAssignment", "AssignmentError"]


class AssignmentError(ValueError):
    """Raised for assignments inconsistent with their network."""


class ProductAssignment:
    """A (possibly partial) assignment of products to (host, service) pairs.

    The assignment remembers the network it belongs to and refuses products
    outside the declared candidate range — an α′ value must satisfy
    α′(h, s) ∈ p(s) by Definition 3.

    >>> net = Network(); net.add_host("h0", {"web": ["wb1", "wb2"]})
    >>> a = ProductAssignment(net)
    >>> a.assign("h0", "web", "wb2")
    >>> a.get("h0", "web")
    'wb2'
    """

    def __init__(
        self,
        network: Network,
        values: Optional[Mapping[Tuple[str, str], str]] = None,
    ) -> None:
        self._network = network
        self._values: Dict[Tuple[str, str], str] = {}
        for (host, service), product in (values or {}).items():
            self.assign(host, service, product)

    @property
    def network(self) -> Network:
        """The network this assignment is defined over."""
        return self._network

    @classmethod
    def from_decoded(
        cls, network: Network, values: Dict[Tuple[str, str], str]
    ) -> "ProductAssignment":
        """Wrap solver-decoded values without re-validating each product.

        Decoders map label indices into the network's own candidate
        ranges, so every value is range-valid by construction; skipping
        the per-pair check matters on the streaming hot path, where an
        assignment is rebuilt after every churn event.  The assignment
        adopts ``values`` without a copy: a caller that keeps writing to
        its dict passes a copy.
        """
        assignment = cls(network)
        assignment._values = values
        return assignment

    # ------------------------------------------------------------- mutation

    def assign(self, host: str, service: str, product: str) -> None:
        """Set α′(host, service) = product; validates the candidate range."""
        candidates = self._network.candidates(host, service)
        if product not in candidates:
            raise AssignmentError(
                f"product {product!r} is not a candidate for service {service!r} "
                f"at host {host!r}; allowed: {list(candidates)}"
            )
        self._values[(host, service)] = product

    def unassign(self, host: str, service: str) -> None:
        """Remove an assignment (no-op validation: pair must exist)."""
        self._values.pop((host, service), None)

    # -------------------------------------------------------------- queries

    def get(self, host: str, service: str) -> Optional[str]:
        """α′(host, service), or None when unassigned."""
        return self._values.get((host, service))

    def __getitem__(self, key: Tuple[str, str]) -> str:
        return self._values[key]

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._values)

    def items(self) -> Iterator[Tuple[Tuple[str, str], str]]:
        """Iterator of ((host, service), product) pairs, in assignment order."""
        return iter(self._values.items())

    def products_at(self, host: str) -> Dict[str, str]:
        """α(h, S_h): the service → product map at one host."""
        return {
            service: self._values[(host, service)]
            for service in self._network.services_of(host)
            if (host, service) in self._values
        }

    def is_complete(self) -> bool:
        """True when every (host, service) in the network is assigned."""
        return all(
            (host, service) in self._values
            for host in self._network.hosts
            for service in self._network.services_of(host)
        )

    def missing(self) -> List[Tuple[str, str]]:
        """All unassigned (host, service) pairs."""
        return [
            (host, service)
            for host in self._network.hosts
            for service in self._network.services_of(host)
            if (host, service) not in self._values
        ]

    def diff(self, other: "ProductAssignment") -> List[Tuple[str, str]]:
        """Pairs on which two assignments disagree (union of their keys)."""
        keys = set(self._values) | set(other._values)
        return sorted(
            key for key in keys if self._values.get(key) != other._values.get(key)
        )

    def copy(self) -> "ProductAssignment":
        """An independent copy (the network object is shared)."""
        return ProductAssignment(self._network, dict(self._values))

    def as_dict(self) -> Dict[Tuple[str, str], str]:
        """A plain dict snapshot of the assignment."""
        return dict(self._values)

    # ---------------------------------------------------------- presentation

    def format(self) -> str:
        """Readable per-host listing (the textual form of the paper's Fig. 4)."""
        lines = []
        for host in self._network.hosts:
            picks = self.products_at(host)
            rendered = ", ".join(f"{s}={p}" for s, p in picks.items()) or "(unassigned)"
            lines.append(f"{host}: {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ProductAssignment({len(self._values)}/{self._network.variable_count()} assigned)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductAssignment):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:  # pragma: no cover - explicitness only
        raise TypeError("ProductAssignment is mutable and unhashable")
