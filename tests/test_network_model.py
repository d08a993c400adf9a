"""Unit tests for the network model (repro.network.model)."""

import pytest

from repro.network.model import Network, NetworkError


@pytest.fixture
def net():
    network = Network()
    network.add_host("a", {"os": ["w", "l"], "db": ["m", "p"]})
    network.add_host("b", {"os": ["w", "l"]})
    network.add_host("c", {"db": ["m", "p"]})
    network.add_link("a", "b")
    network.add_link("a", "c")
    return network


def _state(network):
    """Everything a reader of ``network`` can see."""
    return (
        network.hosts,
        network.links,
        {host: network.service_ranges(host) for host in network.hosts},
        {host: network.neighbors(host) for host in network.hosts},
    )


#: one write of each mutator on the ``net`` fixture's shape (hosts a, b, c;
#: links a-b, a-c); each changes what ``_state`` sees.
_MUTATORS = {
    "add_host": lambda n: n.add_host("d", {"os": ["w"]}),
    "add_service": lambda n: n.add_service("b", "db", ["m"]),
    "set_candidates": lambda n: n.set_candidates("a", "os", ["l"]),
    "add_link": lambda n: n.add_link("b", "c"),
    "remove_link": lambda n: n.remove_link("a", "b"),
    "remove_host": lambda n: n.remove_host("a"),
    "rejoin": lambda n: (n.remove_host("b"), n.add_host("b", {"db": ["p"]}),
                         n.add_link("b", "c")),
}


class TestBuilding:
    def test_duplicate_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_host("a")

    def test_duplicate_service_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_service("a", "os", ["w"])

    def test_empty_candidates_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_service("b", "db", [])

    def test_candidates_deduplicated(self):
        network = Network()
        network.add_host("x", {"s": ["a", "b", "a"]})
        assert network.candidates("x", "s") == ("a", "b")

    def test_self_link_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_link("a", "a")

    def test_duplicate_link_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_link("b", "a")

    def test_link_to_unknown_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.add_link("a", "zz")

    def test_set_candidates_replaces(self, net):
        net.set_candidates("a", "os", ["w"])
        assert net.candidates("a", "os") == ("w",)

    def test_set_candidates_cannot_empty(self, net):
        with pytest.raises(NetworkError):
            net.set_candidates("a", "os", [])


class TestMutation:
    def test_remove_link(self, net):
        net.remove_link("b", "a")
        assert not net.has_link("a", "b")
        assert "b" not in net.neighbors("a")
        assert net.edge_count() == 1

    def test_remove_missing_link_rejected(self, net):
        with pytest.raises(NetworkError):
            net.remove_link("b", "c")

    def test_remove_host_drops_links(self, net):
        net.remove_host("a")
        assert "a" not in net
        assert net.edge_count() == 0
        assert net.neighbors("b") == []
        assert net.neighbors("c") == []

    def test_remove_unknown_host_rejected(self, net):
        with pytest.raises(NetworkError):
            net.remove_host("zz")

    def test_readd_after_remove(self, net):
        net.remove_host("b")
        net.add_host("b", {"os": ["w", "l"]})
        net.add_link("a", "b")
        assert net.has_link("a", "b")


class TestQueries:
    def test_basic_counts(self, net):
        assert len(net) == 3
        assert net.edge_count() == 2
        assert net.variable_count() == 4

    def test_links_sorted(self, net):
        assert net.links == [("a", "b"), ("a", "c")]

    def test_neighbors(self, net):
        assert net.neighbors("a") == ["b", "c"]
        assert net.degree("a") == 2
        assert net.degree("b") == 1

    def test_services_of(self, net):
        assert net.services_of("a") == ["os", "db"]
        assert net.services_of("c") == ["db"]

    def test_has_service(self, net):
        assert net.has_service("a", "db")
        assert not net.has_service("b", "db")
        assert not net.has_service("nope", "db")

    def test_shared_services(self, net):
        assert net.shared_services("a", "b") == ["os"]
        assert net.shared_services("a", "c") == ["db"]
        assert net.shared_services("b", "c") == []

    def test_all_services_first_seen_order(self, net):
        assert net.all_services() == ["os", "db"]

    def test_all_products(self, net):
        assert set(net.all_products()) == {"w", "l", "m", "p"}
        assert set(net.all_products("os")) == {"w", "l"}

    def test_hosts_with_service(self, net):
        assert net.hosts_with_service("db") == ["a", "c"]

    def test_assignment_space_size(self, net):
        assert net.assignment_space_size() == 2 * 2 * 2 * 2

    def test_unknown_host_raises(self, net):
        with pytest.raises(NetworkError):
            net.neighbors("zz")
        with pytest.raises(NetworkError):
            net.candidates("zz", "os")
        with pytest.raises(NetworkError):
            net.candidates("a", "nope")


class TestExport:
    def test_to_networkx(self, net):
        graph = net.to_networkx()
        assert set(graph.nodes) == {"a", "b", "c"}
        assert graph.number_of_edges() == 2
        assert graph.nodes["a"]["services"]["os"] == ["w", "l"]

    def test_copy_is_independent(self, net):
        clone = net.copy()
        clone.add_host("d", {"os": ["w"]})
        clone.add_link("d", "a")
        assert "d" not in net
        assert net.edge_count() == 2
        assert clone.edge_count() == 3
        # Adjacency, services and candidate ranges are copies too.
        clone.remove_link("a", "b")
        clone.remove_host("c")
        clone.add_service("b", "db", ["m"])
        clone.set_candidates("a", "os", ["l"])
        assert net.neighbors("a") == ["b", "c"]
        assert net.neighbors("b") == ["a"]
        assert net.has_link("a", "b") and "c" in net
        assert net.services_of("b") == ["os"]
        assert net.candidates("a", "os") == ("w", "l")
        assert clone.neighbors("a") == ["d"]

    @pytest.mark.parametrize("mutate", sorted(_MUTATORS))
    def test_copy_on_write_isolates_every_mutator(self, net, mutate):
        """A copy shares the per-host containers until the first write:
        each mutator, on any network of a chain of copies, leaves every
        other network of the chain as it was."""
        for writer in range(3):
            source = Network()
            for host in net.hosts:
                source.add_host(host, dict(net.service_ranges(host)))
            source.add_links(net.links)
            first = source.copy()
            second = first.copy()
            chain = [source, first, second]
            before = [_state(network) for network in chain]
            _MUTATORS[mutate](chain[writer])
            assert _state(chain[writer]) != before[writer]
            for k, network in enumerate(chain):
                if k != writer:
                    assert _state(network) == before[k], (mutate, writer, k)
            # The writer now owns the containers it copied; a new copy
            # shares them again, so neither side's next write shows in the
            # other.
            third = chain[writer].copy()
            frozen = _state(third)
            chain[writer].remove_host("c")
            assert _state(third) == frozen
            frozen = _state(chain[writer])
            third.set_candidates("c", "db", ["p"])
            if third.has_link("a", "c"):
                third.remove_link("a", "c")
            assert _state(chain[writer]) == frozen

    def test_copy_keeps_order(self, net):
        clone = net.copy()
        assert clone.hosts == net.hosts
        assert clone.links == net.links
        for host in net.hosts:
            assert clone.service_ranges(host) == net.service_ranges(host)
            assert clone.neighbors(host) == net.neighbors(host)

    def test_repr(self, net):
        assert "3 hosts" in repr(net)
