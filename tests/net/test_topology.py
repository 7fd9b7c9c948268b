"""Unit tests for the communication graph."""

import pytest

from repro.net import CommGraph


def make_graph(n=4):
    return CommGraph(range(1, n + 1))


def is_clique(graph, members):
    """Every pair of ``members`` shares an edge."""
    return all(graph.has_edge(a, b) for a in members for b in members
               if a < b)


def is_transitive(graph):
    """Assumption A2: every cluster is a clique."""
    return all(is_clique(graph, cluster) for cluster in graph.clusters())


def test_starts_as_single_clique():
    graph = make_graph(5)
    assert graph.clusters() == [{1, 2, 3, 4, 5}]
    assert is_clique(graph, {1, 2, 3, 4, 5})
    assert is_transitive(graph)


def test_empty_node_set_rejected():
    with pytest.raises(ValueError):
        CommGraph([])


def test_self_communication_always_possible_while_up():
    graph = make_graph()
    assert graph.has_edge(2, 2)
    graph.crash_node(2)
    assert not graph.has_edge(2, 2)


def test_cut_link_breaks_only_that_pair():
    graph = make_graph(3)
    graph.cut_link(1, 2)
    assert not graph.has_edge(1, 2)
    assert graph.has_edge(1, 3)
    assert graph.has_edge(2, 3)


def test_figure_1_non_transitive_graph():
    """Fig. 1: A-B cut, both still talk to C — cluster is not a clique."""
    graph = CommGraph([1, 2, 3])  # 1=A, 2=B, 3=C
    graph.cut_link(1, 2)
    assert graph.clusters() == [{1, 2, 3}]
    assert not is_clique(graph, {1, 2, 3})
    assert not is_transitive(graph)
    assert graph.neighbors(3) == {1, 2}
    assert graph.neighbors(1) == {3}


def test_crash_isolates_node_into_trivial_cluster():
    graph = make_graph(3)
    graph.crash_node(2)
    clusters = graph.clusters()
    assert {2} in clusters
    assert {1, 3} in clusters
    assert graph.neighbors(2) == set()
    assert not graph.has_edge(2, 2)


def test_recover_restores_edges():
    graph = make_graph(3)
    graph.crash_node(2)
    graph.recover_node(2)
    assert graph.clusters() == [{1, 2, 3}]
    assert graph.has_edge(2, 2)


def test_cut_survives_crash_recover_cycle():
    graph = make_graph(3)
    graph.cut_link(1, 2)
    graph.crash_node(1)
    graph.recover_node(1)
    assert not graph.has_edge(1, 2)
    assert graph.has_edge(1, 3)


def test_partition_into_blocks():
    graph = make_graph(4)
    graph.partition([{1, 2}, {3, 4}])
    assert sorted(map(sorted, graph.clusters())) == [[1, 2], [3, 4]]
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(2, 3)


def test_partition_with_implicit_block():
    graph = make_graph(4)
    graph.partition([{1}])
    assert sorted(map(sorted, graph.clusters())) == [[1], [2, 3, 4]]


def test_repartition_heals_intra_block_links():
    """Example 2's shape: {A,B},{C,D} -> {B,C},{A,D}."""
    graph = make_graph(4)  # 1=A 2=B 3=C 4=D
    graph.partition([{1, 2}, {3, 4}])
    graph.partition([{2, 3}, {1, 4}])
    assert sorted(map(sorted, graph.clusters())) == [[1, 4], [2, 3]]
    assert graph.has_edge(2, 3)
    assert graph.has_edge(1, 4)
    assert not graph.has_edge(1, 2)
    assert not graph.has_edge(3, 4)


def test_partition_rejects_overlap_and_unknowns():
    graph = make_graph(4)
    with pytest.raises(ValueError):
        graph.partition([{1, 2}, {2, 3}])
    with pytest.raises(ValueError):
        graph.partition([{1, 99}])


def test_heal_all_restores_clique_but_not_crashes():
    """Healing all links is a one-block partition; crashes stay."""
    graph = make_graph(3)
    graph.partition([{1}, {2, 3}])
    graph.crash_node(3)
    graph.partition([graph.nodes])
    assert graph.has_edge(1, 2)
    assert not graph.has_edge(3, 3)
    assert {3} in graph.clusters()


def test_version_counter_tracks_changes():
    graph = make_graph(3)
    v0 = graph.version
    graph.cut_link(1, 2)
    graph.heal_link(1, 2)
    graph.crash_node(1)
    graph.recover_node(1)
    graph.partition([graph.nodes])
    assert graph.version == v0 + 5


def test_unknown_processor_raises():
    graph = make_graph(3)
    with pytest.raises(KeyError):
        graph.has_edge(1, 42)
    with pytest.raises(KeyError):
        graph.neighbors(42)


def test_self_edge_rejected():
    graph = make_graph(3)
    with pytest.raises(ValueError):
        graph.cut_link(2, 2)


def test_cluster_of():
    """Each processor's cluster is the component that holds it."""
    graph = make_graph(4)
    graph.partition([{1, 2}, {3, 4}])
    assert graph.clusters() == [{1, 2}, {3, 4}]


def test_alive_nodes():
    """A crashed processor is the one without a self-edge."""
    graph = make_graph(3)
    graph.crash_node(2)
    assert {p for p in graph.nodes if graph.has_edge(p, p)} == {1, 3}


# -- directed (one-way) cuts -------------------------------------------------


def test_oneway_cut_blocks_only_one_direction():
    graph = make_graph(3)
    graph.cut_link_oneway(1, 2)
    assert not graph.can_send(1, 2)
    assert graph.can_send(2, 1)
    assert graph.can_send(1, 3) and graph.can_send(3, 1)


def test_oneway_cut_is_not_an_edge():
    """has_edge is the symmetric relation — an asymmetric link is no
    clique edge, so A2 reasoning never counts it."""
    graph = make_graph(3)
    graph.cut_link_oneway(1, 2)
    assert not graph.has_edge(1, 2)
    assert not graph.has_edge(2, 1)


def test_oneway_cut_makes_graph_non_transitive():
    graph = make_graph(3)
    graph.cut_link_oneway(1, 2)
    # 1 and 2 still connect through 3, so one cluster — but not a clique.
    assert graph.clusters() == [{1, 2, 3}]
    assert not is_clique(graph, {1, 2, 3})
    assert not is_transitive(graph)


def test_oneway_cuts_in_both_directions_act_like_a_full_cut():
    graph = make_graph(2)
    graph.cut_link_oneway(1, 2)
    graph.cut_link_oneway(2, 1)
    assert not graph.can_send(1, 2)
    assert not graph.can_send(2, 1)
    assert graph.clusters() == [{1}, {2}]
    graph.heal_link_oneway(1, 2)
    assert graph.can_send(1, 2)
    assert not graph.can_send(2, 1)
    assert not graph.has_edge(1, 2)


def test_oneway_self_edge_rejected():
    graph = make_graph(2)
    with pytest.raises(ValueError):
        graph.cut_link_oneway(1, 1)


def test_partition_discards_intra_block_oneway_cuts():
    graph = make_graph(4)
    graph.cut_link_oneway(1, 2)   # intra-block: healed by the partition
    graph.cut_link_oneway(3, 1)   # inter-block: subsumed by the full cut
    graph.partition([{1, 2}, {3, 4}])
    assert graph.can_send(1, 2) and graph.can_send(2, 1)
    assert not graph.can_send(3, 1)
    graph.partition([graph.nodes])
    assert graph.can_send(3, 1)
    assert is_transitive(graph)


def test_heal_all_clears_oneway_cuts():
    graph = make_graph(3)
    graph.cut_link_oneway(2, 3)
    graph.partition([graph.nodes])
    assert graph.can_send(2, 3)


def test_crash_dominates_oneway_state():
    graph = make_graph(3)
    graph.cut_link_oneway(1, 2)
    graph.crash_node(2)
    assert not graph.can_send(2, 1)
    assert not graph.can_send(1, 2)
    graph.recover_node(2)
    assert graph.can_send(2, 1)      # recovery restores the live direction
    assert not graph.can_send(1, 2)  # but never heals the one-way cut
