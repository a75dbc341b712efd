"""TopologyFeed: mutation log, batch classification, fingerprints."""

import pytest

from repro.dynamic import TopologyFeed, graph_fingerprint
from repro.exceptions import GraphError, InvalidWeightError
from repro.graphs import random_connected


@pytest.fixture()
def graph():
    return random_connected(30, 0.2, seed=11)


@pytest.fixture()
def feed(graph):
    return TopologyFeed(graph)


def first_edge(graph):
    return next(iter(graph.edges()))


class TestFingerprint:

    def test_equal_graphs_equal_fingerprints(self, graph):
        assert graph_fingerprint(graph) == \
            graph_fingerprint(graph.copy())

    def test_weight_flap_restores_fingerprint(self, feed, graph):
        base = feed.fingerprint()
        u, v, w = first_edge(graph)
        feed.update_edge_weight(u, v, w + 9)
        assert feed.fingerprint() != base
        feed.update_edge_weight(u, v, w)
        assert feed.fingerprint() == base

    def test_remove_readd_changes_fingerprint(self, feed, graph):
        """Same edge set, different adjacency insertion order: the
        re-added edge lands at the end of its endpoints' adjacency,
        which changes ports — the fingerprint must see it."""
        base = feed.fingerprint()
        u, v, w = first_edge(graph)
        # pick an endpoint with >1 neighbor so order can actually shift
        assert graph.degree(u) > 1 or graph.degree(v) > 1
        feed.fail_edge(u, v)
        feed.restore_edge(u, v, w)
        assert sorted(graph.edges()) == sorted(feed.graph.edges())
        assert feed.fingerprint() != base

    def test_baseline_fingerprint_tracks_mark_rebuilt(self, feed):
        base = feed.baseline_fingerprint
        u, v, w = first_edge(feed.graph)
        feed.update_edge_weight(u, v, w + 1)
        assert feed.baseline_fingerprint == base
        feed.mark_rebuilt()
        assert feed.baseline_fingerprint == feed.fingerprint() != base


class TestMutations:

    def test_update_edge_weight_applies_and_logs(self, feed, graph):
        u, v, w = first_edge(graph)
        feed.update_edge_weight(u, v, w + 5)
        assert graph.weight(u, v) == w + 5
        batch = feed.pending()
        assert len(batch) == 1
        change = batch.changes[0]
        assert (change.kind, change.old, change.new) == \
            ("weight", w, w + 5)

    def test_update_missing_edge_raises(self, feed):
        missing = None
        for u in range(feed.graph.num_vertices):
            for v in range(feed.graph.num_vertices):
                if u != v and not feed.graph.has_edge(u, v):
                    missing = (u, v)
                    break
            if missing:
                break
        with pytest.raises(GraphError):
            feed.update_edge_weight(*missing, 5)
        assert len(feed.pending()) == 0

    def test_bad_weight_not_logged(self, feed, graph):
        u, v, _w = first_edge(graph)
        with pytest.raises(InvalidWeightError):
            feed.update_edge_weight(u, v, 0)
        assert len(feed.pending()) == 0

    def test_fail_edge(self, feed, graph):
        u, v, _w = first_edge(graph)
        feed.fail_edge(u, v)
        assert not graph.has_edge(u, v)
        assert feed.pending().topology_changed

    def test_restore_existing_edge_refused(self, feed, graph):
        u, v, w = first_edge(graph)
        with pytest.raises(GraphError):
            feed.restore_edge(u, v, w)

    def test_fail_node_removes_all_incident_edges(self, feed, graph):
        victim = max(graph.vertices(), key=graph.degree)
        removed = feed.fail_node(victim)
        assert len(removed) >= 1
        assert graph.degree(victim) == 0
        for x, y, wt in removed:
            feed.restore_edge(x, y, wt)
        assert sorted((graph.weight(x, y) for x, y, _ in removed)) == \
            sorted(wt for _, _, wt in removed)

    def test_fail_node_round_trips_positionally(self, feed, graph):
        """The docstring promises ``(u, v, weight)`` — neighbor first,
        failed vertex second — so a caller can consume the tuples
        positionally when staging a restore."""
        victim = max(graph.vertices(), key=graph.degree)
        before = {(u, wt)
                  for u, wt in graph.neighbor_weights(victim)}
        removed = feed.fail_node(victim)
        assert {(u, wt) for u, v, wt in removed} == before
        for u, v, wt in removed:
            assert v == victim
            assert u != victim
            feed.restore_edge(u, v, wt)
        for u, v, wt in removed:
            assert graph.weight(u, v) == wt


class TestClassification:

    def test_clean_feed_is_net_zero(self, feed):
        batch = feed.pending()
        assert batch.net_zero and not batch.topology_changed
        assert len(batch) == 0

    def test_flap_is_net_zero(self, feed, graph):
        u, v, w = first_edge(graph)
        feed.update_edge_weight(u, v, w + 3)
        feed.update_edge_weight(u, v, w)
        batch = feed.pending()
        assert batch.net_zero
        assert len(batch.changes) == 2 and len(batch.net) == 0
        assert "net-zero" in batch.summary()

    def test_weight_only_batch(self, feed, graph):
        edges = list(graph.edges())[:3]
        for u, v, w in edges:
            feed.update_edge_weight(u, v, w + 2)
        batch = feed.pending()
        assert not batch.net_zero and not batch.topology_changed
        assert "weights" in batch.summary()
        assert len(batch.net) == 3
        for u, v, base, cur in batch.net:
            assert cur == base + 2

    def test_cancelled_change_drops_out_of_net(self, feed, graph):
        edges = list(graph.edges())[:2]
        (u1, v1, w1), (u2, v2, w2) = edges
        feed.update_edge_weight(u1, v1, w1 + 2)
        feed.update_edge_weight(u2, v2, w2 + 1)
        feed.update_edge_weight(u2, v2, w2)  # back: nets out
        batch = feed.pending()
        assert len(batch.changes) == 3
        assert batch.net == ((u1, v1, w1, w1 + 2),)

    def test_topology_dominates(self, feed, graph):
        u, v, w = first_edge(graph)
        feed.fail_edge(u, v)
        feed.restore_edge(u, v, w)
        batch = feed.pending()
        # same net state, but adjacency order changed: must NOT be
        # classified net-zero
        assert batch.topology_changed and not batch.net_zero
        assert len(batch.net) == 0

    def test_fail_restore_same_weight_stays_topology(self, feed, graph):
        """Regression: ``fail_edge`` then a *same-weight*
        ``restore_edge`` nets to zero weight-wise — ``net`` is empty —
        yet the batch must still classify as a topology change.  The
        re-added edge appends to the end of both endpoints' adjacency
        lists, so port numbering (and every compiled forwarding table
        derived from it) can shift even though the weighted edge set is
        identical; the fingerprint is deliberately sensitive to
        adjacency order so such batches force a full rebuild instead of
        being waved through as net-zero."""
        u, v, w = first_edge(graph)
        feed.fail_edge(u, v)
        feed.restore_edge(u, v, w)
        batch = feed.pending()
        assert batch.topology_changed
        assert not batch.net_zero
        assert len(batch.net) == 0
        assert sorted(graph.edges()) == sorted(feed.graph.edges())
        assert feed.fingerprint() != feed.baseline_fingerprint

    def test_mark_rebuilt_clears(self, feed, graph):
        u, v, w = first_edge(graph)
        feed.update_edge_weight(u, v, w + 1)
        feed.mark_rebuilt()
        batch = feed.pending()
        assert batch.net_zero and len(batch) == 0
