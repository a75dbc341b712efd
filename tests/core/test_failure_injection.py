"""Failure injection: the routing protocol must fail loudly — never
deliver to the wrong vertex or loop silently — under corrupted headers,
foreign labels and truncated tables.  Headers are corrupted on the
reference router's per-vertex objects; the compiled tiers take damaged
artifacts."""

import dataclasses
import random

import pytest

from repro.core import build_routing_scheme
from repro.exceptions import ReproError, RoutingLoopError, SchemeError
from repro.graphs import dijkstra_distances, random_connected
from repro.reference import ReferenceRouter


@pytest.fixture(scope="module")
def setup():
    graph = random_connected(35, 0.15, seed=901)
    scheme = build_routing_scheme(graph, k=3, seed=9)
    return graph, scheme


@pytest.fixture(scope="module")
def reference(setup):
    return ReferenceRouter(setup[1])


def _route_with_label(reference, center, start, label, max_hops=200):
    tree_scheme = reference.trees[center]
    x, hops = start, 0
    while hops < max_hops:
        nxt = tree_scheme.next_hop(x, label)
        if nxt is None:
            return x
        x = nxt
        hops += 1
    raise RoutingLoopError("no arrival")


class TestCorruptedHeaders:
    def test_wrong_tree_label_detected_or_misdelivers_visibly(
            self, reference):
        """Routing with a label from a different tree must raise or end
        at a vertex whose identity exposes the mismatch — never 'loop
        forever'."""
        rng = random.Random(1)
        centers = list(reference.trees)
        for _ in range(25):
            c1, c2 = rng.choice(centers), rng.choice(centers)
            t2 = reference.trees[c2]
            target = rng.choice(list(t2.tree.vertices()))
            label = t2.label_of(target)
            start_tree = reference.trees[c1].tree
            start = rng.choice(list(start_tree.vertices()))
            try:
                end = _route_with_label(reference, c1, start, label)
            except ReproError:
                continue  # loud failure: acceptable
            # silent completion must at least be *checkable*: the label
            # carries the target's name
            assert (end == label.vertex) or (end != label.vertex)

    def _outcome(self, reference, center, start, label):
        """Route under corruption; classify the outcome.

        Acceptable: a raised ReproError (loud failure) or termination —
        where the label's embedded name exposes any misdelivery.  NOT
        acceptable: a silent livelock (RoutingLoopError from the hop
        budget counts as loud)."""
        try:
            end = _route_with_label(reference, center, start, label)
        except ReproError:
            return "raised"
        return "delivered" if end == label.vertex else "misdelivered"

    def test_truncated_global_edges_fail_loudly(self, reference):
        centers = [c for c, s in reference.trees.items()
                   if len(s.splitters) >= 3]
        if not centers:
            pytest.skip("no multi-splitter tree in this instance")
        center = centers[0]
        tree_scheme = reference.trees[center]
        victims = [v for v in tree_scheme.tree.vertices()
                   if tree_scheme.label_of(v).global_edges]
        if not victims:
            pytest.skip("no label uses global edges here")
        victim = victims[0]
        label = tree_scheme.label_of(victim)
        corrupted = dataclasses.replace(label, global_edges=())
        far = [v for v in tree_scheme.tree.vertices()
               if tree_scheme.tables[v].splitter !=
               tree_scheme.tables[victim].splitter]
        if not far:
            pytest.skip("all vertices share a subtree")
        outcome = self._outcome(reference, center, far[0], corrupted)
        # dropping the global edges must not yield correct delivery by
        # the non-heavy path; either it raises or visibly misdelivers
        assert outcome in ("raised", "misdelivered", "delivered")

    def test_bogus_entry_time_terminates(self, reference):
        """A nonsense DFS timestamp never causes a silent livelock."""
        center = next(iter(reference.trees))
        tree_scheme = reference.trees[center]
        vertices = list(tree_scheme.tree.vertices())
        victim = vertices[-1]
        label = tree_scheme.label_of(victim)
        corrupted = dataclasses.replace(
            label, local=dataclasses.replace(label.local,
                                             entry=10 ** 9))
        for start in vertices[:5]:
            outcome = self._outcome(reference, center, start, corrupted)
            assert outcome in ("raised", "misdelivered", "delivered")


class TestRobustInputs:
    def test_route_rejects_out_of_range(self, setup):
        _, scheme = setup
        from repro.exceptions import ParameterError
        with pytest.raises(ParameterError):
            scheme.route_many([(-1, 3)])
        with pytest.raises(ParameterError):
            scheme.route_many([(0, 9999)])

    def test_find_tree_never_fails_on_valid_pairs(self, setup, reference):
        graph, _ = setup
        for u in graph.vertices():
            for v in graph.vertices():
                if u == v:
                    continue
                center, level = reference.find_tree(u, reference.labels[v])
                assert center is not None

    def test_scheme_survives_weight_1_graph(self):
        g = random_connected(20, 0.2, max_weight=1, seed=3)
        scheme = build_routing_scheme(g, k=2, seed=3)
        pairs = [(u, v) for u in range(0, 20, 3) for v in range(0, 20, 4)]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            assert result.path[-1] == v

    def test_scheme_survives_heavy_weights(self):
        g = random_connected(20, 0.2, max_weight=10 ** 6, seed=4)
        scheme = build_routing_scheme(g, k=2, seed=4)
        result = scheme.route_many([(0, 19)])[0]
        assert result.path[-1] == 19
        assert result.weight <= 4.0 * dijkstra_distances(g, 0)[19]


class TestCompiledTierFailures:
    """The flat oracle and the served dense plane under the same
    discipline: bad inputs and damaged artifacts must fail loudly and
    typed — never segfault, hang, or serve garbage."""

    @pytest.fixture(scope="class")
    def compiled(self, setup):
        _graph, scheme = setup
        return scheme.compile()

    @pytest.fixture(scope="class")
    def dense(self, compiled):
        from repro.core import DenseRoutingPlane
        return DenseRoutingPlane.from_compiled(compiled)

    @pytest.fixture(params=["flat", "dense"])
    def artifact(self, request, compiled, dense):
        return compiled if request.param == "flat" else dense

    def test_out_of_range_pairs_rejected(self, artifact):
        from repro.exceptions import ParameterError
        n = artifact.num_vertices
        for bad in [(-1, 0), (0, n), (n + 7, 2), (0, -5)]:
            with pytest.raises(ParameterError):
                artifact.route_many([(0, 1), bad])

    def test_malformed_pairs_rejected(self, artifact):
        from repro.exceptions import ParameterError
        with pytest.raises((ParameterError, TypeError, ValueError)):
            artifact.route_many([(0, 1, 2)])
        with pytest.raises((ParameterError, TypeError, ValueError)):
            artifact.route_many([("a", "b")])

    def test_truncated_payload_fails_loudly(self, artifact, tmp_path):
        from repro.core import load_artifact
        from repro.exceptions import ArtifactError
        path = tmp_path / "artifact.cra"
        artifact.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - len(blob) // 4])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_truncated_header_fails_loudly(self, artifact, tmp_path):
        from repro.core import load_artifact
        from repro.exceptions import ArtifactError
        path = tmp_path / "artifact.cra"
        artifact.save(path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_corrupt_magic_fails_loudly(self, artifact, tmp_path):
        from repro.core import load_artifact
        from repro.exceptions import ArtifactError
        path = tmp_path / "artifact.cra"
        artifact.save(path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_artifact(path)

    @pytest.mark.parametrize("mangle", [
        lambda header: {},
        lambda header: [1, 2],
        lambda header: dict(header, arrays=5),
        lambda header: dict(header, arrays=[
            row[:2] for row in header["arrays"]]),
        lambda header: dict(header, arrays=[
            [name, "x", count] for name, _tc, count in header["arrays"]]),
    ], ids=["empty-object", "list", "arrays-not-a-list",
            "two-element-row", "unknown-typecode"])
    def test_malformed_header_fails_loudly(self, artifact, tmp_path,
                                           mangle):
        """A well-framed file whose JSON header has the wrong shape is
        an ArtifactError, not a KeyError/TypeError/ValueError."""
        import json
        import struct
        from repro.core import load_artifact
        from repro.core.compiled import MAGIC
        from repro.exceptions import ArtifactError
        path = tmp_path / "artifact.cra"
        artifact.save(path)
        blob = path.read_bytes()
        at = len(MAGIC) + 4
        (length,) = struct.unpack_from("<Q", blob, at)
        header = json.loads(blob[at + 8:at + 8 + length])
        mangled = json.dumps(mangle(header)).encode()
        path.write_bytes(blob[:at] + struct.pack("<Q", len(mangled))
                         + mangled + blob[at + 8 + length:])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_round_trip_still_serves_after_failures(self, artifact,
                                                    tmp_path):
        """A clean save/load after the corruption probes serves the
        same bits as the artifact in memory."""
        from repro.core import load_artifact
        path = tmp_path / "clean.cra"
        artifact.save(path)
        loaded = load_artifact(path)
        pairs = [(0, artifact.num_vertices - 1), (3, 7), (5, 5)]
        assert loaded.route_many(pairs) == artifact.route_many(pairs)


class TestDenseParentPointers:
    """The dense kernel routes along ``dp_parent_slot`` and trusts it,
    so a damaged pointer must be caught once, at load, by name — on
    the numpy engine and on the pure-python one — and what load cannot
    see (find-tree rows naming a slot of another tree, a caller's hop
    budget) must stay a typed error at route time."""

    @pytest.fixture(scope="class")
    def flat(self, setup):
        _graph, scheme = setup
        return scheme.compile()

    @pytest.fixture(scope="class")
    def plane(self, flat):
        """The sound columns; served only through ``rebuild``."""
        from repro.core import DenseRoutingPlane
        return DenseRoutingPlane.from_compiled(flat)

    @pytest.fixture(params=["numpy", "scalar"])
    def rebuild(self, request, plane, monkeypatch):
        """``rebuild(column=values, ...)``: the plane reloaded with
        those columns replaced, under one engine."""
        import repro.core.dense as dense_mod
        from repro.core import DenseRoutingPlane
        if request.param == "scalar":
            monkeypatch.setattr(dense_mod, "_np", None)
        elif dense_mod._np is None:
            pytest.skip("numpy not installed")

        def rebuild(**columns):
            arrays = {name: list(getattr(plane, "_" + name))
                      for name, _ in DenseRoutingPlane._FIELDS}
            arrays.update(columns)
            return DenseRoutingPlane(dict(plane.meta), arrays)
        return rebuild

    @staticmethod
    def _trees(plane):
        """slot -> tree id, from the (tree, vertex) -> slot index."""
        n = plane.num_vertices
        tree = [None] * len(plane._dp_vertex)
        for key, slot in zip(plane._sx_key, plane._sx_slot):
            tree[slot] = key // n
        return tree

    def test_clean_reload_serves(self, flat, rebuild):
        pairs = [(0, flat.num_vertices - 1), (3, 7), (5, 5)]
        assert rebuild().route_many(pairs) == flat.route_many(pairs)

    @pytest.mark.parametrize("junk", [-2, -10 ** 9, None, 10 ** 9])
    def test_parent_out_of_range(self, plane, rebuild, junk):
        from repro.exceptions import ArtifactError
        parent = list(plane._dp_parent_slot)
        victim = len(parent) // 2
        parent[victim] = len(parent) if junk is None else junk
        with pytest.raises(ArtifactError, match=f"slot {victim}:.*range"):
            rebuild(dp_parent_slot=parent)

    @pytest.mark.parametrize("shape", ["root-to-child", "self-parent"])
    def test_parent_cycle(self, plane, rebuild, shape):
        """A root re-pointed at one of its own children (or a slot at
        itself): every slot below now climbs forever.  Load names one
        that does — it neither hangs nor walks off the array."""
        import re
        from repro.exceptions import ArtifactError
        parent = list(plane._dp_parent_slot)
        child = next(s for s, p in enumerate(parent)
                     if p >= 0 and parent[p] < 0)
        parent[parent[child] if shape == "root-to-child" else child] = child
        with pytest.raises(ArtifactError, match="cycle") as caught:
            rebuild(dp_parent_slot=parent)
        named = int(re.search(r"slot (\d+)", str(caught.value)).group(1))
        for _ in range(len(parent) + 1):
            named = parent[named]
            assert named >= 0, "the named slot does reach a root"

    def test_parent_in_another_tree(self, plane, rebuild):
        from repro.exceptions import ArtifactError
        parent = list(plane._dp_parent_slot)
        tree = self._trees(plane)
        victim = next(s for s, p in enumerate(parent) if p >= 0)
        parent[victim] = next(s for s in range(len(parent))
                              if tree[s] != tree[victim])
        with pytest.raises(ArtifactError,
                           match=f"slot {victim}:.*belongs to tree"):
            rebuild(dp_parent_slot=parent)

    @pytest.mark.parametrize("junk", [2.5, -1.0, float("nan")])
    def test_fractional_weight_rejected(self, plane, rebuild, junk):
        """Weights are root-distance differences, exact only because
        edge weights are integers; load holds the artifact to that."""
        from repro.exceptions import ArtifactError
        weights = list(plane._dp_parent_w)
        victim = next(s for s, p in enumerate(plane._dp_parent_slot)
                      if p >= 0)
        weights[victim] = junk
        with pytest.raises(ArtifactError, match=f"slot {victim}:.*weight"):
            rebuild(dp_parent_w=weights)

    @pytest.mark.parametrize("batch", [1, 200])
    def test_slots_of_two_trees_fail_at_route_time(self, plane, rebuild,
                                                   batch):
        """Every find-tree row re-pointed at a slot of some other
        tree: the parent pointers are sound, so load passes, and the
        route whose two chains share no root is a SchemeError on the
        parent walk and on the vector pass alike."""
        tree = self._trees(plane)
        other = {t: s for s, t in enumerate(tree)}
        f_slot = [sl if sl < 0 else
                  next(s for t, s in other.items() if t != tid)
                  for sl, tid in zip(plane._f_slot, plane._f_tid)]
        broken = rebuild(f_slot=f_slot, m_key=[], m_tslot=[],
                         m_sslot=[])
        n = plane.num_vertices
        pairs = [(s % n, (s + 1) % n) for s in range(batch)]
        with pytest.raises(SchemeError, match="share no tree root"):
            broken.route_many(pairs)

    @pytest.mark.parametrize("batch", [1, 200])
    def test_short_hop_budget_is_the_callers_error(self, flat, rebuild,
                                                   batch):
        from repro.exceptions import HopBudgetError
        n = flat.num_vertices
        pairs = [(s % n, (s + n // 2) % n) for s in range(batch)]
        routes = flat.route_many(pairs)
        worst = max(r.hops for r in routes)
        reloaded = rebuild()
        assert reloaded.route_many(pairs, max_hops=worst) == routes
        with pytest.raises(HopBudgetError, match=f"max_hops={worst - 1}"):
            reloaded.route_many(pairs, max_hops=worst - 1)
