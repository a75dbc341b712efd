"""Differential pin: the dense plane IS the flat plane, bit for bit.

Every case builds one scheme, compiles both artifact tiers from it,
and drives them through the same batches — all-pairs, every batch size
that straddles a threshold of the dense kernel or is a window size the
broker serves, duplicate-heavy and self-pair mixes — asserting
listwise ``CompiledRoute`` equality on every field (path, weight,
tree_center, found_level).  The dense tier routes along parent
pointers; the flat tier replays the Section-6 protocol hop by hop, so
this grid is what holds the one to the other.  The whole grid runs
twice: once as served and once with ``_VECTOR_MIN_PAIRS`` above any
batch, so the parent walk is held to the same contract as the
vectorized engine.

Also here: the hop-budget regression tests (a caller ``max_hops``
running out must raise :class:`HopBudgetError` on *both* planes, while
exact-length budgets succeed), and the dense artifact round trips
(save/load, ``load_artifact`` dispatch, export/attach).
"""

import random
import sys

import numpy as np
import pytest

import repro.core.dense as dense_mod
from repro.core.compiled import (
    CompiledScheme,
    attach_artifact,
    load_artifact,
)
from repro.core.dense import DenseRoutingPlane
from repro.exceptions import (
    ArtifactError,
    HopBudgetError,
    ParameterError,
    SchemeError,
)
from repro.graphs.generators import (
    barbell,
    caterpillar_tree,
    grid,
    path,
    random_connected,
    random_geometric,
    random_tree,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)
from repro.pipeline import SchemePipeline

#: (name, graph factory, k, seed) — small on purpose (all-pairs
#: batches stay cheap) but diverse in shape: meshes, sparse random,
#: dense cliques, a hub-and-spoke star, degenerate paths/trees, and
#: the chorded ring.  Trees and paths exercise the single-tree
#: branches; cliques the heavy-splitter fallback.
CASES = [
    ("grid5x5", lambda: grid(5, 5, seed=3), 2, 3),
    ("grid6x6", lambda: grid(6, 6, seed=1), 3, 1),
    ("random30", lambda: random_connected(30, 0.12, seed=11), 2, 11),
    ("random40", lambda: random_connected(40, 0.12, seed=7), 3, 7),
    ("cliques", lambda: ring_of_cliques(4, 6, seed=4), 3, 4),
    ("star", lambda: star_of_paths(4, 8, seed=9), 2, 9),
    ("path24", lambda: path(24, seed=2), 2, 2),
    ("caterpillar", lambda: caterpillar_tree(12, 1, seed=5), 2, 5),
    ("smallworld", lambda: weighted_small_world(32, seed=13), 3, 13),
    ("geometric", lambda: random_geometric(30, seed=8), 2, 8),
]

#: Trees and near-trees, each at k = 2, 3, 4: deep chains, hubs and
#: bridges, where the cluster trees are as unbalanced as they get and
#: one of the two legs of a route is often empty.
TREE_ZOO = [
    (f"{name}-k{k}", factory, k, seed)
    for name, factory, seed in [
        ("random_tree", lambda: random_tree(28, seed=31), 31),
        ("caterpillar_tree", lambda: caterpillar_tree(9, 2, seed=37), 37),
        ("star_of_paths", lambda: star_of_paths(5, 5, seed=41), 41),
        ("barbell", lambda: barbell(6, 8, seed=43), 43),
        ("path", lambda: path(26, seed=47), 47),
    ]
    for k in (2, 3, 4)
]


@pytest.fixture(scope="module", params=CASES + TREE_ZOO,
                ids=lambda c: c[0])
def tiers(request):
    """(CompiledScheme, DenseRoutingPlane) for one case."""
    name, factory, k, seed = request.param
    compiled = (SchemePipeline().graph(factory(), name=name)
                .params(k).seed(seed).compile("flat"))
    return compiled, DenseRoutingPlane.from_compiled(compiled)


#: The served walk/vector cutover (the ``scalar`` engine moves it).
CUTOVER = dense_mod._VECTOR_MIN_PAIRS


@pytest.fixture(params=["numpy", "scalar"])
def dense(request, tiers, monkeypatch):
    """The dense plane under both engines.

    Both are built with a small cell budget, so a vectorised pass holds
    a few dozen rows and the all-pairs batches cross many chunk
    boundaries (``tiers`` keeps a plane at the default budget).  The
    scalar variant serves with ``_VECTOR_MIN_PAIRS`` above any batch,
    so every batch takes the parent walk.
    """
    compiled, plane = tiers
    monkeypatch.setattr(dense_mod, "_CHUNK_CELLS", 512)
    if request.param == "scalar":
        monkeypatch.setattr(dense_mod, "_VECTOR_MIN_PAIRS", sys.maxsize)
    return DenseRoutingPlane.from_compiled(compiled)


def assert_routes_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def all_pairs(n):
    return [(s, t) for s in range(n) for t in range(n)]


class TestBatchEquivalence:

    def test_all_pairs(self, tiers, dense):
        compiled, _ = tiers
        pairs = all_pairs(compiled.num_vertices)
        assert_routes_equal(dense.route_many(pairs),
                            compiled.route_many(pairs))

    def test_sizes_straddling_every_threshold(self, tiers, dense):
        """The sizes that are served: empty, single, either side of the
        walk/vector cutover, the broker's 64- and 128-pair windows, and
        either side of a chunk boundary — self-pairs and duplicates
        mixed into each."""
        compiled, _ = tiers
        n = compiled.num_vertices
        chunk = dense._chunk_rows
        assert chunk < 200, "the fixture's cell budget should bite"
        sizes = {0, 1, 2, CUTOVER - 1, CUTOVER, CUTOVER + 1,
                 63, 64, 127, 128, 129,
                 chunk - 1, chunk, chunk + 1, 2 * chunk + 1}
        rng = random.Random(17)
        for size in sorted(sizes):
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(size)]
            for at in range(0, size, 5):       # a self-pair ...
                pairs[at] = (pairs[at][0], pairs[at][0])
            for at in range(3, size, 7):       # ... and a duplicate
                pairs[at] = pairs[at - 2]
            assert_routes_equal(dense.route_many(pairs),
                                compiled.route_many(pairs))
            # the broker and the pool enter below the validation
            assert_routes_equal(dense._route_many_validated(pairs),
                                compiled.route_many(pairs))

    def test_array_input(self, tiers, dense):
        """An integer ``(N, 2)`` array is served like the list it came
        from, on either side of the cutover."""
        compiled, _ = tiers
        pairs = all_pairs(compiled.num_vertices)
        for size in (CUTOVER - 1, 200):
            want = compiled.route_many(pairs[:size])
            for dtype in (np.int64, np.int32, np.uint16):
                got = dense.route_many(np.array(pairs[:size], dtype=dtype))
                assert_routes_equal(got, want)
                assert all(type(v) is int for r in got for v in r.path)

    def test_past_the_derived_budget(self, tiers, monkeypatch):
        """What load derives is an accelerator, not a requirement: with
        no direct-address tables find-tree binary-searches the sorted
        keys, and with no ancestor chains every batch takes the parent
        walk — same routes either way."""
        compiled, _ = tiers
        pairs = all_pairs(compiled.num_vertices)
        want = compiled.route_many(pairs)
        monkeypatch.setattr(dense_mod, "_direct_table",
                            lambda keys, size: None)
        searching = DenseRoutingPlane.from_compiled(compiled)
        assert searching._chain is not None
        assert_routes_equal(searching.route_many(pairs), want)
        monkeypatch.setattr(dense_mod, "_DERIVED_BUDGET", 0)
        walking = DenseRoutingPlane.from_compiled(compiled)
        assert walking._chain is None
        assert_routes_equal(walking.route_many(pairs), want)

    def test_duplicate_heavy_batch(self, tiers, dense):
        """Skewed serving traffic: a small hot set repeated many times
        mixed with every self-pair."""
        compiled, _ = tiers
        n = compiled.num_vertices
        rng = random.Random(23)
        hot = [(rng.randrange(n), rng.randrange(n)) for _ in range(8)]
        pairs = ([rng.choice(hot) for _ in range(400)]
                 + [(v, v) for v in range(n)])
        rng.shuffle(pairs)
        assert_routes_equal(dense.route_many(pairs),
                            compiled.route_many(pairs))

    def test_route_single(self, tiers, dense):
        compiled, _ = tiers
        n = compiled.num_vertices
        assert dense.route(0, n - 1) == compiled.route(0, n - 1)
        assert dense.route(n - 1, 0) == compiled.route(n - 1, 0)


class TestHopBudget:
    """Regressions for the budget/corruption split: running out of a
    *caller-supplied* ``max_hops`` is the caller's problem
    (:class:`HopBudgetError`), not a corrupt artifact."""

    def test_hop_budget_error_is_scheme_error(self):
        assert issubclass(HopBudgetError, SchemeError)

    def test_exact_budget_succeeds(self, tiers, dense):
        compiled, _ = tiers
        n = compiled.num_vertices
        for plane in (compiled, dense):
            r = plane.route(0, n - 1)
            hops = len(r.path) - 1
            assert plane.route(0, n - 1, max_hops=hops) == r

    def test_one_short_raises_budget_error(self, tiers, dense):
        compiled, _ = tiers
        n = compiled.num_vertices
        for plane in (compiled, dense):
            hops = len(plane.route(0, n - 1).path) - 1
            assert hops >= 1, "pick a non-self pair for this test"
            with pytest.raises(HopBudgetError):
                plane.route(0, n - 1, max_hops=hops - 1)

    def test_zero_budget(self, tiers, dense):
        compiled, _ = tiers
        n = compiled.num_vertices
        for plane in (compiled, dense):
            with pytest.raises(HopBudgetError):
                plane.route(0, n - 1, max_hops=0)
            # a self route takes no hops, so a zero budget is enough
            r = plane.route(0, 0, max_hops=0)
            assert r.path == [0]

    def test_budget_error_names_the_first_pair_in_input_order(
            self, tiers, dense):
        """Both planes serve a batch in input order, so the pair a
        budget error names is the first one over it — on the flat plane
        too, where grouping by target would reach ``1 -> n-1`` (the
        target of the leading self routes) first."""
        compiled, _ = tiers
        n = compiled.num_vertices
        assert n > 2
        pairs = [(n - 1, n - 1)] * CUTOVER + [(0, 1), (1, n - 1)]
        for plane in (compiled, dense):
            with pytest.raises(HopBudgetError, match=r"^route 0 -> 1 "):
                plane.route_many(pairs, max_hops=0)

    def test_budget_on_vectorized_batch(self, tiers, dense):
        """Budgets thread through the batched engine too: exact-length
        succeeds identically, one-short raises on both planes."""
        compiled, _ = tiers
        pairs = all_pairs(compiled.num_vertices)
        flat_routes = compiled.route_many(pairs)
        worst = max(len(r.path) - 1 for r in flat_routes)
        assert_routes_equal(
            dense.route_many(pairs, max_hops=worst),
            compiled.route_many(pairs, max_hops=worst))
        with pytest.raises(HopBudgetError):
            compiled.route_many(pairs, max_hops=worst - 1)
        with pytest.raises(HopBudgetError):
            dense.route_many(pairs, max_hops=worst - 1)


class TestArtifactRoundTrip:

    def test_save_load_serves_identically(self, tiers, tmp_path):
        compiled, plane = tiers
        out = tmp_path / "plane.cra"
        plane.save(out)
        loaded = load_artifact(out)
        assert isinstance(loaded, DenseRoutingPlane)
        pairs = all_pairs(compiled.num_vertices)[:64]
        assert_routes_equal(loaded.route_many(pairs),
                            compiled.route_many(pairs))

    def test_export_attach_round_trip(self, tiers):
        compiled, plane = tiers
        buffers = plane.export_buffers()
        attached = attach_artifact(buffers.header(), buffers.payload)
        assert isinstance(attached, DenseRoutingPlane)
        # the compile's arrays and the decoder's sweep to the same plane
        assert attached.export_buffers() == buffers
        assert np.array_equal(attached._depth, plane._depth)
        assert np.array_equal(attached._dist, plane._dist)
        pairs = all_pairs(compiled.num_vertices)[:64]
        assert_routes_equal(attached.route_many(pairs),
                            compiled.route_many(pairs))


def scheme_depths(flat):
    """Per-slot tree depth and root distance, walked up the scheme's
    own (tree, parent vertex) rows through a dict — no dense column
    involved.  Equal keys resolve to the last row, as the scheme does."""
    vertex = flat._slot_vertex.tolist()
    tree = flat._slot_tree.tolist()
    parent = flat._t_parent.tolist()
    weight = flat._t_parent_w.tolist()
    slot = {(t, v): s for s, (t, v) in enumerate(zip(tree, vertex))}
    depth, dist = {}, {}

    def walk(s):
        chain = []
        while s not in depth:
            if parent[s] < 0:
                depth[s], dist[s] = 0, 0.0
                break
            chain.append(s)
            s = slot[tree[s], parent[s]]
        for c in reversed(chain):
            up = slot[tree[c], parent[c]]
            depth[c] = depth[up] + 1
            dist[c] = dist[up] + weight[c]

    for s in range(len(vertex)):
        walk(s)
    return ([depth[s] for s in range(len(vertex))],
            [dist[s] for s in range(len(vertex))])


def sweep_matches_parent_walk(flat):
    """The plane compiled from ``flat`` and attached from its own
    buffers: same bytes, and the load sweep's depths and root
    distances are the walk up the scheme's parent rows."""
    plane = DenseRoutingPlane.from_compiled(flat)
    buffers = plane.export_buffers()
    attached = DenseRoutingPlane.attach(buffers.header(), buffers.payload)
    assert attached.export_buffers() == buffers
    depth, dist = scheme_depths(flat)
    for p in (plane, attached):
        assert np.array_equal(p._depth, depth)
        assert np.array_equal(p._dist, dist)


def test_sweep_matches_parent_walk(tiers):
    sweep_matches_parent_walk(tiers[0])


class TestConstructionErrors:

    def test_from_compiled_rejects_non_scheme(self):
        with pytest.raises(ParameterError):
            DenseRoutingPlane.from_compiled(42)

    def test_truncated_find_tree_rejected(self, tiers):
        compiled, plane = tiers
        arrays = {name: list(getattr(plane, "_" + name))
                  for name, _ in DenseRoutingPlane._FIELDS}
        arrays["f_pivot"] = arrays["f_pivot"][:-1]
        with pytest.raises(ArtifactError):
            DenseRoutingPlane(dict(plane.meta), arrays)


def test_pool_serves_dense_plane():
    """One light end-to-end check that the pipeline's pool serves the
    dense plane bit-identically to the flat oracle in-process."""
    pipeline = (SchemePipeline().graph(grid(5, 5, seed=3), name="g")
                .params(2).seed(3))
    assert isinstance(pipeline.compile(), DenseRoutingPlane)
    compiled = pipeline.compile("flat")
    pairs = all_pairs(compiled.num_vertices)[:128]
    with pipeline.serve(workers=1) as pool:
        assert_routes_equal(pool.route_many(pairs),
                            compiled.route_many(pairs))
