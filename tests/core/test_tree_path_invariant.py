"""The fact the dense kernel stands on, pinned against the flat tier.

:class:`~repro.core.dense.DenseRoutingPlane` does not replay Section 6:
it emits the tree path between the two slots find-tree picked.  That is
only the same route because the protocol :class:`CompiledScheme`
replays — labels, splitters, portals, heavy paths — never leaves that
path.  This file checks exactly that, on the flat tier alone, for every
pair of a zoo of trees and near-trees: each hop is a (child, parent)
edge of the chosen cluster tree, no vertex repeats (so the walk *is*
the unique tree path), and the weight is those edges summed in hop
order.  A tree-routing change that takes any other way through the
tree fails here, by name, instead of as an opaque dense != flat diff.
"""

import pytest

from repro.graphs.generators import grid, random_connected
from repro.pipeline import SchemePipeline

from tests.core.test_dense_equivalence import TREE_ZOO

#: The tree zoo at k = 2, 3, 4, plus a mesh and a sparse random graph
#: (cluster trees that are proper subtrees of a cyclic graph).
CASES = TREE_ZOO + [
    ("grid5x5-k2", lambda: grid(5, 5, seed=3), 2, 3),
    ("random30-k3", lambda: random_connected(30, 0.12, seed=11), 3, 11),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_flat_route_is_the_tree_path(case):
    name, factory, k, seed = case
    flat = (SchemePipeline().graph(factory(), name=name)
            .params(k).seed(seed).compile("flat"))
    n = flat.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    t_parent = flat._t_parent.tolist()
    t_parent_w = flat._t_parent_w.tolist()
    for route in flat.route_many(pairs):
        tid = flat._tid_of[route.tree_center]
        path = route.path
        assert path[0] == route.source and path[-1] == route.target
        assert len(set(path)) == len(path), \
            f"{route.source} -> {route.target} revisits a vertex: {path}"
        weight = 0.0
        for here, there in zip(path, path[1:]):
            a = flat._slots[here][tid]      # KeyError: left the tree
            b = flat._slots[there][tid]
            if t_parent[a] == there:
                weight += t_parent_w[a]
            else:
                assert t_parent[b] == here, \
                    f"{route.source} -> {route.target}: hop " \
                    f"{here} -> {there} is not an edge of tree " \
                    f"{route.tree_center}"
                weight += t_parent_w[b]
        assert weight == route.weight
