#!/usr/bin/env python3
"""Scenario: exact routing on overlay/multicast trees (Theorem 7).

Content-distribution overlays and multicast groups maintain many
spanning trees over the same network; every node participates in
several trees and must forward within each using tiny per-tree state.
Section 6 of the paper gives exactly this: a two-level scheme with
O(log n)-word tables and O(log^2 n)-word labels per tree, built
distributedly in Õ(sqrt(n*s) + D) rounds for overlap s — versus the
linear-round DFS the classic Thorup–Zwick tree scheme would need.

Run:  python examples/overlay_tree_routing.py
"""

import math
import random

from repro.core import build_forest_routing
from repro.reference import build_forest_routing_reference, trees_as_columns
from repro.trees import RootedTree

N, NUM_TREES, SEED = 120, 5, 13


def random_overlay_tree(n, rng, root):
    members = list(range(n))
    rng.shuffle(members)
    members.remove(root)
    members = [root] + members[:rng.randrange(n // 2, n - 1)]
    parent = {root: None}
    for i in range(1, len(members)):
        parent[members[i]] = members[rng.randrange(i)]
    return RootedTree(root, parent)


def main() -> None:
    rng = random.Random(SEED)
    trees = {t: random_overlay_tree(N, rng, root=t)
             for t in range(NUM_TREES)}
    sizes = {t: tree.size for t, tree in trees.items()}
    print(f"Overlay network: {N} nodes, {NUM_TREES} multicast trees "
          f"of sizes {sorted(sizes.values())}\n")

    report = build_forest_routing(*trees_as_columns(trees), N,
                                  random.Random(SEED + 1))
    print("Distributed construction (Remark 3, shared splitter sample):")
    print(f"  rounds        : {report.rounds:,} "
          f"(Õ(sqrt(n*s) + D) regime)")
    print(f"  splitters     : {report.splitter_count} "
          f"(~sqrt(n/s) = "
          f"{math.sqrt(N / max(report.max_overlap, 1)):.1f})")
    print(f"  max overlap s : {report.max_overlap} trees per node")
    print(f"  deepest local subtree: {report.max_subtree_depth} hops\n")

    print("Per-tree state (exact stretch-1 routing):")
    cols = report.columns
    for tid, t in enumerate(cols.tree_center):
        rows = slice(cols.tree_start[tid], cols.tree_start[tid + 1])
        print(f"  tree {t}: {trees[t].size:>3} members, "
              f"table <= {max(cols.slot_table_words[rows])} words, "
              f"label <= {max(cols.slot_label_words[rows])} words, "
              f"{len(set(cols.t_splitter[rows]))} splitters")

    # the per-vertex tables and labels, built eagerly by the reference
    # builder with the same sample, route hop by hop
    reference = build_forest_routing_reference(trees, N,
                                               random.Random(SEED + 1))
    print("\nRouting checks (every routed path = the exact tree path):")
    checks = 0
    for t, tree in trees.items():
        vertices = list(tree.vertices())
        routing = reference.schemes[t]
        for _ in range(50):
            a, b = rng.choice(vertices), rng.choice(vertices)
            assert routing.route(a, b) == tree.path_between(a, b)
            checks += 1
    print(f"  {checks} random (source, target) pairs verified across "
          f"{NUM_TREES} trees -- all exact")
    log_n = math.log2(N)
    print(f"\n  table bound O(log n): log2({N}) = {log_n:.1f} words "
          f"scale; label bound O(log^2 n) = {log_n ** 2:.0f} scale")


if __name__ == "__main__":
    main()
