#!/usr/bin/env python3
"""Scenario: routing-table budgets in a pod-structured data center.

A classic motivation for compact routing (the paper's introduction):
forwarding state per switch is scarce, so storing all-pairs routes is
impossible, yet path quality must stay bounded.  We model a data center
as a ring of dense pods (cliques) with inter-pod links, sweep the
size/stretch parameter k, and print the trade-off table an operator
would look at — including how the distributed construction cost
compares with shipping the whole topology to a controller ([TZ01]'s
O(m) centralized row).

Run:  python examples/datacenter_routing.py
"""

from repro.analysis import evaluate_routing
from repro.baselines import build_tz_routing
from repro.core import build_routing_scheme
from repro.graphs import hop_diameter, ring_of_cliques

PODS, POD_SIZE, SEED = 6, 8, 7


def main() -> None:
    graph = ring_of_cliques(PODS, POD_SIZE, max_weight=10, seed=SEED)
    n = graph.num_vertices
    d = hop_diameter(graph)
    print(f"Data center fabric: {PODS} pods x {POD_SIZE} switches "
          f"= {n} nodes, {graph.num_edges} links, hop-diameter {d}\n")

    print(f"{'k':>2} {'table words':>12} {'label words':>12} "
          f"{'max stretch':>12} {'mean':>6}   scheme")
    for k in (2, 3, 4):
        ours = build_routing_scheme(graph, k=k, seed=SEED)
        ours_eval = evaluate_routing(graph, ours, sample=400, seed=k)
        print(f"{k:>2} {ours.max_table_words():>12} "
              f"{ours.max_label_words():>12} "
              f"{ours_eval.max_stretch:>12.3f} "
              f"{ours_eval.mean_stretch:>6.3f}   this paper "
              f"({ours.construction_rounds:,} rounds, distributed)")

        tz = build_tz_routing(graph, k=k, seed=SEED)
        tz_eval = evaluate_routing(graph, tz, sample=400, seed=k)
        print(f"{'':>2} {tz.max_table_words():>12} "
              f"{tz.max_label_words():>12} "
              f"{tz_eval.max_stretch:>12.3f} "
              f"{tz_eval.mean_stretch:>6.3f}   TZ01 centralized "
              f"(ship topology: ~{graph.num_edges} rounds)")

    print("\nReading the table: tables shrink as k grows while stretch "
          "stays within 4k-5;")
    print("the distributed build never needs any node to learn the "
          "whole topology.")


if __name__ == "__main__":
    main()
