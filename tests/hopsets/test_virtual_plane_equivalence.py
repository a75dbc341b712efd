"""Differential grid: the virtual plane's ``V' × V'`` matrices against
the dict oracles of :mod:`repro.reference.virtual`.

:func:`capture_virtual_plane` records every ``G'`` a build makes — the
large levels' and the approximate SPT's (k ≥ 4) — with its detection
and the calls on it, and :func:`check_virtual_plane` holds each matrix
piece to its dict form on the same input: ``G'``, the all-pairs ``D``
and ``P``, the hopset and its rounds, ``G''``, β, Phase 1 (a parent may
differ only on an exact tie) and the set-rooted Bellman–Ford.

The grid here covers the six workload families at k = 2..5 (β = 1:
``G'`` complete).  ``tests/core/test_cut_regime.py`` runs the same
check inside each cut-regime build (β = 2, hopset edges crossed), and a
CI step at grid n = 16 384; both import these two functions.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.congest import virtual_exploration
from repro.core import approx_clusters
from repro.graphs import INF
from repro.pipeline import WORKLOADS, SchemePipeline
from repro.reference.virtual import (
    build_hopset_reference,
    set_rooted_bellman_ford_reference,
    virtual_dijkstra_reference,
    virtual_exploration_reference,
    virtual_graph_reference,
)
from repro.sketches import approx_spt


class PlaneCapture:
    """Every virtual-plane call of one build, with its inputs:
    ``planes`` holds ``(detection, G', rng state, (eps, rho, height),
    hopset report)``, ``phase1`` and ``spt`` hold ``(args, result)``
    (Phase 1's matrices copied before Phase 1.5 repairs them), and
    ``seconds`` the time the matrix calls took."""

    def __init__(self):
        self.planes = []
        self.phase1 = []
        self.spt = []
        self.seconds = 0.0


@contextmanager
def capture_virtual_plane():
    """Record into the yielded :class:`PlaneCapture` every ``G'``,
    hopset, Phase-1 and set-rooted call the builds inside the block
    make, by wrapping the names the large levels and the approximate SPT
    call them by."""
    capture = PlaneCapture()
    patched = []

    def patch(module, name, spy):
        patched.append((module, name, getattr(module, name)))
        setattr(module, name, spy)

    def timed(call, *args, **kwargs):
        started = time.perf_counter()
        result = call(*args, **kwargs)
        capture.seconds += time.perf_counter() - started
        return result

    for module in (approx_clusters, approx_spt):
        detections = []

        def g1_spy(detection, detections=detections,
                   build_g1=module.build_virtual_graph_from_detection):
            detections.append(detection)
            return timed(build_g1, detection)

        def hopset_spy(weights, eps, rho, rng, bfs_tree,
                       build_hopset=module.build_hopset,
                       detections=detections):
            state = rng.getstate()
            report = timed(build_hopset, weights, eps, rho=rho, rng=rng,
                           bfs_tree=bfs_tree)
            capture.planes.append((detections[-1], weights, state,
                                   (eps, rho, bfs_tree.height), report))
            return report

        patch(module, "build_virtual_graph_from_detection", g1_spy)
        patch(module, "build_hopset", hopset_spy)

    def phase1_spy(*args, explore=approx_clusters.virtual_exploration):
        dist, par, rounds = timed(explore, *args)
        capture.phase1.append((args, (dist.copy(), par.copy(), rounds)))
        return dist, par, rounds

    def spt_spy(*args, set_rooted=approx_spt._set_rooted_min_plus):
        result = timed(set_rooted, *args)
        capture.spt.append((args, result))
        return result

    patch(approx_clusters, "virtual_exploration", phase1_spy)
    patch(approx_spt, "_set_rooted_min_plus", spt_spy)
    try:
        yield capture
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


def as_matrix(virtual, names):
    """A dict virtual graph as its weight matrix over ``names``."""
    index = {v: i for i, v in enumerate(names)}
    out = np.full((len(names), len(names)), INF)
    for u, v, w in virtual.edges():
        out[index[u], index[v]] = out[index[v], index[u]] = w
    return out


def check_virtual_plane(capture):
    """Hold every captured call to its dict oracle, raising
    :class:`AssertionError` on the first difference:

    * ``G'`` cell for cell, and the all-pairs ``D`` and ``P`` bit for
      bit against one dict Dijkstra per vertex;
    * the hopset's edges, weights and paths, its round charge, ``G''``
      and the measured β;
    * Phase 1's values and round charge.  The oracle keeps its frontier
      in first-touch order, the kernel relaxes it in ascending order, so
      a parent may differ, but only where both parents offered the
      cell's value exactly at the same hop;
    * the set-rooted Bellman–Ford's values, witnesses and rounds.
    """
    oracles = {}
    for detection, weights, state, (eps, rho, height), report in \
            capture.planes:
        names = detection.sources
        index = {v: i for i, v in enumerate(names)}
        virtual = virtual_graph_reference(detection)
        assert weights.tolist() == as_matrix(virtual, names).tolist(), "G'"
        rng = random.Random()
        rng.setstate(state)
        edges, augmented, rounds, beta = build_hopset_reference(
            virtual, eps, rho, rng, height)
        oracles[id(report.augmented)] = names, augmented

        hopset = report.hopset
        for s, u in enumerate(names):
            dist, parent = virtual_dijkstra_reference(virtual, u)
            assert hopset.dist[s].tolist() == [dist[v] for v in names], \
                ("D", u)
            assert hopset.pred[s].tolist() == [
                -1 if parent[v] is None else index[parent[v]]
                for v in names], ("P", u)
        found = {}
        for e in range(len(hopset)):
            u, v = names[hopset.u[e]], names[hopset.v[e]]
            found[(min(u, v), max(u, v))] = (
                u, v, float(hopset.weight[e]),
                tuple(names[x] for x in hopset.path(e)))
        assert found == edges, "hopset edges"
        assert report.rounds == rounds, ("hopset rounds", report.rounds,
                                         rounds)
        assert report.augmented.tolist() == \
            as_matrix(augmented, names).tolist(), "G''"
        assert hopset.beta_measured == beta, ("beta", beta)

    for args, (dist, par, rounds) in capture.phase1:
        weights, rows, iterations, threshold, height = args
        names, augmented = oracles[id(weights)]
        index = {v: i for i, v in enumerate(names)}
        sources = [names[r] for r in rows]
        o_dist, o_parent, o_rounds = virtual_exploration_reference(
            augmented, sources, iterations, dict(zip(names, threshold)),
            height)
        assert rounds == o_rounds, ("phase 1 rounds", rounds, o_rounds)
        assert dist.tolist() == [[o_dist[v].get(s, INF) for v in names]
                                 for s in sources], "phase 1 values"
        o_par = np.array([[-1 if o_parent[v].get(s) is None
                           else index[o_parent[v][s]] for v in names]
                          for s in sources], dtype=np.int64).reshape(
                              par.shape)
        layers = [virtual_exploration(weights, rows, t, threshold, 0)[0]
                  for t in range(iterations)]
        for r, j in zip(*np.nonzero(par != o_par)):
            offers = [{p: layer[r, p] + weights[p, j]
                       for p in (par[r, j], o_par[r, j])}
                      for layer in layers]
            assert any(set(offer.values()) == {dist[r, j]}
                       for offer in offers), ("phase 1 parent", r, j, offers)

    for args, (dist, witness, rounds) in capture.spt:
        weights, roots, iterations, height = args
        names, augmented = oracles[id(weights)]
        o_dist, o_witness, o_rounds = set_rooted_bellman_ford_reference(
            augmented, [names[r] for r in roots], iterations, height)
        assert dist.tolist() == [o_dist[v] for v in names], \
            "set-rooted values"
        assert [None if w < 0 else names[w] for w in witness.tolist()] == \
            [o_witness[v] for v in names], "set-rooted witnesses"
        assert rounds == o_rounds, ("set-rooted rounds", rounds, o_rounds)


@pytest.mark.parametrize("family", sorted(WORKLOADS))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_virtual_plane_matches_dict_oracle(family, k):
    with capture_virtual_plane() as capture:
        SchemePipeline().workload(family, 240).params(k).seed(1).build()
    assert capture.planes and capture.phase1
    assert bool(capture.spt) == (k >= 4)
    check_virtual_plane(capture)
