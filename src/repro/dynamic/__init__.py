"""Live control plane: incremental rebuilds + versioned artifacts.

The static lifecycle (``build → compile → serve``) assumed the graph
never changes.  This package closes the loop for live topologies:

* :class:`TopologyFeed` — apply and log mutations of a live graph
  (weight updates, link failures, node failures) and classify the
  pending batch.
* :class:`IncrementalBuilder` — turn a pending batch into a fresh
  compiled artifact: a fingerprint cache hit (``reuse``) or a scratch
  build (``full``), always bit-identical to a from-scratch build on
  the mutated graph.
* :class:`ArtifactRegistry` — generation-numbered ``.cra`` store with
  an atomic manifest (publish / pin / retire), the durable handoff to
  the serving side's hot-swap (``RouterPool.swap`` /
  ``RequestBroker.swap_router``).

See ``dynamic/README.md`` for the soundness arguments and the
end-to-end flow.
"""

from .. import _lazy

#: Public name -> the submodule defining it, resolved on first access
#: (PEP 562): a serving process that only loads from the registry never
#: imports the builder, and with it the construction.
_EXPORTS = {
    "ArtifactRegistry": "registry",
    "BuildEntry": "incremental",
    "Change": "feed",
    "ChangeBatch": "feed",
    "GenerationRecord": "registry",
    "IncrementalBuilder": "incremental",
    "RebuildReport": "incremental",
    "STRATEGIES": "incremental",
    "TopologyFeed": "feed",
    "graph_fingerprint": "feed",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy(__name__, _EXPORTS)
