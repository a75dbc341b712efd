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

from .feed import Change, ChangeBatch, TopologyFeed, graph_fingerprint
from .incremental import (
    STRATEGIES,
    BuildEntry,
    IncrementalBuilder,
    RebuildReport,
)
from .registry import ArtifactRegistry, GenerationRecord

__all__ = [
    "ArtifactRegistry",
    "BuildEntry",
    "Change",
    "ChangeBatch",
    "GenerationRecord",
    "IncrementalBuilder",
    "RebuildReport",
    "STRATEGIES",
    "TopologyFeed",
    "graph_fingerprint",
]
