"""CONGEST-model simulation substrate: synchronous round engine,
port-numbered networks, and the distributed primitives (BFS, Lemma-1
broadcast, Bellman–Ford explorations) the paper's construction uses."""

from .messages import DEFAULT_CAPACITY_WORDS, Message, check_fits_capacity
from .metrics import CostLedger, PhaseCost, congestion_rounds, pipelined_rounds
from .network import Network
from .node import NodeContext, NodeProgram, make_contexts
from .fast_engine import FastSimulator, RunReport
from .bfs import BFSTree, build_bfs_tree
from .broadcast import (
    broadcast_all,
    broadcast_from_root,
    convergecast,
)
from .bellman_ford import (
    ExplorationResult,
    JoinRule,
    NearestSourceResult,
    multi_source_exploration,
    nearest_source_exploration,
    virtual_exploration,
)

__all__ = [
    "DEFAULT_CAPACITY_WORDS",
    "Message",
    "check_fits_capacity",
    "CostLedger",
    "PhaseCost",
    "congestion_rounds",
    "pipelined_rounds",
    "Network",
    "NodeContext",
    "NodeProgram",
    "make_contexts",
    "RunReport",
    "FastSimulator",
    "BFSTree",
    "build_bfs_tree",
    "broadcast_all",
    "broadcast_from_root",
    "convergecast",
    "ExplorationResult",
    "JoinRule",
    "NearestSourceResult",
    "multi_source_exploration",
    "nearest_source_exploration",
    "virtual_exploration",
]
