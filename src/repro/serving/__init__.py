"""Sharded query serving: process-parallel batches over one shared
compiled artifact.  See ``README.md`` in this directory for the
architecture and :class:`RouterPool` for the API."""

from .pool import RouterPool
from .sharding import (
    SHARDING_POLICIES,
    available_policies,
    shard_round_robin,
    shard_source_hash,
)

__all__ = [
    "RouterPool",
    "SHARDING_POLICIES",
    "available_policies",
    "shard_round_robin",
    "shard_source_hash",
]
