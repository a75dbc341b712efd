"""Sharded query serving: process-parallel batches over one shared
compiled artifact.  See ``README.md`` in this directory for the
architecture and :class:`RouterPool` for the API."""

from .pool import RouterPool

__all__ = ["RouterPool"]
