"""Shared fixtures for the sharded-serving test suite.

The start method is an environment axis: CI runs this directory once
with ``REPRO_START_METHOD=fork`` and once with ``=spawn``, while a
plain local run uses the platform default.
Workload cases live in ``serving_cases.py``.
"""

import multiprocessing as mp
import os

import pytest


@pytest.fixture(scope="session")
def start_method():
    """Start method under test: REPRO_START_METHOD or the default."""
    requested = os.environ.get("REPRO_START_METHOD") or None
    if requested is not None \
            and requested not in mp.get_all_start_methods():
        pytest.skip(f"start method {requested!r} unavailable here")
    return requested


@pytest.fixture(scope="session")
def fork_only(start_method):
    """Skip marker for tests that rely on fork inheritance."""
    resolved = start_method or mp.get_start_method()
    if resolved != "fork":
        pytest.skip("needs the fork start method (parent state must "
                    "be inherited)")
    return "fork"
