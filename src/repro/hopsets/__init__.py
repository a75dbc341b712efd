"""Path-reporting (beta, eps)-hopsets ([EN16a]-style) on the virtual
plane's ``V' × V'`` matrices: the all-pairs pass and min-plus products,
construction, and per-instance verification."""

from .hopset import Hopset, hop_bounded, min_plus, shortest_paths
from .construction import HopsetBuildReport, build_hopset, sample_hierarchy
from .verification import (
    measure_hopbound,
    verify_hopset_property,
    verify_path_reporting,
)

__all__ = [
    "Hopset",
    "HopsetBuildReport",
    "build_hopset",
    "hop_bounded",
    "min_plus",
    "sample_hierarchy",
    "shortest_paths",
    "measure_hopbound",
    "verify_hopset_property",
    "verify_path_reporting",
]
