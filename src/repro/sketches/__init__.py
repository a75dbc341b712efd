"""Distance-computation tools: [Nan14] multi-source hop-bounded source
detection (Theorem 1) and the Appendix-A approximate SPT (Theorem 3)."""

from .source_detection import (
    SourceDetectionResult,
    build_virtual_graph_from_detection,
    detect_sources,
    extend_over_sources,
)
from .approx_spt import ApproxSPTResult, approximate_spt

__all__ = [
    "SourceDetectionResult",
    "build_virtual_graph_from_detection",
    "detect_sources",
    "extend_over_sources",
    "ApproxSPTResult",
    "approximate_spt",
]
