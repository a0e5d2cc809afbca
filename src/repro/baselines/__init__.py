"""Comparison baseline: PathDump (end-host only)."""

from .pathdump import PathDumpAnalyzer, top_k_with_switchpointer

__all__ = ["PathDumpAnalyzer", "top_k_with_switchpointer"]
