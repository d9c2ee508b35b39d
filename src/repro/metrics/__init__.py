"""Metrics: per-run collection and report formatting.

Import the submodule you need (``repro.metrics.collector``,
``repro.metrics.export``, ...): the package re-exports nothing, so a
user of the report helpers does not load the trace recorder.
"""
