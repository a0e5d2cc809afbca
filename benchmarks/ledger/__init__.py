"""The performance ledger: four workloads, seven end-to-end metrics and
a per-layer traced pass (see ``README.md`` beside this file).

``python -m benchmarks.ledger run`` from the repository root.
"""
