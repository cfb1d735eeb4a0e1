"""The repo's one perf ledger: four named workloads, end-to-end and
per-layer metrics, one record shape (see README.md beside this file)."""
