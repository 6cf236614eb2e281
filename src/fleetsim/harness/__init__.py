"""Data ingestion, synthetic workloads, experiment orchestration and the CLI."""
