"""Synthetic cities, experiment orchestration and the CLI."""
