"""Benchmark of vigrain's `run --config` path; see NOTES.md, entry point run.py."""
