"""Benchmark of the regio-forecast CLI; see README.md in this directory."""
