"""Benchmark harness for satloop; see bench/README.md."""
