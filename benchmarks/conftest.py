"""Shared helpers for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper, prints the
rows/series it reports, and asserts the claim's *shape* (who wins, by
roughly what factor, where crossovers fall).  Benchmarks run each artifact
once (``rounds=1``) — the interesting number is the artifact's content,
not the harness's wall clock.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def emit(title: str, body: str) -> None:
    """Print one labelled artifact block into the benchmark output."""
    print(f"\n===== {title} =====")
    print(body)
