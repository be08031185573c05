"""Runtime scaling measurements for the randomized search.

One search is linear in the number of strings at fixed length, so the
per-run median at L strings should track L. The harness times single
runs on random corpora of increasing size and checks consecutive
medians against the ideal ratio within a tolerance factor.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from ._validation import check_count, check_seed
from .generate import random_strings
from .randomized import derive_run_seed, random_mcs

SCALING_TOLERANCE = 2.0


@dataclass(frozen=True)
class BenchPoint:
    n_strings: int
    runs: int
    median_seconds: float
    result_lengths: tuple[int, ...]


def time_random_mcs(
    n_strings: int,
    length: int = 60,
    alphabet_size: int = 4,
    runs: int = 25,
    seed: int = 0,
) -> BenchPoint:
    """Median wall time of one full search over ``runs`` timed runs.

    A small alphabet keeps shared structure present at large string
    counts so the searches do real work. Untimed warmup runs absorb
    first-call and cache-ramp overhead.
    """
    check_count(n_strings, "n_strings")
    check_count(runs, "runs")
    check_seed(seed)
    strings = random_strings(n_strings, length, alphabet_size, seed=derive_run_seed(seed, "corpus"))
    for w in range(3):
        random_mcs(strings, seed=derive_run_seed(seed, f"warmup-{w}"))
    times = []
    lengths = []
    for i in range(runs):
        t0 = time.perf_counter()
        w = random_mcs(strings, seed=derive_run_seed(seed, i))
        times.append(time.perf_counter() - t0)
        lengths.append(len(w))
    return BenchPoint(n_strings, runs, statistics.median(times), tuple(lengths))


def scaling_table(
    l_values: list[int],
    length: int = 60,
    alphabet_size: int = 4,
    runs: int = 25,
    seed: int = 0,
) -> tuple[list[dict], bool]:
    """Measure each distinct string count and check near-linear growth.

    Each consecutive pair of medians must stay within a factor of
    ``SCALING_TOLERANCE`` of the ideal linear ratio, so at least two
    distinct counts are required. Returns (rows, all_within).
    """
    sizes = sorted(set(l_values))
    if len(sizes) < 2:
        raise ValueError(f"need at least two distinct string counts to compare, got {l_values}")
    points = [time_random_mcs(l, length, alphabet_size, runs, seed) for l in sizes]
    rows = []
    ok = True
    for i, pt in enumerate(points):
        row = {
            "n_strings": pt.n_strings,
            "runs": pt.runs,
            "median_seconds": pt.median_seconds,
        }
        if i > 0:
            prev = points[i - 1]
            ideal = pt.n_strings / prev.n_strings
            measured = pt.median_seconds / prev.median_seconds
            within = ideal / SCALING_TOLERANCE <= measured <= ideal * SCALING_TOLERANCE
            row.update(ratio=measured, ideal_ratio=ideal, within_tolerance=within)
            ok = ok and within
        rows.append(row)
    return rows, ok
