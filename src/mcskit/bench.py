"""Runtime scaling measurements for the randomized search.

One search is linear in the number of strings at fixed length, so the
per-run median at L strings should track L. The harness times single
runs on random corpora of increasing size and checks consecutive
medians against the ideal ratio within a tolerance factor.
"""

from __future__ import annotations

import statistics
import time

from ._validation import check_count
from .generate import random_strings
from .randomized import derive_run_seed, random_mcs

SCALING_TOLERANCE = 2.0


def scaling_table(
    l_values: list[int],
    length: int = 60,
    alphabet_size: int = 4,
    runs: int = 25,
    seed: int = 0,
) -> tuple[list[dict], bool]:
    """Time searches at each distinct string count and check linear growth.

    Each count gets a random corpus over a small alphabet, which keeps
    shared structure present at large counts so the searches do real
    work. Three untimed warmup runs absorb first-call and cache-ramp
    overhead; then ``runs`` runs are timed one by one. A row holds their
    median time and mean result length m. Each consecutive pair of
    medians must stay within a factor of ``SCALING_TOLERANCE`` of the
    ideal linear ratio, so at least two distinct counts are required.
    Returns (rows, all_within).
    """
    sizes = sorted(set(l_values))
    if len(sizes) < 2:
        raise ValueError(f"need at least two distinct string counts to compare, got {l_values}")
    for n_strings in sizes:
        check_count(n_strings, "n_strings")
    check_count(runs, "runs")
    check_count(seed, "seed", minimum=0)
    rows = []
    ok = True
    for n_strings in sizes:
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
        row = {
            "n_strings": n_strings,
            "runs": runs,
            "median_seconds": statistics.median(times),
            "mean_result_len": sum(lengths) / runs,
        }
        if rows:
            prev = rows[-1]
            ideal = n_strings / prev["n_strings"]
            measured = row["median_seconds"] / prev["median_seconds"]
            within = ideal / SCALING_TOLERANCE <= measured <= ideal * SCALING_TOLERANCE
            row.update(ratio=measured, ideal_ratio=ideal, within_tolerance=within)
            ok = ok and within
        rows.append(row)
    return rows, ok
