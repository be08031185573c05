"""Randomized maximal-common-subsequence search.

One run grows a common subsequence by repeatedly picking a random
insertion slot among the currently available ones, then a random shared
character from the middle substrings at that slot, until no insertion
is possible. The result is always maximal; which maximal subsequence
comes back is a function of the seed. Repeated seeded runs estimate the
occurrence probability of each solution, and the longest solution seen
over enough runs is, with high probability, a longest common
subsequence.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ._engine import BreakpointScanner
from ._validation import (
    UNIFORM,
    check_count,
    check_strings,
    check_unit_open,
    check_weighting,
)
from .base import ParamsMixin
from .subsequence import is_subsequence

DEFAULT_SEED = 0


def derive_run_seed(master_seed: int, run_index: int | str) -> int:
    """Per-run stream seed: a pure function of the master seed and index.

    Uses SHA-256 over the decimal rendering of both values, so any
    non-negative integers (and string labels for auxiliary streams) map
    to stable, well-spread 64-bit seeds.
    """
    digest = hashlib.sha256(f"{master_seed}:{run_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunSummary:
    """Aggregate of repeated randomized runs on one string set."""

    total_runs: int
    counts: dict[str, int]
    longest: str = field(init=False)

    def __post_init__(self):
        best = max((len(w) for w in self.counts), default=0)
        object.__setattr__(
            self, "longest", min((w for w in self.counts if len(w) == best), default="")
        )

    @property
    def probabilities(self) -> dict[str, float]:
        return {w: c / self.total_runs for w, c in self.counts.items()}

    @property
    def degenerate(self) -> bool:
        """True when the strings share no character at all, so every run
        returned the empty subsequence."""
        return self.longest == ""

    def as_dict(self) -> dict:
        return {
            "total_runs": self.total_runs,
            "counts": dict(sorted(self.counts.items())),
            "probabilities": {w: p for w, p in sorted(self.probabilities.items())},
            "longest": self.longest,
            "degenerate": self.degenerate,
        }


def _searcher(
    strings: Iterable[str], seeds: Iterable[int], weighting: str, start: str
) -> Iterator[str]:
    """Validate the inputs, build one scanner, and return its search over
    ``seeds``: :meth:`BreakpointScanner.search`, whose results come in
    seed order. It takes the seeds a batch at a time and runs each batch
    in lockstep, so a lazy seed iterable stays lazy. The memory held is
    one batch's plus the scanned subsequences the search keeps, which
    ``_engine.ROUND_BYTES`` bounds.
    """
    strs = check_strings(strings)
    check_weighting(weighting)
    if start:
        for i, s in enumerate(strs):
            if not is_subsequence(start, s):
                raise ValueError(f"start {start!r} is not a subsequence of string #{i} ({s!r})")
    return BreakpointScanner(strs).search(seeds, weighting, start)


def random_mcs(
    strings: Iterable[str],
    seed: int = DEFAULT_SEED,
    weighting: str = UNIFORM,
    start: str = "",
) -> str:
    """Return one random maximal common subsequence of ``strings``.

    ``start`` constrains the result to contain a given common
    subsequence; it must itself be common to all strings. With no shared
    character and an empty ``start`` the empty string comes back (it is
    vacuously maximal). Deterministic given (strings, seed, weighting,
    start).
    """
    seed = check_count(seed, "seed", minimum=0)
    return next(_searcher(strings, [seed], weighting, start))


def _seeded_runs(
    strings: Iterable[str], runs: int, master_seed: int, weighting: str, start: str
) -> Iterator[str]:
    """Validate eagerly and return an iterator over the results of runs
    ``0..runs-1``; run ``i`` equals
    ``random_mcs(strings, seed=derive_run_seed(master_seed, i), ...)``.
    """
    runs = check_count(runs, "runs")
    master_seed = check_count(master_seed, "seed", minimum=0)
    seeds = (derive_run_seed(master_seed, i) for i in range(runs))
    return _searcher(strings, seeds, weighting, start)


def run_many(
    strings: Iterable[str],
    runs: int,
    master_seed: int = DEFAULT_SEED,
    weighting: str = UNIFORM,
    start: str = "",
) -> RunSummary:
    """Aggregate ``runs`` independent seeded runs into a RunSummary.

    Each run draws from its own stream seeded by
    ``derive_run_seed(master_seed, index)``, so the summary does not
    depend on execution order and is reproducible given the master seed.
    The runs advance in lockstep batches through
    :meth:`BreakpointScanner.search`, each equal to the lone
    ``random_mcs`` run at its seed; tables that would pass
    ``_engine.MAX_TABLE_BYTES`` raise :class:`SizeGuardError`. Repeated
    strings, characters missing from some string, and strings that hold
    another never change a result, and the scanner drops them.
    """
    counts = Counter(_seeded_runs(strings, runs, master_seed, weighting, start))
    return RunSummary(total_runs=counts.total(), counts=dict(counts))


def longest_of_runs(
    strings: Iterable[str],
    runs: int,
    master_seed: int = DEFAULT_SEED,
    weighting: str = UNIFORM,
) -> str:
    """Longest subsequence over repeated runs (ties: lexicographic min)."""
    return run_many(strings, runs, master_seed, weighting).longest


def required_runs(p: float, eps: float) -> int:
    """Runs needed so a solution with occurrence probability >= ``p``
    is missed with probability at most ``eps``: ceil(log eps / log(1-p)).
    """
    check_unit_open(p, "p")
    check_unit_open(eps, "eps")
    if (runs := math.log(eps) / math.log1p(-p)) == math.inf:
        raise ValueError(f"p={p!r} and eps={eps!r} need more runs than a float can hold")
    return math.ceil(runs)


def probability_lower_bound(n_common: int, distinguisher_len: int) -> float:
    """Occurrence-probability lower bound for a solution singled out by a
    distinguishing subsequence.

    With at most ``n_common`` distinct shared characters and uniform
    character selection, a maximal subsequence that is the only one
    containing some length-``distinguisher_len`` subsequence is returned
    with probability at least ``n_common ** -distinguisher_len``.
    """
    check_count(n_common, "n_common")
    check_count(distinguisher_len, "distinguisher_len", minimum=0)
    return float(n_common) ** -distinguisher_len


class RandomMCS(ParamsMixin):
    """Estimator interface over repeated randomized runs.

    Fitting a collection of strings runs the randomized search
    ``n_runs`` times and records the empirical solution distribution,
    mirroring how clustering estimators summarize raw samples. Repeated
    strings in ``X`` do not change the fit.

    Parameters use scikit-learn conventions (stored verbatim, validated
    in fit), so the class works with ``clone`` and pipelines.

    Attributes set by fit: ``summary_`` (RunSummary), ``counts_``,
    ``probabilities_``, ``longest_``.
    """

    def __init__(
        self,
        n_runs: int = 100,
        weighting: str = UNIFORM,
        random_state: int = DEFAULT_SEED,
        start: str = "",
    ):
        self.n_runs = n_runs
        self.weighting = weighting
        self.random_state = random_state
        self.start = start

    def fit(self, X: Iterable[str], y=None) -> "RandomMCS":
        self.summary_ = run_many(
            X,
            runs=self.n_runs,
            master_seed=self.random_state,
            weighting=self.weighting,
            start=self.start,
        )
        self.counts_ = dict(self.summary_.counts)
        self.probabilities_ = self.summary_.probabilities
        self.longest_ = self.summary_.longest
        return self
