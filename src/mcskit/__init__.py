"""Maximal common subsequence toolkit for many strings.

A common subsequence of a string set is maximal when no single
character can be inserted anywhere without breaking commonality; a
longest common subsequence is the special case of maximal length. The
package provides a seeded randomized solver whose cost is linear in the
number of strings, a deterministic solver, exact small-instance
oracles, reproducible corpus generators, and a wildcard-template
extractor for string columns, all shared by the ``mcskit`` CLI.
"""

from .deterministic import idx_after, idx_before, one_mcs
from .exact import SizeGuardError, enumerate_mcs, lcs_dp
from .generate import (
    PlantedSpec,
    alphabet,
    load_corpus,
    planted_strings,
    random_strings,
    read_string_file,
    write_corpus,
)
from .patterns import (
    WILDCARD,
    ColumnPattern,
    PatternExtractor,
    extract_pattern,
    render_pattern,
)
from .randomized import (
    DEFAULT_SEED,
    RandomMCS,
    RunSummary,
    derive_run_seed,
    longest_of_runs,
    probability_lower_bound,
    random_mcs,
    required_runs,
    run_many,
)
from .subsequence import (
    breakpoints,
    common_chars,
    is_maximal,
    is_subsequence,
    leftmost_positions,
    middle,
    rightmost_positions,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "ColumnPattern",
    "PatternExtractor",
    "PlantedSpec",
    "RandomMCS",
    "RunSummary",
    "SizeGuardError",
    "WILDCARD",
    "alphabet",
    "breakpoints",
    "common_chars",
    "derive_run_seed",
    "enumerate_mcs",
    "extract_pattern",
    "idx_after",
    "idx_before",
    "is_maximal",
    "is_subsequence",
    "lcs_dp",
    "leftmost_positions",
    "load_corpus",
    "longest_of_runs",
    "middle",
    "one_mcs",
    "planted_strings",
    "probability_lower_bound",
    "random_mcs",
    "random_strings",
    "read_string_file",
    "render_pattern",
    "required_runs",
    "rightmost_positions",
    "run_many",
    "write_corpus",
]
