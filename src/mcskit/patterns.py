"""Wildcard pattern templates for string columns.

A column's values are summarized by the longest common subsequence the
randomized search can find, rendered as a template of literal runs and
``*`` wildcards (any run of zero or more characters, anchored at both
ends). Every column value is guaranteed to match its own template; the
wildcard segments can then be pulled out as features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Iterable

from ._validation import UNIFORM, check_count, check_seed, check_strings, check_weighting
from .base import ParamsMixin
from .randomized import DEFAULT_SEED, derive_run_seed, longest_of_runs
from .subsequence import leftmost_positions


class _Wildcard:
    def __repr__(self):
        return "WILDCARD"


WILDCARD = _Wildcard()


@dataclass(frozen=True)
class ColumnPattern:
    """Alternating literal / wildcard template, anchored at both ends."""

    tokens: tuple

    def __post_init__(self):
        prev_wild = None
        for tok in self.tokens:
            wild = tok is WILDCARD
            if not wild and (not isinstance(tok, str) or tok == ""):
                raise ValueError(f"literal tokens must be nonempty strings, got {tok!r}")
            if wild and prev_wild:
                raise ValueError("adjacent wildcards must be collapsed")
            prev_wild = wild

    @property
    def literal_text(self) -> str:
        return "".join(tok for tok in self.tokens if tok is not WILDCARD)

    @property
    def n_wildcards(self) -> int:
        return sum(1 for tok in self.tokens if tok is WILDCARD)

    @cached_property
    def _segments(self) -> tuple[str, ...]:
        """Literal text between wildcards: the anchored prefix, each inner
        literal, then the anchored suffix (prefix and suffix may be empty)."""
        segments = [""]
        for tok in self.tokens:
            if tok is WILDCARD:
                segments.append("")
            else:
                segments[-1] += tok
        return tuple(segments)

    def _match(self, value: str) -> tuple[str, ...] | None:
        """Wildcard captures of ``value``, or None when it does not match.

        Inner literals are placed right to left, each as far right as it
        fits before the next. That is the rightmost embedding, where
        greedy ``(.*)`` groups would put them, found in linear time.
        """
        segments = self._segments
        if len(segments) == 1:
            return () if value == segments[0] else None
        head, tail = segments[0], segments[-1]
        lo, hi = len(head), len(value) - len(tail)
        if hi < lo or not value.startswith(head) or not value.endswith(tail):
            return None
        gaps = []
        for lit in reversed(segments[1:-1]):
            at = value.rfind(lit, lo, hi)
            if at < 0:
                return None
            gaps.append(value[at + len(lit) : hi])
            hi = at
        gaps.append(value[lo:hi])
        return tuple(reversed(gaps))

    def matches(self, value: str) -> bool:
        return self._match(value) is not None

    def captures(self, value: str) -> tuple[str, ...]:
        """The substrings each wildcard absorbed when matching ``value``."""
        groups = self._match(value)
        if groups is None:
            raise ValueError(f"{value!r} does not match pattern {render_pattern(self)!r}")
        return groups

    def render(self) -> str:
        return render_pattern(self)


def render_pattern(pattern: ColumnPattern) -> str:
    """Template as a display string: wildcards become ``*``, literal
    ``\\`` and ``*`` characters are escaped as ``\\\\`` and ``\\*``, so
    different templates render differently."""
    return "".join(
        "*" if tok is WILDCARD else tok.replace("\\", "\\\\").replace("*", "\\*")
        for tok in pattern.tokens
    )


def extract_pattern(
    values: Iterable[str],
    runs: int = 100,
    seed: int = DEFAULT_SEED,
    weighting: str = UNIFORM,
    max_distinct: int = 10_000,
    sample_size: int = 1_000,
) -> ColumnPattern:
    """Derive the wildcard template of a string column.

    The backbone is the longest result of ``runs`` randomized searches
    over the distinct values. It is aligned into each value by greedy
    leftmost embedding; a gap becomes a wildcard iff any value has at
    least one character there, otherwise the neighboring backbone
    characters fuse into one literal. With an empty backbone the
    template is a single wildcard. Columns with more than
    ``max_distinct`` distinct values are first sampled down to
    ``sample_size`` (seeded), bounding extraction latency.
    """
    vals = check_strings(values)
    check_count(runs, "runs")
    check_seed(seed)
    check_weighting(weighting)
    check_count(max_distinct, "max_distinct")
    check_count(sample_size, "sample_size")
    if sample_size > max_distinct:
        raise ValueError(
            f"sample_size ({sample_size}) must not exceed max_distinct ({max_distinct})"
        )
    distinct = sorted(set(vals))
    if len(distinct) > max_distinct:
        rng = Random(derive_run_seed(seed, "column-sample"))
        distinct = sorted(rng.sample(distinct, sample_size))

    backbone = longest_of_runs(distinct, runs, seed, weighting)
    if not backbone:
        return ColumnPattern((WILDCARD,))

    # gap_open[i]: some value has characters between backbone char i-1
    # and i (ends included: gap 0 precedes the backbone, gap m follows it).
    m = len(backbone)
    gap_open = [False] * (m + 1)
    for v in distinct:
        positions = leftmost_positions(backbone, v)
        bounds = [-1] + positions + [len(v)]
        for g in range(m + 1):
            if bounds[g + 1] - bounds[g] > 1:
                gap_open[g] = True

    tokens: list = []
    run = ""
    for g in range(m + 1):
        if gap_open[g]:
            if run:
                tokens.append(run)
                run = ""
            tokens.append(WILDCARD)
        if g < m:
            run += backbone[g]
    if run:
        tokens.append(run)
    return ColumnPattern(tuple(tokens))


class PatternExtractor(ParamsMixin):
    """Transformer that learns a column template and extracts wildcard
    segments as features.

    ``fit`` learns the template from the column's values; ``transform``
    returns, per value, the tuple of substrings matched by the
    template's wildcards (an empty tuple for fully literal templates).
    Values that do not match the learned template raise.

    Attributes set by fit: ``pattern_`` (ColumnPattern) and
    ``pattern_str_`` (rendered form).
    """

    def __init__(
        self,
        n_runs: int = 100,
        weighting: str = UNIFORM,
        random_state: int = DEFAULT_SEED,
        max_distinct: int = 10_000,
        sample_size: int = 1_000,
    ):
        self.n_runs = n_runs
        self.weighting = weighting
        self.random_state = random_state
        self.max_distinct = max_distinct
        self.sample_size = sample_size

    def fit(self, X: Iterable[str], y=None) -> "PatternExtractor":
        self.pattern_ = extract_pattern(
            X,
            runs=self.n_runs,
            seed=self.random_state,
            weighting=self.weighting,
            max_distinct=self.max_distinct,
            sample_size=self.sample_size,
        )
        self.pattern_str_ = render_pattern(self.pattern_)
        return self

    def transform(self, X: Iterable[str]) -> list[tuple[str, ...]]:
        if not hasattr(self, "pattern_"):
            raise ValueError("PatternExtractor is not fitted; call fit first")
        return [self.pattern_.captures(v) for v in check_strings(X)]

    def fit_transform(self, X: Iterable[str], y=None) -> list[tuple[str, ...]]:
        return self.fit(X, y).transform(X)
