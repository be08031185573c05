"""Wildcard pattern templates for string columns.

A column's values are summarized by the longest common subsequence the
randomized search can find, rendered as a template of literal runs and
``*`` wildcards (any run of zero or more characters, anchored at both
ends). Every column value is guaranteed to match its own template; the
wildcard segments can then be pulled out as features. Only the search is
sampled, above ``MAX_DISTINCT`` distinct values; the alignment reads
every distinct value, so its cost is linear in the column. It walks all
values at once: each backbone character is one ``searchsorted`` of every
value's cursor into that character's occurrences, over chunks of values
whose encoded text and occurrence lists stay within
``_engine.ROUND_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Iterable

import numpy as np

from . import _engine
from ._validation import UNIFORM, check_strings
from .base import ParamsMixin
from .deterministic import one_mcs
from .randomized import DEFAULT_SEED, derive_run_seed, longest_of_runs
from .subsequence import is_subsequence

# Each search run scans every distinct value per step, so a column with
# more than MAX_DISTINCT distinct values is searched on a seeded sample of
# SAMPLE_SIZE of them; that bounds the search's latency. The template
# itself still reads every distinct value.
MAX_DISTINCT = 10_000
SAMPLE_SIZE = 1_000


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
) -> ColumnPattern:
    """Derive the wildcard template of a string column.

    The backbone is the longest result of ``runs`` randomized searches
    over the distinct values. Above ``MAX_DISTINCT`` distinct values the
    search runs on a seeded sample of ``SAMPLE_SIZE`` of them, and the
    backbone is then shrunk with ``one_mcs`` until every distinct value
    holds it. It is aligned into each distinct value by greedy leftmost
    embedding; a gap becomes a wildcard iff any value has at least one
    character there, otherwise the neighboring backbone characters fuse
    into one literal. With an empty backbone the template is a single
    wildcard. Every value matches the template. The alignment embeds the
    backbone into all values at once, one vectorized step per backbone
    character, so its cost is linear in the column; it encodes the values
    in chunks that stay within ``_engine.ROUND_BYTES``.
    """
    distinct = sorted(set(check_strings(values)))
    sample = distinct
    if len(distinct) > MAX_DISTINCT:
        rng = Random(derive_run_seed(seed, "column-sample"))
        sample = sorted(rng.sample(distinct, SAMPLE_SIZE))

    backbone = longest_of_runs(sample, runs, seed, weighting)
    if sample is not distinct:
        # A value outside the sample may not hold the backbone. It only
        # shrinks, so the values already passed still hold it.
        for v in distinct:
            if not is_subsequence(backbone, v):
                backbone = one_mcs([backbone, v])
    if not backbone:
        return ColumnPattern((WILDCARD,))

    m = len(backbone)
    gap_open = _gap_open(backbone, distinct)
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


def _gap_open(backbone: str, values: list[str]) -> list[bool]:
    """Per gap of ``backbone`` in ``values``, whether some value has a
    character there under the greedy leftmost embedding.

    Gap g lies between backbone characters g - 1 and g; gap 0 precedes
    the backbone and gap ``len(backbone)`` follows it. The backbone must
    embed in every value.
    """
    gap_open = [False] * (len(backbone) + 1)
    codes = _engine.code_points(backbone).tolist()
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    ends = np.cumsum(lengths)
    # A chunk of values holds 4 bytes of encoded text per character, and at
    # most 8 of occurrence offsets: each character is in one list at most.
    budget = _engine.ROUND_BYTES // 12
    a = 0
    while a < len(values):
        base = int(ends[a] - lengths[a])
        b = max(a + 1, int(ends.searchsorted(base + budget, side="right")))
        text = _engine.code_points("".join(values[a:b]))
        # cur[j]: the offset in text where value j's next lookup starts.
        end = ends[a:b] - base
        cur = end - lengths[a:b]
        # The backbone embeds in every distinct value: it is a search result
        # over them, or one_mcs shrank it until each value holds it. So the
        # first occurrence at or past a cursor lies inside the cursor's own
        # value, and every lookup below stays there.
        at = {c: np.flatnonzero(text == c) for c in set(codes)}
        for g, c in enumerate(codes):
            found = at[c][at[c].searchsorted(cur)]
            gap_open[g] = gap_open[g] or bool((found > cur).any())
            cur = found + 1
        gap_open[-1] = gap_open[-1] or bool((end > cur).any())
        a = b
    return gap_open


class PatternExtractor(ParamsMixin):
    """Transformer that learns a column template and extracts wildcard
    segments as features.

    ``fit`` learns the template from the column's values with
    ``extract_pattern``, so every fitted value matches it, however large
    the column; only the search is sampled above ``MAX_DISTINCT``
    distinct values. ``transform`` returns, per value, the tuple of
    substrings matched by the template's wildcards (an empty tuple for
    fully literal templates). Values that do not match the learned
    template raise.

    Attributes set by fit: ``pattern_`` (ColumnPattern) and
    ``pattern_str_`` (rendered form).
    """

    def __init__(
        self, n_runs: int = 100, weighting: str = UNIFORM, random_state: int = DEFAULT_SEED
    ):
        self.n_runs = n_runs
        self.weighting = weighting
        self.random_state = random_state

    def fit(self, X: Iterable[str], y=None) -> "PatternExtractor":
        self.pattern_ = extract_pattern(
            X, runs=self.n_runs, seed=self.random_state, weighting=self.weighting
        )
        self.pattern_str_ = render_pattern(self.pattern_)
        return self

    def transform(self, X: Iterable[str]) -> list[tuple[str, ...]]:
        if not hasattr(self, "pattern_"):
            raise ValueError("PatternExtractor is not fitted; call fit first")
        return [self.pattern_.captures(v) for v in check_strings(X)]

    def fit_transform(self, X: Iterable[str], y=None) -> list[tuple[str, ...]]:
        # Read X once: fit would use up a one-shot iterable before transform.
        values = check_strings(X)
        return self.fit(values, y).transform(values)
