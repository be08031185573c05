"""Subsequence primitives: embedding tests, middle substrings, common
characters, insertion points, and the maximality test.

Index conventions follow half-open intervals. A string of length n has
positions 1..n; boundaries (prefix ends, suffix starts, insertion slots)
range over 0..n. All functions return plain Python values and never
mutate their inputs.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from typing import Iterable, Optional

from ._validation import check_strings


def is_subsequence(w: str, s: str) -> bool:
    """True if ``w`` can be obtained from ``s`` by deleting characters.

    Greedy left-to-right scanning is sufficient: a subsequence embeds
    somewhere iff it embeds at the leftmost feasible positions.
    """
    it = iter(s)
    return all(c in it for c in w)


def leftmost_positions(w: str, s: str) -> Optional[list[int]]:
    """0-based positions of the greedy leftmost embedding of ``w`` in ``s``.

    Returns None when ``w`` does not embed in ``s``.
    """
    positions = []
    start = 0
    for c in w:
        i = s.find(c, start)
        if i < 0:
            return None
        positions.append(i)
        start = i + 1
    return positions


def rightmost_positions(w: str, s: str) -> Optional[list[int]]:
    """0-based positions of the greedy rightmost embedding of ``w`` in ``s``."""
    positions = []
    end = len(s)
    for c in reversed(w):
        i = s.rfind(c, 0, end)
        if i < 0:
            return None
        positions.append(i)
        end = i
    positions.reverse()
    return positions


def middle(s: str, w: str, k: int) -> str:
    """Substring of ``s`` left after removing the shortest prefix containing
    ``w[:k]`` and the shortest suffix containing ``w[k:]``.

    The shortest prefix ends at the greedy leftmost embedding of ``w[:k]``;
    the shortest suffix starts at the greedy rightmost embedding of ``w[k:]``.
    Empty when the two regions overlap or abut.
    """
    if not 0 <= k <= len(w):
        raise ValueError(f"split index {k} out of range for subsequence of length {len(w)}")
    if not is_subsequence(w, s):
        raise ValueError(f"{w!r} is not a subsequence of {s!r}")
    pre = leftmost_positions(w[:k], s)
    suf = rightmost_positions(w[k:], s)
    lo = pre[-1] + 1 if pre else 0
    hi = suf[0] if suf else len(s)
    return s[lo:hi] if lo < hi else ""


def common_chars(strings: Iterable[str]) -> Counter:
    """Characters present in every string, with the minimum occurrence
    count across the strings as multiplicity.

    Callers that only need the character set can ignore the counts.
    Returns an empty counter when no character is shared (in particular
    whenever any string is empty).
    """
    strs = check_strings(strings)
    return reduce(lambda a, b: a & b, (Counter(s) for s in strs))


def breakpoints(strings: Iterable[str], w: str) -> list[int]:
    """Insertion slots ``k`` in 0..len(w) where the per-string middle
    substrings still share at least one character.

    A nonempty result means ``w`` can be extended by inserting a shared
    character at any listed slot and remain common to all strings.

    Raises ValueError if ``w`` is not common to every string; that is a
    caller bug, not a legitimate query.
    """
    strs = check_strings(strings)
    # Greedy embeddings extend prefix by prefix and suffix by suffix, so
    # slot k's middle in s lies between w's leftmost embedding up to k and
    # its rightmost embedding from k: one pair of embeddings per string.
    cuts = []
    for i, s in enumerate(strs):
        left = leftmost_positions(w, s)
        if left is None:
            raise ValueError(f"{w!r} is not a subsequence of string #{i} ({s!r})")
        cuts.append((s, [0] + [p + 1 for p in left], rightmost_positions(w, s) + [len(s)]))
    slots = []
    for k in range(len(w) + 1):
        mids = [s[lo[k] : hi[k]] for s, lo, hi in cuts]
        if all(mids) and set(mids[0]).intersection(*mids[1:]):
            slots.append(k)
    return slots


def is_maximal(strings: Iterable[str], w: str) -> bool:
    """True iff ``w`` is common to all strings and no single character can
    be inserted anywhere in ``w`` without breaking commonality.

    A non-common ``w`` returns False rather than raising.
    """
    strs = check_strings(strings)
    if not all(is_subsequence(w, s) for s in strs):
        return False
    return not breakpoints(strs, w)
