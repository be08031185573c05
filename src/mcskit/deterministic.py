"""Deterministic single maximal-common-subsequence construction.

Works left to right over the gaps of the growing subsequence. For the
current gap it keeps, per string, the segment between the shortest
prefix containing everything left of the gap and the shortest suffix
containing everything right of it. While those segments share a
character, one is inserted; when they no longer do, the gap can never
admit an insertion again (later growth only shrinks earlier segments),
so the scan advances. The result is therefore always maximal, and fully
determined by the input order of the strings.

Boundary convention matches the rest of the package: a string of length
n has positions 1..n and boundaries 0..n; the segment (i, j] holds
positions i+1..j.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._validation import check_strings


def idx_before(s: str, c: str, i: int) -> int:
    """Least boundary j such that ``c`` does not occur in positions j+1..i.

    Equals the position of the last occurrence of ``c`` at or before
    position i, or 0 when there is none.
    """
    if not 0 <= i <= len(s):
        raise ValueError(f"boundary {i} out of range for string of length {len(s)}")
    return s.rfind(c, 0, i) + 1


def idx_after(s: str, c: str, i: int) -> int:
    """Greatest boundary j such that ``c`` does not occur in positions i+1..j.

    Equals one less than the position of the first occurrence of ``c``
    after position i, or len(s) when there is none.
    """
    if not 0 <= i <= len(s):
        raise ValueError(f"boundary {i} out of range for string of length {len(s)}")
    found = s.find(c, i)
    return found if found >= 0 else len(s)


def common_segment(
    strings: Iterable[str], idx_prev: list[int], idx_rear: list[int]
) -> Optional[tuple[int, str]]:
    """First string whose segment's last character occurs in every other
    string's segment.

    Segments are (idx_prev[j], idx_rear[j]] per string. Returns
    ``(j, c)`` for the lowest such string index, or None when any
    segment is empty or no candidate survives.
    """
    strs = check_strings(strings)
    if len(idx_prev) != len(strs) or len(idx_rear) != len(strs):
        raise ValueError("index vectors must have one entry per string")
    for s, p, r in zip(strs, idx_prev, idx_rear):
        for i in (p, r):
            if not 0 <= i <= len(s):
                raise ValueError(f"boundary {i} out of range for string of length {len(s)}")
    return _common_segment(strs, idx_prev, idx_rear)


def _common_segment(
    strs: tuple[str, ...], idx_prev: list[int], idx_rear: list[int]
) -> Optional[tuple[int, str]]:
    """:func:`common_segment` without input validation.

    Each candidate character is tested once: a character is always
    inside a segment it ends, so one that fails for one string fails for
    every string whose segment ends in it.
    """
    if any(p >= r for p, r in zip(idx_prev, idx_rear)):
        return None
    tried: set[str] = set()
    for j, s in enumerate(strs):
        c = s[idx_rear[j] - 1]
        if c in tried:
            continue
        tried.add(c)
        for i, (t, p, r) in enumerate(zip(strs, idx_prev, idx_rear)):
            if i != j and idx_before(t, c, r) <= p:
                break
        else:
            return j, c
    return None


def one_mcs(strings: Iterable[str], reverse_order: bool = False) -> str:
    """A single maximal common subsequence, deterministically.

    With ``reverse_order`` the string list is scanned in reverse, which
    often (not always) lands on a different solution. Any empty input
    string makes the empty subsequence the only answer.
    """
    strs = check_strings(strings)
    if reverse_order:
        strs = strs[::-1]
    if any(not s for s in strs):
        return ""
    n_strings = len(strs)

    # pos[j] aligns a virtual start marker, each character of w, and a
    # virtual end marker to boundaries of strs[j]. Left of the cursor the
    # alignment is the greedy leftmost one; right of it, greedy rightmost.
    w: list[str] = []
    pos = [[0, len(s) + 1] for s in strs]
    k = 0
    while k <= len(w):
        idx_prev = [pos[j][k] for j in range(n_strings)]
        idx_rear = [pos[j][k + 1] - 1 for j in range(n_strings)]
        while True:
            found = _common_segment(strs, idx_prev, idx_rear)
            if found is None:
                if any(p >= r for p, r in zip(idx_prev, idx_rear)):
                    break
                # No segment's last character is shared; shorten all
                # segments by one and retry. A shared character, if any
                # exists, is found before the tightest segment empties.
                idx_rear = [r - 1 for r in idx_rear]
                continue
            _, c = found
            w.insert(k, c)
            for j in range(n_strings):
                # Rightmost placement of c below the next aligned position
                # keeps the right-of-cursor alignment greedy rightmost.
                pos[j].insert(k + 1, idx_before(strs[j], c, pos[j][k + 1] - 1))
            idx_rear = [pos[j][k + 1] - 1 for j in range(n_strings)]
        k += 1
        if k <= len(w):
            for j in range(n_strings):
                pos[j][k] = idx_after(strs[j], w[k - 1], pos[j][k - 1]) + 1
    return "".join(w)
