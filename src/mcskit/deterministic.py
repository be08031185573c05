"""Deterministic single maximal-common-subsequence construction.

Works left to right over the gaps of the growing subsequence. For the
current gap it keeps, per string, the segment between the greedy
leftmost embedding of everything left of the gap and the greedy
rightmost embedding of everything right of it. While those segments
share a character, one is inserted at the gap's right end; when they no
longer do, the gap can never admit an insertion again (later growth only
shrinks earlier segments), so the scan advances. The result is therefore
always maximal. The order of the strings fixes it: reversed, they often
give another solution.

The characters right of the cursor form a stack, nearest on top: an
insertion pushes, an advance pops. The character to insert is found by
lowering every rear one shift at a time until some segment ends in a
character that every shrunk segment holds. A character that fails is
dead for the rest of the gap, so each is tested once per gap and a
further shift costs one index and one set lookup per string.

Boundary convention matches the rest of the package: a string of length
n has positions 1..n and boundaries 0..n; the segment (i, j] holds
positions i+1..j.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._validation import check_strings


def _check_lookup(s: str, c: str, i: int) -> None:
    if len(c) != 1:
        raise ValueError(f"expected one character, got {c!r} of length {len(c)}")
    if not 0 <= i <= len(s):
        raise ValueError(f"boundary {i} out of range for string of length {len(s)}")


def idx_before(s: str, c: str, i: int) -> int:
    """Least boundary j such that ``c`` does not occur in positions j+1..i.

    Equals the position of the last occurrence of ``c`` at or before
    position i, or 0 when there is none.
    """
    _check_lookup(s, c, i)
    return s.rfind(c, 0, i) + 1


def idx_after(s: str, c: str, i: int) -> int:
    """Greatest boundary j such that ``c`` does not occur in positions i+1..j.

    Equals one less than the position of the first occurrence of ``c``
    after position i, or len(s) when there is none.
    """
    _check_lookup(s, c, i)
    found = s.find(c, i)
    return found if found >= 0 else len(s)


def _shared_end(strs: tuple[str, ...], idx_prev: list[int], idx_rear: list[int]) -> Optional[str]:
    """The last character c of segment j, with every rear lowered by t,
    that occurs in every other segment so lowered, at the least shift t
    and then the least string j. Returns c, or None when a segment
    empties first. Does not validate its input.

    A character missing from some segment at shift t is missing from it
    at every larger shift, as segments only shrink; such a character is
    dead for the rest of the search and is never tested again.
    """
    dead: set[str] = set()
    for t in range(min(r - p for p, r in zip(idx_prev, idx_rear))):
        for s, r in zip(strs, idx_rear):
            c = s[r - 1 - t]
            if c in dead:
                continue
            if all(u.rfind(c, p, q - t) >= 0 for u, p, q in zip(strs, idx_prev, idx_rear)):
                return c
            dead.add(c)
    return None


def one_mcs(strings: Iterable[str]) -> str:
    """A single maximal common subsequence, deterministically.

    The order of the strings fixes the result: reversed, they often (not
    always) give another solution. Any empty string makes "" the answer.
    """
    strs = check_strings(strings)
    ends = [len(s) for s in strs]

    # w holds the finished characters left of the cursor and left[j] the
    # end of w's greedy leftmost embedding in strs[j]. The stack right
    # holds the characters right of the cursor, nearest on top, each with
    # the boundary just before its greedy rightmost position per string;
    # the top's boundaries (or the string ends) are the gap's rears.
    w: list[str] = []
    left = [0] * len(strs)
    right: list[tuple[str, list[int]]] = []
    while True:
        rear = right[-1][1] if right else ends
        c = _shared_end(strs, left, rear)
        if c is not None:
            right.append((c, [idx_before(s, c, r) - 1 for s, r in zip(strs, rear)]))
        elif right:
            # The gap is closed for good: later insertions only shrink it.
            c = right.pop()[0]
            w.append(c)
            left = [idx_after(s, c, p) + 1 for s, p in zip(strs, left)]
        else:
            return "".join(w)
