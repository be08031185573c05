"""Exact small-instance algorithms: dynamic-programming longest common
subsequence and exhaustive enumeration of all maximal common
subsequences.

Both blow up quickly (the DP table is the product of the string
lengths; enumeration is exponential in the shortest string), so both
refuse oversized inputs instead of hanging. They serve as ground truth
for the randomized search and back the ``lcs`` CLI command.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from typing import Iterable

import numpy as np

from ._engine import code_points
from ._validation import SizeGuardError, check_strings
from .subsequence import is_subsequence

MAX_LCS_STRINGS = 4
MAX_LCS_CELLS = 10_000_000
MAX_ENUM_STRINGS = 4
MAX_ENUM_SHORTEST = 12


def lcs_dp(strings: Iterable[str]) -> str:
    """One longest common subsequence of up to four strings.

    The table has prod(len(s) + 1) cells, guarded at 10**7; one string
    or an empty string needs no table and skips that guard. Ties are broken
    deterministically by preferring to drop the last character of the
    lowest-indexed string, so repeated calls agree; the length is unique
    even where the string is not.
    """
    strs = check_strings(strings)
    if len(strs) > MAX_LCS_STRINGS:
        raise SizeGuardError(
            f"lcs_dp handles at most {MAX_LCS_STRINGS} strings, got {len(strs)}"
        )
    if any(not s for s in strs):
        return ""
    if len(strs) == 1:
        return strs[0]
    cells = math.prod(len(s) + 1 for s in strs)
    if cells > MAX_LCS_CELLS:
        raise SizeGuardError(
            f"lcs_dp table would need {cells} cells (> {MAX_LCS_CELLS}); "
            "use the randomized search instead"
        )

    dp = _fill_table(strs)
    return _backtrack(strs, dp)


def _fill_table(strs: tuple[str, ...]) -> np.ndarray:
    """Forward DP pass, one vectorized step per character of the first string.

    Recurrence: a cell is the max over dropping the last character of
    any one string, plus the diagonal extension when all last characters
    agree. Slice ``dp[i]`` holds the cells whose first-string prefix has
    length i, and follows from ``dp[i - 1]`` alone. Each cell first takes
    the larger of the same cell in ``dp[i - 1]`` and the diagonal
    extension where every other string's last character is
    ``strs[0][i - 1]``. Dropping characters of the other strings then
    unrolls to a prefix maximum over the dominated box, which one running
    maximum per axis computes in place.
    """
    # int16 suffices: a cell is at most the shortest length, and with two
    # or more strings the cell guard caps that at isqrt(MAX_LCS_CELLS) - 1 = 3161.
    shape = tuple(len(s) + 1 for s in strs)
    dp = np.zeros(shape, dtype=np.int16)
    others = [code_points(s) for s in strs[1:]]
    inner = (slice(1, None),) * len(others)
    diag = (slice(None, -1),) * len(others)

    for i, c in enumerate(code_points(strs[0]), 1):
        match = reduce(np.logical_and.outer, [cp == c for cp in others])
        prev, cur = dp[i - 1], dp[i][inner]
        # The table is non-decreasing along every axis, so off the matches
        # the diagonal never beats the cell itself: adding the boolean
        # mask yields the extension exactly where it applies.
        np.add(prev[diag], match, out=cur)
        np.maximum(cur, prev[inner], out=cur)
        for axis in range(len(others)):
            np.maximum.accumulate(cur, axis=axis, out=cur)
    return dp


def _backtrack(strs: tuple[str, ...], dp: np.ndarray) -> str:
    out = []
    idx = [len(s) for s in strs]
    while dp[tuple(idx)]:
        here = int(dp[tuple(idx)])
        for d in range(len(strs)):
            if idx[d] > 0:
                idx[d] -= 1
                if int(dp[tuple(idx)]) == here:
                    break
                idx[d] += 1
        else:
            # No single drop preserves the value, so every last character
            # matches and the optimum extends the diagonal.
            out.append(strs[0][idx[0] - 1])
            idx = [i - 1 for i in idx]
    out.reverse()
    return "".join(out)


def enumerate_mcs(strings: Iterable[str]) -> set[str]:
    """The exact set of maximal common subsequences, by brute force.

    Every common subsequence embeds in the shortest string, so the
    candidates are that string's distinct subsequences. A common
    candidate is maximal iff no common subsequence one character longer
    contains it.
    """
    strs = check_strings(strings)
    if len(strs) > MAX_ENUM_STRINGS:
        raise SizeGuardError(
            f"enumerate_mcs handles at most {MAX_ENUM_STRINGS} strings, got {len(strs)}"
        )
    base = min(strs, key=len)
    if len(base) > MAX_ENUM_SHORTEST:
        raise SizeGuardError(
            f"enumerate_mcs requires a string of length <= {MAX_ENUM_SHORTEST}, "
            f"shortest has {len(base)}"
        )
    others = [s for s in strs if s is not base]

    common: set[str] = set()
    for r in range(len(base) + 1):
        for picks in combinations(base, r):
            cand = "".join(picks)
            if cand not in common and all(is_subsequence(cand, s) for s in others):
                common.add(cand)

    by_len: dict[int, list[str]] = {}
    for w in common:
        by_len.setdefault(len(w), []).append(w)
    maximal = set()
    for w in common:
        above = by_len.get(len(w) + 1, ())
        if not any(is_subsequence(w, longer) for longer in above):
            maximal.add(w)
    return maximal
