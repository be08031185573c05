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
from itertools import combinations
from typing import Iterable

import numpy as np

from ._engine import code_points
from ._validation import check_strings
from .subsequence import is_subsequence

MAX_LCS_STRINGS = 4
MAX_LCS_CELLS = 10_000_000
MAX_ENUM_STRINGS = 4
MAX_ENUM_SHORTEST = 12


class SizeGuardError(ValueError):
    """Input exceeds the explicit size guards of an exact algorithm."""


def lcs_dp(strings: Iterable[str]) -> str:
    """One longest common subsequence of up to four strings.

    The table has prod(len(s)) cells, guarded at 10**7. Ties are broken
    deterministically by preferring to drop the last character of the
    lowest-indexed string, so repeated calls agree; the length is unique
    even where the string is not.
    """
    strs = check_strings(strings)
    if len(strs) > MAX_LCS_STRINGS:
        raise SizeGuardError(
            f"lcs_dp handles at most {MAX_LCS_STRINGS} strings, got {len(strs)}"
        )
    cells = math.prod(len(s) for s in strs)
    if cells > MAX_LCS_CELLS:
        raise SizeGuardError(
            f"lcs_dp table would need {cells} cells (> {MAX_LCS_CELLS}); "
            "use the randomized search instead"
        )
    if any(not s for s in strs):
        return ""
    if len(strs) == 1:
        return strs[0]

    dp = _fill_table(strs)
    return _backtrack(strs, dp)


def _fill_table(strs: tuple[str, ...]) -> np.ndarray:
    """Forward DP pass, vectorized along the last string's axis.

    Recurrence: a cell is the max over dropping the last character of
    any one string, plus the diagonal extension when all last characters
    agree. The drop along the last axis is folded into a running
    maximum over that axis.
    """
    shape = tuple(len(s) + 1 for s in strs)
    dp = np.zeros(shape, dtype=np.int32)
    last = code_points(strs[-1])

    for outer in np.ndindex(shape[:-1]):
        if 0 in outer:
            continue
        chars = {strs[d][i - 1] for d, i in enumerate(outer)}
        row = dp[tuple(o - 1 if d == 0 else o for d, o in enumerate(outer))].copy()
        for d in range(1, len(outer)):
            np.maximum(row, dp[tuple(o - 1 if dd == d else o for dd, o in enumerate(outer))], out=row)
        if len(chars) == 1:
            diag = dp[tuple(o - 1 for o in outer)]
            ext = np.where(last == ord(next(iter(chars))), diag[:-1] + 1, 0)
            np.maximum(row[1:], ext, out=row[1:])
        dp[outer] = np.maximum.accumulate(row)
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
