"""Exact small-instance algorithms: dynamic-programming longest common
subsequence and exhaustive enumeration of all maximal common
subsequences.

Both refuse oversized inputs instead of hanging. ``lcs_dp`` is guarded
by the product of the string lengths plus one, the cells a dense DP
table would need, although its contour fill keeps one entry per LCS
value rather than one per prefix of the longest string, and it admits
at most 23 nonempty strings; enumeration is exponential in the shortest
string. They serve as ground truth for the randomized search and back
the ``lcs`` CLI command.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from ._engine import code_points
from ._validation import SizeGuardError, check_strings
from .subsequence import is_subsequence

MAX_LCS_CELLS = 10_000_000
MAX_ENUM_STRINGS = 4
MAX_ENUM_SHORTEST = 12


def lcs_dp(strings: Iterable[str]) -> str:
    """One longest common subsequence of the strings, of any count.

    The guard counts the prod(len(s) + 1) cells of the dense DP table and
    caps them at 10**7, so at most 23 nonempty strings pass; one string
    or an empty string needs no table and skips it. The fill loops over
    the shortest string and keeps, per LCS value, the least prefix of the
    longest string that reaches it (see ``_fill_table``), so it stores
    and scans far fewer entries than the guard counts. Ties are broken
    deterministically by preferring to drop the last character of the
    lowest-indexed string, so repeated calls agree whatever the roles;
    the length is unique even where the string is not.
    """
    strs = check_strings(strings)
    if any(not s for s in strs):
        return ""
    if len(strs) == 1:
        return strs[0]
    # Counting stops at the cap. Each string at least doubles the count,
    # so at most 23 pass and the table has at most 22 axes, under numpy's 32.
    cells = 1
    for s in strs:
        cells *= len(s) + 1
        if cells > MAX_LCS_CELLS:
            raise SizeGuardError(f"lcs_dp table would need more than {MAX_LCS_CELLS} cells; "
                                 "use the randomized search instead")

    return _backtrack(strs, _fill_table(strs))


def _fill_table(strs: tuple[str, ...]) -> tuple[list[int], list[np.ndarray]]:
    """Forward DP pass on contours, one vectorized step per loop character.

    Roles: the loop string is the shortest, the contour string the
    longest, and the strings between are the dense *middle* axes.
    ``rows[i][J + (v,)]`` is the least prefix length k of the contour
    string such that the LCS of the loop string's first i characters, the
    middles' prefixes J and the contour's first k characters is at least
    v, or ``len(contour) + 1`` where none is.
    Row i keeps the columns v up to the LCS of its prefixes, so the table
    holds one entry per LCS value instead of one per contour prefix.

    Step i with character c: where every middle's J-th character is c,
    the diagonal reaches v at the first c in the contour after
    ``rows[i - 1][J - 1][v - 1]``. Dropping middle characters unrolls to a
    prefix minimum over the dominated box, one running minimum per middle
    axis, and the row is the smaller of that and ``rows[i - 1]``. A
    character missing from a middle or the contour reuses the last row.
    """
    roles = sorted(range(len(strs)), key=lambda t: len(strs[t]))
    loop, *middles, contour = (code_points(strs[t]) for t in roles)
    end = len(contour) + 1
    # Entries are contour prefix lengths or the sentinel len(contour) + 1,
    # so int16 holds them while the sentinel stays below 32,768.
    dtype = np.int16 if end <= np.iinfo(np.int16).max else np.int32
    loop = loop.tolist()
    steps = {}
    for c, uses in Counter(loop).items():
        # Each middle's positions of c are where J - 1 reads, and the J
        # that match c split its axis into blocks that share a minimum.
        prev = [np.flatnonzero(m == c) for m in middles]
        after = _next_after(contour, c, dtype, dense=uses >= 4)
        if after is not None and all(p.size for p in prev):
            blocks = [np.diff(p + 1, prepend=0, append=len(m) + 1) for p, m in zip(prev, middles)]
            steps[c] = (after, np.ix_(*prev), blocks, tuple(b.size for b in blocks))
    row = np.zeros(tuple(len(m) + 1 for m in middles) + (1,), dtype=dtype)
    rows = [row]
    inner, corner = (slice(1, None),) * row.ndim, (-1,) * row.ndim
    for c in loop:
        step = steps.get(c)
        if step is None:
            rows.append(row)
            continue
        after, src, blocks, grid = step
        width = row.shape[-1]
        # The candidates on the grid of matching J, behind a sentinel slab
        # that stands for the J before the first match on each axis.
        cand = np.empty(grid + (width + 1,), dtype=dtype)
        cand.fill(end)
        cand[inner] = after(row[src])
        for axis in range(len(blocks)):
            np.minimum.accumulate(cand, axis=axis, out=cand)
        for axis, block in enumerate(blocks):
            cand = cand.repeat(block, axis=axis)
        head = cand[..., :width]
        np.minimum(head, row, out=head)
        # The whole-prefix corner holds each column's least entry.
        row = cand if cand[corner] < end else head
        rows.append(row)
    return roles, rows


def _next_after(contour: np.ndarray, c: int, dtype: type, dense: bool) -> Callable | None:
    """Map contour prefix lengths x to the least k > x with
    ``contour[k - 1] == c``, or to ``len(contour) + 1`` where none is.

    None where c does not occur. A dense map takes one lookup per entry
    and holds ``len(contour) + 2`` of them; the fill builds one only for
    characters the loop string repeats at least four times, so all of
    them together hold under a quarter as many entries as the dense DP
    table has cells. Other characters binary-search their positions.
    """
    (at,) = (contour == c).nonzero()
    if not at.size:
        return None
    occ = np.empty(at.size + 1, dtype=dtype)
    np.add(at, 1, out=occ[:-1], casting="unsafe")
    occ[-1] = len(contour) + 1
    if dense:
        # Positions x in [occ[j - 1], occ[j]) map to occ[j]; the sentinel
        # maps to itself.
        span = np.diff(occ, prepend=0)
        span[-1] += 1
        return np.repeat(occ, span).take
    keys = occ[:-1]
    return lambda x: occ.take(keys.searchsorted(x, "right"))


def _backtrack(strs: tuple[str, ...], table: tuple[list[int], list[np.ndarray]]) -> str:
    roles, rows = table
    rank = [roles.index(d) for d in range(len(strs))]
    widths = [row.shape[-1] for row in rows]
    # Prefix lengths in role order: loop, middles, contour (the last).
    idx = [len(strs[t]) for t in roles]
    out = []
    here = widths[-1] - 1
    last = len(strs) - 1
    while here:
        for r in rank:
            if idx[r] > 0:
                idx[r] -= 1
                # Dropping a character never raises the LCS, so it keeps
                # the value iff the prefixes still reach it.
                i, *mid, k = idx
                if here < widths[i] and (least := rows[i].item(*mid, here)) <= k:
                    if r == last:
                        # Each string tried before the contour failed and
                        # still fails on the dominated prefixes below, so
                        # the contour drops on to the least reaching prefix.
                        idx[r] = least
                    break
                idx[r] += 1
        else:
            # No single drop preserves the value, so every last character
            # matches and the optimum extends the diagonal.
            out.append(strs[0][idx[rank[0]] - 1])
            idx = [i - 1 for i in idx]
            here -= 1
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
