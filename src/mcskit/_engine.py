"""Vectorized rescan of insertion slots and their character bags.

The randomized search recomputes, for every slot k of the current
subsequence, the per-string middle substrings and the multiset of
characters they share. :class:`BreakpointScanner` batches that scan over
all slots and strings at once with numpy occurrence tables; the contract
primitives in :mod:`mcskit.subsequence` define what it must return, and
the tests compare the two. Only characters common to every string can
ever appear in a bag, so the tables cover just those characters.
"""

from __future__ import annotations

import numpy as np


def code_points(text: str) -> np.ndarray:
    """Code points of ``text`` as a uint32 array.

    ``surrogatepass`` keeps lone surrogates such as ``"\\ud800"``, which a
    ``str`` may hold but a plain UTF-32 encode rejects.
    """
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


class BreakpointScanner:
    """Reusable scanner for one fixed string set.

    Building the occurrence tables is linear in total input size, so a
    scanner is constructed once per search and queried once per
    iteration with the growing subsequence.
    """

    def __init__(self, strings: tuple[str, ...]):
        self.strings = strings
        shared = sorted(set(strings[0]).intersection(*strings[1:]))
        self._alphabet = shared
        self._char_index = {c: i for i, c in enumerate(shared)}
        lengths = np.array([len(s) for s in strings], dtype=np.int32)
        n_strings, n_chars = len(strings), len(shared)

        # Boundary i of strings[l] sits at flat offset l * width + i, for
        # i in 0..width-1. The boundary past the longest string's end keeps
        # a failed lookup in range. Offsets fit int32: the tables would
        # need gigabytes before they overflowed.
        width = int(lengths.max(initial=0)) + 2
        starts = np.arange(n_strings, dtype=np.int32) * width
        self._starts = starts
        self._ends = starts + lengths

        # hit[c, l, i]: strings[l][i] is shared[c]; padding never hits.
        padded = np.zeros((n_strings, width), dtype=np.uint32)
        in_string = np.arange(width) < lengths[:, None]
        padded[in_string] = code_points("".join(strings))
        hit = (code_points("".join(shared))[:, None, None] == padded) & in_string
        at = starts[:, None] + np.arange(width, dtype=np.int32)

        # Each table maps (character, boundary offset) to a value, one
        # flat row per character.
        # nxt: offset just past the first c at or after the boundary, or
        # end + 1 when there is none; looking up from end + 1 misses again.
        nxt = np.where(hit, at + 1, self._ends[:, None] + 1)
        np.minimum.accumulate(nxt[:, :, ::-1], axis=2, out=nxt[:, :, ::-1])
        self._nxt = nxt.reshape(n_chars, n_strings * width)
        # lst: offset of the last c before the boundary (-1 when none).
        lst = np.full(hit.shape, -1, dtype=np.int32)
        lst[:, :, 1:] = np.where(hit[:, :, :-1], at[:, :-1], -1)
        np.maximum.accumulate(lst, axis=2, out=lst)
        self._lst = lst.reshape(n_chars, n_strings * width)
        # cum: occurrences of c in the string before the boundary.
        cum = np.zeros(hit.shape, dtype=np.int32)
        np.cumsum(hit[:, :, :-1], axis=2, out=cum[:, :, 1:])
        self._cum = cum.reshape(n_chars, n_strings * width)

    def scan(self, w: str) -> list[tuple[int, dict[str, int]]]:
        """All (slot, bag) pairs for common subsequence ``w``, slot-sorted.

        ``bag`` maps each character shared by all middle substrings at
        that slot to its minimum occurrence count across them. Slots
        with empty bags are omitted. Raises ValueError when ``w`` is not
        a subsequence of every string.
        """
        try:
            codes = [self._char_index[c] for c in w]
        except KeyError as exc:
            raise ValueError(f"{w!r} is not a subsequence of every string") from exc
        m = len(w)

        # pre[k]: per string, the offset ending the shortest prefix that
        # contains w[:k] (greedy leftmost embedding); past the end once a
        # character of w is missing.
        pre = np.empty((m + 1, len(self._starts)), dtype=np.int32)
        pre[0] = self._starts
        for t, c in enumerate(codes):
            self._nxt[c].take(pre[t], out=pre[t + 1])
        if (pre[m] > self._ends).any():
            raise ValueError(f"{w!r} is not a subsequence of every string")

        # suf[k]: the offset starting the shortest suffix that contains
        # w[k:] (greedy rightmost embedding); it exists because the
        # leftmost one does.
        suf = np.empty_like(pre)
        suf[m] = self._ends
        for t in range(m - 1, -1, -1):
            self._lst[codes[t]].take(suf[t + 1], out=suf[t])

        # Middle substrings span pre..max(pre, suf); count per character
        # and keep the minimum over strings.
        np.maximum(suf, pre, out=suf)
        bags = (self._cum.take(suf, axis=1) - self._cum.take(pre, axis=1)).min(axis=2).T.tolist()
        out = []
        for k, row in enumerate(bags):
            bag = {c: n for c, n in zip(self._alphabet, row) if n}
            if bag:
                out.append((k, bag))
        return out
