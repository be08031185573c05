"""Vectorized rescan of insertion slots and their character bags.

The randomized search recomputes, for every slot k of the current
subsequence, the per-string middle substrings and the multiset of
characters they share. :class:`BreakpointScanner` batches that scan over
all slots and strings at once with numpy occurrence tables; the contract
primitives in :mod:`mcskit.subsequence` define what it must return, and
the tests compare the two. Only characters common to every string can
ever appear in a bag, so the tables cover just those characters.

The strings lie end to end in one text of n characters; boundary i of
``strings[l]`` is offset ``starts[l] + i``. Each table has one row per
shared character over the boundaries of that text, about 12 bytes per
shared character and text character in all. A lookup that finds no c
left in a string lands in a later string or past the text, beyond the
string's end; later lookups only move right, so one check at the end
catches every miss.
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
        # Bags are minima over strings and a live slot needs every string: repeats change neither.
        strings = tuple(dict.fromkeys(strings))
        shared = sorted(set(strings[0]).intersection(*strings[1:]))
        self._alphabet = shared
        self._char_index = {c: i for i, c in enumerate(shared)}
        # Offsets fit int32 until the tables need gigabytes.
        lengths = np.array([len(s) for s in strings], dtype=np.int32)
        self._ends = np.cumsum(lengths, dtype=np.int32)
        self._starts = self._ends - lengths
        n = int(self._ends[-1])
        at = np.arange(n, dtype=np.int32)
        # hit[c, i]: text[i] is shared[c].
        hit = code_points("".join(shared))[:, None] == code_points("".join(strings))

        # Tables are filled in place: no full-size temporary beyond hit.
        # nxt: offset just past the first c at or after the boundary, or
        # n + 1 when there is none; looking up from n + 1 misses again.
        self._nxt = nxt = np.full((len(shared), n + 2), n + 1, dtype=np.int32)
        np.copyto(nxt[:, :n], at + 1, where=hit)
        np.minimum.accumulate(nxt[:, ::-1], axis=1, out=nxt[:, ::-1])
        # lst: offset of the last c before the boundary (-1 when none).
        self._lst = lst = np.full((len(shared), n + 1), -1, dtype=np.int32)
        np.copyto(lst[:, 1:], at, where=hit)
        np.maximum.accumulate(lst, axis=1, out=lst)
        # cum: occurrences of c in the text before the boundary; the
        # difference of two boundaries of one string counts that string's.
        self._cum = cum = np.zeros((len(shared), n + 1), dtype=np.int32)
        cum[:, 1:] = hit
        np.cumsum(cum, axis=1, out=cum)

    def scan(self, w: str) -> list[tuple[int, dict[str, int]]]:
        """All (slot, bag) pairs for common subsequence ``w``, slot-sorted.

        ``bag`` maps each character shared by all middle substrings at
        that slot to its minimum occurrence count across them. Slots
        with empty bags are omitted. Every bag's keys come in sorted
        order. Raises ValueError when ``w`` is not a subsequence of every
        string. Repeated strings were dropped at construction; they would
        not change any slot or bag.
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
