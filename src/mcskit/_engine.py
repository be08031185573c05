"""Occurrence tables, slot scan and draw loop of the randomized search.

:class:`BreakpointScanner` holds all three layers for one string set.
Its constructor builds numpy occurrence tables, capped by
:data:`MAX_TABLE_BYTES`. :meth:`BreakpointScanner.slots` takes R common
subsequences of one length, scans every slot of each over every string
at once, one flat ``take`` a step over all R x L cursors, and answers
per subsequence: its live slots and their bags. The tests compare those
with the contract primitives in :mod:`mcskit.subsequence`.
:meth:`BreakpointScanner.search` advances batches of seeded runs in
lockstep through it, one call a round, and keeps each subsequence's
answer for the rest of the search, so repeated runs scan each distinct
subsequence once. :data:`ROUND_BYTES` sizes the batch and the count
gather, and bounds what a search keeps.

Only characters common to every string can ever appear in a bag or in a
common subsequence, so the constructor deletes every other character
from the strings, and the tables cover just the shared ones. A string
that holds another one as a subsequence never sets a bag or closes a
slot, so after the build one bounded pass drops such strings, and the
scan, the batch and the count gather are sized from the strings left:
a column whose values all hold one value is scanned over that one.

The strings, shared characters only, lie end to end in one text of n
characters; boundary i of ``strings[l]`` is offset ``starts[l] + i``,
and a string the pass drops stays in the text, unread. Each table has
one row per shared character over the boundaries of that text, about 12
bytes per shared character and text character in all. A lookup that
finds no c left in a string lands in a later string or past the text,
beyond the string's end, and the kernel cannot tell that miss from a
hit. So callers pass only common subsequences: ``randomized._searcher``
checks a nonempty ``start`` before it starts a search, and a run adds
only bag characters.
"""

from __future__ import annotations

from itertools import islice
from random import Random
from typing import Iterable, Iterator

import numpy as np

from ._validation import UNIFORM, SizeGuardError
from .subsequence import is_subsequence

# Byte budget of one lockstep round. It fixes how many runs advance
# together (their cursor arrays and count columns fit in it at the
# longest possible subsequence) and how many slots one count gather
# covers. It also bounds the scanned subsequences one search keeps: at
# 1 byte a search keeps none and every run scans every round.
ROUND_BYTES = 1 << 20

# Cap on a scanner's build, in bytes: the tables and the build's mask
# take about 13 bytes per shared character and text character, so 1 GiB
# fits 8,000 strings of 500 over 20 shared characters. A cap below 8 GiB
# also keeps every flat table offset within int32.
MAX_TABLE_BYTES = 1 << 30


def code_points(text: str) -> np.ndarray:
    """Code points of ``text`` as a uint32 array.

    ``surrogatepass`` keeps lone surrogates such as ``"\\ud800"``, which a
    ``str`` may hold but a plain UTF-32 encode rejects.
    """
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


class BreakpointScanner:
    """Reusable scanner for one fixed string set.

    Building the occurrence tables is linear in total input size, so a
    scanner is constructed once per set of searches and queried once per
    round with the growing subsequences. ``batch`` is the number of runs
    that advance together under :data:`ROUND_BYTES`.
    """

    def __init__(self, strings: tuple[str, ...]):
        # Bags are minima over strings and a live slot needs every string: repeats change neither.
        # Nor does a string t that holds another string s over the shared
        # characters: for a common w and a slot k, an embedding of s in t
        # takes s's greedy embeddings of w[:k] and w[k:] into t, so t's own
        # end no later and start no earlier; s's middle then embeds in t's,
        # and s alone sets every minimum. The scan skips such t (_least).
        strings = tuple(dict.fromkeys(strings))
        shared = sorted(set(strings[0]).intersection(*strings[1:]))
        self.alphabet = shared
        # sorted orders a str by code point, so these ascend.
        self._codes = code_points("".join(shared))
        # The guard counts the strings as given, before the reductions below.
        n = sum(map(len, strings))
        need = 13 * len(shared) * (n + 2)
        if need > MAX_TABLE_BYTES:
            raise SizeGuardError(
                f"scanner tables would need about {need} bytes for {len(shared)} shared "
                f"characters over {n} characters (> MAX_TABLE_BYTES = {MAX_TABLE_BYTES})"
            )
        text = code_points("".join(strings))
        # hit[c, i]: text[i] is shared[c].
        hit = self._codes[:, None] == text
        # A common subsequence and a bag hold only shared characters, and
        # every middle keeps its shared ones when the others are deleted: so
        # deleting them changes no slot and no bag. A text character matches
        # at most one shared character, so hit counts n when none is to go.
        if np.count_nonzero(hit) < n:
            is_shared = np.logical_or.reduce(hit, axis=0)
            # ends[l]: where string l ends once the others are gone.
            ends = np.append(0, is_shared.cumsum())[np.cumsum([len(s) for s in strings])].tolist()
            joined = text[is_shared].tobytes().decode("utf-32-le", "surrogatepass")
            strings = tuple(dict.fromkeys(joined[a:b] for a, b in zip([0, *ends], ends)))
            text = code_points("".join(strings))
            hit = self._codes[:, None] == text
            n = len(text)
        # Offsets fit int32 under MAX_TABLE_BYTES. bounds[0] and bounds[1]
        # hold where each string starts and ends in the text.
        lengths = np.array([len(s) for s in strings], dtype=np.int32)
        bounds = np.empty((2, 1, len(strings)), dtype=np.int32)
        np.cumsum(lengths, out=bounds[1, 0])
        np.subtract(bounds[1, 0], lengths, out=bounds[0, 0])
        at = np.arange(n, dtype=np.int32)

        # Both cursor tables share one allocation, so one flat take a step
        # advances the forward and the backward cursors of every run.
        # Tables are filled in place: no full-size temporary beyond hit.
        self._tables = np.empty((2, len(shared), n + 2), dtype=np.int32)
        # nxt: offset just past the first c at or after the boundary, or
        # n + 1 when there is none; looking up from n + 1 misses again.
        nxt = self._tables[0]
        nxt.fill(n + 1)
        np.copyto(nxt[:, :n], at + 1, where=hit)
        np.minimum.accumulate(nxt[:, ::-1], axis=1, out=nxt[:, ::-1])
        # lst: offset of the last c before the boundary (-1 when none); its
        # column n + 1 is never read.
        lst = self._tables[1, :, : n + 1]
        lst.fill(-1)
        np.copyto(lst[:, 1:], at, where=hit)
        np.maximum.accumulate(lst, axis=1, out=lst)
        # cum[i, c]: occurrences of c in the text before boundary i; the
        # difference of two boundaries of one string counts that string's.
        # Boundary-major, so one gathered boundary reads one short row. It
        # is summed 16,384 boundaries at a time: a running sum down its
        # narrow columns is fast only while the block stays in cache.
        self._cum = cum = np.empty((n + 1, len(shared)), dtype=np.int32)
        cum[0] = 0
        for i in range(0, n, 1 << 14):
            block = cum[i : i + 1 + (1 << 14)]
            block[1:] = hit[:, i : i + (1 << 14)].T
            np.cumsum(block, axis=0, out=block)
        # Distinct strings of one length hold none of each other.
        shortest = int(lengths.min())
        if shortest < lengths.max():
            bounds = bounds[:, :, self._least(strings, bounds)]
        self._bounds = bounds
        n_str = bounds.shape[2]
        # The flat offset of each table row, once per string.
        rows = np.arange(0, self._tables.size, n + 2, dtype=np.int32)
        self._row_offsets = rows.repeat(n_str).reshape(-1, n_str)

        # Per run, a round holds about 25 bytes per slot and string (cursors,
        # lookup offsets, the slot's two ends, a comparison) and 4 per slot
        # and shared character, for m + 1 slots with m at most the shortest
        # string; the run's random generator keeps 2.5 KB of state. One
        # gathered slot takes 8 bytes per string and shared character, and 8
        # per string for its ends: 12 per string and character bounds both
        # from two shared characters on.
        per_run = (shortest + 1) * (25 * n_str + 4 * len(shared)) + 2_500
        self.batch = max(1, ROUND_BYTES // per_run)
        self._piece = max(1, ROUND_BYTES // (12 * n_str * max(len(shared), 1)))

    def _least(self, strings: tuple[str, ...], bounds: np.ndarray) -> np.ndarray:
        """Ascending indices of ``strings`` left once one pass drops the
        strings that hold another.

        Candidates are tried shortest first. Each is tested only against
        the longer kept strings whose count of every character is at least
        its own, and every string it embeds in is dropped. The test makes
        the fewer Python calls: one nxt lookup per candidate character over
        all those strings at once, or one ``is_subsequence`` per string.
        The pass stops at the first candidate that drops nothing, and once
        its work reaches the sigma x (n + 2) cells of a table, counting one
        unit per count compared and per character of each string tested;
        so it costs about one build at most.
        """
        starts, ends = bounds[:, 0]
        lengths = ends - starts
        got = self._cum.take(bounds[:, 0], axis=0)
        counts = got[1] - got[0]
        nxt = self._tables[0]
        work = nxt.size
        # live: the kept strings, shortest first.
        live = lengths.argsort(kind="stable")
        p = 0
        while p < len(live) and work > 0:
            s = live[p]
            p += 1
            longer = live[p:][lengths.take(live[p:]) > lengths[s]]
            over = longer[(counts.take(longer, axis=0) >= counts[s]).all(axis=1)]
            if lengths[s] <= len(over):
                cur = starts.take(over)
                for c in self._codes.searchsorted(code_points(strings[s])).tolist():
                    cur = nxt[c].take(cur)
                held = over[cur <= ends.take(over)]
            else:
                held = [t for t in over.tolist() if is_subsequence(strings[s], strings[t])]
            work -= len(longer) * len(self.alphabet) + int(lengths.take(over).sum())
            if not len(held):
                break
            live = live[~np.isin(live, held)]
        return np.sort(live)

    def slots(self, ws: list[str]) -> list[tuple[list[int], np.ndarray]]:
        """Live slots of R common subsequences ``ws`` of one length m.

        Returns one ``(ks, bags)`` pair per subsequence, in ``ws`` order:
        ``ks`` lists its live slots in ascending order, and row p of the
        ``len(ks)`` x sigma matrix ``bags`` is slot ``ks[p]``'s bag, the
        minimum count of each shared character over its middle substrings.
        A subsequence with no live slot gets ``[]`` and a 0 x sigma matrix.
        """
        r, n_str, m = len(ws), self._bounds.shape[2], len(ws[0])
        # The table rows the greedy embeddings read: forward each w's
        # alphabet indices (its code points' positions in the ascending
        # _codes), backward those of w reversed, each plus sigma.
        text = code_points("".join(ws) + "".join([w[::-1] for w in ws]))
        rows = self._codes.searchsorted(text).reshape(2, r, m)
        rows[1] += len(self.alphabet)
        # cur[t, 0]: per run and string, the offset ending the shortest
        # prefix that contains the run's first t characters (greedy
        # leftmost embedding). cur[t, 1]: the offset starting the shortest
        # suffix that contains its last t characters (greedy rightmost
        # embedding). Step t looks both up in one flat take over all
        # R x L cursors; every index is in the table.
        cur = np.empty((m + 1, 2, r, n_str), dtype=np.int32)
        cur[0] = self._bounds
        step = self._row_offsets.take(rows.transpose(2, 0, 1), axis=0)
        table = self._tables.reshape(-1)
        for at, here, there in zip(step, cur, cur[1:]):
            np.add(at, here, out=at)
            table.take(at, out=there, mode="clip")

        # ends[:, j * (m + 1) + k]: the prefix and suffix cursors of run j
        # around slot k, between which its middles lie. A slot where some
        # middle is empty shares no character: only slots with every middle
        # nonempty are counted.
        ends = np.empty((2, r, m + 1, n_str), dtype=np.int32)
        ends[0] = cur[:, 0].transpose(1, 0, 2)
        ends[1] = cur[::-1, 1].transpose(1, 0, 2)
        ends = ends.reshape(2, -1, n_str)
        cand = np.logical_and.reduce(ends[1] > ends[0], axis=1).nonzero()[0]
        # counts[p, c]: the minimum over strings of c's occurrences in the
        # middles of candidate p, gathered string-major so the minimum runs
        # over whole rows. The difference overwrites the suffix half.
        counts = np.empty((len(cand), len(self.alphabet)), dtype=np.int32)
        for a in range(0, len(cand), self._piece):
            at = ends.take(cand[a : a + self._piece], axis=1).transpose(0, 2, 1)
            gathered = self._cum.take(at, axis=0)
            np.subtract(gathered[1], gathered[0], out=gathered[1])
            np.minimum.reduce(gathered[1], axis=0, out=counts[a : a + self._piece])
        live = np.logical_or.reduce(counts, axis=1).nonzero()[0]
        # Cell j * (m + 1) + k is slot k of ws[j]. Cells ascend, so ws[j]'s
        # live slots end at cuts[j], where cell (j + 1) * (m + 1) would go.
        cell = cand.take(live)
        cuts = cell.searchsorted(np.arange(m + 1, r * (m + 1) + 1, m + 1)).tolist()
        ks, bags = (cell % (m + 1)).tolist(), counts.take(live, axis=0)
        return [(ks[a:b], bags[a:b]) for a, b in zip([0, *cuts], cuts)]

    def search(self, seeds: Iterable[int], weighting: str, start: str) -> Iterator[str]:
        """Results of the runs seeded by ``seeds``, in seed order.

        Runs grow from ``start``, which the caller has checked, and are
        taken :attr:`batch` at a time. A batch advances in lockstep, one
        character a round; a run leaves once it has no live slot, its
        subsequence then being its result. Each run draws as a lone run
        would from its own ``Random(seed)``: a slot from its live slots in
        slot order, then a character from that slot's bag in alphabet
        order, with Python-int weights unless ``weighting`` is uniform.

        The live slots of a subsequence depend on nothing else, and
        repeated runs keep reaching the same ones, so a round passes
        :meth:`slots` only the distinct subsequences this search has not
        scanned yet. Later batches of the search reuse each subsequence's
        slots and bags until the kept bag rows, slots and entries would
        pass :data:`ROUND_BYTES`; none is dropped. A batch short of full is
        the last, so it keeps nothing.
        """
        # seen[w]: w's live slots and their bags, as slots returned them.
        seen, held = {}, 0
        seeds = iter(seeds)
        while batch := list(islice(seeds, self.batch)):
            # Runs of one batch grow in step, so only a later batch can
            # reach a subsequence this one scanned.
            keep = len(batch) == self.batch
            # A run is [rng, subsequence].
            active = runs = [[Random(s), start] for s in batch]
            while active:
                # Runs at one subsequence share its scan.
                fresh = {w: None for _, w in active if w not in seen}
                found = dict(zip(fresh, self.slots(list(fresh)))) if fresh else {}
                if keep and found:
                    # Sizes as sys.getsizeof reads them: 128 for the round's bag matrix;
                    # per entry its bag rows, 8 a slot (36 in a key past 256, whose slot
                    # indices pass the cached ints), 56 + 56 + 128 for its tuple, list and
                    # view, 76 + 4 a character for its key, and 48 for its dict slot.
                    size = 128 + sum(b.nbytes + (8 if len(w) <= 256 else 36) * len(ks) + 364
                                     + 4 * len(w) for w, (ks, b) in found.items())
                    if held + size <= ROUND_BYTES:
                        seen.update(found)
                        held += size
                moving = []
                for run in active:
                    rng, w = run
                    ks, bags = found.get(w) or seen[w]
                    if not ks:
                        continue
                    p = rng.randrange(len(ks))
                    bag = bags[p].tolist()
                    chars = [c for c, n in enumerate(bag) if n]
                    if weighting == UNIFORM:
                        c = chars[rng.randrange(len(chars))]
                    else:
                        c = rng.choices(chars, weights=[n for n in bag if n])[0]
                    k = ks[p]
                    run[1] = w[:k] + self.alphabet[c] + w[k:]
                    moving.append(run)
                active = moving
            for _, w in runs:
                yield w
