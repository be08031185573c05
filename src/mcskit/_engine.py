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
slot, so the constructor reduces first and builds second: it builds
one next-occurrence table over the reduced strings, and a nesting pass
walks the strings through it and drops every string that holds
another. On sets that nest, the pass runs on to the minimal set, where
no kept string holds another; on a set where no string holds another it
stops after about one candidate, and :data:`LEAST_WORK` bounds it in
between. Then the tables are built over the text of the kept strings,
and the scan, the batch and the count gather are sized from them: a
column whose values all hold one value is scanned over that one. When a
single string is left, it is the only maximal common subsequence, and a
search returns it for every run without drawing.

The kept strings, shared characters only, lie end to end in one text of
n characters; boundary i of ``strings[l]`` is offset ``starts[l] + i``.
When the pass keeps most of the text, building the tables again would
cost more than it saves: the dropped strings then stay in the text,
unread, and the pass's table is kept. Each table has one row per shared
character over the boundaries of that text, about 12 bytes per shared
character and text character in all. A lookup that finds no c left in
a string lands in a later string or past the text, beyond the string's
end, and the kernel cannot tell that miss from a hit. So callers pass
only common subsequences: ``randomized._searcher`` checks a nonempty
``start`` before it starts a search, and a run adds only bag characters.
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

# Work the nesting pass (BreakpointScanner._least) may do before it has
# dropped a string, in counts compared and characters walked: about one
# candidate of 30 characters tested against 1,000 strings over 4 shared
# characters. Each character it drops earns it 3 units per shared
# character, the cells it saves in the three tables.
LEAST_WORK = 1 << 14


def code_points(text: str) -> np.ndarray:
    """Code points of ``text`` as a uint32 array.

    ``surrogatepass`` keeps lone surrogates such as ``"\\ud800"``, which a
    ``str`` may hold but a plain UTF-32 encode rejects.
    """
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """Where strings of these lengths, laid end to end, start
    (``bounds[0, 0]``) and end (``bounds[1, 0]``) in their text.

    int32 offsets: they fit under :data:`MAX_TABLE_BYTES`.
    """
    bounds = np.empty((2, 1, len(lengths)), dtype=np.int32)
    np.cumsum(lengths, out=bounds[1, 0])
    np.subtract(bounds[1, 0], lengths, out=bounds[0, 0])
    return bounds


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
        # and s alone sets every minimum. The nesting pass drops such t
        # (_least) before the tables are built.
        # When one string t is left, every given string holds t, so t is
        # common; and a common w, made of shared characters, embeds in t's
        # string as given and so in t. So t is the one maximal common
        # subsequence, and every run from a common start ends there:
        # search returns t without drawing.
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
        lengths = np.array([len(s) for s in strings], dtype=np.int32)
        tables = self._lookup(text, hit)
        bounds = _bounds(lengths)
        self._sole = strings[0] if len(strings) == 1 else None
        # Distinct strings of one length hold none of each other.
        shortest = int(lengths.min())
        if shortest < lengths.max():
            alive = self._least(strings, hit, bounds, tables[0])
            kept = np.flatnonzero(alive)
            if len(kept) == 1:
                self._sole = strings[kept[0]]
            # Building the three tables over the kept text costs less than
            # building the other two over the whole text: then the pass's
            # nxt is dropped and all three are built there. Otherwise the
            # dropped strings stay in the text, unread, and the pass's nxt
            # is the scanner's.
            if 3 * int(lengths.take(kept).sum()) < 2 * len(text):
                del tables
                text = text[alive.repeat(lengths)]
                hit = self._codes[:, None] == text
                tables = self._lookup(text, hit)
                bounds = _bounds(lengths.take(kept))
            elif len(kept) < len(strings):
                bounds = bounds[:, :, kept]
        self._bounds = bounds
        n = len(text)
        n_str = bounds.shape[2]

        self._tables = tables
        # lst: offset of the last c before the boundary (-1 when none); its
        # column n + 1 is never read.
        lst = tables[1, :, : n + 1]
        lst.fill(-1)
        np.copyto(lst[:, 1:], np.arange(n, dtype=np.int32), where=hit)
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
        # The flat offset of each table row, once per string.
        rows = np.arange(0, tables.size, n + 2, dtype=np.int32)
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

    def _lookup(self, text: np.ndarray, hit: np.ndarray) -> np.ndarray:
        """Room for both cursor tables over ``text``, with nxt filled.

        Both share one allocation, so one flat take a step advances the
        forward and the backward cursors of every run. nxt holds the
        offset just past the first c at or after the boundary, or n + 1
        when there is none; looking up from n + 1 misses again. It is
        filled in place: no full-size temporary beyond ``hit``.
        """
        n = len(text)
        tables = np.empty((2, len(self._codes), n + 2), dtype=np.int32)
        nxt = tables[0]
        nxt.fill(n + 1)
        np.copyto(nxt[:, :n], np.arange(1, n + 1, dtype=np.int32), where=hit)
        np.minimum.accumulate(nxt[:, ::-1], axis=1, out=nxt[:, ::-1])
        return tables

    def _least(self, strings: tuple[str, ...], hit: np.ndarray, bounds: np.ndarray,
               nxt: np.ndarray) -> np.ndarray:
        """Mask of the strings that hold no other string, as far as
        :data:`LEAST_WORK` reaches, over the text whose mask is ``hit``
        and whose next-occurrence table is ``nxt``.

        Candidates are tried shortest first, a chunk of one length at a
        time. A string is tested against a candidate only when it is
        longer and its count of every character is at least the
        candidate's, and every string that holds some candidate of the
        chunk is dropped. A string that holds another holds one that
        holds none, which is shorter, is never dropped, and so is tried
        before it: a pass that runs to the end leaves the minimal set.
        A candidate that drops nothing does not end the pass.

        A chunk walks its candidates over their strings through ``nxt``,
        all at once, one ``take`` a character. When there are fewer
        strings to test than a candidate has characters, as for a few long
        strings, each is tested with ``is_subsequence`` instead.

        The work counts one unit per count compared and per character
        walked. The pass may do :data:`LEAST_WORK` units, plus 3 sigma for
        each character it drops, which then is in none of the three
        tables. A chunk takes as many candidates as that leaves room for,
        and at least one. So the pass runs on while it drops strings and
        stops after about one candidate when none holds another.
        """
        sigma, width = nxt.shape
        starts, ends = bounds[:, 0]
        lengths = ends - starts
        # counts[c, l]: occurrences of shared character c in string l. The
        # scanner calls this only with a shared character, so no string
        # is empty and every start is a new segment.
        counts = np.add.reduceat(hit, starts, axis=1, dtype=np.int32)
        flat = nxt.reshape(-1)
        # order: the strings left, shortest first, with their sizes and
        # counts; p: the next candidate.
        order = lengths.argsort(kind="stable")
        sizes, counts = lengths.take(order), counts.take(order, axis=1)
        alive = np.ones(len(lengths), dtype=bool)
        allowance, p = LEAST_WORK, 0
        while p < len(order) and allowance > 0:
            size = int(sizes[p])
            q = int(sizes.searchsorted(size, side="right"))
            if q == len(order):
                break
            g = max(1, min(q - p, allowance // ((len(order) - q) * (sigma + size))))
            chunk = order[p : p + g]
            over = counts[:, None, q:] >= counts[:, p : p + g, None]
            s, t = np.logical_and.reduce(over, axis=0).nonzero()
            t = order.take(t + q)
            allowance -= g * (len(order) - q) * sigma + size * len(t)
            p += g
            if not len(t):
                continue
            if size <= len(t):
                # at[j, a]: the flat offset in nxt of chunk[a]'s j-th row.
                walked = code_points("".join([strings[a] for a in chunk.tolist()]))
                at = self._codes.searchsorted(walked).reshape(g, size).T * width
                cur = starts.take(t)
                for step in at:
                    cur = flat.take(step.take(s) + cur)
                held = t[cur <= ends.take(t)]
            else:
                held = [b for a, b in zip(chunk.take(s).tolist(), t.tolist())
                        if is_subsequence(strings[a], strings[b])]
            if len(held):
                alive[held] = False
                kept = alive.take(order)
                allowance += 3 * sigma * int(sizes[~kept].sum())
                order, sizes, counts = order[kept], sizes[kept], counts[:, kept]
        return alive

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

        When the reductions leave one string, that string is the only
        maximal common subsequence, and the search returns it once per
        seed it takes, one seed at a time, with no draw and no scan.
        """
        if self._sole is not None:
            for _ in seeds:
                yield self._sole
            return
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
