"""Core subsequence primitives against brute-force oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import (
    breakpoints,
    common_chars,
    enumerate_mcs,
    is_maximal,
    is_subsequence,
    middle,
    random_mcs,
    rightmost_positions,
)
from tests.conftest import random_instance

SMALL_TEXT = st.text(alphabet="abcd", max_size=8)


def embeds_somewhere(w, s):
    """Oracle: exhaustive embedding search, independent of the greedy scan."""
    return any(
        all(s[i] == c for i, c in zip(picks, w))
        for picks in combinations(range(len(s)), len(w))
    )


class TestIsSubsequence:
    def test_examples(self):
        assert is_subsequence("GAP", "TEGAP")
        assert is_subsequence("", "TEGAP")
        assert not is_subsequence("PA", "TEGAP")

    @settings(max_examples=200)
    @given(w=SMALL_TEXT, s=SMALL_TEXT)
    def test_agrees_with_exhaustive_embedding(self, w, s):
        assert is_subsequence(w, s) == embeds_somewhere(w, s)

    @given(s=SMALL_TEXT)
    def test_every_string_contains_itself_and_empty(self, s):
        assert is_subsequence(s, s)
        assert is_subsequence("", s)


class TestRightmostPositions:
    def test_examples(self):
        assert rightmost_positions("GA", "GAEGAP") == [3, 4]
        assert rightmost_positions("", "GAP") == []
        assert rightmost_positions("PA", "TEGAP") is None

    def test_is_the_greatest_embedding(self):
        # Every embedding is an increasing index tuple; the greatest in
        # lexicographic order, or None where w has none.
        rng = random.Random(5)
        for _ in range(300):
            w, s = random_instance(rng, 1, 4, 3, min_len=0) + random_instance(rng, 1, 8, 3, min_len=0)
            embeddings = [
                list(picks)
                for picks in combinations(range(len(s)), len(w))
                if all(s[i] == c for i, c in zip(picks, w))
            ]
            assert rightmost_positions(w, s) == max(embeddings, default=None), (w, s)


class TestMiddle:
    def test_worked_examples(self):
        assert middle("TEGAP", "E", 0) == "T"
        assert middle("TEGAP", "A", 1) == "P"
        assert middle("GAEPR", "A", 0) == "G"
        assert middle("TEGAP", "", 0) == "TEGAP"
        assert middle("TEGAP", "A", 0) == "TEG"
        assert middle("GAEPR", "A", 1) == "EPR"

    def test_rejects_non_subsequence_and_bad_split(self):
        with pytest.raises(ValueError):
            middle("TEGAP", "PA", 1)
        with pytest.raises(ValueError):
            middle("TEGAP", "A", 2)
        with pytest.raises(ValueError):
            middle("TEGAP", "A", -1)

    @settings(max_examples=300)
    @given(s=SMALL_TEXT, data=st.data())
    def test_matches_independent_greedy_scans(self, s, data):
        # Draw a genuine subsequence of s, then a split point.
        mask = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
        w = "".join(c for c, keep in zip(s, mask) if keep)
        k = data.draw(st.integers(0, len(w)))

        lo = 0
        for c in w[:k]:
            lo = s.index(c, lo) + 1
        hi = len(s)
        for c in reversed(w[k:]):
            hi = s.rindex(c, 0, hi)
        assert middle(s, w, k) == (s[lo:hi] if lo < hi else "")

    @settings(max_examples=300)
    @given(s=SMALL_TEXT, data=st.data())
    def test_is_contiguous_and_outside_trimmed_regions(self, s, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
        w = "".join(c for c, keep in zip(s, mask) if keep)
        k = data.draw(st.integers(0, len(w)))
        mid = middle(s, w, k)
        assert mid in s
        if mid:
            # Some occurrence of mid leaves a prefix embedding w[:k] and a
            # suffix embedding w[k:] around it (position-disjointness).
            occurrences = [
                p for p in range(len(s) - len(mid) + 1) if s[p : p + len(mid)] == mid
            ]
            assert any(
                is_subsequence(w[:k], s[:p]) and is_subsequence(w[k:], s[p + len(mid):])
                for p in occurrences
            )


class TestCommonChars:
    def test_examples(self):
        assert dict(common_chars(["TEGAP", "GAEPR"])) == {"E": 1, "G": 1, "A": 1, "P": 1}
        assert dict(common_chars(["abccde", "gfchca", "dfcca"])) == {"a": 1, "c": 2}
        assert dict(common_chars(["abc", "xyz"])) == {}
        assert dict(common_chars(["abc", ""])) == {}

    def test_single_string_counts_itself(self):
        assert dict(common_chars(["aab"])) == {"a": 2, "b": 1}

    @settings(max_examples=200)
    @given(strs=st.lists(SMALL_TEXT, min_size=1, max_size=4))
    def test_multiplicities_hold_in_every_string(self, strs):
        bag = common_chars(strs)
        for c, count in bag.items():
            assert all(s.count(c) >= count for s in strs)
            assert any(s.count(c) == count for s in strs)
        # Completeness: any character in every string is in the bag.
        for c in set(strs[0]):
            if all(c in s for s in strs):
                assert c in bag


class TestBreakpoints:
    def test_examples(self):
        assert breakpoints(["TEGAP", "GAEPR"], "A") == [0, 1]
        assert breakpoints(["TEGAP", "GAEPR"], "GAP") == []
        assert breakpoints(["TEGAP", "GAEPR"], "") == [0]

    def test_empty_subsequence_slot_matches_direct_evaluation(self):
        # Direct route: the only slot of '' exposes the whole strings.
        assert bool(common_chars(["TEGAP", "GAEPR"]))
        assert breakpoints(["TEGAP", "GAEPR"], "") == [0]

    def test_rejects_non_common_subsequence(self):
        with pytest.raises(ValueError):
            breakpoints(["TEGAP", "GAEPR"], "XYZ")
        with pytest.raises(ValueError):
            breakpoints(["TEGAP", "GAEPR"], "GAPR")

    def test_error_names_the_first_string_missing_it(self):
        with pytest.raises(ValueError, match=r"'GAPR' is not a subsequence of string #1 \('GAEP'\)"):
            breakpoints(["TGEGAPR", "GAEP", "XYZ"], "GAPR")

    def test_agrees_with_the_per_slot_definition(self):
        # Pool with an astral character and a lone surrogate; w is a random
        # common subsequence, often not maximal.
        rng = random.Random(23)
        pool = "abc\U0001f600\ud800"
        for _ in range(400):
            strs = ["".join(rng.choice(pool) for _ in range(rng.randint(0, 9)))
                    for _ in range(rng.randint(1, 4))]
            mcs = random_mcs(strs, seed=rng.randrange(10**6))
            w = "".join(c for c in mcs if rng.random() < 0.7)
            assert breakpoints(strs, w) == per_slot_breakpoints(strs, w), (strs, w)


def per_slot_breakpoints(strs, w):
    """Reference: every slot's middles taken one at a time with ``middle``."""
    slots = []
    for k in range(len(w) + 1):
        mids = [middle(s, w, k) for s in strs]
        if all(mids) and common_chars(mids):
            slots.append(k)
    return slots


def brute_force_maximal(strs, w):
    """Oracle: try every single-character insertion at every slot."""
    if not all(is_subsequence(w, s) for s in strs):
        return False
    chars = set("".join(strs))
    for k in range(len(w) + 1):
        for c in chars:
            extended = w[:k] + c + w[k:]
            if all(is_subsequence(extended, s) for s in strs):
                return False
    return True


class TestIsMaximal:
    def test_examples(self):
        assert is_maximal(["TEGAP", "GAEPR"], "GAP")
        assert is_maximal(["TEGAP", "GAEPR"], "EP")
        assert not is_maximal(["TEGAP", "GAEPR"], "A")
        assert not is_maximal(["TEGAP", "GAEPR"], "XYZ")

    def test_empty_subsequence_maximal_only_without_shared_chars(self):
        assert is_maximal(["abc", "xyz"], "")
        assert not is_maximal(["abc", "cba"], "")

    def test_agrees_with_exhaustive_insertion_on_small_instances(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(80):
            strs = random_instance(rng, rng.choice([2, 3]), 8, rng.randint(2, 4))
            shortest = min(strs, key=len)
            seen = set()
            for r in range(len(shortest) + 1):
                for picks in combinations(shortest, r):
                    w = "".join(picks)
                    if w in seen:
                        continue
                    seen.add(w)
                    if all(is_subsequence(w, s) for s in strs):
                        assert is_maximal(strs, w) == brute_force_maximal(strs, w)
                        checked += 1
        assert checked > 300

    def test_every_enumerated_mcs_is_maximal(self, rng):
        for _ in range(30):
            strs = random_instance(rng, rng.choice([2, 3]), 8, rng.randint(2, 4))
            for w in enumerate_mcs(strs):
                assert is_maximal(strs, w)
                assert brute_force_maximal(strs, w)
