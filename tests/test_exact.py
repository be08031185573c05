"""Exact oracles against classical references and each other."""

import hashlib
import math
import random

import pytest

from mcskit import (
    SizeGuardError,
    enumerate_mcs,
    is_maximal,
    is_subsequence,
    lcs_dp,
    random_strings,
)
from mcskit.exact import MAX_LCS_CELLS
from tests.conftest import random_instance


def classic_lcs_len(a, b):
    """Independent reference: textbook two-string DP, lengths only."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _digest(outputs):
    joined = "\x00".join(outputs).encode("utf-8", "surrogatepass")
    return hashlib.sha256(joined).hexdigest()[:16]


def _tie_family(n_strings):
    # Alphabets of 1 to 6 letters, so most cells have tied predecessors.
    rng = random.Random(40 + n_strings)
    max_len = {2: 40, 3: 16, 4: 9}[n_strings]
    return [
        random_instance(rng, n_strings, max_len, sigma, min_len=0)
        for sigma in range(1, 7)
        for _ in range(15)
    ]


def _non_ascii_family():
    # Accented, astral and combining characters plus a lone surrogate.
    rng = random.Random(17)
    chars = "a\u00e9\U0001f600\U00010348\ud800\u0301"
    return [
        ["".join(rng.choice(chars) for _ in range(rng.randint(0, 12))) for _ in range(rng.randint(2, 4))]
        for _ in range(60)
    ]


# lcs_dp outputs recorded before the table fill was vectorized over
# whole slices; they pin the tie-breaking as well as the length.
PINNED_LCS = {
    "L2": "77f2b1203b81cb45",
    "L3": "4b6a172402e68d5e",
    "L4": "f82624fa13730c48",
    "non_ascii": "502eccb85d0d5ff2",
    "3x200": "GASLODCTJAPEHDAEOBHQPKJPCTOKEQIQEOKPBIFIRQTAI",
}


class TestLcsDp:
    def test_examples(self):
        assert lcs_dp(["TEGAP", "GAEPR"]) == "GAP"
        assert lcs_dp(["fabecd", "acdef"]) == "acd"
        assert lcs_dp(["ABBA", "ABBA"]) == "ABBA"

    def test_edge_cases(self):
        assert lcs_dp(["ABC"]) == "ABC"
        assert lcs_dp(["ABC", ""]) == ""
        assert lcs_dp(["abc", "xyz"]) == ""

    def test_three_and_four_strings(self):
        assert lcs_dp(["abcde", "ace", "aXcYe"]) == "ace"
        assert lcs_dp(["ab", "ab", "ab", "ab"]) == "ab"

    def test_matches_classical_two_string_dp_on_500_pairs(self):
        rng = random.Random(31)
        for _ in range(500):
            a, b = random_instance(rng, 2, 25, rng.randint(2, 8), min_len=0)
            got = lcs_dp([a, b])
            assert len(got) == classic_lcs_len(a, b)
            assert is_subsequence(got, a) and is_subsequence(got, b)

    def test_lone_surrogates_and_astral_characters(self):
        assert lcs_dp(["a\ud800b", "\ud800ab"]) in enumerate_mcs(["a\ud800b", "\ud800ab"])
        rng = random.Random(13)
        chars = ["a", "\ud800", "\udfff", "\U0001f600", "\U00010348"]
        for _ in range(100):
            a, b = ("".join(rng.choice(chars) for _ in range(rng.randint(0, 12))) for _ in "ab")
            got = lcs_dp([a, b])
            assert len(got) == classic_lcs_len(a, b)
            assert is_subsequence(got, a) and is_subsequence(got, b)

    def test_result_is_common_and_deterministic(self, rng):
        for _ in range(40):
            strs = random_instance(rng, rng.randint(2, 4), 12, rng.randint(2, 5))
            got = lcs_dp(strs)
            assert all(is_subsequence(got, s) for s in strs)
            assert lcs_dp(strs) == got

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            lcs_dp(["a"] * 5)
        with pytest.raises(SizeGuardError):
            lcs_dp(["x" * 100, "x" * 100, "x" * 100, "x" * 100])

    def test_trivial_inputs_skip_the_cell_guard(self):
        # No table is built for a single string.
        long = "x" * (MAX_LCS_CELLS + 1)
        assert lcs_dp([long]) == long

    def test_short_strings_count_toward_the_guard(self):
        # The table has a row of boundaries per string, so three
        # one-character strings multiply the long string's cells by 8.
        with pytest.raises(SizeGuardError):
            lcs_dp(["a", "b", "c", "x" * (MAX_LCS_CELLS // 8 + 1)])

    def test_largest_value_under_the_guard(self):
        # The cell guard caps two strings at 3161 characters each, so this
        # is the largest value the table can ever hold.
        side = math.isqrt(MAX_LCS_CELLS) - 1
        assert lcs_dp(["a" * side, "a" * side]) == "a" * side
        with pytest.raises(SizeGuardError):
            lcs_dp(["a" * side, "a" * (side + 1)])

    def test_seeded_outputs_pinned(self):
        got = {
            "L2": _digest([lcs_dp(strs) for strs in _tie_family(2)]),
            "L3": _digest([lcs_dp(strs) for strs in _tie_family(3)]),
            "L4": _digest([lcs_dp(strs) for strs in _tie_family(4)]),
            "non_ascii": _digest([lcs_dp(strs) for strs in _non_ascii_family()]),
            "3x200": lcs_dp(random_strings(3, 200, 20, seed=5)),
        }
        assert got == PINNED_LCS


class TestEnumerateMcs:
    def test_examples(self):
        assert enumerate_mcs(["TEGAP", "GAEPR"]) == {"GAP", "EP"}
        assert enumerate_mcs(["fabecd", "acdef"]) == {"f", "acd", "ae"}
        assert enumerate_mcs(["AB", "BA"]) == {"A", "B"}

    def test_disjoint_alphabets(self):
        assert enumerate_mcs(["abc", "xyz"]) == {""}

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            enumerate_mcs(["a" * 13, "a" * 13])
        with pytest.raises(SizeGuardError):
            enumerate_mcs(["ab"] * 5)

    def test_members_are_maximal_and_cover_all_maximal(self, rng):
        for _ in range(25):
            strs = random_instance(rng, rng.choice([2, 3]), 8, rng.randint(2, 4))
            result = enumerate_mcs(strs)
            for w in result:
                assert is_maximal(strs, w)
            # Completeness: every maximal subsequence of the shortest
            # string shows up.
            shortest = min(strs, key=len)
            from itertools import combinations

            seen = set()
            for r in range(len(shortest) + 1):
                for picks in combinations(shortest, r):
                    w = "".join(picks)
                    if w not in seen:
                        seen.add(w)
                        if is_maximal(strs, w):
                            assert w in result


class TestLcsIsLongestMcs:
    def test_on_random_small_instances(self, rng):
        for _ in range(30):
            strs = random_instance(rng, rng.choice([2, 3]), 9, rng.randint(2, 5))
            best = max(len(w) for w in enumerate_mcs(strs))
            assert len(lcs_dp(strs)) == best
