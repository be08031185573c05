"""Deterministic solver: index primitives, shared-end search, and the
full construction against the maximality oracle."""

import hashlib
import random
import statistics
import time

import pytest

from mcskit import (
    idx_after,
    idx_before,
    is_maximal,
    is_subsequence,
    one_mcs,
    random_strings,
)
from mcskit.deterministic import _shared_end
from tests.conftest import random_instance


class TestIndexPrimitives:
    def test_idx_before_examples(self):
        assert idx_before("TEGAP", "E", 5) == 2
        assert idx_before("TEGAP", "Z", 5) == 0
        assert idx_before("abccde", "c", 6) == 4

    def test_idx_after_examples(self):
        assert idx_after("TEGAP", "A", 0) == 3
        assert idx_after("TEGAP", "Z", 0) == 5
        assert idx_after("GAEPR", "P", 2) == 3

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            idx_before("abc", "a", 4)
        with pytest.raises(ValueError):
            idx_after("abc", "a", -1)

    def test_lookup_must_be_one_character(self):
        for lookup in (idx_before, idx_after):
            for c in ("", "bc"):
                with pytest.raises(ValueError, match="one character"):
                    lookup("abc", c, 0)

    def test_duality(self, rng):
        for _ in range(300):
            s = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
            c = rng.choice("abcd")
            i = rng.randint(0, len(s))
            j = idx_before(s, c, i)
            if j > 0:
                assert s[j - 1] == c
                assert c not in s[j:i]
            else:
                assert c not in s[:i]
            j = idx_after(s, c, i)
            if j < len(s):
                assert s[j] == c
                assert c not in s[i:j]
            else:
                assert c not in s[i:]


def brute_unshifted_end(strs, idx_prev, idx_rear):
    """Oracle: literal candidate-by-candidate segment intersection."""
    segments = [s[p:r] for s, p, r in zip(strs, idx_prev, idx_rear)]
    if any(not seg for seg in segments):
        return None
    for j, seg in enumerate(segments):
        c = seg[-1]
        if all(c in segments[i] for i in range(len(strs)) if i != j):
            return j, c
    return None


class TestUnshiftedEnd:
    """Shift 0 of _shared_end: wherever brute_unshifted_end finds (j, c),
    _shared_end returns c."""

    def test_whole_string_segments_find_shared_character(self):
        got = _shared_end(("TEGAP", "GAEPR"), [0, 0], [5, 5])
        assert got is not None and got in set("EGAP")
        assert got == brute_unshifted_end(["TEGAP", "GAEPR"], [0, 0], [5, 5])[1]

    def test_empty_segments_yield_none(self):
        assert _shared_end(("TEGAP", "GAEPR"), [3, 3], [3, 3]) is None
        assert _shared_end(("AB", "BA"), [1, 1], [1, 1]) is None
        # Overlapping boundaries make an empty segment.
        assert _shared_end(("ab", "ba"), [2, 1], [1, 1]) is None

    def test_two_char_strings(self):
        got = _shared_end(("AB", "BA"), [0, 0], [2, 2])
        assert got is not None and got in "AB"
        assert got == brute_unshifted_end(["AB", "BA"], [0, 0], [2, 2])[1]

    def test_agrees_with_brute_force_on_random_states(self, rng):
        for _ in range(400):
            strs = random_instance(rng, rng.randint(1, 4), 10, rng.randint(2, 4))
            idx_prev, idx_rear = [], []
            for s in strs:
                p = rng.randint(0, len(s))
                idx_prev.append(p)
                idx_rear.append(rng.randint(p, len(s)))
            got = _shared_end(strs, idx_prev, idx_rear)
            want = brute_unshifted_end(strs, idx_prev, idx_rear)
            if want is None:
                # Nothing at shift 0: any character found lies further in.
                shifted = brute_shared_end(strs, idx_prev, idx_rear)
                assert shifted is None or shifted[0] > 0
                assert got == (None if shifted is None else shifted[2])
            else:
                assert got == want[1]


def brute_shared_end(strs, idx_prev, idx_rear):
    """Oracle: lower every rear by one until brute_unshifted_end finds a
    candidate or a segment empties."""
    t = 0
    while all(p < r - t for p, r in zip(idx_prev, idx_rear)):
        found = brute_unshifted_end(strs, idx_prev, [r - t for r in idx_rear])
        if found is not None:
            return (t, *found)
        t += 1
    return None


class TestSharedEnd:
    def test_agrees_with_shift_by_one_oracle_on_random_states(self, rng):
        outcomes = {"t=0": 0, "t>0": 0, "none": 0}
        for _ in range(600):
            # Tails of a character the other strings may lack, and rears
            # often at the string ends, make shifts past dead characters
            # common.
            strs = [
                s + rng.choice("wxyz") * rng.randint(0, 4)
                for s in random_instance(rng, rng.randint(1, 4), 12, rng.randint(2, 5))
            ]
            idx_prev = [rng.randint(0, len(s) // 3) for s in strs]
            idx_rear = [
                rng.choice([len(s), rng.randint(p, len(s))]) for s, p in zip(strs, idx_prev)
            ]
            want = brute_shared_end(strs, idx_prev, idx_rear)
            assert _shared_end(strs, idx_prev, idx_rear) == (None if want is None else want[2])
            outcomes["none" if want is None else "t>0" if want[0] else "t=0"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_dead_character_is_skipped_where_it_recurs(self):
        # "x" ends segment 0 and is missing from segment 1 at shift 0; at
        # shift 1 it ends segment 0 again and is skipped as dead.
        strs = ("cxaxx", "cyay")
        assert brute_shared_end(strs, [0, 0], [5, 4]) == (1, 1, "a")
        assert _shared_end(strs, [0, 0], [5, 4]) == "a"


def _digest(outputs):
    joined = "\x00".join(outputs).encode("utf-8", "surrogatepass")
    return hashlib.sha256(joined).hexdigest()[:16]


def _short_family():
    rng = random.Random(14)
    return [random_instance(rng, rng.randint(1, 4), 14, rng.randint(2, 5)) for _ in range(150)]


def _non_ascii_family():
    # Accented, astral and combining characters plus a lone surrogate.
    rng = random.Random(8)
    chars = "a\u00e9\u20ac\U0001f600\u0301\ud800\u00df"
    return [
        [
            "".join(rng.choice(chars) for _ in range(rng.randint(1, 20)))
            for _ in range(rng.randint(1, 4))
        ]
        for _ in range(60)
    ]


# Recorded one_mcs outputs, keyed by whether each string list is passed
# reversed. A refactor of the construction must reproduce them byte for
# byte.
PINNED_ONE_MCS = {
    False: {
        "short": "be7f1abb73dd6b78",
        "non_ascii": "4fcf740e96a9267a",
        "3x400": "ELEOPHCARITASTBTHDDBLFFTIOLNMAF",
        "300x60": "CCDDDBCBC",
    },
    True: {
        "short": "08f1fd6d1e84f7a1",
        "non_ascii": "db2a3af8c2d26850",
        "3x400": "HFNMRJOGHCBQADRGLCDJCLALEDRMGCTTOM",
        "300x60": "DBCBBACC",
    },
}


class TestOneMcs:
    def test_toy_yields_known_solution(self):
        assert one_mcs(["TEGAP", "GAEPR"]) in {"GAP", "EP"}

    def test_single_string(self):
        assert one_mcs(["A"]) == "A"
        assert one_mcs(["ABCA"]) == "ABCA"

    def test_empty_string_input(self):
        assert one_mcs(["", "abc"]) == ""

    def test_deterministic_and_order_sensitive(self):
        strs = ["TEGAP", "GAEPR"]
        assert one_mcs(strs) == one_mcs(strs)
        fwd = one_mcs(strs)
        rev = one_mcs(strs[::-1])
        assert is_maximal(strs, rev)
        assert {fwd, rev} <= {"GAP", "EP"}
        # The order is the caller's: there is no option to reverse it.
        with pytest.raises(TypeError):
            one_mcs(strs, reverse_order=True)

    def test_output_common_and_maximal_on_random_instances(self, rng):
        for _ in range(100):
            strs = random_instance(rng, rng.randint(1, 5), 30, rng.randint(2, 8))
            w = one_mcs(strs)
            assert all(is_subsequence(w, s) for s in strs)
            assert is_maximal(strs, w)

    def test_long_unshared_runs_are_fast(self):
        # One shared character, then 80,000 characters the other string
        # lacks: each must be tested once, not once per shift (about 1 s).
        strs = ["a" + "x" * 80_000, "a" + "y" * 80_000]
        t0 = time.perf_counter()
        assert one_mcs(strs) == "a"
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("reversed_input", [False, True])
    def test_seeded_outputs_pinned(self, reversed_input):
        def run(strs):
            return one_mcs(strs[::-1] if reversed_input else strs)

        got = {
            "short": _digest([run(strs) for strs in _short_family()]),
            "non_ascii": _digest([run(strs) for strs in _non_ascii_family()]),
            "3x400": run(random_strings(3, 400, 20, seed=3)),
            "300x60": run(random_strings(300, 60, 4, seed=4)),
        }
        assert got == PINNED_ONE_MCS[reversed_input]


class TestOneMcsScaling:
    def test_near_linear_in_string_count(self):
        # Median construction time should track the string count within a
        # factor of two at fixed length.
        def median_time(n_strings):
            times = []
            for r in range(9):
                strs = random_strings(n_strings, 30, 6, seed=1000 + r)
                t0 = time.perf_counter()
                one_mcs(strs)
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        median_time(200)  # warmup
        small, big = median_time(100), median_time(1000)
        ratio = big / small
        assert 5.0 <= ratio <= 20.0, f"one_mcs grew {ratio:.1f}x for 10x strings"
