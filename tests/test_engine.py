"""The vectorized scan must be observably identical to the contract
primitives: same slots, same bags, same search outputs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import breakpoints, common_chars, middle, random_mcs, run_many
from mcskit._engine import BreakpointScanner
from tests.conftest import random_instance


def common_subsequences_sample(rng, strs, how_many=6):
    """A few random common subsequences, including '' and a maximal one."""
    probes = {"", random_mcs(strs, seed=rng.randint(0, 10**6))}
    base = probes.copy()
    for w in base:
        for _ in range(how_many):
            keep = "".join(c for c in w if rng.random() < 0.6)
            probes.add(keep)
    return sorted(probes)


def contract_scan(strs, w):
    """The scan spelled out with the contract primitives."""
    out = []
    for k in breakpoints(strs, w):
        out.append((k, dict(common_chars([middle(s, w, k) for s in strs]))))
    return out


class TestScanEquivalence:
    def test_paths_agree_on_random_instances(self):
        rng = random.Random(8)
        for case in range(60):
            n_strings = rng.randint(1, 8)
            strs = tuple(
                random_instance(rng, n_strings, rng.randint(1, 25), rng.randint(2, 6), min_len=0)
            )
            scanner = BreakpointScanner(strs)
            for w in common_subsequences_sample(rng, strs):
                assert scanner.scan(w) == contract_scan(strs, w), (strs, w)

    def test_paths_agree_with_contract_functions(self):
        rng = random.Random(21)
        for _ in range(25):
            strs = tuple(random_instance(rng, rng.randint(2, 5), 12, 4))
            w = random_mcs(strs, seed=1)[:2]
            assert BreakpointScanner(strs).scan(w) == contract_scan(strs, w), (strs, w)

    def test_agrees_on_non_ascii_strings(self):
        """Lone surrogates, astral-plane and combining characters."""
        rng = random.Random(34)
        chars = ["a", "b", "\u00e9", "\u0301", "\ud800", "\udfff", "\U0001f600", "\U00010348"]
        for _ in range(25):
            strs = tuple(
                "".join(rng.choice(chars) for _ in range(rng.randint(1, 14)))
                for _ in range(rng.randint(2, 5))
            )
            scanner = BreakpointScanner(strs)
            for w in common_subsequences_sample(rng, strs):
                assert scanner.scan(w) == contract_scan(strs, w), (strs, w)

    def test_numpy_path_rejects_non_common_subsequence(self):
        scanner = BreakpointScanner(("TEGAP", "GAEPR"))
        for w in ("XYZ", "PG", "GAPP"):
            with pytest.raises(ValueError):
                scanner.scan(w)
        # No shared character at all: the tables are empty, w still checked.
        for strs in [("a" * 40, "b" * 40), ("ab", ""), ("\ud800", "\U0001f600")]:
            scanner = BreakpointScanner(strs)
            assert scanner.scan("") == []
            for w in set(strs[0]):
                with pytest.raises(ValueError):
                    scanner.scan(w)

    def test_edge_inputs(self):
        for strs in [("",), ("", "abc"), ("a",), ("abc", "abc", "abc"), ("\U0001f600",)]:
            assert BreakpointScanner(strs).scan("") == contract_scan(strs, "")


# Seeded outputs recorded before the plain-Python scan was removed; that
# scan served inputs under 65 total characters, so the cases sit on both
# sides of that size.
GOLDEN = [
    (
        ("TEGAPTEGAP", "GAEPRGAEPR", "APGETAPGET"),
        ["GAPG", "APGAP", "APGAP", "EPE"],
        ["APGAP", "EPG"],
        ("GA", ["GEAP", "APGAP"]),
        {"AEAP": 25, "AEG": 5, "APEP": 11, "APGAP": 53, "EAE": 11, "EGE": 17,
         "EPE": 7, "EPG": 18, "GAPE": 10, "GAPG": 15, "GEAP": 20, "GEG": 8},
    ),
    (
        ("HGDBFEBEEAEHIGJHJ", "FEIIHBHBHEHCIBCHD", "ECJCCGGGEBBHEAIAJ", "DIBGFIEGGABBCHEIH"),
        ["EBEI", "BBHI", "EBHI", "HEI"],
        ["HEI", "BBEI"],
        ("EB", ["EBHI", "EBHI"]),
        {"BBEI": 36, "BBHI": 29, "EBEI": 36, "EBHI": 48, "EEH": 13, "HEI": 38},
    ),
    (
        ("EEBDDABFFEEEEADEHBBDBECAH", "GAEGGGDBFEECDBHCGBGAGFGAA", "EHEGGFFHCECGHCFEEBGDCCGFF"),
        ["EFEEDC", "EEDF", "EFEEBC", "EFEEBC"],
        ["EFEEBC", "EFEEBC"],
        ("EF", ["EDFF", "EEBF"]),
        {"EBDC": 18, "EBDF": 9, "EBFF": 13, "EDFF": 11, "EEBF": 8, "EEDF": 3, "EEECH": 9,
         "EEEHB": 5, "EEEHC": 4, "EFECH": 37, "EFEEBC": 21, "EFEEDC": 24, "EFEHB": 21,
         "EFEHC": 17},
    ),
]


@pytest.mark.parametrize(
    "strs, uniform, frequency, constrained, counts", GOLDEN, ids=["30-chars", "68-chars", "75-chars"]
)
def test_seeded_outputs_pinned(strs, uniform, frequency, constrained, counts):
    assert [random_mcs(strs, seed=s) for s in range(4)] == uniform
    assert [random_mcs(strs, seed=s, weighting="frequency") for s in range(2)] == frequency
    start, expected = constrained
    assert [random_mcs(strs, seed=s, start=start) for s in range(2)] == expected
    assert run_many(strs, 200, master_seed=5).counts == counts


# The strings lie end to end in one flat text, so a lookup that misses in
# one string runs on into the next; these pin that it is still a miss.
POOL = st.sampled_from(["a", "b", "c", "\ud800", "\U0001f600"])
STRING_SETS = st.lists(st.text(alphabet=POOL, max_size=12), min_size=1, max_size=6).map(tuple)


def scan_or_raise(scan, *args):
    try:
        return scan(*args)
    except ValueError:
        return ValueError


class TestFlatLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        strs=STRING_SETS,
        seed=st.integers(0, 10**6),
        keep=st.lists(st.booleans(), max_size=30),
        arbitrary=st.text(alphabet=POOL, max_size=5),
    )
    def test_agrees_with_contract_on_ragged_sets(self, strs, seed, keep, arbitrary):
        mcs = random_mcs(strs, seed=seed)
        sub = "".join(c for c, k in zip(mcs, keep) if k)
        scanner = BreakpointScanner(strs)
        for w in (mcs, sub, arbitrary):
            assert scan_or_raise(scanner.scan, w) == scan_or_raise(contract_scan, strs, w), w

    @settings(max_examples=100, deadline=None)
    @given(
        strs=STRING_SETS,
        repeats=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        seed=st.integers(0, 10**6),
    )
    def test_repeated_strings_scan_like_the_full_set(self, strs, repeats, seed):
        # The scanner drops repeats; the contract scan sees every copy.
        full = strs + tuple(strs[i % len(strs)] for i in repeats)
        mcs = random_mcs(strs, seed=seed)
        scanner = BreakpointScanner(full)
        for w in (mcs, mcs[::2], ""):
            assert scan_or_raise(scanner.scan, w) == scan_or_raise(contract_scan, full, w), w

    def test_miss_running_into_the_next_string_raises(self):
        # "ba" has no "b" after its "a"; the next "b" in the text is in "ab".
        strs = ("ba", "ab", "ab")
        with pytest.raises(ValueError):
            BreakpointScanner(strs).scan("ab")
        with pytest.raises(ValueError):
            contract_scan(strs, "ab")

    def test_bag_keys_come_sorted(self):
        rng = random.Random(55)
        families = [strs for strs, *_ in GOLDEN]
        families += [tuple(random_instance(rng, rng.randint(1, 6), 20, 6, min_len=0)) for _ in range(40)]
        for strs in families:
            scanner = BreakpointScanner(strs)
            for w in common_subsequences_sample(rng, strs):
                for _, bag in scanner.scan(w):
                    assert list(bag) == sorted(bag), (strs, w)
