"""The lockstep kernel must be observably identical to the contract
primitives: same slots, same bags, same search outputs."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import (
    SizeGuardError,
    breakpoints,
    common_chars,
    derive_run_seed,
    enumerate_mcs,
    extract_pattern,
    is_subsequence,
    middle,
    one_mcs,
    random_mcs,
    run_many,
)
from mcskit import _engine, randomized
from mcskit._engine import BreakpointScanner
from mcskit.randomized import _seeded_runs
from tests.conftest import random_instance


def common_subsequences_sample(rng, strs, how_many=6):
    """A few random common subsequences: '', a maximal one, random
    subsequences of it, and each of its one-character deletions, which
    share a length and so share one ``slots`` call."""
    mcs = random_mcs(strs, seed=rng.randint(0, 10**6))
    probes = {"", mcs} | {mcs[:i] + mcs[i + 1 :] for i in range(len(mcs))}
    for _ in range(how_many):
        probes.add("".join(c for c in mcs if rng.random() < 0.6))
    return sorted(probes)


def contract_scan(strs, w):
    """The scan spelled out with the contract primitives."""
    out = []
    for k in breakpoints(strs, w):
        out.append((k, dict(common_chars([middle(s, w, k) for s in strs]))))
    return out


def slot_scan(scanner, ws):
    """One ``slots`` call on the common subsequences ``ws``, all of one
    length, as one (slot, bag) list per subsequence: column c of a
    subsequence's bags counts ``alphabet[c]``."""
    out = []
    for ks, bags in scanner.slots(ws):
        assert bags.shape == (len(ks), len(scanner.alphabet))
        out.append([
            (k, {scanner.alphabet[c]: n for c, n in enumerate(row) if n})
            for k, row in zip(ks, bags.tolist())
        ])
    return out


def assert_slots_agree(strs, ws, scanner=None):
    """Scan ``ws`` with one ``slots`` call per length and compare every
    subsequence's slots with the contract scan."""
    scanner = scanner or BreakpointScanner(strs)
    groups = {}
    for w in ws:
        groups.setdefault(len(w), []).append(w)
    for group in groups.values():
        for w, got in zip(group, slot_scan(scanner, group), strict=True):
            assert got == contract_scan(strs, w), (strs, w, group)


class TestScanEquivalence:
    def test_slots_agree_with_contract_on_random_instances(self):
        rng = random.Random(8)
        for case in range(60):
            n_strings = rng.randint(1, 8)
            strs = tuple(
                random_instance(rng, n_strings, rng.randint(1, 25), rng.randint(2, 6), min_len=0)
            )
            assert_slots_agree(strs, common_subsequences_sample(rng, strs))

    def test_empty_entry_keeps_its_place(self):
        # EP is maximal, so it has no live slot: its empty entry sits in the
        # middle of the first call and last in the second.
        strs = ("TEGAP", "GAEPR")
        scanner = BreakpointScanner(strs)
        expected = {"GA": [(2, {"P": 1})], "EP": [], "AP": [(0, {"G": 1})]}
        for ws in (["GA", "EP", "AP"], ["GA", "AP", "EP"]):
            assert slot_scan(scanner, ws) == [expected[w] for w in ws]

    def test_slots_agree_with_contract_on_mcs_prefixes(self):
        rng = random.Random(21)
        for _ in range(25):
            strs = tuple(random_instance(rng, rng.randint(2, 5), 12, 4))
            w = random_mcs(strs, seed=1)[:2]
            assert_slots_agree(strs, [w])

    def test_agrees_on_non_ascii_strings(self):
        """Lone surrogates, astral-plane and combining characters. U+E000
        sorts after the surrogates and before the astral characters by code
        point, but after both in UTF-16 code units."""
        rng = random.Random(34)
        chars = ["a", "b", "\u00e9", "\u0301", "\ud800", "\udfff", "\ue000", "\U0001f600",
                 "\U00010348"]
        for _ in range(25):
            strs = tuple(
                "".join(rng.choice(chars) for _ in range(rng.randint(1, 14)))
                for _ in range(rng.randint(2, 5))
            )
            assert_slots_agree(strs, common_subsequences_sample(rng, strs))

    def test_alphabet_index_is_the_code_point_rank(self):
        # Every ordered pair of these is common to both strings. By code
        # point U+E000 sorts before the astral characters; in UTF-16 code
        # units it sorts after them, and U+1F600 before U+DFFF.
        chars = "\ud800\udfff\ue000\U00010348\U0001f600"
        strs = (chars + chars[::-1], chars[::-1] + chars)
        assert_slots_agree(strs, list(chars) + [x + y for x in chars for y in chars])

    def test_search_entries_reject_non_common_start(self):
        # The kernel cannot detect a non-common subsequence, so the search
        # entries check a start before scanning it.
        for w in ("XYZ", "PG", "GAPP"):
            with pytest.raises(ValueError):
                random_mcs(("TEGAP", "GAEPR"), start=w)
            with pytest.raises(ValueError):
                run_many(("TEGAP", "GAEPR"), 3, start=w)
        # No shared character at all: the tables are empty, w still checked.
        for strs in [("a" * 40, "b" * 40), ("ab", ""), ("\ud800", "\U0001f600")]:
            assert random_mcs(strs) == ""
            for w in set(strs[0]):
                with pytest.raises(ValueError):
                    random_mcs(strs, start=w)

    def test_edge_inputs(self):
        # The last three share no character at all, so their tables are empty.
        for strs in [("",), ("", "abc"), ("a",), ("abc", "abc", "abc"), ("\U0001f600",),
                     ("a" * 40, "b" * 40), ("ab", ""), ("\ud800", "\U0001f600")]:
            assert_slots_agree(strs, ["", ""])


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
        # The one-character deletions of mcs share one kernel call.
        ws = [mcs, sub] + [mcs[:i] + mcs[i + 1 :] for i in range(len(mcs))]
        if all(is_subsequence(arbitrary, s) for s in strs):
            ws.append(arbitrary)
        else:
            with pytest.raises(ValueError):
                random_mcs(strs, start=arbitrary)
        assert_slots_agree(strs, ws)

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
        assert_slots_agree(full, [mcs, mcs[::2], ""])

    def test_miss_running_into_the_next_string_raises(self):
        # "ba" has no "b" after its "a"; the next "b" in the text is in "ab".
        # The kernel cannot tell that miss from a hit, so the search entry
        # must reject the start.
        strs = ("ba", "ab", "ab")
        with pytest.raises(ValueError):
            random_mcs(strs, start="ab")
        with pytest.raises(ValueError):
            run_many(strs, 3, start="ab")
        with pytest.raises(ValueError):
            contract_scan(strs, "ab")

    def test_bag_keys_come_sorted(self):
        # Column c of counts is alphabet[c], and a draw walks a bag in that
        # order: the alphabet is the sorted shared set.
        rng = random.Random(55)
        families = [strs for strs, *_ in GOLDEN]
        families += [tuple(random_instance(rng, rng.randint(1, 6), 20, 6, min_len=0)) for _ in range(40)]
        for strs in families:
            scanner = BreakpointScanner(strs)
            assert scanner.alphabet == sorted(common_chars(strs)), strs
            assert_slots_agree(strs, common_subsequences_sample(rng, strs), scanner)


# Nested string sets: each string is an earlier one with characters
# deleted and inserted, so many hold another. Inserted characters may be
# missing from other strings, and the pool holds an astral character and
# a lone surrogate.
NEST_POOL = "abcd\U0001f600\ud800"


def nested_family(rng):
    strs = ["".join(rng.choice(NEST_POOL) for _ in range(rng.randint(4, 12))) for _ in range(2)]
    for _ in range(rng.randint(1, 6)):
        s = "".join(c for c in rng.choice(strs) if rng.random() < 0.85)
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(0, len(s))
            s = s[:i] + rng.choice(NEST_POOL + "xyz") + s[i:]
        strs.append(s)
    if rng.random() < 0.05:
        strs.append("")
    rng.shuffle(strs)
    return tuple(strs)


def held_family(rng):
    """A short base, many strings that hold it, and a few random ones."""
    base = "".join(rng.choice(NEST_POOL) for _ in range(rng.randint(1, 4)))
    strs = [base]
    for _ in range(rng.randint(4, 16)):
        s = base
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(0, len(s))
            s = s[:i] + rng.choice(NEST_POOL + "xyz") + s[i:]
        strs.append(s)
    for _ in range(rng.randint(0, 3)):
        strs.append("".join(rng.choice(NEST_POOL) for _ in range(rng.randint(3, 9))))
    rng.shuffle(strs)
    return tuple(strs)


def light_family(rng):
    """Strings of varied lengths, one or two of which extend another by a
    character or two: the pass drops those and keeps most of the text."""
    strs = ["".join(rng.choice(NEST_POOL) for _ in range(rng.randint(14, 22)))
            for _ in range(rng.randint(5, 8))]
    for _ in range(rng.randint(1, 2)):
        s = rng.choice(strs)
        for _ in range(rng.randint(1, 2)):
            i = rng.randint(0, len(s))
            s = s[:i] + rng.choice(NEST_POOL) + s[i:]
        strs.append(s)
    rng.shuffle(strs)
    return tuple(strs)


def generated_columns(seed):
    """Three 2,000-value columns: timestamps, order ids and addresses."""
    rng = random.Random(seed)
    r = rng.randrange
    return [
        [f"2015-{1 + r(12):02d}-{1 + r(28):02d}T{r(24):02d}:{r(60):02d}" for _ in range(2000)],
        [f"ORD-{chr(65 + r(26))}{r(10**5):05d}-{rng.choice(['EU', 'US', 'AP'])}"
         for _ in range(2000)],
        [f"192.168.{r(256)}.{r(256)}" for _ in range(2000)],
    ]


# a^i b^(2(m - i)) holds a^j b^(2(m - j)) only when i = j.
ANTICHAIN = tuple("a" * i + "b" * (2 * (30 - i)) for i in range(1, 30))
NESTED_DIGEST = "7442af9dd7dbb34b"
LIGHT_DIGEST = "95622db2378b55b1"
COLUMN_TEMPLATES = ["2015-*-*T*:*", "ORD-*-*", "192.168.*.*"]
COLUMN_DIGEST = "b3e5577f5730b6e6"


def _digest(outputs):
    joined = json.dumps(outputs, ensure_ascii=True).encode("ascii")
    return hashlib.sha256(joined).hexdigest()[:16]


def kept_strings(scanner):
    """The strings a scanner scans, read back from its count table: each
    text character adds one to its own column of ``cum``. They fill the
    text end to end, so no character goes unscanned."""
    starts, ends = scanner._bounds[:, 0].tolist()
    assert starts == [0, *ends[:-1]] and ends[-1] == len(scanner._cum) - 1
    if not scanner.alphabet:
        return [""]
    chars = np.diff(scanner._cum, axis=0).argmax(axis=1).tolist()
    text = "".join(scanner.alphabet[c] for c in chars)
    return sorted(text[a:b] for a, b in zip(*scanner._bounds[:, 0].tolist()))


def minimal_set(strs):
    """Brute force: the distinct strings cut to the shared characters,
    less every one that holds another."""
    shared = set(common_chars(strs))
    cut = {"".join(c for c in s if c in shared) for s in strs}
    return sorted(s for s in cut if not any(t != s and is_subsequence(t, s) for t in cut))


class TestReducedStrings:
    """The scanner deletes characters that are not shared and drops every
    string that holds another; neither changes a slot or a bag."""

    def test_slots_agree_with_contract_on_nested_sets(self):
        rng = random.Random(41)
        for family in [nested_family] * 120 + [held_family] * 60 + [light_family] * 40:
            strs = family(rng)
            assert_slots_agree(strs, common_subsequences_sample(rng, strs))

    def test_values_that_hold_one_value_scan_one_string(self):
        base = "2015-T:"
        values = [base[:i] + d + base[i:] for i in range(len(base) + 1) for d in "0123456789"]
        scanner = BreakpointScanner(tuple(values + [base]))
        assert scanner._bounds.shape[-1] == 1
        assert scanner.alphabet == sorted(set(base))
        assert_slots_agree(tuple(values + [base]), ["", "20", "2015-T:"], scanner)

    def test_seeded_outputs_pinned_on_nested_sets(self):
        # Recorded before the scanner reduced its strings.
        rng = random.Random(77)
        outputs = []
        for _ in range(40):
            strs = nested_family(rng)
            start = one_mcs(strs)[:2]
            for weighting in ("uniform", "frequency"):
                for w in ("", start):
                    outputs.append(sorted(run_many(strs, 60, 3, weighting, start=w).counts.items()))
        assert _digest(outputs) == NESTED_DIGEST

    def test_seeded_outputs_pinned_on_lightly_nested_sets(self):
        # Recorded while the scanner kept the strings the pass dropped from
        # these sets in its text, unread.
        rng = random.Random(79)
        outputs = []
        for _ in range(40):
            strs = light_family(rng)
            start = one_mcs(strs)[:2]
            for weighting in ("uniform", "frequency"):
                for w in ("", start):
                    outputs.append(sorted(run_many(strs, 60, 3, weighting, start=w).counts.items()))
        assert _digest(outputs) == LIGHT_DIGEST

    def test_kept_strings_are_the_minimal_set(self):
        rng = random.Random(43)
        families = ([nested_family] * 150 + [held_family] * 80 + [sole_family] * 80
                    + [light_family] * 80)
        sets = [family(rng) for family in families] + generated_columns(5)
        for strs in sets:
            assert kept_strings(BreakpointScanner(tuple(strs))) == minimal_set(strs), strs

    def test_timestamp_column_keeps_its_minimal_set(self):
        # The order extract_pattern passes; a pass that stops at the first
        # candidate dropping nothing keeps 312 of these values.
        values = tuple(sorted(set(generated_columns(5)[0])))
        assert BreakpointScanner(values)._bounds.shape[-1] == 72

    def test_pass_continues_past_a_candidate_that_drops_nothing(self):
        # "ab" drops nothing; "ba" then drops "bba".
        assert kept_strings(BreakpointScanner(("ab", "ba", "bba"))) == ["ab", "ba"]

    def test_antichain_of_varied_lengths_keeps_every_string(self):
        assert kept_strings(BreakpointScanner(ANTICHAIN)) == sorted(ANTICHAIN)

    def test_tables_are_built_again_only_when_the_pass_drops_a_string(self, monkeypatch):
        built = []
        lookup = BreakpointScanner._lookup
        monkeypatch.setattr(BreakpointScanner, "_lookup",
                            lambda self, text, hit: built.append(len(text)) or lookup(self, text, hit))
        for strs, sizes in [(("abca", "bcab", "cabc"), [12]), (ANTICHAIN, [1305]),
                            (("ab", "ba", "bba", "abab"), [11, 4])]:
            built.clear()
            BreakpointScanner(strs)
            assert built == sizes, strs

    def test_guard_counts_the_strings_as_given(self, monkeypatch):
        # Every string holds "ab", so the scanner keeps 2 of 1,640 characters.
        strs = tuple("ab" * k for k in range(1, 41))
        need = 13 * 2 * (1640 + 2)
        monkeypatch.setattr(_engine, "MAX_TABLE_BYTES", need - 1)
        with pytest.raises(SizeGuardError) as caught:
            BreakpointScanner(strs)
        assert str(caught.value) == (
            f"scanner tables would need about {need} bytes for 2 shared characters over "
            f"1640 characters (> MAX_TABLE_BYTES = {need - 1})"
        )
        monkeypatch.setattr(_engine, "MAX_TABLE_BYTES", need)
        assert BreakpointScanner(strs)._sole == "ab"

    def test_column_outputs_pinned(self):
        # Recorded before the scanner reduced its strings.
        columns = generated_columns(5)
        assert [extract_pattern(v, seed=1).render() for v in columns] == COLUMN_TEMPLATES
        counts = [sorted(run_many(v, 30, 2).counts.items()) for v in columns]
        assert _digest(counts) == COLUMN_DIGEST


def sole_family(rng):
    """A base and strings that each hold it, with inserted characters that
    some strings lack: the scanner keeps one string."""
    base = "".join(rng.choice(NEST_POOL) for _ in range(rng.randint(0, 5)))
    strs = [base]
    for _ in range(rng.randint(0, 3)):
        s = base
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(0, len(s))
            s = s[:i] + rng.choice(NEST_POOL + "xyz") + s[i:]
        strs.append(s)
    rng.shuffle(strs)
    return tuple(strs)


class TestOneStringLeft:
    """A set the reductions take to one string has that string as its only
    maximal common subsequence, and the search returns it without drawing."""

    def test_every_run_returns_the_one_string(self, monkeypatch):
        calls = []
        slots = BreakpointScanner.slots
        monkeypatch.setattr(BreakpointScanner, "slots",
                            lambda self, ws: calls.append(ws) or slots(self, ws))
        monkeypatch.setattr(_engine, "Random", None)
        rng = random.Random(5)
        for _ in range(60):
            strs = sole_family(rng)
            (sole,) = enumerate_mcs(strs)
            assert BreakpointScanner(strs)._sole == sole
            start = "".join(c for c in sole if rng.random() < 0.5)
            for weighting in ("uniform", "frequency"):
                for w in ("", start):
                    assert run_many(strs, 7, 3, weighting, start=w).counts == {sole: 7}
        assert calls == []

    def test_seeds_are_derived_one_run_at_a_time(self, monkeypatch):
        derived = []

        def counting(master, index):
            derived.append(index)
            return derive_run_seed(master, index)

        monkeypatch.setattr(randomized, "derive_run_seed", counting)
        runs = _seeded_runs(["ab", "xab", "abz"], 10**6, 0, "uniform", "")
        assert derived == []
        assert [next(runs), next(runs)] == ["ab", "ab"]
        assert derived == [0, 1]

    def test_sets_left_with_two_strings_still_draw(self):
        assert BreakpointScanner(("ab", "ba", "xab"))._sole is None
        assert BreakpointScanner(("ab", "ba"))._sole is None
