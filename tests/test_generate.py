"""Corpus generators: shape, determinism, planted embeddings, and the
on-disk format."""

import json

import pytest

from mcskit import (
    PlantedSpec,
    alphabet,
    is_subsequence,
    load_corpus,
    planted_strings,
    random_strings,
    read_string_file,
    write_corpus,
)


class TestAlphabet:
    def test_distinct_and_sized(self):
        for size in (1, 5, 26, 62, 80):
            chars = alphabet(size)
            assert len(chars) == size
            assert len(set(chars)) == size

    def test_prefix_property(self):
        assert alphabet(30).startswith(alphabet(15))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            alphabet(0)

    def test_stops_before_the_surrogates(self):
        chars = alphabet(55_166)
        assert len(set(chars)) == 55_166
        assert not any(0xD800 <= ord(c) <= 0xDFFF for c in chars)
        with pytest.raises(ValueError, match="55166"):
            alphabet(55_167)


class TestRandomStrings:
    def test_shapes_and_alphabet(self):
        strs = random_strings(4, 50, 6, seed=3)
        assert len(strs) == 4
        assert all(len(s) == 50 for s in strs)
        assert set("".join(strs)) <= set(alphabet(6))

    def test_trivial_empty(self):
        assert random_strings(1, 0, 1, seed=0) == [""]

    def test_deterministic(self):
        a = random_strings(2, 20, 5, seed=9)
        assert a == random_strings(2, 20, 5, seed=9)
        assert a != random_strings(2, 20, 5, seed=10)

    def test_per_string_streams_are_stable(self):
        # The i-th string depends only on (seed, i), not on how many
        # strings are requested.
        assert random_strings(5, 12, 4, seed=2)[:2] == random_strings(2, 12, 4, seed=2)


class TestPlantedSpec:
    def test_budget_violation_rejected(self):
        with pytest.raises(ValueError):
            PlantedSpec(n_strings=2, string_length=10, planted_lengths=(6, 6))

    def test_alphabet_ordering_enforced(self):
        with pytest.raises(ValueError):
            PlantedSpec(
                n_strings=2, string_length=30, core_alphabet_size=20, full_alphabet_size=10
            )

    def test_explicit_sequences_override_lengths(self):
        spec = PlantedSpec(
            n_strings=2, string_length=10, planted=("ab", "cde"), planted_lengths=(9, 9)
        )
        assert spec.planted_lengths == (2, 3)


class TestPlantedStrings:
    def test_every_sequence_embeds_in_every_string(self):
        spec = PlantedSpec(n_strings=200, string_length=60, seed=5)
        strings, planted = planted_strings(spec)
        assert len(strings) == 200
        assert [len(p) for p in planted] == [3, 6, 9, 12]
        assert all(len(s) == 60 for s in strings)
        for p in planted:
            assert all(is_subsequence(p, s) for s in strings)

    def test_zero_filler_degenerate_case(self):
        spec = PlantedSpec(
            n_strings=3, string_length=4, planted=("abcd",), full_alphabet_size=15
        )
        strings, planted = planted_strings(spec)
        assert planted == ["abcd"]
        # All slots belong to the single planted sequence.
        assert strings == ["abcd"] * 3

    def test_slots_partition_the_string(self):
        # With distinctive planted characters and disjoint filler alphabet,
        # planted characters account for exactly the planted lengths.
        spec = PlantedSpec(
            n_strings=20, string_length=30, planted=("XX", "YYY"),
            core_alphabet_size=10, full_alphabet_size=10,
        )
        strings, _ = planted_strings(spec)
        for s in strings:
            assert s.count("X") == 2
            assert s.count("Y") == 3

    def test_deterministic(self):
        spec = PlantedSpec(n_strings=10, string_length=20, planted_lengths=(2, 3), seed=7)
        assert planted_strings(spec) == planted_strings(spec)


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        strings = ["abc", "", "x*y", "déjà"]
        meta = {"kind": "random", "seed": 1}
        write_corpus(tmp_path / "corp", strings, meta)
        got_strings, got_meta = load_corpus(tmp_path / "corp")
        assert got_strings == strings
        assert got_meta == meta

    def test_read_string_file_edges(self, tmp_path):
        p = tmp_path / "strings.txt"
        p.write_text("", encoding="utf-8")
        assert read_string_file(p) == []
        p.write_text("\n", encoding="utf-8")
        assert read_string_file(p) == [""]
        p.write_text("a\n\nb", encoding="utf-8")
        assert read_string_file(p) == ["a", "", "b"]
        p.write_text("a\nb\n", encoding="utf-8")
        assert read_string_file(p) == ["a", "b"]

    def test_read_string_file_drops_byte_order_mark(self, tmp_path):
        p = tmp_path / "strings.txt"
        p.write_bytes(b"\xef\xbb\xbfabc\n")
        assert read_string_file(p) == ["abc"]

    def test_write_corpus_rejects_line_breaks_before_writing(self, tmp_path):
        for bad, index in ((["ab\ncd", "plain"], 0), (["plain", "x\ry"], 1)):
            with pytest.raises(ValueError, match=f"string #{index}"):
                write_corpus(tmp_path / "c", bad, {"kind": "random"})
            assert not (tmp_path / "c").exists()

    def test_meta_is_valid_json(self, tmp_path):
        write_corpus(tmp_path / "c", ["a"], {"kind": "random"})
        raw = (tmp_path / "c" / "meta.json").read_text()
        assert json.loads(raw) == {"kind": "random"}
