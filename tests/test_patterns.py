"""Wildcard templates: extraction on known columns, matcher soundness,
rendering, and the transformer interface."""

import random
import re
import time

import pytest

from mcskit import (
    WILDCARD,
    ColumnPattern,
    PatternExtractor,
    extract_pattern,
    leftmost_positions,
    render_pattern,
)
from mcskit import patterns
from tests.conftest import random_instance

DATES = ["2015-12-01", "2015-12-17", "2015-12-30"]
POPS = ["POP-A1", "POP-B2"]
VERSIONS = ["v1.0", "build-7"]


def oracle_match(tokens, value):
    """Independent anchored matcher: backtracking over token list."""
    if not tokens:
        return value == ""
    head, rest = tokens[0], tokens[1:]
    if head is WILDCARD:
        return any(oracle_match(rest, value[i:]) for i in range(len(value) + 1))
    return value.startswith(head) and oracle_match(rest, value[len(head):])


class TestExtractPattern:
    def test_date_column(self):
        p = extract_pattern(DATES, runs=100, seed=0)
        assert render_pattern(p) == "2015-12-*"

    def test_code_column(self):
        p = extract_pattern(POPS, runs=100, seed=0)
        assert render_pattern(p) == "POP-*"

    def test_identical_values_have_no_wildcard(self):
        p = extract_pattern(["ABC", "ABC"], runs=10, seed=0)
        assert render_pattern(p) == "ABC"
        assert p.n_wildcards == 0

    def test_disjoint_values_collapse_to_wildcard(self):
        p = extract_pattern(VERSIONS, runs=50, seed=0)
        assert p.tokens == (WILDCARD,)
        assert render_pattern(p) == "*"

    def test_every_value_matches_its_pattern(self, rng):
        for _ in range(40):
            values = random_instance(rng, rng.randint(1, 6), 12, rng.randint(2, 6), min_len=0)
            p = extract_pattern(values, runs=40, seed=3)
            for v in values:
                assert p.matches(v), (values, render_pattern(p), v)
                assert oracle_match(list(p.tokens), v)

    def test_each_wildcard_has_a_gap_witness(self, rng):
        # Construction rule: a wildcard is emitted only where some value
        # keeps at least one character under the greedy leftmost alignment
        # of the backbone. (Under arbitrary re-alignment a fused pattern
        # can occasionally still match every value, so the strong form is
        # asserted only on structured columns below.)
        from mcskit import leftmost_positions

        for _ in range(30):
            values = random_instance(rng, rng.randint(2, 5), 10, 3)
            p = extract_pattern(values, runs=40, seed=1)
            backbone = p.literal_text
            wild_gaps = []
            gap = 0
            for tok in p.tokens:
                if tok is WILDCARD:
                    wild_gaps.append(gap)
                else:
                    gap += len(tok)
            for g in wild_gaps:
                witnesses = 0
                for v in values:
                    pos = leftmost_positions(backbone, v)
                    bounds = [-1] + pos + [len(v)]
                    if bounds[g + 1] - bounds[g] > 1:
                        witnesses += 1
                assert witnesses >= 1, (values, render_pattern(p), g)

    def test_fusing_wildcards_breaks_structured_columns(self):
        for values in (DATES, POPS, ["ab", "axb"]):
            p = extract_pattern(values, runs=60, seed=0)
            for i, tok in enumerate(p.tokens):
                if tok is not WILDCARD:
                    continue
                fused = list(p.tokens[:i] + p.tokens[i + 1 :])
                merged = []
                for t in fused:
                    if merged and t is not WILDCARD and merged[-1] is not WILDCARD:
                        merged[-1] += t
                    else:
                        merged.append(t)
                assert any(not oracle_match(merged, v) for v in values)

    def test_structured_prefix_suffix_family(self):
        values = [f"ID-{n:03d}/x" for n in (1, 23, 456)]
        p = extract_pattern(values, runs=60, seed=2)
        assert render_pattern(p).startswith("ID-")
        assert all(p.matches(v) for v in values)

    def test_deterministic_given_seed(self):
        values = ["abc1", "abc2", "abd3"]
        a = extract_pattern(values, runs=30, seed=5)
        assert a.tokens == extract_pattern(values, runs=30, seed=5).tokens

    def test_sampling_bounds_large_columns(self):
        values = [f"row-{i}" for i in range(patterns.MAX_DISTINCT + 300)]
        p = extract_pattern(values)
        assert render_pattern(p).startswith("row-")
        assert all(p.matches(v) for v in values)

    def test_value_missed_by_the_sample_still_matches(self):
        # More than MAX_DISTINCT distinct values: the search sees only a
        # seeded sample, and it misses the one outlier.
        values = [f"ORD-{i:05d}-EU" for i in range(10_500)] + ["REF-7"]
        est = PatternExtractor(n_runs=20)
        est.fit_transform(values)
        assert all(est.pattern_.matches(v) for v in values)

    def test_gaps_are_read_from_every_value(self):
        # The outlier holds the sampled backbone but has a character before
        # it, which no sampled value has, so the template must open with a
        # wildcard.
        values = [f"K{i:05d}" for i in range(patterns.MAX_DISTINCT + 500)]
        values.append("#" + values[0])
        p = extract_pattern(values, runs=20)
        assert render_pattern(p).startswith("*")
        assert all(p.matches(v) for v in values)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            extract_pattern([], runs=10, seed=0)

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"runs": 0}, ValueError),
            ({"seed": -1}, ValueError),
            ({"weighting": "sometimes"}, ValueError),
            ({"runs": True}, TypeError),
        ],
    )
    def test_bad_search_arguments_rejected(self, kwargs, error):
        (name,) = kwargs
        with pytest.raises(error, match=name):
            extract_pattern(["a1", "a2", "a3"], **kwargs)

    def test_sampling_bounds_are_not_parameters(self):
        assert set(PatternExtractor().get_params()) == {"n_runs", "random_state", "weighting"}
        with pytest.raises(TypeError):
            extract_pattern(["a1", "a2"], max_distinct=10)


def loop_gap_open(backbone, values):
    """Reference alignment: each value's leftmost embedding, one at a time."""
    gap_open = [False] * (len(backbone) + 1)
    for v in values:
        bounds = [-1] + leftmost_positions(backbone, v) + [len(v)]
        for g in range(len(backbone) + 1):
            if bounds[g + 1] - bounds[g] > 1:
                gap_open[g] = True
    return gap_open


def held_column(rng, size):
    """A backbone over a pool with an astral character and a lone
    surrogate, often repeating a character, and up to ``size`` distinct
    values that hold it."""
    pool = "ab\U0001f600\ud800"
    backbone = "".join(rng.choice(pool) for _ in range(rng.randint(1, 6)))
    values = set()
    for _ in range(size):
        v = backbone
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(v))
            v = v[:i] + rng.choice(pool + "xy") + v[i:]
        values.add(v)
    return backbone, sorted(values)


class TestAlignmentWalk:
    """The vectorized walk opens the gaps the per-value leftmost embedding
    opens."""

    def test_agrees_with_the_per_value_loop(self):
        rng = random.Random(8)
        for _ in range(300):
            backbone, values = held_column(rng, rng.randint(1, 12))
            assert patterns._gap_open(backbone, values) == loop_gap_open(backbone, values)

    def test_chunks_agree_with_one_walk(self, monkeypatch):
        backbone, values = held_column(random.Random(9), 60)
        values.append(backbone + "x" * 40)
        encoded = []
        code_points = patterns._engine.code_points
        monkeypatch.setattr(patterns._engine, "code_points",
                            lambda text: encoded.append(text) or code_points(text))
        # 16 characters a chunk; the last value is longer and gets its own.
        monkeypatch.setattr(patterns._engine, "ROUND_BYTES", 12 * 16)
        assert patterns._gap_open(backbone, values) == loop_gap_open(backbone, values)
        # The backbone, then one encode per chunk.
        assert len(encoded) > 3 and "".join(encoded[1:]) == "".join(values)


class TestRenderPattern:
    def test_examples(self):
        assert render_pattern(ColumnPattern(("POP-", WILDCARD))) == "POP-*"
        assert render_pattern(ColumnPattern((WILDCARD,))) == "*"
        assert render_pattern(ColumnPattern(("a*b",))) == "a\\*b"

    def test_escaping_round_trips_through_matcher(self):
        # Parse the rendered form back into tokens; matching behavior of
        # the reconstruction must agree with the original.
        p = ColumnPattern(("a*b", WILDCARD, "c"))
        rendered = render_pattern(p)
        tokens, literal = [], ""
        i = 0
        while i < len(rendered):
            if rendered.startswith("\\*", i):
                literal += "*"
                i += 2
            elif rendered[i] == "*":
                if literal:
                    tokens.append(literal)
                    literal = ""
                tokens.append(WILDCARD)
                i += 1
            else:
                literal += rendered[i]
                i += 1
        if literal:
            tokens.append(literal)
        assert tuple(tokens) == p.tokens
        for probe in ["a*bXc", "a*bc", "abc", "a*b", "xa*bc"]:
            assert oracle_match(tokens, probe) == p.matches(probe)

    def test_backslash_is_escaped(self):
        # Escaping only "*" rendered both of these as "a\*".
        assert render_pattern(ColumnPattern(("a\\", WILDCARD))) == "a\\\\*"
        assert render_pattern(ColumnPattern(("a*",))) == "a\\*"
        assert render_pattern(extract_pattern(["C:\\x1", "C:\\y2"])) == "C:\\\\*"


class TestColumnPattern:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ColumnPattern((WILDCARD, WILDCARD))
        with pytest.raises(ValueError):
            ColumnPattern(("ab", "", "c"))

    def test_captures(self):
        p = ColumnPattern(("POP-", WILDCARD))
        assert p.captures("POP-A1") == ("A1",)
        with pytest.raises(ValueError):
            p.captures("DC-A1")

    def test_captures_agree_with_greedy_regex(self, rng):
        # Oracle: re.fullmatch of the greedy regex. Values may end in a
        # newline, which a ``$`` anchor would wrongly accept.
        chars = "ab\n*."
        for _ in range(3000):
            tokens = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.45 and (not tokens or tokens[-1] is not WILDCARD):
                    tokens.append(WILDCARD)
                else:
                    tokens.append("".join(rng.choice(chars) for _ in range(rng.randint(1, 3))))
            p = ColumnPattern(tuple(tokens))
            value = "".join(rng.choice(chars) for _ in range(rng.randint(0, 12)))
            regex = "".join("(.*)" if t is WILDCARD else re.escape(t) for t in tokens)
            m = re.fullmatch(regex, value, re.DOTALL)
            assert p.matches(value) == (m is not None), (tokens, value)
            if m is None:
                with pytest.raises(ValueError):
                    p.captures(value)
            else:
                assert p.captures(value) == m.groups(), (tokens, value)

    def test_non_matching_value_is_fast(self):
        # A backtracking matcher takes seconds on this template and value.
        p = ColumnPattern(sum(((WILDCARD, "a") for _ in range(8)), ()) + ("b",))
        value = "a" * 40
        t0 = time.perf_counter()
        assert not p.matches(value)
        with pytest.raises(ValueError):
            p.captures(value)
        assert time.perf_counter() - t0 < 0.1

    def test_literal_text(self):
        p = ColumnPattern(("2015-12-", WILDCARD))
        assert p.literal_text == "2015-12-"
        assert p.n_wildcards == 1


class TestPatternExtractor:
    def test_fit_transform(self):
        est = PatternExtractor(n_runs=60, random_state=0)
        caps = est.fit_transform(DATES)
        assert est.pattern_str_ == "2015-12-*"
        assert caps == [("01",), ("17",), ("30",)]

    def test_fit_transform_reads_a_generator_once(self):
        est = PatternExtractor(n_runs=5, random_state=0)
        assert est.fit_transform(v for v in POPS) == [("A1",), ("B2",)]
        assert est.pattern_str_ == "POP-*"

    def test_transform_requires_fit(self):
        with pytest.raises(ValueError):
            PatternExtractor().transform(DATES)

    def test_transform_rejects_mismatch(self):
        est = PatternExtractor(n_runs=60, random_state=0).fit(POPS)
        with pytest.raises(ValueError):
            est.transform(["NOT-THIS"])

    def test_params_roundtrip_and_clone(self):
        est = PatternExtractor(n_runs=9, weighting="frequency", random_state=4)
        assert est.get_params()["n_runs"] == 9
        est.set_params(n_runs=11)
        assert est.n_runs == 11
        sklearn = pytest.importorskip("sklearn.base")
        clone = sklearn.clone(est)
        assert clone.get_params() == est.get_params()

    def test_works_in_sklearn_pipeline(self):
        pipeline_mod = pytest.importorskip("sklearn.pipeline")
        pipe = pipeline_mod.Pipeline(
            [("pattern", PatternExtractor(n_runs=40, random_state=0))]
        )
        out = pipe.fit_transform(POPS)
        assert out == [("A1",), ("B2",)]
