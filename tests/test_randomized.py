"""Randomized search: distribution, determinism, and the closed-form
run-count and probability bounds."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import (
    RandomMCS,
    RunSummary,
    SizeGuardError,
    derive_run_seed,
    enumerate_mcs,
    is_maximal,
    is_subsequence,
    longest_of_runs,
    probability_lower_bound,
    random_mcs,
    required_runs,
    run_many,
)
from mcskit import _engine, exact, randomized
from mcskit.randomized import _seeded_runs
from tests.conftest import random_instance

TOY = ["TEGAP", "GAEPR"]
PAIR = ["fabecd", "acdef"]


class TestRandomMCS:
    def test_toy_outputs_only_known_solutions(self):
        outs = {random_mcs(TOY, seed=s) for s in range(300)}
        assert outs == {"GAP", "EP"}

    def test_single_string_is_its_own_unique_solution(self):
        assert random_mcs(["ABC"], seed=5) == "ABC"

    def test_second_worked_pair_support(self):
        outs = {random_mcs(PAIR, seed=s) for s in range(300)}
        assert outs == {"f", "acd", "ae"}

    def test_constrained_start_forces_gap(self):
        for s in range(100):
            assert random_mcs(TOY, seed=s, start="GP") == "GAP"

    def test_start_embeds_in_output(self, rng):
        for i in range(50):
            strs = random_instance(rng, 2, 10, 4)
            base = random_mcs(strs, seed=i)
            if not base:
                continue
            start = base[:: 2]
            out = random_mcs(strs, seed=i + 1000, start=start)
            assert is_subsequence(start, out)
            assert is_maximal(strs, out)

    def test_rejects_non_common_start(self):
        with pytest.raises(ValueError):
            random_mcs(TOY, start="XYZ")

    def test_only_a_nonempty_start_is_checked(self, monkeypatch):
        checked = []

        def counting(w, s):
            checked.append(w)
            return is_subsequence(w, s)

        monkeypatch.setattr(randomized, "is_subsequence", counting)
        run_many(TOY * 3, 5)
        assert checked == []
        run_many(TOY * 3, 5, start="GP")
        assert checked == ["GP"] * 6

    def test_no_shared_characters_yields_empty(self):
        assert random_mcs(["abc", "xyz"], seed=3) == ""

    def test_always_maximal(self, rng):
        for i in range(150):
            strs = random_instance(
                rng, rng.randint(1, 5), 20, rng.randint(2, 6), min_len=0
            )
            w = random_mcs(strs, seed=i, weighting=rng.choice(["uniform", "frequency"]))
            assert is_maximal(strs, w)

    def test_deterministic_given_seed(self):
        strs = ["abcabc", "cabcab", "bcabca"]
        for seed in (0, 1, 17):
            assert random_mcs(strs, seed=seed) == random_mcs(strs, seed=seed)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_mcs(TOY, weighting="sometimes")
        with pytest.raises(ValueError):
            random_mcs(TOY, seed=-1)
        with pytest.raises(TypeError):
            random_mcs(TOY, seed=True)
        with pytest.raises(ValueError):
            random_mcs([])

    def test_numpy_integers_count_as_ints(self):
        # Parameter grids hand over numpy integers; they act as the equal int.
        assert random_mcs(PAIR, seed=np.int64(3)) == random_mcs(PAIR, seed=3)
        summary = run_many(PAIR, np.int64(5), np.uint8(2))
        assert summary == run_many(PAIR, 5, 2)
        assert type(summary.total_runs) is int
        for bad in (True, 3.0, np.float64(3)):
            with pytest.raises(TypeError, match="seed must be an int"):
                random_mcs(PAIR, seed=bad)
            with pytest.raises(TypeError, match="runs must be an int"):
                run_many(PAIR, bad)


class TestRunMany:
    def test_toy_distribution_near_exact_values(self):
        # Exact per-run probabilities are 2/3 and 1/3; a 5000-run estimate
        # stays within 5 sigma (~0.033).
        summary = run_many(TOY, 5000, master_seed=11)
        assert set(summary.counts) == {"GAP", "EP"}
        assert abs(summary.probabilities["GAP"] - 2 / 3) < 0.034
        assert abs(summary.probabilities["EP"] - 1 / 3) < 0.034
        assert summary.longest == "GAP"

    def test_counts_sum_and_probabilities(self):
        summary = run_many(["ABC"], 5, master_seed=0)
        assert summary.counts == {"ABC": 5}
        assert summary.probabilities == {"ABC": 1.0}
        assert summary.total_runs == 5

    def test_pair_support_and_longest(self):
        summary = run_many(PAIR, 3000, master_seed=4)
        assert set(summary.counts) == {"f", "acd", "ae"}
        assert summary.longest == "acd"
        assert sum(summary.counts.values()) == 3000

    def test_repeatable_given_master_seed(self):
        a = run_many(TOY, 500, master_seed=9)
        b = run_many(TOY, 500, master_seed=9)
        assert a.counts == b.counts
        assert a.counts != run_many(TOY, 500, master_seed=10).counts

    def test_dedup_matches_duplicated_input_support(self):
        assert run_many(TOY * 3, 300, master_seed=1).counts == run_many(TOY, 300, master_seed=1).counts

    def test_degenerate_flagged(self):
        summary = run_many(["abc", "xyz"], 10, master_seed=0)
        assert summary.degenerate
        assert summary.counts == {"": 10}
        assert not run_many(TOY, 10, master_seed=0).degenerate

    def test_support_equals_enumeration_on_small_instances(self, rng):
        for i in range(12):
            strs = random_instance(rng, rng.choice([2, 3]), 7, rng.randint(2, 4))
            expected = enumerate_mcs(strs)
            support = set(run_many(strs, 800, master_seed=i).counts)
            assert support == expected, strs

    def test_distinguisher_length_bound_holds(self):
        # 'GAP' and 'EP' each contain a character unique to them among the
        # solutions; with 4 shared characters the bound is 4**-1 each.
        summary = run_many(TOY, 3000, master_seed=2)
        sigma = math.sqrt(0.25 * 0.75 / 3000)
        bound = probability_lower_bound(4, 1) - 3 * sigma
        assert summary.probabilities["GAP"] >= bound
        assert summary.probabilities["EP"] >= bound
        # Same on the second pair: 'f' is alone in containing 'f', C=5.
        summary = run_many(PAIR, 3000, master_seed=2)
        sigma = math.sqrt(0.2 * 0.8 / 3000)
        assert summary.probabilities["f"] >= probability_lower_bound(5, 1) - 3 * sigma

    def test_longest_tie_break_is_lexicographic_min(self):
        summary = RunSummary(total_runs=3, counts={"ba": 1, "ab": 1, "c": 1})
        assert summary.longest == "ab"


class TestLongestOfRuns:
    def test_toy(self):
        assert longest_of_runs(TOY, 100, master_seed=0) == "GAP"

    def test_single_string_single_run(self):
        assert longest_of_runs(["ABC"], 1, master_seed=123) == "ABC"


class TestRequiredRuns:
    def test_even_odds(self):
        assert required_runs(0.5, 0.5) == 1

    def test_spot_values(self):
        # Frozen from direct evaluation of ceil(log eps / log(1-p)):
        # ceil(4.60517/0.405465) = 12 and ceil(6.907755/0.287682) = 25.
        assert required_runs(1 / 3, 0.01) == 12
        assert required_runs(0.25, 0.001) == 25

    def test_formula_agrees_with_direct_evaluation(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rng.uniform(0.01, 0.99)
            eps = rng.uniform(0.001, 0.5)
            assert required_runs(p, eps) == math.ceil(math.log(eps) / math.log(1 - p))

    def test_small_p(self):
        # 1 - p rounds to 1 at p=1e-17 and loses digits at p=1e-12. Exact
        # values, from 50-digit arithmetic: 460517018598809134.5 and
        # 4605170185985.79; the first lies beyond float precision.
        assert math.isclose(required_runs(1e-17, 0.01), 460_517_018_598_809_135, rel_tol=1e-15)
        assert required_runs(1e-12, 0.01) == 4_605_170_185_986

    def test_too_many_runs_for_a_float(self):
        # log1p(-5e-324) is -5e-324, so the quotient overflows to infinity.
        with pytest.raises(ValueError, match=r"p=5e-324 and eps=0\.01"):
            required_runs(5e-324, 0.01)

    def test_guarantee_is_sufficient(self):
        # (1-p)^T <= eps for the returned T.
        for p, eps in [(1 / 3, 0.01), (0.25, 0.001), (0.9, 0.2)]:
            t = required_runs(p, eps)
            assert (1 - p) ** t <= eps
            assert t == 1 or (1 - p) ** (t - 1) > eps

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                required_runs(bad, 0.5)
            with pytest.raises(ValueError):
                required_runs(0.5, bad)

    def test_rejects_non_real(self):
        with pytest.raises(TypeError, match="p must be a real number, got str"):
            required_runs("0.5", 0.01)
        with pytest.raises(TypeError, match="eps must be a real number, got NoneType"):
            required_runs(0.5, None)


class TestProbabilityLowerBound:
    def test_examples(self):
        assert probability_lower_bound(4, 1) == 0.25
        assert probability_lower_bound(1, 3) == 1.0
        assert probability_lower_bound(4, 2) == 0.0625

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            probability_lower_bound(0, 1)
        with pytest.raises(ValueError):
            probability_lower_bound(4, -1)


class TestSeedDerivation:
    def test_pure_function_of_inputs(self):
        assert derive_run_seed(1, 2) == derive_run_seed(1, 2)
        assert derive_run_seed(1, 2) != derive_run_seed(1, 3)
        assert derive_run_seed(1, 2) != derive_run_seed(2, 2)

    def test_frozen_regression_value(self):
        # Pins the documented sha256 derivation; a change here silently
        # breaks reproducibility of every recorded result.
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256(b"0:0").digest()[:8], "big"
        )
        assert derive_run_seed(0, 0) == expected


class TestEstimatorInterface:
    def test_fit_sets_attributes(self):
        est = RandomMCS(n_runs=400, random_state=3).fit(TOY)
        assert set(est.counts_) == {"GAP", "EP"}
        assert est.longest_ == "GAP"
        assert est.probabilities_["GAP"] > est.probabilities_["EP"]
        assert est.summary_.total_runs == 400

    def test_get_set_params_roundtrip(self):
        est = RandomMCS(n_runs=7, weighting="frequency")
        params = est.get_params()
        assert params["n_runs"] == 7 and params["weighting"] == "frequency"
        est.set_params(n_runs=9)
        assert est.n_runs == 9
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_repr_names_every_parameter(self):
        est = RandomMCS(n_runs=5)
        assert repr(est) == "RandomMCS(n_runs=5, random_state=0, start='', weighting='uniform')"

    def test_sklearn_clone_compatibility(self):
        sklearn = pytest.importorskip("sklearn.base")
        est = RandomMCS(n_runs=5, random_state=8)
        cloned = sklearn.clone(est)
        assert cloned.get_params() == est.get_params()
        assert cloned.fit(TOY).counts_ == est.fit(TOY).counts_


# Strings from a pool with an astral character and a lone surrogate, plus
# repeats of some of them; the scanner drops the repeats.
POOL = st.sampled_from(["a", "b", "c", "\ud800", "\U0001f600"])
REPEATED_SETS = st.tuples(
    st.lists(st.text(alphabet=POOL, max_size=10), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), max_size=3),
).map(lambda t: tuple(t[0]) + tuple(t[0][i % len(t[0])] for i in t[1]))


class TestLockstepRuns:
    """Runs advanced together equal runs made one at a time, across every
    batch and slots-chunk boundary."""

    @pytest.mark.parametrize(
        "budget", [1, 4096, 1 << 40], ids=["one-run-batches", "memo-fills-partway", "one-batch"]
    )
    @settings(max_examples=60, deadline=None)
    @given(
        strs=REPEATED_SETS,
        runs=st.integers(1, 12),
        master=st.integers(0, 10**6),
        weighting=st.sampled_from(["uniform", "frequency"]),
        keep=st.none() | st.lists(st.booleans(), max_size=10),
    )
    def test_batches_equal_single_runs(self, budget, strs, runs, master, weighting, keep):
        start = "" if keep is None else "".join(
            c for c, k in zip(random_mcs(strs, seed=master), keep) if k
        )
        single = [
            random_mcs(strs, seed=derive_run_seed(master, i), weighting=weighting, start=start)
            for i in range(runs)
        ]
        with pytest.MonkeyPatch.context() as mp:
            # A 1-byte budget makes every batch one run and every slots chunk
            # one subsequence, and keeps no scanned subsequence; 4096 bytes
            # keep some.
            mp.setattr(_engine, "ROUND_BYTES", budget)
            assert list(_seeded_runs(strs, runs, master, weighting, start)) == single

    def test_seeds_are_derived_one_batch_at_a_time(self, monkeypatch):
        derived = []

        def counting(master, index):
            derived.append(index)
            return derive_run_seed(master, index)

        monkeypatch.setattr(randomized, "derive_run_seed", counting)
        runs = _seeded_runs(TOY, 10**6, 0, "uniform", "")
        assert derived == []
        first = next(runs)
        # The round budget bounds the batch by the runs' state: 419 runs.
        assert 0 < len(derived) <= _engine.BreakpointScanner(TOY).batch
        assert first == random_mcs(TOY, seed=derive_run_seed(0, 0))


# Every day of 2015 up to the 28th: few distinct subsequences, many runs.
DATES = [f"2015-{m:02d}-{d:02d}" for m in range(1, 13) for d in range(1, 29)]


class TestScanMemo:
    """One search scans each distinct subsequence once across its runs."""

    @pytest.mark.parametrize(
        "weighting, start", [("uniform", ""), ("frequency", ""), ("uniform", "20--")]
    )
    def test_each_state_is_scanned_once(self, monkeypatch, weighting, start):
        scanned = []
        slots = _engine.BreakpointScanner.slots

        def counting(self, ws):
            scanned.extend(ws)
            return slots(self, ws)

        monkeypatch.setattr(_engine.BreakpointScanner, "slots", counting)
        # More runs than one batch, so later batches reuse what earlier
        # ones scanned.
        runs = 500
        assert runs > _engine.BreakpointScanner(DATES).batch
        with pytest.MonkeyPatch.context() as mp:
            # A 1-byte budget keeps nothing: every run scans every round.
            mp.setattr(_engine, "ROUND_BYTES", 1)
            unkept = list(_seeded_runs(DATES, runs, 0, weighting, start))
        states, rounds = set(scanned), len(scanned)
        scanned.clear()
        kept = list(_seeded_runs(DATES, runs, 0, weighting, start))
        assert len(scanned) == len(states) < rounds
        assert set(scanned) == states
        assert kept == unkept


# Outputs of every seeded entry point, printed in their own order. The
# scan memo and each round's dedup are dicts keyed by subsequence, so a
# result that followed str hashing would change with PYTHONHASHSEED.
HASH_SCRIPT = r"""
from mcskit import extract_pattern, lcs_dp, one_mcs, random_strings, run_many
dates = [f"2015-{m:02d}-{d:02d}" for m in range(1, 13) for d in range(1, 29)]
mixed = ["ab\u00e9\U0001f600ba\u00e9", "\U0001f600ba\u00e9ab", "b\u00e9a\U0001f600ab"]
sets = [random_strings(4, 30, 6, seed=3), dates, mixed]
for strs in sets:
    for weighting in ("uniform", "frequency"):
        print(list(run_many(strs, 400, 5, weighting).counts.items()))
        print(list(run_many(strs, 400, 5, weighting, start=one_mcs(strs)[:2]).counts.items()))
    print(one_mcs(strs), one_mcs(strs[::-1]), lcs_dp(strs[:3]))
print(extract_pattern(dates, runs=50, seed=2).render())
"""


def test_outputs_do_not_depend_on_str_hashing():
    src = os.path.dirname(os.path.dirname(randomized.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path, PYTHONIOENCODING="utf-8")
        done = subprocess.run([sys.executable, "-c", HASH_SCRIPT], env=env, capture_output=True,
                              encoding="utf-8", timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


class TestScannerGuard:
    # TOY has 4 shared characters over 10 text characters: 13 * 4 * 12 bytes.
    def test_oversized_tables_raise(self, monkeypatch):
        monkeypatch.setattr(_engine, "MAX_TABLE_BYTES", 13 * 4 * 12 - 1)
        with pytest.raises(SizeGuardError, match="MAX_TABLE_BYTES"):
            random_mcs(TOY)
        with pytest.raises(exact.SizeGuardError):
            run_many(TOY, 3)

    def test_tables_at_the_cap_build(self, monkeypatch):
        monkeypatch.setattr(_engine, "MAX_TABLE_BYTES", 13 * 4 * 12)
        assert random_mcs(TOY, seed=7) in {"GAP", "EP"}
