"""The four workloads of the mcskit benchmark.

Each workload makes a fresh input for every operation from the run seed
and the operation index, runs one operation on it, times every call into
mcskit, and checks the outputs outside the timed region. Calls go through
the module objects (``randomized.run_many``, not a name imported from
it), so the tracer's patches on those modules see them.

Every workload reports the same end-to-end metrics, so each name stands
for the workload's own call:

=============  ====================  =================  ==================  ===============================
metric         wide                  long               small               column
=============  ====================  =================  ==================  ===============================
op_ms_p50      random_mcs + one_mcs  all three calls    all four calls      3 x (fit + transform + matches)
search_ms_p50  random_mcs            run_many batch     random_mcs          extract_pattern, per column
runs_per_s     random_mcs calls      run_many runs      run_many runs       runs inside extract_pattern
other_ms_p50   one_mcs               one_mcs + lcs_dp   one_mcs + lcs_dp    transform + matches
=============  ====================  =================  ==================  ===============================

plus ``setup_s`` and ``peak_rss_mb``. The report lines add the names a
user of each call would look for (``search_ms_p90``, ``one_mcs_ms_p50``,
``lcs_ms_p50``, ``fit_ms_p50``, ``transform_values_per_s``, ...).

Why each workload exists, which layer it stresses or bypasses, and what
a faster layer should do to it are in each class docstring; the shares
quoted there are from traced runs on a 2-core x86 box. With nothing
contending, a faster layer saves at most its share of the operation.

``BENCHMARK.json`` lists only ``long`` and ``column``. On a shared 2-core
VM whose speed drifts by tens of percent from one half-minute to the
next, four workloads at the run budget got about 28 s each and medians
spread past the bounds; two get 50 s. Together they still cover every
module (``one_mcs`` rides on ``long`` for that). ``wide`` (build-bound)
and ``small`` (the Python engine path) stay runnable by hand.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from mcskit import deterministic, exact, generate, patterns, randomized, subsequence
from mcskit.patterns import WILDCARD
from tracing import median


def sub_seed(seed: int, *labels) -> int:
    """Stable 64-bit seed for one input of one workload."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def timed(calls: dict, key: str, fn, *args, **kwargs):
    """Call ``fn`` and append its wall time in seconds to ``calls[key]``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    calls.setdefault(key, []).append(time.perf_counter() - t0)
    return out


def ms_stats(name: str, samples_s, p90: bool = False) -> list:
    ms = [x * 1000 for x in samples_s]
    out = [(f"{name}_p50", median(ms), "ms", len(ms))]
    if p90:
        p = statistics.quantiles(ms, n=10, method="inclusive")[-1]
        out.append((f"{name}_p90", p, "ms", len(ms)))
    return out


def op_seconds(ops) -> list[float]:
    return [sum(sum(v) for v in calls.values()) for calls in ops]


def counts_digest(summary) -> list:
    return sorted(summary.counts.items())


class Workload:
    name = ""
    # Operations always run, however short the run; the output digest
    # and the exact per-layer counts cover exactly these.
    min_ops = 1
    # Later operations are checked when their check hash is 0 modulo this.
    check_period = 1

    def checked(self, seed: int, index: int) -> bool:
        return index < self.min_ops or sub_seed(seed, self.name, "check", index) % self.check_period == 0

    def make_input(self, seed: int, index):
        raise NotImplementedError

    def run(self, inp, seed: int, index, calls: dict) -> dict:
        """One operation; returns its outputs, with a JSON-able ``digest``."""
        raise NotImplementedError

    def warm(self, inp, seed: int) -> None:
        self.run(inp, seed, "warm", {})

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def summarize(self, ops: list[dict]) -> list:
        """(name, value, unit, samples) for every end-to-end metric of
        the workload; ``ops`` holds each operation's call times."""
        raise NotImplementedError


class Wide(Workload):
    """1000 random strings x 60 characters, alphabet 4.

    One ``random_mcs`` call then ``one_mcs``, on a corpus not searched
    before in the run, so a cache across calls cannot serve it. The table
    build is most of a call and the results are short (m about 7), so
    this stresses the ``_engine`` build and ``deterministic`` and barely
    touches the scan. It is what ``mcskit mcs --runs N`` pays per run.

    Predictions: the build is about 80% of ``search_ms_p50`` and the scan
    about 18%, so a 10x faster build can cut ``search_ms_p50`` by at most
    about 70% and a faster scan by at most 18%; a faster ``one_mcs``
    moves ``other_ms_p50`` only. Smaller tables move ``peak_rss_mb``.
    """

    name = "wide"
    min_ops = 3
    check_period = 15  # is_maximal costs about 70 ms per result here

    def make_input(self, seed, index):
        return generate.random_strings(1000, 60, 4, seed=sub_seed(seed, self.name, index))

    def run(self, inp, seed, index, calls):
        w = timed(calls, "random_mcs", randomized.random_mcs, inp, seed=sub_seed(seed, "search", index))
        d = timed(calls, "one_mcs", deterministic.one_mcs, inp)
        return {"random": w, "one": d, "digest": [w, d]}

    def check(self, inp, out):
        return [
            f"{label} result {out[label]!r} is not maximal"
            for label in ("random", "one")
            if not subsequence.is_maximal(inp, out[label])
        ]

    def summarize(self, ops):
        search = [c["random_mcs"][0] for c in ops]
        one = [c["one_mcs"][0] for c in ops]
        return [
            *ms_stats("op_ms", op_seconds(ops)),
            *ms_stats("search_ms", search, p90=True),
            ("runs_per_s", len(search) / sum(search), "1/s", len(search)),
            *ms_stats("other_ms", one),
            *ms_stats("one_mcs_ms", one, p90=True),
        ]


class Long(Workload):
    """3 random strings x 400 characters, alphabet 20.

    One ``run_many`` batch on a fresh corpus (one scanner build per
    batch), then ``one_mcs`` on it and ``lcs_dp`` on its 200-character
    prefixes (3 x 201^3 cells). The scan is nearly all of a run (m about
    60) and the build is amortized, so this stresses the ``_engine`` scan
    and the ``exact`` DP loop.

    Predictions: the scan is about 97% of a batch, so incremental slot
    maintenance shows in ``runs_per_s`` and ``search_ms_p50``; the build
    is under 2%, so a faster build leaves them flat. ``lcs_dp`` is nearly
    all of ``other_ms_p50``; ``one_mcs`` is a few milliseconds of it.
    """

    name = "long"
    min_ops = 2
    check_period = 3  # about 10 distinct results per batch, 7 ms each
    runs = 10
    prefix = 200

    def make_input(self, seed, index):
        return generate.random_strings(3, 400, 20, seed=sub_seed(seed, self.name, index))

    def run(self, inp, seed, index, calls):
        summary = timed(calls, "run_many", randomized.run_many, inp, self.runs,
                        master_seed=sub_seed(seed, "search", index))
        one = timed(calls, "one_mcs", deterministic.one_mcs, inp)
        lcs = timed(calls, "lcs_dp", exact.lcs_dp, [s[: self.prefix] for s in inp])
        return {"summary": summary, "one": one, "lcs": lcs,
                "digest": [counts_digest(summary), one, lcs]}

    def check(self, inp, out):
        summary, lcs = out["summary"], out["lcs"]
        prefixes = [s[: self.prefix] for s in inp]
        errors = [f"{label} result {w!r} is not maximal"
                  for label, results in (("run_many", summary.counts), ("one_mcs", [out["one"]]))
                  for w in results if not subsequence.is_maximal(inp, w)]
        if sum(summary.counts.values()) != self.runs:
            errors.append(f"run_many counted {sum(summary.counts.values())} runs, asked {self.runs}")
        if not subsequence.is_maximal(prefixes, lcs):
            errors.append(f"lcs_dp result {lcs!r} is not a maximal common subsequence")
        return errors

    def summarize(self, ops):
        batch = [c["run_many"][0] for c in ops]
        one = [c["one_mcs"][0] for c in ops]
        lcs = [c["lcs_dp"][0] for c in ops]
        return [
            *ms_stats("op_ms", op_seconds(ops)),
            *ms_stats("search_ms", batch),
            ("runs_per_s", self.runs * len(batch) / sum(batch), "1/s", len(batch)),
            *ms_stats("other_ms", [a + b for a, b in zip(one, lcs)]),
            *ms_stats("one_mcs_ms", one),
            *ms_stats("lcs_ms", lcs),
        ]


class Small(Workload):
    """4 random strings x 12 characters, alphabet 4: 48 characters, under
    ``ENGINE_MIN_CHARS``, so the only workload on the Python engine path.

    One ``run_many`` batch of 200 runs, 8 single ``random_mcs`` calls,
    ``one_mcs`` and ``lcs_dp`` (a 4-D table) per fresh corpus. Fixed
    per-run costs dominate (the Python scan, two draws per step, the
    SHA-256 seed derivation, ``Random`` construction), so removing or
    moving the engine dispatch shows here and nowhere else.

    Predictions: the Python scan is about 90% of a run and the draw loop
    (``randomized`` self time) about 10%, so both move ``search_ms_p50``
    and ``runs_per_s`` here; the numpy build and scan do not run at all.
    ``lcs_dp`` is nearly all of ``other_ms_p50``.
    """

    name = "small"
    min_ops = 5
    check_period = 4  # enumerate_mcs costs about 15 ms per corpus
    runs = 200
    singles = 8

    def make_input(self, seed, index):
        return generate.random_strings(4, 12, 4, seed=sub_seed(seed, self.name, index))

    def run(self, inp, seed, index, calls):
        summary = timed(calls, "run_many", randomized.run_many, inp, self.runs,
                        master_seed=sub_seed(seed, "batch", index))
        singles = [
            timed(calls, "random_mcs", randomized.random_mcs, inp, seed=sub_seed(seed, "single", index, k))
            for k in range(self.singles)
        ]
        one = timed(calls, "one_mcs", deterministic.one_mcs, inp)
        lcs = timed(calls, "lcs_dp", exact.lcs_dp, inp)
        return {"summary": summary, "singles": singles, "one": one, "lcs": lcs,
                "digest": [counts_digest(summary), singles, one, lcs]}

    def check(self, inp, out):
        oracle = exact.enumerate_mcs(inp)
        errors = [f"run_many result {w!r} is not in enumerate_mcs"
                  for w in out["summary"].counts if w not in oracle]
        errors += [f"random_mcs result {w!r} is not in enumerate_mcs"
                   for w in out["singles"] if w not in oracle]
        if out["one"] not in oracle:
            errors.append(f"one_mcs result {out['one']!r} is not in enumerate_mcs")
        if len(out["summary"].longest) != len(out["lcs"]):
            errors.append(f"longest run result {out['summary'].longest!r} is shorter "
                          f"than lcs_dp {out['lcs']!r}")
        if len(out["lcs"]) != max(map(len, oracle)):
            errors.append(f"lcs_dp {out['lcs']!r} is not a longest member of enumerate_mcs")
        return errors

    def summarize(self, ops):
        singles = [t for c in ops for t in c["random_mcs"]]
        batch = [c["run_many"][0] for c in ops]
        one = [c["one_mcs"][0] for c in ops]
        lcs = [c["lcs_dp"][0] for c in ops]
        return [
            *ms_stats("op_ms", op_seconds(ops)),
            *ms_stats("search_ms", singles, p90=True),
            ("runs_per_s", self.runs * len(batch) / sum(batch), "1/s", len(batch)),
            *ms_stats("other_ms", [a + b for a, b in zip(one, lcs)]),
            *ms_stats("one_mcs_ms", one, p90=True),
            *ms_stats("lcs_ms", lcs),
        ]


def _timestamp(f):
    return "2015-%02d-%02dT%02d:%02d" % (1 + f[0] % 12, 1 + f[1] % 28, f[2] % 24, (f[3] * 62 + f[4]) % 60)


def _order_id(f):
    digits = "".join(str(x % 10) for x in f[1:6])
    return "ORD-%s%s-%s" % (chr(ord("A") + f[0] % 26), digits, ("EU", "US", "AP")[f[6] % 3])


def _address(f):
    return "192.168.%d.%d" % ((f[0] * 62 + f[1]) % 256, (f[2] * 62 + f[3]) % 256)


def glob_match(tokens, value: str) -> bool:
    """Reference matcher for an anchored literal/wildcard template,
    independent of ``ColumnPattern``'s regex: the text before the first
    wildcard must start the value, the text after the last must end it,
    and each literal run in between is placed at its leftmost occurrence,
    which is exact when ``*`` is the only wildcard.
    """
    parts = [""]
    for tok in tokens:
        if tok is WILDCARD:
            parts.append("")
        else:
            parts[-1] += tok
    if len(parts) == 1:
        return value == parts[0]
    first, *middle, last = parts
    if len(value) < len(first) + len(last) or not (value.startswith(first) and value.endswith(last)):
        return False
    lo, hi = len(first), len(value) - len(last)
    for lit in middle:
        at = value.find(lit, lo, hi)
        if at < 0:
            return False
        lo = at + len(lit)
    return True


class Column(Workload):
    """Three synthetic columns per operation (timestamps
    ``2015-MM-DDTHH:MM``, order ids ``ORD-X00000-EU``, addresses
    ``192.168.x.y``), 2000 values of 11 to 16 characters each.

    Per column: ``PatternExtractor.fit`` (``extract_pattern`` at
    ``runs=100``), ``transform`` on the fitted values, and
    ``ColumnPattern.matches`` on 200 held-out values, 5% of them with one
    character replaced. Same scan layer as ``long`` at another shape
    (L about 2000, m about 7): the cost is the L x (m+1) x sigma gather,
    not the per-step loop. Also the only workload that covers
    ``patterns`` alignment and matching.

    Predictions: the randomized search is over 99% of a fit and the scan
    about 97% of the search, so a scan change moves ``search_ms_p50``
    and ``runs_per_s`` here and on ``long``; one that helps one shape and
    hurts the other shows as a split. A faster template matcher moves
    ``other_ms_p50`` only.
    """

    name = "column"
    runs = 100
    n_values = 2000
    n_held_out = 200
    corrupt_every = 20
    kinds = (_timestamp, _order_id, _address)

    def make_input(self, seed, index):
        # The random fields come from the generate layer: 7 characters of
        # a 62-letter alphabet per value, read as small integers.
        code = {c: i for i, c in enumerate(generate.alphabet(62))}
        table = []
        for k, kind in enumerate(self.kinds):
            raw = generate.random_strings(self.n_values + self.n_held_out, 7, 62,
                                          seed=sub_seed(seed, self.name, index, k))
            values = [kind([code[c] for c in s]) for s in raw]
            held = values[self.n_values:]
            for j in range(0, len(held), self.corrupt_every):
                v = held[j]
                pos = sub_seed(seed, "corrupt", index, k, j) % len(v)
                held[j] = v[:pos] + "#" + v[pos + 1:]
            table.append((values[: self.n_values], held))
        return table

    def run(self, inp, seed, index, calls):
        out = []
        for k, (values, held) in enumerate(inp):
            est = patterns.PatternExtractor(n_runs=self.runs, random_state=sub_seed(seed, "fit", index, k))
            timed(calls, "fit", est.fit, values)
            caps = timed(calls, "transform", est.transform, values)
            t0 = time.perf_counter()
            hits = [est.pattern_.matches(v) for v in held]
            calls.setdefault("matches", []).append(time.perf_counter() - t0)
            out.append((est.pattern_, caps, hits))
        return {
            "columns": out,
            "digest": [[p.render(), hashlib.sha256(json.dumps(c).encode()).hexdigest(), h]
                       for p, c, h in out],
        }

    def warm(self, inp, seed):
        values, held = inp[0]
        est = patterns.PatternExtractor(n_runs=10, random_state=seed).fit(values[:200])
        est.transform(values[:200])
        [est.pattern_.matches(v) for v in held]

    def check(self, inp, out):
        errors = []
        for (values, held), (pattern, caps, hits) in zip(inp, out["columns"]):
            for v, cap in zip(values, caps):
                if len(cap) != pattern.n_wildcards:
                    errors.append(f"{v!r}: {len(cap)} captures for {pattern.n_wildcards} wildcards")
                    continue
                it = iter(cap)
                rebuilt = "".join(next(it) if t is WILDCARD else t for t in pattern.tokens)
                if rebuilt != v:
                    errors.append(f"{v!r}: captures {cap!r} rebuild {rebuilt!r}")
            if len(caps) != len(values):
                errors.append(f"transform returned {len(caps)} rows for {len(values)} values")
            for v, hit in zip(held, hits):
                if hit != glob_match(pattern.tokens, v):
                    errors.append(f"matches({v!r}) = {hit} against {pattern.render()!r}")
        return errors

    def summarize(self, ops):
        k = len(self.kinds)
        fit = [sum(c["fit"]) / k for c in ops]
        transform = sum(t for c in ops for t in c["transform"])
        match = sum(t for c in ops for t in c["matches"])
        n_ops = len(ops)
        return [
            *ms_stats("op_ms", op_seconds(ops)),
            *ms_stats("search_ms", fit),
            ("runs_per_s", self.runs * k * n_ops / sum(t for c in ops for t in c["fit"]), "1/s", n_ops),
            *ms_stats("other_ms", [sum(c["transform"]) + sum(c["matches"]) for c in ops]),
            *ms_stats("fit_ms", fit),
            ("transform_values_per_s", self.n_values * k * n_ops / transform, "1/s", n_ops * k),
            ("match_values_per_s", self.n_held_out * k * n_ops / match, "1/s", n_ops * k),
        ]


WORKLOADS = {w.name: w for w in (Wide(), Long(), Small(), Column())}
