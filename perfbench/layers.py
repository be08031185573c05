"""Per-layer metrics of mcskit, derived from traced spans.

Layers are named after the modules. The tracer wraps these entry points:
``generate`` (corpus generators), ``_engine`` (``BreakpointScanner``
construction, which builds the tables, and ``.scan``), ``randomized``
(``random_mcs``, ``run_many``, ``longest_of_runs`` as ``patterns`` calls
it; their self time is the draw loop, seed derivation and validation),
``deterministic`` (``one_mcs``), ``exact`` (``lcs_dp``, ``enumerate_mcs``),
``patterns`` (``extract_pattern``, ``PatternExtractor.transform``,
``ColumnPattern.matches``) and ``subsequence`` (``is_maximal``, used by
the checks only).

Metric names drop the leading underscore (``engine.*`` for ``_engine``),
since a metric name starts with a letter. The counts (scan calls, slots
scanned, mean result length, lcs cells, table MB, backbone length and
wildcards) are taken over the first ``min_ops`` operations of a run,
which the seed fixes, so they repeat exactly for that seed.
"""

from __future__ import annotations

import math

from mcskit import _engine, deterministic, exact, generate, patterns, randomized, subsequence
from tracing import END, INFO, NAME, OP, PARENT, START, layer, layer_self_ms, median, self_times
from workloads import sub_seed

# Planted corpora for the linear-in-L check: m is fixed by construction.
L_RATIO_SIZES = (100, 1000)
L_RATIO_LENGTH = 60
L_RATIO_RUNS = 20
L_RATIO_CORPORA = 3


def _build_info(args, kwargs, result):
    scanner, strings = args[0], args[1]
    table_bytes = sum(v.nbytes for v in vars(scanner).values() if hasattr(v, "nbytes"))
    return (id(scanner), getattr(scanner, "path", "numpy"), table_bytes, strings)


def _scan_info(args, kwargs, result):
    return (id(args[0]), len(args[1]) + 1, len(result))


def _summary_info(args, kwargs, result):
    return (result.total_runs, sum(len(w) * c for w, c in result.counts.items()))


def _pattern_info(args, kwargs, result):
    return (len(result.literal_text), result.n_wildcards)


def trace_targets():
    """(owner, attribute, span name, info) for every traced entry point."""
    scanner = _engine.BreakpointScanner
    return [
        (generate, "random_strings", "generate.random_strings", None),
        (generate, "planted_strings", "generate.planted_strings", None),
        (scanner, "__init__", "_engine.build", _build_info),
        (scanner, "scan", "_engine.scan", _scan_info),
        (randomized, "random_mcs", "randomized.random_mcs", lambda a, k, r: (1, len(r))),
        (randomized, "run_many", "randomized.run_many", _summary_info),
        (patterns, "longest_of_runs", "randomized.longest_of_runs", None),
        (deterministic, "one_mcs", "deterministic.one_mcs", lambda a, k, r: sum(map(len, a[0]))),
        (exact, "lcs_dp", "exact.lcs_dp", lambda a, k, r: math.prod(len(s) + 1 for s in a[0])),
        (exact, "enumerate_mcs", "exact.enumerate_mcs", None),
        (patterns, "extract_pattern", "patterns.extract_pattern", _pattern_info),
        (patterns.PatternExtractor, "transform", "patterns.transform", lambda a, k, r: len(r)),
        (patterns.ColumnPattern, "matches", "patterns.matches", None),
        (subsequence, "is_maximal", "subsequence.is_maximal", None),
    ]


def measure_l_ratio(tracer, seed: int) -> None:
    """Traced ``run_many`` batches on planted corpora of each size; m
    varies from corpus to corpus, so each size averages a few."""
    for n in L_RATIO_SIZES:
        for c in range(L_RATIO_CORPORA):
            spec = generate.PlantedSpec(n_strings=n, string_length=L_RATIO_LENGTH,
                                        seed=sub_seed(seed, "l-ratio", n, c))
            strings, _ = generate.planted_strings(spec)
            with tracer.span("bench.l_ratio", f"l-ratio-{n}"):
                randomized.run_many(strings, L_RATIO_RUNS, master_seed=sub_seed(seed, "l-ratio-runs", n, c))


def _ratio(num, den):
    return num / den if den else 0.0


def derive(spans: list[list], count_ops: int) -> list:
    """(name, value, unit, samples) for every per-layer metric."""
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]

    def pick(name, ops):
        return [i for i, s in enumerate(spans) if s[NAME] == name and ops(s[OP])]

    def is_op(op):
        return isinstance(op, int)

    def counted(op):
        return isinstance(op, int) and op < count_ops

    def randomized_top(ops):
        return [i for i, s in enumerate(spans)
                if ops(s[OP]) and layer(s[NAME]) == "randomized"
                and not (s[PARENT] >= 0 and layer(spans[s[PARENT]][NAME]) == "randomized")]

    def runs_and_chars(ops):
        runs = chars = 0
        for name in ("randomized.random_mcs", "randomized.run_many"):
            for i in pick(name, ops):
                runs += spans[i][INFO][0]
                chars += spans[i][INFO][1]
        return runs, chars

    out = []

    def put(name, value, unit, n):
        out.append((name, value, unit, n))

    # generate: corpus time per operation input.
    gen_ms: dict = {}
    for i, s in enumerate(spans):
        if is_op(s[OP]) and layer(s[NAME]) == "generate":
            gen_ms[s[OP]] = gen_ms.get(s[OP], 0.0) + dur[i] / 1e6
    put("generate.corpus_ms", median(gen_ms.values()), "ms", len(gen_ms))

    # _engine build.
    builds = pick("_engine.build", is_op)
    scans = pick("_engine.scan", is_op)
    rand_total = sum(dur[i] for i in randomized_top(is_op))
    put("engine.build_ms_p50", median(dur[i] / 1e6 for i in builds), "ms", len(builds))
    put("engine.build_share", _ratio(sum(dur[i] for i in builds), rand_total), "frac", len(builds))
    put("engine.python_path_frac",
        _ratio(sum(spans[i][INFO][1] == "python" for i in builds), len(builds)), "frac", len(builds))
    counted_builds = pick("_engine.build", counted)
    put("engine.table_mb",
        _ratio(sum(spans[i][INFO][2] for i in counted_builds) / 1e6, len(counted_builds)),
        "MB", len(counted_builds))

    # _engine scan.
    put("engine.scan_us_p50", median(dur[i] / 1e3 for i in scans), "us", len(scans))
    put("engine.scan_share", _ratio(sum(dur[i] for i in scans), rand_total), "frac", len(scans))
    runs, _ = runs_and_chars(is_op)
    c_runs, c_chars = runs_and_chars(counted)
    c_scans = pick("_engine.scan", counted)
    put("engine.scan_calls_per_run", _ratio(len(c_scans), c_runs), "count", c_runs)
    put("engine.slots_scanned_per_run",
        _ratio(sum(spans[i][INFO][1] for i in c_scans), c_runs), "count", c_runs)
    put("engine.live_slot_frac",
        _ratio(sum(spans[i][INFO][2] for i in scans), sum(spans[i][INFO][1] for i in scans)),
        "frac", len(scans))
    # Computed, not measured: two gathers of L x (m+1) x sigma 4-byte
    # cells per numpy-path scan, sigma being the shared alphabet.
    shape = {}
    gathered = 0
    for i, s in enumerate(spans):
        if s[NAME] == "_engine.build" and counted(s[OP]):
            ident, path, _, strings = s[INFO]
            sigma = len(set.intersection(*map(set, strings))) if path == "numpy" else 0
            shape[ident] = (len(strings), sigma)
        elif s[NAME] == "_engine.scan" and counted(s[OP]):
            n_strings, sigma = shape[s[INFO][0]]
            gathered += 2 * n_strings * s[INFO][1] * sigma * 4
    put("engine.scan_mb_computed_per_run", _ratio(gathered / 1e6, c_runs), "MB", c_runs)

    # randomized: run time minus the build and scan spans.
    rand_self = sum(selfs[i] for i, s in enumerate(spans)
                    if is_op(s[OP]) and layer(s[NAME]) == "randomized")
    put("randomized.self_ms_per_run", _ratio(rand_self / 1e6, runs), "ms", runs)
    put("randomized.self_share", _ratio(rand_self, rand_total), "frac", runs)
    put("randomized.mean_result_len", _ratio(c_chars, c_runs), "chars", c_runs)
    per_run = {}
    for n in L_RATIO_SIZES:
        def at_n(op, n=n):
            return op == f"l-ratio-{n}"
        top = randomized_top(at_n)
        build = pick("_engine.build", at_n)
        r, chars = runs_and_chars(at_n)
        per_run[n] = _ratio(sum(dur[i] for i in top) - sum(dur[i] for i in build), r) / 1e6
        put(f"randomized.search_ms_per_run_L{n}", per_run[n], "ms", r)
        put(f"randomized.mean_result_len_L{n}", _ratio(chars, r), "chars", r)
    small, large = L_RATIO_SIZES
    put("randomized.search_L_ratio", _ratio(per_run[large], per_run[small]), "ratio",
        L_RATIO_RUNS * L_RATIO_CORPORA)

    # deterministic.
    ones = pick("deterministic.one_mcs", is_op)
    put("deterministic.ns_per_string_char",
        median(dur[i] / spans[i][INFO] for i in ones if spans[i][INFO]), "ns", len(ones))

    # exact.
    lcs = pick("exact.lcs_dp", is_op)
    c_lcs = pick("exact.lcs_dp", counted)
    put("exact.lcs_cells", _ratio(sum(spans[i][INFO] for i in c_lcs), len(c_lcs)), "count", len(c_lcs))
    put("exact.lcs_mcells_per_s",
        _ratio(sum(spans[i][INFO] for i in lcs) / 1e6, sum(dur[i] for i in lcs) / 1e9), "Mcell/s", len(lcs))
    enum = pick("exact.enumerate_mcs", lambda op: True)
    put("exact.enumerate_ms", median(dur[i] / 1e6 for i in enum), "ms", len(enum))

    # patterns.
    fits = pick("patterns.extract_pattern", is_op)
    searched = {}
    for i in pick("randomized.longest_of_runs", is_op):
        searched[spans[i][PARENT]] = searched.get(spans[i][PARENT], 0) + dur[i]
    put("patterns.search_share",
        _ratio(sum(searched.values()), sum(dur[i] for i in fits)), "frac", len(fits))
    put("patterns.align_ms", median((dur[i] - searched.get(i, 0)) / 1e6 for i in fits), "ms", len(fits))
    matches = pick("patterns.matches", is_op)
    put("patterns.match_us_p50", median(dur[i] / 1e3 for i in matches), "us", len(matches))
    c_fits = pick("patterns.extract_pattern", counted)
    put("patterns.backbone_len",
        _ratio(sum(spans[i][INFO][0] for i in c_fits), len(c_fits)), "chars", len(c_fits))
    put("patterns.n_wildcards",
        _ratio(sum(spans[i][INFO][1] for i in c_fits), len(c_fits)), "count", len(c_fits))

    # Self time of every layer per operation, the benchmark's own spans
    # included, for the report.
    n_ops = len({s[OP] for s in spans if is_op(s[OP])})
    for name, ms in sorted(layer_self_ms(spans, lambda s: is_op(s[OP])).items()):
        put(f"{name.lstrip('_')}.self_ms_per_op", ms / max(n_ops, 1), "ms", n_ops)
    return out
