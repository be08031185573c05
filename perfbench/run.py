"""mcskit benchmark: one workload per process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long --seed 0 --seconds 50 --trace 0

The benchmark imports mcskit from ``src/`` of the checkout. It sets up
three times (a fresh input and a warm-up operation each; ``setup_s`` is
the import time plus their median), then runs operations one after the
other, each on a fresh input made from the seed, until ``--seconds`` of
input generation and operation time have passed, and never fewer than
the workload's ``min_ops``. Outputs are checked outside the timed region.
At the default seed the digest of the first ``min_ops`` outputs must
equal the one recorded in ``digests.json``.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
every operation runs twice on the same input, once plain and once with
spans recorded around the calls into each mcskit module (alternating
which goes first); the per-layer metrics come from the spans, the
tracing overhead from the two timings, and the spans are written to
``perfbench/out/`` at exit.

Every metric is printed as a line with its unit and sample count; the
last line of standard output is one JSON object holding the metrics that
``BENCHMARK.json`` lists for the mode. The exit code is 1 when any
operation raised or failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("wide", "long", "small", "column"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fmt(name, value, unit, n):
    return f"  {name:<36} {value:>16.6g} {unit:<6} n={n}"


class Run:
    """Counts of attempted and failed operations, and the first outputs."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = 0
        self.failed_ops = set()
        self.digests = []

    @property
    def failed(self):
        return len(self.failed_ops)

    def fail(self, index, messages):
        self.failed_ops.add(index)
        for msg in messages[:3]:
            print(f"op {index}: {msg}", file=sys.stderr)

    def record(self, index, out):
        if index < self.workload.min_ops:
            self.digests.append(out["digest"])

    def check(self, index, inp, out):
        if self.workload.checked(self.seed, index):
            errors = self.workload.check(inp, out)
            if errors:
                self.fail(index, errors)

    def digest(self):
        text = json.dumps(self.digests, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcskit" / "__init__.py").is_file():
        print(f"mcskit sources not found under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    from workloads import WORKLOADS  # imports mcskit
    import_s = time.perf_counter() - t0

    workload = WORKLOADS[args.workload]
    seed = args.seed
    print(f"# mcskit benchmark: workload={workload.name} seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    rounds = []
    for r in range(SETUP_ROUNDS):
        t = time.perf_counter()
        workload.warm(workload.make_input(seed, f"setup-{r}"), seed)
        rounds.append(time.perf_counter() - t)
    setup_s = import_s + sorted(rounds)[SETUP_ROUNDS // 2]

    run = Run(workload, seed)
    if args.trace:
        lines, note = traced_loop(workload, run, seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        ops = plain_loop(workload, run, seed, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines = [("setup_s", setup_s, "s", SETUP_ROUNDS), *workload.summarize(ops),
                 ("peak_rss_mb", rss_mib, "MiB", 1)]
        note = None
        wanted = spec["end_to_end"]

    digest = run.digest()
    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    digest_ok = seed != DEFAULT_SEED or expected.get(workload.name) == digest
    if not digest_ok:
        for index in range(workload.min_ops):
            run.fail(index, [f"outputs of the first {workload.min_ops} operations have digest "
                             f"{digest}, recorded {expected.get(workload.name)}"])
    failed_frac = run.failed / run.attempted
    lines.append(("failed_ops_frac", failed_frac, "frac", run.attempted))

    print(f"# {run.attempted} operations, {run.failed} failed; output digest {digest}"
          + (" (matches the recorded one)" if seed == DEFAULT_SEED and digest_ok else ""))
    for line in lines:
        print(fmt(*line))
    if note is not None:
        print(f"# trace: {note}")

    by_name = {name: (value, unit) for name, value, unit, _ in lines}
    metrics = {}
    for m in wanted:
        value, unit = by_name[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {unit} disagrees with BENCHMARK.json {m['unit']}")
        metrics[m["name"]] = {"value": 0.0 if math.isnan(value) else value, "unit": unit}
    correct = run.failed == 0 and digest_ok
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def attempt(run, index, fn, *args):
    """Run one operation; an exception counts the operation as failed."""
    try:
        return fn(*args)
    except Exception:  # one failing operation must not end the run
        run.fail(index, traceback.format_exc().splitlines()[-3:])
        return None


def plain_loop(workload, run, seed, seconds):
    ops = []
    used = 0.0
    index = 0
    while index < workload.min_ops or used < seconds:
        t = time.perf_counter()
        inp = workload.make_input(seed, index)
        calls = {}
        out = attempt(run, index, workload.run, inp, seed, index, calls)
        used += time.perf_counter() - t
        run.attempted += 1
        if out is not None:
            ops.append(calls)
            run.record(index, out)
            run.check(index, inp, out)
        index += 1
    return ops


def traced_loop(workload, run, seed, seconds):
    from layers import derive, measure_l_ratio, trace_targets
    from tracing import Tracer
    from workloads import op_seconds

    tracer = Tracer(trace_targets())
    plain, traced = [], []
    used = 0.0
    index = 0
    while index < workload.min_ops or used < seconds:
        t = time.perf_counter()
        with tracer.span("bench.generate", index):
            inp = workload.make_input(seed, index)
        calls_plain, calls_traced = {}, {}
        outs = {}
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if is_traced:
                with tracer.span("bench.op", index):
                    outs[True] = attempt(run, index, workload.run, inp, seed, index, calls_traced)
            else:
                outs[False] = attempt(run, index, workload.run, inp, seed, index, calls_plain)
        used += time.perf_counter() - t
        run.attempted += 1
        out = outs[False]
        if out is not None and outs[True] is not None:
            plain.append(calls_plain)
            traced.append(calls_traced)
            run.record(index, out)
            if json.dumps(out["digest"]) != json.dumps(outs[True]["digest"]):
                run.fail(index, ["traced and plain runs disagree"])
            with tracer.span("bench.check", f"check-{index}"):
                run.check(index, inp, out)
        index += 1

    measure_l_ratio(tracer, seed)
    lines = derive(tracer.spans, workload.min_ops)
    overhead = sum(op_seconds(traced)) / sum(op_seconds(plain)) - 1
    lines.append(("trace.overhead_frac", overhead, "frac", len(traced)))
    path = HERE / "out" / f"trace-{workload.name}-{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed})
    return lines, f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"


if __name__ == "__main__":
    sys.exit(main())
