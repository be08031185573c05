"""Command-line interface.

Subcommands: mcs, lcs, one-mcs, estimate, simulate, bench, profile.
Input files are newline-delimited UTF-8, one string per line; blank
lines are empty strings. All randomized commands take ``--seed`` and
default to seed 0, so default invocations are reproducible.

Exit codes: 0 success, 2 usage or malformed input, 3 size-guard
rejection, 4 I/O error. A failed scaling check in ``bench`` exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__, bench
from ._validation import FREQUENCY, UNIFORM
from .deterministic import one_mcs
from .exact import SizeGuardError, lcs_dp
from .generate import PlantedSpec, planted_strings, random_strings, read_string_file, write_corpus
from .patterns import extract_pattern, render_pattern
from .randomized import DEFAULT_SEED, _seeded_runs, run_many


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcskit",
        description="Maximal common subsequence tools for many strings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mcs", help="randomized maximal common subsequences")
    _add_input(p)
    _add_random_opts(p)
    p.add_argument("--runs", type=int, default=1, help="number of seeded runs (default 1)")
    p.add_argument("--constrain", default="", metavar="W0", help="require this common subsequence in every result")
    p.add_argument("--longest", action="store_true", help="print only the longest result over all runs")
    p.set_defaults(func=_cmd_mcs)

    p = sub.add_parser("lcs", help="exact longest common subsequence (small instances)")
    _add_input(p)
    p.set_defaults(func=_cmd_lcs)

    p = sub.add_parser("one-mcs", help="deterministic single maximal common subsequence")
    _add_input(p)
    p.add_argument("--reverse-order", action="store_true", dest="reversed", help="scan strings in reverse order")
    p.set_defaults(func=_cmd_one_mcs)

    p = sub.add_parser("estimate", help="occurrence probabilities over repeated runs (JSON)")
    _add_input(p)
    _add_random_opts(p)
    p.add_argument("--runs", type=int, required=True, help="number of seeded runs")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="generate a reproducible corpus")
    kinds = p.add_subparsers(dest="kind", required=True)

    q = kinds.add_parser("random", help="i.i.d. uniform random strings")
    q.add_argument("--l", type=int, required=True, dest="n_strings", help="number of strings")
    q.add_argument("--n", type=int, required=True, dest="length", help="string length")
    q.add_argument("--alphabet", type=int, required=True, help="alphabet size")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--out", required=True, help="output directory")
    q.set_defaults(func=_cmd_simulate_random)

    q = kinds.add_parser("planted", help="strings with planted common subsequences")
    q.add_argument("--l", type=int, required=True, dest="n_strings", help="number of strings")
    q.add_argument("--length", type=int, default=60, help="string length (default 60)")
    q.add_argument("--planted-lengths", default="3,6,9,12", help="comma-separated lengths (default 3,6,9,12)")
    q.add_argument("--planted", default=None, help="comma-separated explicit sequences (overrides lengths)")
    q.add_argument("--core-alphabet", type=int, default=15, help="alphabet for planted sequences (default 15)")
    q.add_argument("--full-alphabet", type=int, default=30, help="alphabet for filler (default 30)")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--out", required=True, help="output directory")
    q.set_defaults(func=_cmd_simulate_planted)

    p = sub.add_parser(
        "bench",
        help="runtime scaling in the number of strings",
        description="Times single searches at each string count and checks "
        "consecutive medians against linear growth. The timings include the "
        "occurrence-table build, which is most of each run at 1,000 strings; "
        "tiny inputs are overhead-bound and will read as sublinear. The mean_m "
        "column is the mean result length, which falls as the count grows on "
        "random corpora and so lowers the ratio.",
    )
    p.add_argument("--l-values", default="100,1000", help="comma-separated string counts (default 100,1000)")
    p.add_argument("--n", type=int, default=60, help="string length (default 60)")
    p.add_argument("--alphabet", type=int, default=4, help="alphabet size (default 4)")
    p.add_argument("--runs", type=int, default=25, help="timed runs per point (default 25)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("profile", help="wildcard pattern report for CSV string columns")
    p.add_argument("--csv", required=True, help="CSV file with a header row")
    p.add_argument("--column", default=None, help="profile only this column")
    p.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    p.add_argument("--runs", type=int, default=100, help="search runs per column (default 100)")
    _add_random_opts(p)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_profile)

    return parser


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="newline-delimited UTF-8 strings, one per line")


def _add_random_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default 0)")
    p.add_argument("--weighted", action="store_true", help="frequency-weighted character selection")


def _load_strings(args) -> list[str]:
    strings = read_string_file(args.input)
    if not strings:
        raise ValueError(f"{args.input} holds no strings")
    return strings


def _weighting(args) -> str:
    return FREQUENCY if args.weighted else UNIFORM


def _cmd_mcs(args) -> int:
    strings = _load_strings(args)
    if args.longest:
        print(run_many(strings, args.runs, args.seed, _weighting(args), args.constrain).longest)
        return 0
    for w in _seeded_runs(strings, args.runs, args.seed, _weighting(args), args.constrain):
        print(w)
    return 0


def _cmd_lcs(args) -> int:
    result = lcs_dp(_load_strings(args))
    print(result)
    print(f"length {len(result)}")
    return 0


def _cmd_one_mcs(args) -> int:
    print(one_mcs(_load_strings(args)[::-1 if args.reversed else 1]))
    return 0


def _cmd_estimate(args) -> int:
    summary = run_many(_load_strings(args), args.runs, args.seed, _weighting(args))
    if summary.degenerate:
        print("note: strings share no character; every run is empty", file=sys.stderr)
    print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_simulate_random(args) -> int:
    strings = random_strings(args.n_strings, args.length, args.alphabet, args.seed)
    meta = {
        "kind": "random",
        "n_strings": args.n_strings,
        "length": args.length,
        "alphabet_size": args.alphabet,
        "seed": args.seed,
    }
    write_corpus(args.out, strings, meta)
    print(f"wrote {len(strings)} strings to {args.out}")
    return 0


def _cmd_simulate_planted(args) -> int:
    explicit = tuple(args.planted.split(",")) if args.planted else None
    lengths = tuple(int(x) for x in args.planted_lengths.split(","))
    spec = PlantedSpec(
        n_strings=args.n_strings,
        string_length=args.length,
        planted_lengths=lengths,
        planted=explicit,
        core_alphabet_size=args.core_alphabet,
        full_alphabet_size=args.full_alphabet,
        seed=args.seed,
    )
    strings, planted = planted_strings(spec)
    meta = {
        "kind": "planted",
        "n_strings": spec.n_strings,
        "string_length": spec.string_length,
        "planted": planted,
        "core_alphabet_size": spec.core_alphabet_size,
        "full_alphabet_size": spec.full_alphabet_size,
        "seed": spec.seed,
    }
    write_corpus(args.out, strings, meta)
    print(f"wrote {len(strings)} strings to {args.out} (planted: {', '.join(planted)})")
    return 0


def _cmd_bench(args) -> int:
    l_values = [int(x) for x in args.l_values.split(",")]
    rows, ok = bench.scaling_table(l_values, args.n, args.alphabet, args.runs, args.seed)
    print(f"{'L':>8} {'median_s':>12} {'mean_m':>8} {'ratio':>8} {'ideal':>8} {'linear?':>8}")
    for row in rows:
        ratio = f"{row['ratio']:.2f}" if "ratio" in row else "-"
        ideal = f"{row['ideal_ratio']:.2f}" if "ideal_ratio" in row else "-"
        mark = ("yes" if row["within_tolerance"] else "NO") if "within_tolerance" in row else "-"
        print(f"{row['n_strings']:>8} {row['median_seconds']:>12.6f} {row['mean_result_len']:>8.2f} "
              f"{ratio:>8} {ideal:>8} {mark:>8}")
    tolerance = bench.SCALING_TOLERANCE
    if not ok:
        print(f"scaling check failed: growth is not within {tolerance:g}x of linear", file=sys.stderr)
        return 1
    print(f"scaling check passed: growth within {tolerance:g}x of linear")
    return 0


def _cmd_profile(args) -> int:
    columns = _read_csv_columns(args.csv, args.delimiter)
    if args.column is not None:
        if args.column not in columns:
            raise ValueError(f"column {args.column!r} not in {sorted(columns)}")
        columns = {args.column: columns[args.column]}

    report = []
    for name, values in columns.items():
        pattern = extract_pattern(
            values, runs=args.runs, seed=args.seed, weighting=_weighting(args)
        )
        report.append(
            {
                "column": name,
                "pattern": render_pattern(pattern),
                "n_values": len(values),
                "n_distinct": len(set(values)),
            }
        )

    if args.format == "json":
        print(json.dumps({"columns": report}, indent=2, sort_keys=True))
        return 0
    width = max(len("column"), *(len(r["column"]) for r in report))
    print(f"{'column':<{width}} | pattern")
    print("-" * width + "-+-" + "-" * 24)
    for r in report:
        print(f"{r['column']:<{width}} | {r['pattern']}")
    return 0


def _read_csv_columns(path: str, delimiter: str) -> dict[str, list[str]]:
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes,
    # which would otherwise stay in the first header name.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise ValueError(f"{path} is not parseable CSV: {exc}") from exc
        if not header:
            raise ValueError(f"{path} has no header row: it is empty or starts with a blank line")
        columns: dict[str, list[str]] = {name: [] for name in header}
        if len(columns) != len(header):
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise ValueError(f"{path} header repeats column names {repeated}")
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path} row {reader.line_num}: expected {len(header)} fields"
                        f" as in the header, got {len(row)}"
                    )
                for name, cell in zip(header, row):
                    columns[name].append(cell)
        except csv.Error as exc:
            raise ValueError(f"{path} is not parseable CSV: {exc}") from exc
    if any(not vals for vals in columns.values()):
        raise ValueError(f"{path} has a header but no data rows")
    return columns


if __name__ == "__main__":
    sys.exit(main())
