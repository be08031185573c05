"""End-to-end CLI behavior: outputs, reproducibility, exit codes."""

import json
import math
from types import SimpleNamespace

import pytest

from mcskit import _engine, bench, derive_run_seed, one_mcs, random_mcs
from mcskit.cli import main


@pytest.fixture
def toy_file(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("TEGAP\nGAEPR\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def cols_csv(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text(
        "day,pop.location,software.version\n"
        "2015-12-01,POP-A1,v1.0\n"
        "2015-12-17,POP-B2,build-7\n"
        "2015-12-30,POP-C3,8.4\n",
        encoding="utf-8",
    )
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMcsCommand:
    def test_single_run_prints_known_solution(self, capsys, toy_file):
        code, out, _ = run(capsys, "mcs", "--input", toy_file, "--seed", "7", "--runs", "1")
        assert code == 0
        assert out.strip() in {"GAP", "EP"}

    def test_multiple_runs_reproducible(self, capsys, toy_file):
        code, first, _ = run(capsys, "mcs", "--input", toy_file, "--seed", "3", "--runs", "5")
        assert code == 0
        code, second, _ = run(capsys, "mcs", "--input", toy_file, "--seed", "3", "--runs", "5")
        assert first == second
        assert set(first.split()) <= {"GAP", "EP"}

    def test_longest_and_constrain(self, capsys, toy_file):
        code, out, _ = run(
            capsys, "mcs", "--input", toy_file, "--runs", "50", "--longest"
        )
        assert code == 0 and out.strip() == "GAP"
        code, out, _ = run(
            capsys, "mcs", "--input", toy_file, "--runs", "3", "--constrain", "GP"
        )
        assert code == 0 and out.split() == ["GAP", "GAP", "GAP"]

    def test_non_common_constraint_is_usage_error(self, capsys, tmp_path, toy_file):
        code, _, err = run(capsys, "mcs", "--input", toy_file, "--constrain", "ZZ")
        assert code == 2
        assert "error" in err
        # "ba" has no "b" after its "a"; in the flat text the next "b" is in "ab".
        p = tmp_path / "ragged.txt"
        p.write_text("ba\nab\nab\n", encoding="utf-8")
        code, out, err = run(capsys, "mcs", "--input", str(p), "--constrain", "ab")
        assert code == 2 and out == ""
        assert "error" in err

    def test_repeated_strings_are_dropped_without_a_flag(self, capsys, tmp_path, toy_file):
        # Repeated strings are dropped without a flag, and the flag is gone.
        p = tmp_path / "dup.txt"
        p.write_text("TEGAP\nTEGAP\nGAEPR\n", encoding="utf-8")
        code, out, _ = run(capsys, "mcs", "--input", str(p), "--seed", "3", "--runs", "20")
        assert code == 0 and out == run(capsys, "mcs", "--input", toy_file, "--seed", "3", "--runs", "20")[1]
        with pytest.raises(SystemExit) as exc:
            main(["mcs", "--input", str(p), "--dedup"])
        assert exc.value.code == 2

    def test_longest_with_constraint(self, capsys, toy_file):
        code, out, _ = run(
            capsys, "mcs", "--input", toy_file, "--runs", "20",
            "--longest", "--constrain", "GP",
        )
        assert code == 0 and out.strip() == "GAP"

    def test_weighted_flag_accepted(self, capsys, toy_file):
        code, out, _ = run(
            capsys, "mcs", "--input", toy_file, "--runs", "3", "--weighted", "--seed", "5"
        )
        assert code == 0 and set(out.split()) <= {"GAP", "EP"}

    def test_runs_equal_random_mcs_at_derived_seeds(self, capsys, tmp_path):
        strings = ["HGDBFEBEEAEHIGJHJ", "FEIIHBHBHEHCIBCHD", "ECJCCGGGEBBHEAIAJ", "HGDBFEBEEAEHIGJHJ"]
        p = tmp_path / "four.txt"
        p.write_text("\n".join(strings) + "\n", encoding="utf-8")
        variants = [
            ((), {}),
            (("--weighted", "--constrain", "EB"), {"weighting": "frequency", "start": "EB"}),
        ]
        for extra, kwargs in variants:
            code, out, _ = run(capsys, "mcs", "--input", str(p), "--seed", "9", "--runs", "12", *extra)
            expected = [random_mcs(strings, seed=derive_run_seed(9, i), **kwargs) for i in range(12)]
            assert code == 0 and out == "".join(w + "\n" for w in expected)


class TestLcsCommand:
    def test_toy(self, capsys, toy_file):
        code, out, _ = run(capsys, "lcs", "--input", toy_file)
        assert code == 0
        assert out.splitlines() == ["GAP", "length 3"]

    def test_guard_violation_exits_3(self, capsys, tmp_path):
        p = tmp_path / "five.txt"
        p.write_text("a\na\na\na\na\n", encoding="utf-8")
        code, _, err = run(capsys, "lcs", "--input", str(p))
        assert code == 3
        assert "at most" in err

    def test_byte_order_mark_is_not_a_character(self, capsys, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbfabc\n")
        code, out, _ = run(capsys, "lcs", "--input", str(p))
        assert code == 0 and out.splitlines() == ["abc", "length 3"]


class TestScannerGuard:
    def test_oversized_tables_exit_3(self, capsys, toy_file, monkeypatch):
        # TEGAP / GAEPR: 4 shared characters over 10 text characters.
        monkeypatch.setattr(_engine, "MAX_TABLE_BYTES", 13 * 4 * 12 - 1)
        code, out, err = run(capsys, "mcs", "--input", toy_file, "--runs", "3")
        assert code == 3 and out == ""
        assert "MAX_TABLE_BYTES" in err


class TestOneMcsCommand:
    def test_toy_and_reverse(self, capsys, toy_file):
        code, out, _ = run(capsys, "one-mcs", "--input", toy_file)
        assert code == 0 and out.strip() in {"GAP", "EP"}
        code, rev, _ = run(capsys, "one-mcs", "--input", toy_file, "--reverse-order")
        assert code == 0 and rev.strip() in {"GAP", "EP"}
        # The flag reverses the input lines.
        assert rev == one_mcs(["GAEPR", "TEGAP"]) + "\n"


class TestEstimateCommand:
    def test_json_shape_and_values(self, capsys, toy_file):
        code, out, _ = run(
            capsys, "estimate", "--input", toy_file, "--runs", "2000", "--seed", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "total_runs",
            "counts",
            "probabilities",
            "longest",
            "degenerate",
        }
        assert payload["total_runs"] == 2000
        assert set(payload["counts"]) == {"GAP", "EP"}
        assert payload["longest"] == "GAP"
        assert abs(payload["probabilities"]["GAP"] - 2 / 3) < 0.05
        assert sum(payload["counts"].values()) == 2000

    def test_schema_stable_across_seeds(self, capsys, toy_file):
        keysets = []
        for seed in ("1", "2"):
            _, out, _ = run(capsys, "estimate", "--input", toy_file, "--runs", "50", "--seed", seed)
            keysets.append(set(json.loads(out)))
        assert keysets[0] == keysets[1]

    def test_degenerate_warns(self, capsys, tmp_path):
        p = tmp_path / "disjoint.txt"
        p.write_text("abc\nxyz\n", encoding="utf-8")
        code, out, err = run(capsys, "estimate", "--input", str(p), "--runs", "5")
        assert code == 0
        assert json.loads(out)["degenerate"] is True
        assert "no character" in err


class TestSimulateCommand:
    def test_random_corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "corp"
        code, out, _ = run(
            capsys, "simulate", "random", "--l", "3", "--n", "10",
            "--alphabet", "4", "--seed", "2", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "strings.txt").read_text().splitlines()
        assert len(lines) == 3 and all(len(s) == 10 for s in lines)
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["kind"] == "random" and meta["seed"] == 2

    def test_planted_corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "corp"
        code, out, _ = run(
            capsys, "simulate", "planted", "--l", "5", "--length", "20",
            "--planted-lengths", "2,3", "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["kind"] == "planted"
        assert [len(p) for p in meta["planted"]] == [2, 3]

    def test_oversubscribed_plant_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "planted", "--l", "2", "--length", "4",
            "--planted-lengths", "3,3", "--out", str(tmp_path / "x"),
        )
        assert code == 2 and "error" in err


class TestBenchCommand:
    def test_small_quick_bench_prints_table(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--l-values", "40,80", "--n", "20",
            "--alphabet", "4", "--runs", "3",
        )
        assert code in (0, 1)
        header, *rows = out.splitlines()
        assert header.split()[:3] == ["L", "median_s", "mean_m"]
        assert [int(r.split()[0]) for r in rows[:2]] == [40, 80]
        assert all(0 < float(r.split()[2]) <= 20 for r in rows[:2])

    def test_fewer_than_two_sizes_is_usage_error(self, capsys):
        for l_values in ("5", "100,100"):
            code, out, err = run(capsys, "bench", "--l-values", l_values, "--runs", "1")
            assert code == 2 and out == ""
            assert "at least two distinct" in err

    @staticmethod
    def script(monkeypatch, durations):
        """Make the i-th timed run read ``durations[i]`` seconds on a
        scripted clock, each search a no-op returning a 2-character
        result, and the tolerance 4, so that with ideal ratio 2 both
        bounds, 0.5 and 8, are exact floats."""
        clock = iter([t for d in durations for t in (0.0, d)])
        monkeypatch.setattr(bench, "random_mcs", lambda strings, seed: "ab")
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        monkeypatch.setattr(bench, "SCALING_TOLERANCE", 4.0)

    @pytest.mark.parametrize(
        "ratio, passed",
        [(0.5, True), (8.0, True), (math.nextafter(0.5, 0), False), (math.nextafter(8.0, 9), False)],
    )
    def test_verdict_bounds_are_inclusive(self, capsys, monkeypatch, ratio, passed):
        self.script(monkeypatch, [1.0, ratio])
        code, out, err = run(capsys, "bench", "--l-values", "10,20", "--n", "5", "--runs", "1")
        assert code == (0 if passed else 1)
        row = out.splitlines()[2].split()
        assert row[0] == "20" and float(row[3]) == pytest.approx(ratio, abs=0.005)
        assert row[-1] == ("yes" if passed else "NO")
        assert "within 4x of linear" in (out.splitlines()[-1] if passed else err)

    def test_one_failing_pair_fails_the_check(self, capsys, monkeypatch):
        # 10 -> 20 strings doubles the time; 20 -> 40 multiplies it by 16.
        self.script(monkeypatch, [1.0, 2.0, 32.0])
        rows, all_within = bench.scaling_table([40, 10, 20], length=5, runs=1)
        assert [r["n_strings"] for r in rows] == [10, 20, 40]
        assert [r.get("within_tolerance") for r in rows] == [None, True, False]
        assert [r["mean_result_len"] for r in rows] == [2.0] * 3
        assert not all_within
        self.script(monkeypatch, [1.0, 2.0, 32.0])
        code, out, err = run(capsys, "bench", "--l-values", "10,20,40", "--n", "5", "--runs", "1")
        assert code == 1
        assert [line.split()[-1] for line in out.splitlines()[1:]] == ["-", "yes", "NO"]
        assert "not within 4x of linear" in err


class TestProfileCommand:
    def test_table_output(self, capsys, cols_csv):
        code, out, _ = run(capsys, "profile", "--csv", cols_csv, "--runs", "100")
        assert code == 0
        assert "2015-12-*" in out
        assert "POP-*" in out

    def test_json_output(self, capsys, cols_csv):
        code, out, _ = run(
            capsys, "profile", "--csv", cols_csv, "--runs", "100", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {c["column"]: c for c in payload["columns"]}
        assert by_name["day"]["pattern"] == "2015-12-*"
        assert by_name["pop.location"]["pattern"] == "POP-*"
        assert by_name["software.version"]["pattern"] == "*"
        assert by_name["day"]["n_values"] == 3

    def test_single_column_selection(self, capsys, cols_csv):
        code, out, _ = run(
            capsys, "profile", "--csv", cols_csv, "--column", "day", "--runs", "50"
        )
        assert code == 0
        assert "2015-12-*" in out and "POP" not in out

    def test_unknown_column_is_usage_error(self, capsys, cols_csv):
        code, _, err = run(capsys, "profile", "--csv", cols_csv, "--column", "nope")
        assert code == 2 and "nope" in err

    def test_headerless_empty_csv_rejected(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        code, _, _ = run(capsys, "profile", "--csv", str(p))
        assert code == 2

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("text", ["\n", "\na,b\n1,2\n"])
    def test_blank_header_row_is_usage_error(self, capsys, tmp_path, text, fmt):
        p = tmp_path / "blank.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "profile", "--csv", str(p), "--format", fmt)
        assert code == 2 and out == ""
        assert f"{p} has no header row" in err

    def test_ragged_row_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,x\n2\n3,z,extra\n4,w\n", encoding="utf-8")
        code, out, err = run(capsys, "profile", "--csv", str(p), "--runs", "5")
        assert code == 2 and out == ""
        assert "row 3" in err
        # Blank rows are skipped, not counted as ragged.
        p.write_text("a,b\n1,x\n\n4,w\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "profile", "--csv", str(p), "--runs", "5", "--format", "json"
        )
        assert code == 0
        assert [c["n_values"] for c in json.loads(out)["columns"]] == [2, 2]

    def test_repeated_header_name_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "repeated.csv"
        p.write_text("a,b,a\n1,x,y\n2,y,z\n", encoding="utf-8")
        code, out, err = run(capsys, "profile", "--csv", str(p), "--runs", "5")
        assert code == 2 and out == ""
        assert "['a']" in err

    def test_byte_order_mark_is_not_part_of_the_header(self, capsys, tmp_path):
        p = tmp_path / "excel.csv"
        p.write_text("\ufeffa,b\n1x,POP-A1\n2x,POP-B2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "profile", "--csv", str(p), "--column", "a", "--runs", "5",
            "--format", "json",
        )
        assert code == 0
        assert [c["column"] for c in json.loads(out)["columns"]] == ["a"]


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "mcs", "--input", "/nonexistent/file.txt")
        assert code == 4 and "error" in err

    def test_empty_input_file_is_usage_error(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        code, _, _ = run(capsys, "mcs", "--input", str(p))
        assert code == 2

    def test_unknown_flag_exits_2(self, toy_file):
        with pytest.raises(SystemExit) as exc:
            main(["mcs", "--input", toy_file, "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_default_seed_documented_reproducibility(self, capsys, toy_file):
        _, a, _ = run(capsys, "mcs", "--input", toy_file)
        _, b, _ = run(capsys, "mcs", "--input", toy_file)
        assert a == b
