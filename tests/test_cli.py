import pytest

from phuimine import cli
from phuimine.miner import mine

from helpers import EXAMPLE_DB_TEXT, EXAMPLE_PTABLE_TEXT

EXPECTED_RESULT_LINES = [
    "1 #UTIL: 96 #PROB: 2.5",
    "2 #UTIL: 40 #PROB: 2.5",
    "4 #UTIL: 96 #PROB: 2.4",
    "5 #UTIL: 77 #PROB: 3.55",
    "1 2 #UTIL: 102 #PROB: 1.3",
    "1 3 #UTIL: 50 #PROB: 1.51",
    "2 5 #UTIL: 103 #PROB: 2.15",
    "3 5 #UTIL: 35 #PROB: 2.225",
    "4 5 #UTIL: 166 #PROB: 2.22",
    "2 3 5 #UTIL: 48 #PROB: 1.475",
]


@pytest.fixture
def data_files(tmp_path):
    db = tmp_path / "example.db"
    ptable = tmp_path / "example.ptable"
    db.write_text(EXAMPLE_DB_TEXT)
    ptable.write_text(EXAMPLE_PTABLE_TEXT)
    return str(db), str(ptable)


def run(argv):
    return cli.main(argv)


class TestMineCommand:
    def test_example(self, data_files, tmp_path):
        db, ptable = data_files
        out = tmp_path / "out.txt"
        code = run(["mine", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == EXPECTED_RESULT_LINES

    def test_stdout_default(self, data_files, capsys):
        db, ptable = data_files
        assert run(["mine", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25"]) == 0
        assert capsys.readouterr().out.splitlines() == EXPECTED_RESULT_LINES

    def test_bad_min_pro(self, data_files, capsys):
        db, ptable = data_files
        code = run(["mine", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "1.5"])
        assert code == 2
        assert "min_pro must be in [0, 1], got 1.5" in capsys.readouterr().err
        for bad in ("nan", "inf", "1e400"):
            code = run(["mine", "--db", db, "--ptable", ptable,
                        "--min-util", bad, "--min-pro", "0.25"])
            assert code == 2
            assert "min_util must be finite" in capsys.readouterr().err

    def test_preset_none_identical(self, data_files, tmp_path):
        db, ptable = data_files
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--out", str(a)])
        run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--preset", "NONE", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_strategy_override(self, data_files, tmp_path):
        db, ptable = data_files
        out = tmp_path / "s.txt"
        code = run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
                    "--min-pro", "0.25", "--strategies", "s1,s3", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == EXPECTED_RESULT_LINES

    def test_stats_file(self, data_files, tmp_path):
        db, ptable = data_files
        stats = tmp_path / "stats.csv"
        run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--out", str(tmp_path / "r.txt"),
             "--stats", str(stats)])
        lines = stats.read_text().splitlines()
        assert lines[0].startswith("preset,min_util,min_pro,visited_nodes")
        assert lines[1].startswith("ALL,20,0.25,")

    def test_stats_csv_matches_bench_row(self, data_files, tmp_path):
        db, ptable = data_files
        stats, bench = tmp_path / "stats.csv", tmp_path / "bench.csv"
        run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--out", str(tmp_path / "r.txt"),
             "--stats", str(stats)])
        run(["bench", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--presets", "ALL", "--out", str(bench)])
        mined = [line.split(",") for line in stats.read_text().splitlines()]
        benched = [line.split(",") for line in bench.read_text().splitlines()]
        assert mined[0] == benched[0]
        elapsed = mined[0].index("elapsed_ms")
        assert len(mined) == len(benched) == 2
        del mined[1][elapsed], benched[1][elapsed]
        assert mined[1] == benched[1]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        db = tmp_path / "bad.db"
        db.write_text("1:0:0.5\n")
        ptable = tmp_path / "p.ptable"
        ptable.write_text("1:8\n")
        code = run(["mine", "--db", str(db), "--ptable", str(ptable),
                    "--min-util", "1", "--min-pro", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.db:1" in err and "quantity" in err
        # file:line:column, then the message alone
        assert err.startswith(f"error: {db}:1:1: quantity must be >= 1, got 0\n")
        db.write_text("1:1:0.5\n1:1:0.5 1:2:0.5\n")
        assert run(["mine", "--db", str(db), "--ptable", str(ptable),
                    "--min-util", "1", "--min-pro", "0"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {db}:2:9: duplicate item 1 in transaction\n")
        db.write_text("1:1:0.5\n")
        for bad in ("nan", "inf", "1e400"):
            ptable.write_text(f"1:{bad}\n")
            code = run(["mine", "--db", str(db), "--ptable", str(ptable),
                        "--min-util", "1", "--min-pro", "0"])
            assert code == 1
            err = capsys.readouterr().err
            assert "p.ptable:1" in err and "utility must be finite" in err
            assert err.startswith(f"error: {ptable}:1:1: utility must be finite")

    def test_overflowing_utility_exit_code(self, tmp_path, capsys):
        # each number is finite, their product is not
        db = tmp_path / "big.db"
        db.write_text("1:10000000000:0.5 2:1:0.5\n")
        ptable = tmp_path / "big.ptable"
        ptable.write_text("1:1e300 2:1\n")
        code = run(["mine", "--db", str(db), "--ptable", str(ptable),
                    "--min-util", "1", "--min-pro", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "not finite" in captured.err and "inf" not in captured.out

    def test_missing_file(self, tmp_path, capsys):
        code = run(["mine", "--db", str(tmp_path / "nope.db"),
                    "--ptable", str(tmp_path / "nope.ptable"),
                    "--min-util", "1", "--min-pro", "0"])
        assert code == 1

    def test_file_not_utf8_is_data_error(self, data_files, tmp_path, capsys):
        db, ptable = data_files
        bad = tmp_path / "latin1.db"
        bad.write_bytes(b"1:1:0.5 # caf\xe9\n")
        for flags in (["--db", str(bad), "--ptable", ptable],
                      ["--db", db, "--ptable", str(bad)]):
            assert run(["mine", *flags, "--min-util", "1", "--min-pro", "0"]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_unwritable_output_is_data_error(self, data_files, tmp_path, capsys, flag):
        db, ptable = data_files
        target = tmp_path / "missing-dir" / "file.txt"
        assert run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
                    "--min-pro", "0.25", flag, str(target)]) == 1
        assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"


class TestOracleCommand:
    def test_matches_mine(self, data_files, tmp_path):
        db, ptable = data_files
        mined, brute = tmp_path / "m.txt", tmp_path / "o.txt"
        run(["mine", "--db", db, "--ptable", ptable, "--min-util", "20",
             "--min-pro", "0.25", "--out", str(mined)])
        code = run(["oracle", "--db", db, "--ptable", ptable, "--min-util", "20",
                    "--min-pro", "0.25", "--out", str(brute)])
        assert code == 0
        assert mined.read_text() == brute.read_text()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_max_items_below_one_is_usage_error(self, data_files, capsys, limit):
        db, ptable = data_files
        code = run(["oracle", "--db", db, "--ptable", ptable, "--min-util", "1",
                    "--min-pro", "0", "--max-items", limit])
        assert code == 2
        captured = capsys.readouterr()
        assert f"--max-items {limit} must be at least 1" in captured.err
        assert captured.out == ""

    def test_universe_guard(self, tmp_path):
        db = tmp_path / "wide.db"
        db.write_text(" ".join(f"{i}:1:0.5" for i in range(1, 25)) + "\n")
        ptable = tmp_path / "wide.ptable"
        ptable.write_text("\n".join(f"{i}:1" for i in range(1, 25)) + "\n")
        code = run(["oracle", "--db", str(db), "--ptable", str(ptable),
                    "--min-util", "1", "--min-pro", "0", "--max-items", "10"])
        assert code == 1


@pytest.mark.parametrize("command", ["mine", "oracle"])
@pytest.mark.parametrize("db_text, ptable_text", [
    # every occurrence is finite, their sum is not
    ("1:1:0.5 2:1:0.5\n", "1:1e308 2:1e308\n"),
    # one occurrence is not finite
    ("1:10000000000:0.5 2:1:0.5\n", "1:1e300 2:1\n"),
    # item 9 has no unit utility
    ("9:1:0.5\n", EXAMPLE_PTABLE_TEXT),
], ids=["summed-overflow", "occurrence-overflow", "item-missing-from-table"])
def test_table_that_cannot_mine_database_is_data_error(tmp_path, capsys, command,
                                                       db_text, ptable_text):
    db, ptable = tmp_path / "x.db", tmp_path / "x.ptable"
    db.write_text(db_text)
    ptable.write_text(ptable_text)
    code = run([command, "--db", str(db), "--ptable", str(ptable),
                "--min-util", "0", "--min-pro", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid database")
    assert captured.out == ""


class TestVerifyCommand:
    def test_fixed_dataset(self, data_files, capsys):
        db, ptable = data_files
        code = run(["verify", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25"])
        assert code == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_fuzz(self, capsys):
        assert run(["verify", "--fuzz", "20", "--seed", "7"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_divergence_detected(self, data_files, capsys):
        # harness self-test: a miner that drops one result must trip it
        def broken_mine(db, table, thresholds, config=None):
            results, stats = mine(db, table, thresholds, config)
            return results[:-1], stats

        db, ptable = data_files
        args = cli.build_parser().parse_args(
            ["verify", "--db", db, "--ptable", ptable,
             "--min-util", "20", "--min-pro", "0.25"])
        code = cli.cmd_verify(args, mine_fn=broken_mine)
        assert code == 3
        assert "DIVERGENCE" in capsys.readouterr().err

    def test_verify_requires_inputs(self, capsys):
        assert run(["verify"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--fuzz", "-3"], "--fuzz -3 must be at least 0"),
        (["--fuzz", "2", "--max-items", "0"], "--max-items 0 outside 1..20"),
        (["--fuzz", "2", "--max-tx", "0"], "--max-tx 0 must be at least 1"),
        (["--fuzz", "2", "--max-items", "40"], "--max-items 40 outside 1..20"),
    ], ids=["negative-fuzz", "zero-items", "zero-tx", "items-above-oracle-limit"])
    def test_bad_fuzz_flags(self, flags, message, capsys):
        assert run(["verify", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "verify: OK" not in captured.out


class TestGenCommand:
    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            db = tmp_path / f"{name}.db"
            ptable = tmp_path / f"{name}.ptable"
            assert run(["gen", "--transactions", "1000", "--items", "50",
                        "--seed", "1", "--out-db", str(db),
                        "--out-ptable", str(ptable)]) == 0
            outs.append((db.read_bytes(), ptable.read_bytes()))
        assert outs[0] == outs[1]

    def test_zero_transactions(self, tmp_path):
        db = tmp_path / "empty.db"
        ptable = tmp_path / "empty.ptable"
        assert run(["gen", "--transactions", "0", "--items", "10", "--seed", "2",
                    "--out-db", str(db), "--out-ptable", str(ptable)]) == 0
        assert db.read_text() == ""
        assert len(ptable.read_text().splitlines()) == 10

    def test_max_quantity_below_one_is_usage_error(self, tmp_path, capsys):
        assert run(["gen", "--transactions", "10", "--items", "8", "--max-quantity", "0",
                    "--out-db", str(tmp_path / "q.db"),
                    "--out-ptable", str(tmp_path / "q.ptable")]) == 2
        assert "max_quantity must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--utility-hi", "inf"],
        ["--utility-lo", "-0.5", "--utility-hi", "0.9"],
    ], ids=["infinite-hi", "sub-unit-bounds"])
    def test_unusable_utility_bounds_are_usage_errors(self, tmp_path, capsys, flags):
        db = tmp_path / "u.db"
        assert run(["gen", "--transactions", "5", "--items", "3", *flags,
                    "--out-db", str(db), "--out-ptable", str(tmp_path / "u.ptable")]) == 2
        assert "utility_range" in capsys.readouterr().err
        assert not db.exists()

    @pytest.mark.parametrize("flag", ["--out-db", "--out-ptable"])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, flag):
        paths = {"--out-db": str(tmp_path / "g.db"), "--out-ptable": str(tmp_path / "g.ptable")}
        paths[flag] = str(tmp_path / "missing-dir" / "file.txt")
        assert run(["gen", "--transactions", "5", "--items", "3",
                    "--out-db", paths["--out-db"], "--out-ptable", paths["--out-ptable"]]) == 1
        assert capsys.readouterr().err == f"error: {paths[flag]}: No such file or directory\n"

    def test_all_negative(self, tmp_path):
        ptable = tmp_path / "neg.ptable"
        assert run(["gen", "--transactions", "10", "--items", "8", "--seed", "3",
                    "--negative-fraction", "1.0",
                    "--out-db", str(tmp_path / "neg.db"),
                    "--out-ptable", str(ptable)]) == 0
        values = [float(line.split(":")[1]) for line in ptable.read_text().splitlines()]
        assert values and all(v < 0 for v in values)

    def test_generated_files_mineable(self, tmp_path):
        db = tmp_path / "g.db"
        ptable = tmp_path / "g.ptable"
        run(["gen", "--transactions", "200", "--items", "20", "--seed", "5",
             "--out-db", str(db), "--out-ptable", str(ptable)])
        assert run(["mine", "--db", str(db), "--ptable", str(ptable),
                    "--min-util", "500", "--min-pro", "0.01",
                    "--out", str(tmp_path / "r.txt")]) == 0


class TestBenchCommand:
    def test_sweep_rows_and_monotone(self, data_files, tmp_path, capsys):
        db, ptable = data_files
        out = tmp_path / "bench.csv"
        code = run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25",
                    "--presets", "P12,P123,P1234,ALL",
                    "--assert-monotone", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + one row per preset
        phuis = [int(line.split(",")[10]) for line in lines[1:]]
        assert phuis == [10, 10, 10, 10]
        visited = [int(line.split(",")[3]) for line in lines[1:]]
        assert visited == sorted(visited, reverse=True)
        assert "| visited nodes |" in capsys.readouterr().out

    def test_repeats(self, data_files, tmp_path):
        db, ptable = data_files
        out = tmp_path / "bench.csv"
        assert run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20,100", "--min-pro", "0.25",
                    "--presets", "ALL", "--repeats", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_prefix_sizes(self, data_files, tmp_path):
        db, ptable = data_files
        out = tmp_path / "scale.csv"
        assert run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25", "--presets", "ALL",
                    "--prefix-sizes", "2,4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[3] == "prefix"
        assert [line.split(",")[3] for line in lines[1:]] == ["2", "4"]

    @pytest.mark.parametrize("size", ["-3", "0", "6"])
    def test_prefix_size_outside_database(self, data_files, tmp_path, capsys, size):
        # the example database holds 5 transactions
        db, ptable = data_files
        out = tmp_path / "scale.csv"
        assert run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25", "--presets", "ALL",
                    f"--prefix-sizes=2,{size}", "--out", str(out)]) == 2
        assert f"prefix size {size} outside 1..5" in capsys.readouterr().err
        assert not out.exists()

    def test_repeats_below_one_is_usage_error(self, data_files, capsys):
        db, ptable = data_files
        assert run(["bench", "--db", db, "--ptable", ptable, "--min-util", "20",
                    "--min-pro", "0.25", "--repeats", "0"]) == 2
        assert "repeats must be >= 1" in capsys.readouterr().err

    def test_assert_monotone_names_the_broken_combination(self, data_files, monkeypatch,
                                                           capsys):
        # a miner whose visited nodes grow from P12 to ALL
        def growing(db, table, thresholds, config):
            results, stats = mine(db, table, thresholds, config)
            stats.visited_nodes = 100 + ["P12", "ALL"].index(config.preset)
            return results, stats

        monkeypatch.setattr(cli, "mine", growing)
        db, ptable = data_files
        assert run(["bench", "--db", db, "--ptable", ptable, "--min-util", "20,30",
                    "--min-pro", "0.25", "--presets", "P12,ALL", "--assert-monotone"]) == 3
        assert capsys.readouterr().err == (
            "bench: monotonicity violated: u=20,p=0.25: "
            "visited_nodes(P12)=100 < visited_nodes(ALL)=101\n")

    def test_bad_preset(self, data_files, capsys):
        db, ptable = data_files
        assert run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25",
                    "--presets", "P9"]) == 2

    @pytest.mark.parametrize("size", ["infk", "1e400k", "infm", "nank", "12x"])
    def test_prefix_size_not_a_number(self, data_files, tmp_path, capsys, size):
        db, ptable = data_files
        out = tmp_path / "scale.csv"
        assert run(["bench", "--db", db, "--ptable", ptable,
                    "--min-util", "20", "--min-pro", "0.25", "--presets", "ALL",
                    f"--prefix-sizes=2,{size}", "--out", str(out)]) == 2
        assert f"--prefix-sizes: '{size}' is not a number of transactions" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--min-util", "20,nan", "--min-pro", "0.25"], "min_util must be finite, got nan"),
        (["--min-util", "20", "--min-pro", "0.25,1.5"], "min_pro must be in [0, 1], got 1.5"),
        (["--min-util", "20", "--min-pro", "0.25", "--presets", "ALL,P9"],
         "unknown preset 'P9'"),
        (["--min-util", "abc", "--min-pro", "0.25"],
         "--min-util: 'abc' is not a comma-separated list of numbers"),
        (["--min-util", "20", "--min-pro", "0.1,x"],
         "--min-pro: '0.1,x' is not a comma-separated list of numbers"),
    ], ids=["nan-min-util", "min-pro-above-one", "unknown-preset", "min-util-not-a-number",
            "min-pro-not-a-number"])
    def test_plan_refused_before_any_file_is_read(self, tmp_path, capsys, flags, message):
        # the files do not exist: reading them would be a data error (exit 1)
        missing = str(tmp_path / "missing")
        assert run(["bench", "--db", missing, "--ptable", missing] + flags) == 2
        assert message in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_parse_size():
    assert cli._parse_size("20k") == 20_000
    assert cli._parse_size("1.5m") == 1_500_000
    assert cli._parse_size("300") == 300
    with pytest.raises(cli._UsageError, match="--prefix-sizes"):
        cli._parse_size("infk")
