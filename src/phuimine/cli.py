"""Command-line front end.

Subcommands: mine (list-based miner), oracle (brute-force reference),
verify (miner-vs-oracle equivalence, fixed or fuzzed inputs), gen
(synthetic data), bench (threshold/preset sweeps and scalability
series, CSV plus a pivoted markdown summary).

Exit codes: 0 success, 1 parse, validation or file error (a file that
cannot be read, decoded as UTF-8 or written), 2 bad flags,
3 verification divergence or, for bench, a monotonicity violation.
"""

import argparse
import statistics
import sys
from pathlib import Path

from . import dataio, datagen, oracle, verify
from .miner import PRESETS, MiningConfig, MiningStats, mine
from .model import DatabaseValidationError, Thresholds, UncertainDatabase, UtilityTable

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


def _load_inputs(db_path: str, ptable_path: str) -> tuple[UncertainDatabase, UtilityTable]:
    return _load(db_path, dataio.parse_database), _load(ptable_path, dataio.parse_ptable)


def _file_error(path: str, exc: OSError | UnicodeDecodeError) -> _DataError:
    return _DataError(f"{path}: {getattr(exc, 'strerror', None) or exc}")


def _load(path: str, parse):
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc) from None
    except dataio.ParseError as exc:
        raise _DataError(f"{path}:{exc.line}:{exc.column}: {exc.message}") from None


def _config_from(args) -> MiningConfig:
    if getattr(args, "strategies", None):
        return MiningConfig.from_strategies(args.strategies.split(","))
    return MiningConfig.from_preset(args.preset)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _file_error(path, exc) from None


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any work, an output path that cannot be opened for
    writing. An existing file is opened for appending and left as it is;
    a new one is created and removed again, so a run that fails later
    leaves no empty output behind."""
    for path in paths:
        if not path:
            continue
        target = Path(path)
        try:
            if target.exists():
                target.open("a").close()
            else:
                target.open("x").close()
                target.unlink()
        except OSError as exc:
            raise _file_error(path, exc) from None


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def cmd_mine(args) -> int:
    thresholds = Thresholds(args.min_util, args.min_pro)
    config = _config_from(args)
    _check_writable(args.out, args.stats)
    db, table = _load_inputs(args.db, args.ptable)
    results, stats = mine(db, table, thresholds, config)
    _write_or_print(dataio.serialize_results(results), args.out)
    if args.stats:
        _write(args.stats, dataio.serialize_stats(stats, args.stats_format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.max_items < 1:
        raise _UsageError(f"--max-items {args.max_items} must be at least 1")
    thresholds = Thresholds(args.min_util, args.min_pro)
    _check_writable(args.out)
    db, table = _load_inputs(args.db, args.ptable)
    results = oracle.brute_force_mine(db, table, thresholds, max_items=args.max_items)
    _write_or_print(dataio.serialize_results(results), args.out)
    return EXIT_OK


def cmd_verify(args, mine_fn=mine) -> int:
    if args.fuzz < 0:
        raise _UsageError(f"--fuzz {args.fuzz} must be at least 0")
    if args.fuzz:
        if not 1 <= args.max_items <= oracle.MAX_ITEMS:
            raise _UsageError(f"--max-items {args.max_items} outside 1..{oracle.MAX_ITEMS}")
        if args.max_tx < 1:
            raise _UsageError(f"--max-tx {args.max_tx} must be at least 1")
        diff = verify.run_fuzz(
            args.fuzz,
            seed=args.seed,
            max_items=args.max_items,
            max_transactions=args.max_tx,
            mine_fn=mine_fn,
        )
    else:
        if not (args.db and args.ptable):
            raise _UsageError("verify needs --db/--ptable or --fuzz N")
        thresholds = Thresholds(args.min_util, args.min_pro)
        db, table = _load_inputs(args.db, args.ptable)
        diff = verify.check_instance(db, table, thresholds, mine_fn=mine_fn)
    if diff is None:
        print("verify: OK")
        return EXIT_OK
    print(f"verify: DIVERGENCE: {diff}", file=sys.stderr)
    return EXIT_DIVERGENCE


def cmd_gen(args) -> int:
    params = datagen.GenParams(
        n_transactions=args.transactions,
        n_items=args.items,
        avg_tx_len=args.avg_len,
        max_tx_len=args.max_len,
        utility_range=(args.utility_lo, args.utility_hi),
        max_quantity=args.max_quantity,
        negative_fraction=args.negative_fraction,
        seed=args.seed,
        per_item_probability=args.per_item_probability,
    )
    try:
        params.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _check_writable(args.out_db, args.out_ptable)
    db, table = datagen.generate(params)
    _write(args.out_db, dataio.serialize_database(db))
    _write(args.out_ptable, dataio.serialize_ptable(table))
    negatives = sum(1 for u in table.entries.values() if u < 0)
    print(f"gen: {db.size} transactions, {len(table.entries)} items "
          f"({negatives} negative), seed {args.seed}")
    return EXIT_OK


def _run_cell(db, table, thresholds, preset, repeats) -> MiningStats:
    """Counters from the first run; elapsed is the median over repeats."""
    results, stats = mine(db, table, thresholds, MiningConfig.from_preset(preset))
    elapsed = [stats.elapsed]
    for _ in range(repeats - 1):
        _, again = mine(db, table, thresholds, MiningConfig.from_preset(preset))
        elapsed.append(again.elapsed)
    stats.elapsed = statistics.median(elapsed)
    return stats


def _pivot_markdown(rows: list[tuple[str, str, MiningStats]]) -> str:
    """Presets as rows, threshold combos as columns, visited nodes as
    cells, plus a final row with the pattern counts."""
    combos: list[str] = []
    for _preset, combo, _stats in rows:
        if combo not in combos:
            combos.append(combo)
    presets: list[str] = []
    for preset, _combo, _stats in rows:
        if preset not in presets:
            presets.append(preset)
    cell = {(p, c): s for p, c, s in rows}
    lines = ["| visited nodes | " + " | ".join(combos) + " |",
             "|---" * (len(combos) + 1) + "|"]
    for p in presets:
        lines.append(
            f"| {p} | " + " | ".join(
                str(cell[(p, c)].visited_nodes) if (p, c) in cell else "-" for c in combos
            ) + " |"
        )
    lines.append(
        "| PHUIs | " + " | ".join(
            str(cell[(presets[0], c)].phuis_found) if (presets[0], c) in cell else "-"
            for c in combos
        ) + " |"
    )
    return "\n".join(lines) + "\n"


_PRESET_ORDER = [p for p in PRESETS if p != "NONE"]


def _check_monotone(rows: list[tuple[str, str, MiningStats]]) -> str | None:
    """Non-increasing visited nodes along P12 -> ALL per threshold combo."""
    by_combo: dict[str, dict[str, MiningStats]] = {}
    for preset, combo, stats in rows:
        by_combo.setdefault(combo, {})[preset.upper()] = stats
    for combo, cells in by_combo.items():
        chain = [cells[p] for p in _PRESET_ORDER if p in cells]
        for a, b in zip(chain, chain[1:]):
            if a.visited_nodes < b.visited_nodes:
                return (f"{combo}: visited_nodes({a.preset})={a.visited_nodes} < "
                        f"visited_nodes({b.preset})={b.visited_nodes}")
        for s in chain:
            if s.visited_nodes < s.phuis_found:
                return f"{combo}: visited_nodes({s.preset}) below phuis_found"
    return None


def cmd_bench(args) -> int:
    # every threshold pair and preset is built before any file is read
    min_utils = _parse_floats("--min-util", args.min_util)
    min_pros = _parse_floats("--min-pro", args.min_pro)
    presets = args.presets.split(",")
    prefix_sizes = ([_parse_size(v) for v in args.prefix_sizes.split(",")]
                    if args.prefix_sizes else [])
    if args.repeats < 1:
        raise _UsageError("repeats must be >= 1")
    pairs = [Thresholds(min_util, min_pro) for min_util in min_utils for min_pro in min_pros]
    for preset in presets:
        MiningConfig.from_preset(preset)
    _check_writable(args.out)
    full_db, table = _load_inputs(args.db, args.ptable)
    for bad in (n for n in prefix_sizes if not 1 <= n <= full_db.size):
        raise _UsageError(f"prefix size {bad} outside 1..{full_db.size}, "
                          "the number of transactions")

    rows: list[tuple[str, str, MiningStats]] = []
    csv_lines = []
    scalability = bool(prefix_sizes)
    header = list(dataio.STATS_CSV_FIELDS)
    if scalability:
        header.insert(3, "prefix")
    csv_lines.append(",".join(header))

    for prefix in prefix_sizes or [full_db.size]:
        db = full_db.prefix(prefix) if scalability else full_db
        for thresholds in pairs:
            combo = (f"u={dataio._six_digits(thresholds.min_util)},"
                     f"p={dataio._six_digits(thresholds.min_pro)}")
            if scalability:
                combo += f",n={prefix}"
            for preset in presets:
                stats = _run_cell(db, table, thresholds, preset, args.repeats)
                row = dataio.stats_csv_row(stats)
                if scalability:
                    row.insert(3, str(prefix))
                csv_lines.append(",".join(row))
                rows.append((preset.upper(), combo, stats))

    csv_text = "\n".join(csv_lines) + "\n"
    _write_or_print(csv_text, args.out)
    sys.stdout.write(_pivot_markdown(rows))

    if args.assert_monotone:
        problem = _check_monotone(rows)
        if problem:
            print(f"bench: monotonicity violated: {problem}", file=sys.stderr)
            return EXIT_DIVERGENCE
    return EXIT_OK


def _parse_floats(flag: str, text: str) -> list[float]:
    """A comma-separated list of numbers such as 20,100."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag}: {text!r} is not a comma-separated list of numbers") from None


def _parse_size(text: str) -> int:
    """A prefix size such as 300, 20k or 1.5m."""
    size = text.strip().lower()
    try:
        if size.endswith("k"):
            return int(float(size[:-1]) * 1000)
        if size.endswith("m"):
            return int(float(size[:-1]) * 1_000_000)
        return int(size)
    except (ValueError, OverflowError):
        raise _UsageError(f"--prefix-sizes: {text!r} is not a number of transactions") from None


def _add_data_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--db", required=required, help="database file")
    p.add_argument("--ptable", required=required, help="utility table file")


def _add_threshold_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--min-util", type=float, required=required, default=0.0,
                   help="minimum utility (absolute, may be negative)")
    p.add_argument("--min-pro", type=float, required=required, default=0.0,
                   help="minimum probability threshold in [0,1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phuimine",
        description="Mine potential high-utility itemsets from uncertain "
                    "databases with signed unit utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="run the list-based miner")
    _add_data_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--preset", default="ALL", choices=sorted(PRESETS),
                   help="pruning preset (default ALL)")
    p.add_argument("--strategies",
                   help="comma-separated strategy toggles overriding the preset, e.g. s1,s3")
    p.add_argument("--out", help="results file (default stdout)")
    p.add_argument("--stats", help="write run stats to this file")
    p.add_argument("--stats-format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("oracle", help="run the brute-force reference miner")
    _add_data_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--max-items", type=int, default=oracle.MAX_ITEMS,
                   help="refuse item universes larger than this")
    p.add_argument("--out", help="results file (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="compare miner presets against the oracle")
    _add_data_flags(p, required=False)
    _add_threshold_flags(p, required=False)
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="run N generated cases instead of a fixed dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-items", type=int, default=12,
                   help=f"most items per fuzz case, 1..{oracle.MAX_ITEMS}")
    p.add_argument("--max-tx", type=int, default=30,
                   help="most transactions per fuzz case")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a synthetic database")
    p.add_argument("--transactions", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--avg-len", type=float, default=5.0)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--utility-lo", type=float, default=-1000.0)
    p.add_argument("--utility-hi", type=float, default=1000.0)
    p.add_argument("--max-quantity", type=int, default=5)
    p.add_argument("--negative-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-item-probability", action="store_true",
                   help="one shared probability per item instead of per occurrence")
    p.add_argument("--out-db", required=True)
    p.add_argument("--out-ptable", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="threshold/preset sweep with stats CSV")
    _add_data_flags(p)
    p.add_argument("--min-util", required=True,
                   help="comma-separated minimum-utility values")
    p.add_argument("--min-pro", required=True,
                   help="comma-separated minimum-probability values")
    p.add_argument("--presets", default="P12,P123,P1234,ALL")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--prefix-sizes",
                   help="scalability mode: comma-separated prefix sizes, e.g. 20k,40k")
    p.add_argument("--assert-monotone", action="store_true",
                   help="exit nonzero if visited nodes are not monotone across presets")
    p.add_argument("--out", help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, DatabaseValidationError, oracle.UniverseTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except ValueError as exc:  # a flag value the model refuses, e.g. Thresholds'
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
