"""phuimine benchmark: time to result, memory and a per-layer split.

    python3 perfbench/run.py --workload c7-wide --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one caller in one process. This
script generates the inputs from the seed (set-up, repeated and timed),
starts perfbench/measure.py as a child process that runs the workload
for about `--seconds`, checks every result and prints one line per
metric, then a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
timings are medians over the passes of the run, each timed at the
host's full speed (hostspeed.py). With `--trace 1` they
are the per-layer ones, from traced passes that alternate with untraced
ones, and the spans of the last traced pass are written to
.perfbench/spans-<workload>.tsv.gz.
"""

import argparse
import dataclasses
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Sampler
from spans import WRAPPED
from workloads import WORK, WORKLOADS, add_sources_to_path, dataset, fuzz_seeds, shuffle, thresholds

HERE = Path(__file__).resolve().parent
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed, so that even a 30 ms set-up is a median of many
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
CHILD_TIMEOUT_S = 120

# per-layer metric -> span name whose self time it reports
SELF_TIME = {metric: span for metric, span, _module, _attr in WRAPPED}
# per-layer metric prefixes of the layers a workload never calls, by is_fuzz
NOT_EXERCISED = {True: ("dataio.",), False: ("oracle.", "verify.")}


def setup(w, seed: int, workdir: Path) -> dict:
    """Generate and write the inputs repeatedly; keep the last ones.
    `setup_s` is the median repeat at the host's full speed (hostspeed.py),
    `setup_work_s` the median as it ran."""
    from phuimine import dataio, verify

    gens, marks = [], []
    sampler = Sampler()
    with sampler:
        while len(marks) < SETUP_REPEATS or sum(t1 - t0 for t0, t1 in marks) < SETUP_MIN_S:
            t0 = time.perf_counter()
            out = generate(w, seed, workdir, dataio, verify, gens)
            marks.append((t0, time.perf_counter()))
    times = [sampler.times(t0, t1) for t0, t1 in marks]
    out["setup_s"] = statistics.median(host for _, host in times)
    out["setup_work_s"] = statistics.median(work for work, _ in times)
    out["generate_s"] = statistics.median(gens)
    return out


def generate(w, seed: int, workdir: Path, dataio, verify, gens: list) -> dict:
    """One set-up repeat; appends the time spent generating to `gens`."""
    t0 = time.perf_counter()
    if w.is_fuzz:
        generate_small = verify.generate_small
        gen_time = 0.0

        def timed_generate_small(*args, **kwargs):
            nonlocal gen_time
            t = time.perf_counter()
            try:
                return generate_small(*args, **kwargs)
            finally:
                gen_time += time.perf_counter() - t

        verify.generate_small = timed_generate_small
        try:
            cases = [verify.make_fuzz_case(s) for s in fuzz_seeds(w, seed)]
        finally:
            verify.generate_small = generate_small
        # check_instance does not read the oracle measures a case carries;
        # the harness holds one case at a time, so the child gets none
        lean = [dataclasses.replace(c, measures={}) for c in cases]
        (workdir / "cases.pkl").write_bytes(pickle.dumps(lean))
        gens.append(gen_time)
        return {"db_bytes": 0}
    db, table = dataset(w)
    gens.append(time.perf_counter() - t0)
    db = shuffle(db, seed)
    db_text = dataio.serialize_database(db)
    (workdir / "db.txt").write_text(db_text)
    (workdir / "ptable.txt").write_text(dataio.serialize_ptable(table))
    return {"db": db, "table": table, "db_bytes": len(db_text.encode())}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import check

    w = WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(w, seed, workdir)
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
               "--seconds", str(seconds), "--trace", str(trace), "--dir", str(workdir)]
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring child exited with {proc.returncode}")
        child = json.loads((workdir / "child.json").read_text())
        if trace and child["traced"]:
            shutil.copyfile(workdir / "spans.tsv.gz", WORK / f"spans-{name}.tsv.gz")
        result_file = workdir / "result.txt"
        result_text = result_file.read_text() if result_file.exists() else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes, traced = child["passes"], child["traced"]
    ok = [p for p in passes if "solve_s" in p]
    problems = [f for p in passes for f in p["failures"]]
    expected = load_expected().get(name, {})

    # every pass must repeat the first one's counters and result
    attempted = len(passes)
    digest = None
    first = ok[0] if ok else {}
    for p in ok[1:]:
        if p["counters"] != first["counters"] or p.get("result_sha") != first.get("result_sha"):
            problems.append("a pass gave other counters or another result than the first")
    if w.is_fuzz:
        attempted = sum(len(p["latencies"]) for p in ok) or 1
    elif result_text is not None:
        n, found, digest = check.check_result(result_text, inputs["db"], inputs["table"],
                                              thresholds(w), expected or None)
        attempted += n
        problems += found
    for t in traced:
        attempted += 1
        if t["counters"] != first.get("counters") or t["result_sha"] != first.get("result_sha"):
            problems.append("a traced pass gave other counters or another result")
        problems += t["failures"]

    counters = dict(first.get("counters", {}))
    if "max_pattern_len" in first:
        counters["max_pattern_len"] = first["max_pattern_len"]
    flags = []
    if traced:
        counters["tids_in"] = traced[0]["tids_in"]
        counters["tids_out"] = traced[0]["tids_out"]
        if any((t["tids_in"], t["tids_out"]) != (counters["tids_in"], counters["tids_out"])
               for t in traced):
            flags.append("traced passes counted other tids_in or tids_out than the first")
    # every seed poses the same problem, so the counters never depend on it
    want = expected.get("counters", {})
    differ = {k: (v, want[k]) for k, v in counters.items() if k in want and v != want[k]}
    if differ:
        flags.append(f"counters differ from the recorded ones (now, recorded): {differ}")

    e2e = {}
    if ok:
        e2e = {
            "setup_s": (inputs["setup_s"], "s"),
            "solve_s": (statistics.median(p["solve_s"] for p in ok), "s"),
            "mine_s": (statistics.median(p["mine_s"] for p in ok), "s"),
            "peak_rss_mb": (child["peak_rss_kib"] / 1024.0, "MiB"),
        }
    extra = {}
    if w.is_fuzz and ok:
        extra = fuzz_latency(ok)
    failed = len(problems)
    extra["fail_frac"] = (failed / attempted, f"ratio ({failed}/{attempted})")

    layers, consistency = {}, None
    if traced and ok:
        layers = per_layer(w, inputs, ok, traced, child["span_cost_s"], counters)
        consistency = self_time_check(ok, traced, child["span_cost_s"])
        if not consistency["consistent"]:
            flags.append("the self times inside mine do not add up to the untraced mine_s "
                         "within the tracing overhead")
    return {
        "workload": name, "seed": seed, "trace": trace, "passes": len(ok),
        "traced_passes": len(traced),
        "pass_solve_s": [p["solve_s"] for p in ok], "pass_mine_s": [p["mine_s"] for p in ok],
        "pass_solve_work_s": [p["solve_work_s"] for p in ok],
        "pass_mine_work_s": [p["mine_work_s"] for p in ok],
        "setup_work_s": inputs["setup_work_s"],
        "correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed,
        "problems": problems, "flags": flags, "counters": counters,
        "end_to_end": e2e, "extra": extra, "per_layer": layers,
        "absent": traced[0]["absent"] if traced else [],
        "not_exercised": [k for k in layers if k.startswith(NOT_EXERCISED[w.is_fuzz])],
        "self_time_check": consistency,
        "digest": digest,
    }


def fuzz_latency(ok: list[dict]) -> dict:
    """checks_per_s, check_p50_ms and check_tail_ms over every untraced
    pass; the tail's unit names its percentile and sample count."""
    lat = [x for p in ok for x in p["latencies"]]
    value, pct = tail(lat)
    return {
        "checks_per_s": (len(lat) / sum(p["solve_s"] for p in ok), "1/s"),
        "check_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "check_tail_ms": (1000.0 * value, f"ms (p{pct:g} of {len(lat)} calls)"),
    }


def mine_tree(span: str) -> bool:
    """Whether a span runs inside miner.mine."""
    return not span.startswith(("dataio.", "oracle.", "verify."))


def self_time_check(ok, traced, cost: float) -> dict:
    """Check that the self times inside mine add up to the untraced
    mine_s, as it ran, plus the tracing overhead. The overhead is estimated without
    the traced passes' timings, from the calibrated cost of their spans:
    the excess of the self times over the untraced median must lie
    between zero and twice that cost, widened by the host's noise: the
    wider of the ranges of the untraced and the traced passes' mine_s.
    (The wrapped code runs slower than the empty calibration function:
    the measured overhead was 1.2-2.7x the calibrated cost.)"""
    inside = statistics.median(
        sum(row["self_s"] for span, row in t["layers"].items() if mine_tree(span)) for t in traced)
    spans = sum(row["calls"] for span, row in traced[0]["layers"].items() if mine_tree(span))
    untraced = [p["mine_work_s"] for p in ok]
    median = statistics.median(untraced)
    spread = max(max(xs) - min(xs) for xs in (untraced, [t["mine_s"] for t in traced]))
    excess = inside - median
    return {
        "self_sum_s": inside, "span_cost_s": spans * cost, "untraced_median_s": median,
        "noise_s": spread, "excess_s": excess,
        "consistent": -spread <= excess <= 2 * spans * cost + spread,
    }


def per_layer(w, inputs, ok, traced, cost, counters) -> dict:
    """Per-layer metrics: self times are medians over the traced passes;
    counts come from the first traced pass (they repeat exactly)."""
    t0 = traced[0]
    m = {}
    for metric, span in SELF_TIME.items():
        m[metric] = (statistics.median(t["layers"][span]["self_s"] if span in t["layers"] else 0.0
                                       for t in traced), "s")
    calls = t0["layers"].get("pulist.construct", {}).get("calls", 0)
    abandoned = counters.get("joins_abandoned", 0)
    m["pulist.construct_calls"] = (calls, "count")
    m["pulist.tids_in"] = (t0["tids_in"], "count")
    m["pulist.tids_out"] = (t0["tids_out"], "count")
    m["pulist.match_ratio"] = (t0["tids_out"] / t0["tids_in"] if t0["tids_in"] else 0.0, "ratio")
    m["pulist.abandon_ratio"] = (abandoned / calls if calls else 0.0, "ratio")
    for name in ("visited_nodes", "joins_attempted", "joins_abandoned", "eucs_skips",
                 "s3_cuts", "s4_cuts", "s5_skips", "phuis_found"):
        m[f"miner.{name}"] = (counters.get(name, 0), "count")
    visited = counters.get("visited_nodes", 0)
    m["miner.emit_ratio"] = (counters.get("phuis_found", 0) / visited if visited else 0.0, "ratio")
    m["miner.max_pattern_len"] = (counters.get("max_pattern_len", 0), "count")
    m["dataio.db_bytes"] = (inputs["db_bytes"], "bytes")
    m["datagen.generate_s"] = (inputs["generate_s"], "s")
    m["oracle.subsets"] = (t0.get("oracle_subsets", 0), "count")
    if w.is_fuzz:
        mine_span = "miner.mine"
        m["verify.mine_calls"] = (t0["layers"].get(mine_span, {}).get("calls", 0), "count")
        m["verify.mine_s"] = (statistics.median(t["layers"].get(mine_span, {}).get("total_s", 0.0)
                                                for t in traced), "s")
        m["verify.divergences"] = (len(t0["failures"]), "count")
        lat = fuzz_latency(ok)
        m["verify.checks_per_s"] = lat["checks_per_s"]
        m["verify.check_p50_ms"] = lat["check_p50_ms"]
        m["verify.check_tail_ms"] = (lat["check_tail_ms"][0], "ms")
    else:
        for name, unit in (("mine_calls", "count"), ("mine_s", "s"), ("divergences", "count"),
                           ("checks_per_s", "1/s"), ("check_p50_ms", "ms"),
                           ("check_tail_ms", "ms")):
            m[f"verify.{name}"] = (0, unit)
    untraced = [p["mine_work_s"] for p in ok]
    m["trace.untraced_mine_s"] = (statistics.median(untraced), "s")
    m["trace.traced_mine_s"] = (statistics.median(t["mine_s"] for t in traced), "s")
    # each traced pass directly follows an untraced one
    m["trace.overhead_s"] = (statistics.median(t["mine_s"] - u for u, t in zip(untraced, traced)),
                             "s")
    m["trace.span_cost_s"] = (t0["spans"] * cost, "s")
    m["trace.spans"] = (t0["spans"], "count")
    return m


def print_report(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  passes {r['passes']}"
          + (f" + {r['traced_passes']} traced" if r["trace"] else ""))
    for name, (value, unit) in {**r["end_to_end"], **r["extra"]}.items():
        print(f"  {name:<14} {value:>14.6f} {unit}")
    if r["pass_solve_work_s"]:
        solve = statistics.median(r["pass_solve_work_s"])
        print(f"  as run, before the host-speed correction: setup_s {r['setup_work_s']:.6f}, "
              f"solve_s {solve:.6f}, mine_s {statistics.median(r['pass_mine_work_s']):.6f}; "
              f"the host ran at {statistics.median(r['pass_solve_s']) / solve:.0%} of full speed")
    print("  counters: " + " ".join(f"{k}={v}" for k, v in r["counters"].items()))
    if r["digest"] is not None:
        print(f"  result: {r['digest'][0]} patterns, membership digest {r['digest'][1]}")
    if r["per_layer"]:
        print_layers(r)
    for line in r["flags"]:
        print(f"  FLAG: {line}")
    for line in r["problems"][:20]:
        print(f"  FAILED: {line}")


def print_layers(r: dict) -> None:
    """Self-time breakdown: each layer's share of the traced mine_s (of
    the traced solve_s for the text formats, of the sweep on fuzz-verify)."""
    pl = r["per_layer"]
    fuzz = WORKLOADS[r["workload"]].is_fuzz
    times = {k: pl[k][0] for k in SELF_TIME}
    io = {k for k in times if k.startswith("dataio.")}
    traced = pl["trace.traced_mine_s"][0]
    base = sum(times.values()) if fuzz else traced
    io_base = sum(times.values()) if fuzz else traced + sum(times[k] for k in io)
    print("  per-layer self time (median of the traced passes):")
    for k, v in sorted(times.items(), key=lambda kv: -kv[1]):
        if v:
            of = "sweep" if fuzz else ("solve_s" if k in io else "mine_s")
            share = 100.0 * v / (io_base if k in io else base)
            print(f"    {k:<28} {v:>10.4f} s  {share:5.1f} % of {of}")
    c = r["self_time_check"]
    print(f"  self times inside mine add up to {c['self_sum_s']:.4f} s: untraced mine_s median "
          f"{c['untraced_median_s']:.4f} s + {c['excess_s']:.4f} s (noise: passes ranged over "
          f"{c['noise_s']:.4f} s); calibrated cost of their spans {c['span_cost_s']:.4f} s: "
          + ("consistent" if c["consistent"] else "NOT consistent"))
    print(f"  tracing overhead (median traced - untraced mine_s over adjacent passes) "
          f"{pl['trace.overhead_s'][0]:+.4f} s; calibrated cost of all spans "
          f"{pl['trace.span_cost_s'][0]:.4f} s")
    for k, (v, unit) in pl.items():
        if k not in SELF_TIME:
            print(f"    {k:<28} {v} {unit}")
    if r["absent"]:
        print("  absent (reported as 0): " + ", ".join(r["absent"]))
    if r["not_exercised"]:
        print("  not exercised by this workload (reported as 0): " + ", ".join(r["not_exercised"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM as an exception, so that subprocess.run kills and waits for
    # the measuring child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    add_sources_to_path()
    WORK.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
        r = run_workload(name, seed, args.seconds, args.trace)
        print_report(r)
        (WORK / f"last-{name}.json").write_text(json.dumps(r, indent=1))
        metrics = r["per_layer"] if args.trace else r["end_to_end"]
        print(json.dumps({
            "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
