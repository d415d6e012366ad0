"""Measuring child process: one workload, inputs already on disk.

Started by run.py, so that its peak resident memory belongs to the
workload alone and not to the set-up that generated the inputs. Writes
its findings to `<dir>/child.json` and the last result text of a
generator workload to `<dir>/result.txt`.

Untraced (`--trace 0`): passes are repeated while the next one is
expected to end within `--seconds`; at least one pass runs. Untraced
passes run under hostspeed.Sampler, and their times are reported at
the host's full speed as well as as they ran. A pass of a
generator workload reads the two files, parses them, mines and
serializes the result. A pass of fuzz-verify runs `check_instance` on
every case.

Traced (`--trace 1`): untraced and traced passes alternate, at least two
of each, while the next pair is expected to end within `--seconds`. A
traced pass records spans around every wrapped function. The cost one
span adds to a call is calibrated first, on a wrapped empty function.
"""

import argparse
import hashlib
import json
import pickle
import statistics
import sys
import time
from pathlib import Path

from hostspeed import Sampler
from workloads import WORKLOADS, add_sources_to_path, thresholds

COUNTERS = ["visited_nodes", "joins_attempted", "joins_abandoned", "eucs_skips",
            "s3_cuts", "s4_cuts", "s5_skips", "phuis_found"]


def stats_counters(stats_list) -> dict:
    """Summed MiningStats counters; fields a later version lacks are left out."""
    out = {}
    for name in COUNTERS:
        if all(hasattr(s, name) for s in stats_list):
            out[name] = sum(getattr(s, name) for s in stats_list)
    return out


def solve_pass(mods, w, workdir: Path) -> dict:
    dataio, miner = mods["dataio"], mods["miner"]
    config = miner.MiningConfig.from_preset("ALL")
    t0 = time.perf_counter()
    db = dataio.parse_database((workdir / "db.txt").read_text())
    table = dataio.parse_ptable((workdir / "ptable.txt").read_text())
    t1 = time.perf_counter()
    patterns, stats = miner.mine(db, table, thresholds(w), config)
    t2 = time.perf_counter()
    text = dataio.serialize_results(patterns)
    t3 = time.perf_counter()
    return {
        "marks": {"solve": (t0, t3), "mine": [(t1, t2)]},
        "counters": stats_counters([stats]),
        "max_pattern_len": max((len(m.pattern.items) for m in patterns), default=0),
        "text": text,
        "failures": [],
    }


def fuzz_pass(mods, cases, tracer=None) -> dict:
    miner, verify = mods["miner"], mods["verify"]
    all_stats = []
    mine_marks = []
    longest = 0

    def timed_mine(*args, **kwargs):
        nonlocal longest
        t = time.perf_counter()
        found, stats = miner.mine(*args, **kwargs)
        mine_marks.append((t, time.perf_counter()))
        all_stats.append(stats)
        longest = max([longest] + [len(m.pattern.items) for m in found])
        return found, stats

    calls = []
    failures = []
    t0 = time.perf_counter()
    for case in cases:
        for th in case.thresholds_list:
            if tracer is not None:
                tracer.request_id = len(calls)
            t = time.perf_counter()
            try:
                diff = verify.check_instance(case.db, case.table, th, mine_fn=timed_mine)
            except Exception as exc:  # a raised error is a failed check, not a crash
                diff = f"raised {exc!r}"
            calls.append((t, time.perf_counter()))
            if diff is not None:
                failures.append(f"seed {case.seed} {th}: {diff}")
    return {
        "marks": {"solve": (t0, time.perf_counter()), "mine": mine_marks, "calls": calls},
        "counters": stats_counters(all_stats),
        "max_pattern_len": longest,
        "mine_calls": len(all_stats),
        "failures": failures,
    }


def timings(p: dict, sampler=None) -> dict:
    """Turn a pass's (start, end) marks into seconds, in place: `solve_s`,
    `mine_s` and `latencies` at the host's full speed, `solve_work_s` and
    `mine_work_s` as they ran. Without a sampler (traced passes) both are
    the raw times."""
    def both(t0, t1):
        return sampler.times(t0, t1) if sampler else (t1 - t0, t1 - t0)

    marks = p.pop("marks", None)
    if marks is None:
        return p
    p["solve_work_s"], p["solve_s"] = both(*marks["solve"])
    mine = [both(*m) for m in marks["mine"]]
    p["mine_work_s"] = sum(work for work, _ in mine)
    p["mine_s"] = sum(host for _, host in mine)
    if "calls" in marks:
        p["latencies"] = [both(*c)[1] for c in marks["calls"]]
    return p


def run_pass(mods, w, workdir, cases, tracer=None) -> dict:
    if w.is_fuzz:
        return fuzz_pass(mods, cases, tracer)
    try:
        return solve_pass(mods, w, workdir)
    except Exception as exc:
        return {"failures": [f"raised {exc!r}"]}


def oracle_subsets(cases) -> int:
    """Σ (2^|T| - 1) over the transactions the oracle walks in one pass."""
    return sum(
        len(case.thresholds_list) * sum(2 ** len(tx.entries) - 1 for tx in case.db.transactions)
        for case in cases
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    add_sources_to_path()
    from phuimine import dataio, miner, oracle, verify

    mods = {"dataio": dataio, "miner": miner, "oracle": oracle, "verify": verify}
    cases = pickle.loads((args.dir / "cases.pkl").read_bytes()) if w.is_fuzz else None

    passes, traced = [], []
    tracer = None
    sampler = Sampler()
    started = time.perf_counter()
    cost = span_cost_s() if args.trace else 0.0
    last_text = None
    while True:
        with sampler:
            p = run_pass(mods, w, args.dir, cases)
        if "text" in p:
            # keep only the last result text, so that peak memory does not
            # grow with the number of passes, which the host's speed sets
            last_text = p.pop("text")
            p["result_sha"] = _sha(last_text)
        passes.append(timings(p, sampler))
        if "solve_s" not in p:
            break
        if args.trace:
            tracer, result = traced_pass(mods, w, args.dir, cases)
            traced.append(result)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["solve_work_s"] for p in passes)
        if args.trace:
            typical += statistics.median(t["solve_s"] for t in traced)
        if elapsed + typical > args.seconds and (not args.trace or len(traced) >= 2):
            break

    report = {"traced": traced, "span_cost_s": cost}
    if tracer is not None:
        tracer.write(args.dir / "spans.tsv.gz")

    if last_text is not None:
        (args.dir / "result.txt").write_text(last_text)
    report["passes"] = passes
    report["peak_rss_kib"] = peak_rss_kib()
    (args.dir / "child.json").write_text(json.dumps(report))
    return 0


def traced_pass(mods, w, workdir, cases):
    """One pass with spans around every wrapped function; returns the
    tracer, holding the spans, and the pass's findings."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install(mods)
    try:
        p = timings(run_pass(mods, w, workdir, cases, tracer))
    finally:
        tracer.uninstall()
    result = {
        "layers": tracer.summary(),
        "absent": tracer.absent,
        "tids_in": tracer.tids_in,
        "tids_out": tracer.tids_out,
        "spans": len(tracer.start),
        "solve_s": p.get("solve_work_s", 0.0),
        "mine_s": p.get("mine_work_s", 0.0),
        "counters": p.get("counters"),
        "result_sha": _sha(p["text"]) if "text" in p else None,
        "failures": p["failures"],
    }
    if w.is_fuzz:
        result["oracle_subsets"] = oracle_subsets(cases)
    return tracer, result


def span_cost_s(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call, measured on an empty function
    called like `pulist.construct`, the commonest span, with the join
    counter attached and lists whose length is a Python method, as a
    PUList's is: wrapped against bare, the least of a few timings, since
    other load on the host only ever adds time."""
    from spans import Tracer

    class Sized:
        def __len__(self):
            return 8

    def empty(prefix, py, pz, *, min_util=0.0, pro_bound=0.0, la_prune=False):
        return py

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", empty, tracer._count_join)
    py, pz = Sized(), Sized()
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            empty(None, py, pz, min_util=1.0, pro_bound=1.0, la_prune=True)
        t1 = clock()
        for _ in range(calls):
            wrapped(None, py, pz, min_util=1.0, pro_bound=1.0, la_prune=True)
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def peak_rss_kib() -> int:
    """Peak resident memory of this process since it started.

    VmHWM belongs to the process image that exec started. ru_maxrss does
    not: Linux carries the parent's peak over into it when the child is
    spawned, and the parent held the generated inputs."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
