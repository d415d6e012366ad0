"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dense-deep --first-seed 1

Runs `run.py --workload W --seed S --trace 0` for the ten seeds S =
first-seed, first-seed + 1, ...; a fixed 3M-step Python loop is timed before each run as a
record of the host's speed. Per metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, and
the same for the timings as they ran, before the host-speed correction
of hostspeed.py.
`--out` writes all of it, with the runs' counters, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def spin() -> float:
    t = time.perf_counter()
    s = 0
    for i in range(3_000_000):
        s += i
    return time.perf_counter() - t


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        loop_s = spin()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        last = json.loads((ROOT / ".perfbench" / f"last-{args.workload}.json").read_text())
        runs.append({"seed": seed, "wall_s": wall, "spin_s": loop_s, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "counters": last["counters"], "digest": last["digest"],
                     "pass_solve_s": last["pass_solve_s"], "pass_mine_s": last["pass_mine_s"],
                     "pass_solve_work_s": last["pass_solve_work_s"],
                     "pass_mine_work_s": last["pass_mine_work_s"],
                     "setup_work_s": last["setup_work_s"],
                     "flags": last["flags"], "problems": last["problems"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall {wall:.1f} s, loop {loop_s:.3f} s, correct {result['correct']}, "
              + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for line in last["flags"] + last["problems"]:
            print(f"  {line}")

    summary = {name: quartiles(v) for name, v in values.items()}
    for name, q in summary.items():
        bound = bounds[name]
        verdict = f"bound {bound}: " + ("ok" if q["spread"] <= bound / 3 else
                                        "within bound" if q["spread"] <= bound else "OVER")
        print(f"{name:<24} median {q['median']:.5g}  q1 {q['q1']:.5g}  q3 {q['q3']:.5g}  "
              f"spread {q['spread']:.3f}  {verdict}")
    raw = {
        "setup_s": [r["setup_work_s"] for r in runs],
        "solve_s": [statistics.median(r["pass_solve_work_s"]) for r in runs],
        "mine_s": [statistics.median(r["pass_mine_work_s"]) for r in runs],
    }
    raw = {name: quartiles(v) for name, v in raw.items()}
    for name, q in raw.items():
        print(f"{name:<24} as run, not at full host speed: median {q['median']:.5g}  "
              f"spread {q['spread']:.3f}")
    walls = [r["wall_s"] for r in runs]
    loops = [r["spin_s"] for r in runs]
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"3M-step loop {min(loops):.3f}-{max(loops):.3f} s")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "loop_3M_s": quartiles(loops)},
            "metrics": summary, "as_run": raw, "runs": runs,
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
