"""Run every workload several times and report the spread of each metric.

    python3 perfbench/repeat.py                      # 10 seeds, every workload
    python3 perfbench/repeat.py --runs 5 --workloads scan_d1
    python3 perfbench/repeat.py --compare perfbench/out/repeat-1.json

Each run is a fresh process of the command in BENCHMARK.json with its own
seed.  For every metric the table gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
that spread as a share of the metric's bound.  ``--compare`` also gives the
change of each median against an earlier output of this script.  The
results go to ``perfbench/out/repeat-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["elapsed_s"] = elapsed
    out["calls"] = next((json.loads(ln[len("# calls "):]) for ln in lines
                         if ln.startswith("# calls ")), {})
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", type=Path,
                   help="an earlier output of this script to compare medians with")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metric_defs = {m["name"]: m for m in
                   bench["per_layer" if args.trace else "end_to_end"]}
    before = json.loads(args.compare.read_text()) if args.compare else {}
    report = {}
    for name in names:
        runs = [run_once(bench, name, args.first_seed + i, args.trace)
                for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{name}: {args.runs} runs, correct in "
              f"{sum(r['correct'] for r in runs)}, failed share "
              f"{sorted(shares)}, run time "
              f"{min(r['elapsed_s'] for r in runs):.1f}-"
              f"{max(r['elapsed_s'] for r in runs):.1f} s")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'/bound':>7s} {'vs before':>9s}")
        report[name] = {"runs": runs, "metrics": {}}
        for metric, spec in metric_defs.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = summarise(values)
            report[name]["metrics"][metric] = s
            bound = spec.get("bound")
            ratio = f"{s['spread'] / bound:7.2f}" if bound else " " * 7
            change = ""
            old = before.get(name, {}).get("metrics", {}).get(metric)
            if old and old["median"]:
                change = f"{s['median'] / old['median'] - 1.0:+9.3f}"
            print(f"  {metric:34s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} "
                  f"{bound if bound else '':>6} {ratio} {change:>9s}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"repeat-{args.first_seed}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwritten {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
