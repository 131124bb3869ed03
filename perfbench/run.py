"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sweep_d2 --seed 1 --seconds 20 --trace 0

Run from the root of a chaoslab checkout (the package is imported from
``src/``).  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, and the run's layer figures are merged into
``perfbench/out/layers.json``.  Every timing is corrected for the host's
current speed with the probe in ``hostspeed.py``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5       # fresh processes timed for setup_s, this one included
SPAN_SAMPLE = 2000      # spans written to layers.json per workload


def _set_up(workload_name: str, seed: int):
    """Import the package and do the workload's one-off work.

    Returns the workload, the host-speed probe and the set-up time in
    nominal seconds, or None for an unknown workload.  The probe is timed
    after the set-up, once numpy is loaded, and is not part of it.
    """
    t0 = time.perf_counter()
    import workloads
    if workload_name not in workloads.WORKLOADS:
        return None
    wl = workloads.WORKLOADS[workload_name](seed)
    wl.prepare()
    seconds = time.perf_counter() - t0
    from hostspeed import HostSpeedProbe
    probe = HostSpeedProbe()
    return wl, probe, seconds * probe.scale()


def _setup_in_fresh_process(workload_name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload_name, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _environment() -> dict:
    import numpy as np
    return {"numpy": np.__version__, "python": sys.version.split()[0],
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "cpus": os.cpu_count(), "git_sha": _git_sha()}


def _timed_rounds(wl, probe, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate untraced / traced so that the two call
    times can be compared for the tracing overhead.
    """
    results, times, scales, items, traced = [], [], [], [], []
    start = time.perf_counter()
    index = 1  # round 0 was the warm-up
    last_forced = 2 if tracer is not None else 1
    while index <= last_forced or time.perf_counter() - start < seconds:
        on = tracer is not None and index % 2 == 0
        for thunk, n_items in wl.round(index):
            scales.append(probe.scale())
            if on:
                tracer.install()
            t = time.perf_counter()
            try:
                res = tracer.call(thunk) if on else thunk()
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"# call failed: {exc!r}", file=sys.stderr)
                res = None
            finally:
                times.append(time.perf_counter() - t)
                if on:
                    tracer.uninstall()
            results.append(res)
            items.append(n_items)
            traced.append(on)
        index += 1
    return results, times, scales, items, traced


def _call_failures(wl, results) -> list[bool]:
    """True for every call that raised or whose output failed its check."""
    if any(r is None for r in results):
        # check whole rounds of completed calls only
        ok = []
        step = wl.round_size
        for i in range(0, len(results), step):
            chunk = results[i:i + step]
            ok.extend(wl.check_calls(chunk) if None not in chunk
                      else [False] * len(chunk))
    else:
        ok = wl.check_calls(results)
    return [not good for good in ok]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import and set up, print the seconds it took")
    args = p.parse_args(argv)

    if not (SRC / "chaoslab").is_dir():
        print(f"chaoslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    set_up = _set_up(args.workload, args.seed)
    if set_up is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl, probe, first_setup = set_up
    if args.setup_only:
        print(repr(first_setup))
        return 0

    # untimed warm-up call: lazy imports and first-touch allocations
    wl.round(0)[0][0]()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    results, times, scales, items, traced = _timed_rounds(
        wl, probe, args.seconds, tracer)
    nominal = [t * s for t, s in zip(times, scales)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_checks = wl.check_run()
    failures = _call_failures(wl, results)
    correct = all(ok for _, ok, _ in run_checks)
    for name, ok, detail in run_checks:
        if not ok:
            print(f"# check failed: {name}: {detail}", file=sys.stderr)
    good = [(t, n) for t, n, bad in zip(nominal, items, failures) if not bad]

    env = _environment()
    if args.trace:
        from tracing import layer_metrics
        on = [t for t, tr in zip(nominal, traced) if tr]
        off = [t for t, tr in zip(nominal, traced) if not tr]
        layers = layer_metrics(tracer, [s for s, tr in zip(scales, traced) if tr])
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(on) / statistics.median(off) - 1.0)
        metrics = {k: {"value": v, "unit": "%" if k.endswith("_pct") else
                       "s" if k.endswith("_s") else "count"}
                   for k, v in layers.items()}
        _write_layers(args, env, metrics, tracer, len(on), len(off))
    else:
        setups = [first_setup] + [
            _setup_in_fresh_process(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": {"value": statistics.median(t for t, _ in good) if good
                       else float("nan"), "unit": "s"},
            "samples_per_s": {"value": sum(n for _, n in good)
                              / sum(t for t, _ in good) if good else 0.0,
                              "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print("# calls " + json.dumps({"wall": times, "scale": scales}))
    print("# env " + json.dumps(env))
    print("# checks " + json.dumps([[n, ok, d] for n, ok, d in run_checks]))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": sum(failures), "metrics": metrics}))
    return 0


def _write_layers(args, env, metrics, tracer, n_traced, n_untraced):
    OUT.mkdir(exist_ok=True)
    path = OUT / "layers.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[args.workload] = {
        "seed": args.seed, "seconds": args.seconds, "env": env,
        "traced_calls": n_traced, "untraced_calls": n_untraced,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "spans_recorded": len(tracer.spans),
        "spans": tracer.sample_spans(SPAN_SAMPLE),
    }
    path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
