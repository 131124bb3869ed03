#!/usr/bin/env bash
# Runs each named benchmark workload for about a second, untraced, at one
# seed, and fails unless every call was correct and none failed.
# usage: .github/scripts/bench_smoke.sh SEED WORKLOAD...
set -euo pipefail
seed=$1
shift
for w in "$@"; do
  line=$(python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
  echo "$w seed $seed: $line"
  echo "$line" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
done
