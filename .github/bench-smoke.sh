# Short runs of every benchmark workload; run with `bash -e`.
#
# Usage: bash -e .github/bench-smoke.sh SECONDS TRACE SEED...
#
# Runs bench/run.py for SECONDS at each SEED with --trace TRACE (0 or 1),
# seeds outer and workloads inner. The last line of every run must report
# correct results and no failed operations.
seconds=$1
trace=$2
shift 2
for seed in "$@"; do
  for w in sweep-noisy sweep-feedforward sweep-large infer-feedforward calibrate; do
    last=$(python3 bench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" | tail -n 1)
    echo "$w seed $seed trace $trace: $last"
    echo "$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
  done
done
