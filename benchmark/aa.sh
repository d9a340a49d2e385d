#!/usr/bin/env bash
# A/A check: the whole benchmark twice on the same tree at one seed
# (set A, set B). Fails if an end-to-end metric of B is outside its
# bound relative to A, or if an exact quantity differs at all.
#
#   benchmark/aa.sh [seed]        (default 42; ~4 min)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
out=benchmark/out
mkdir -p "$out"

for set in A B; do
  echo "==> set $set (seed $seed)"
  cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --seed "$seed" --out "$out/aa-$set.json" > "$out/aa-$set.txt" \
    || { tail -n 20 "$out/aa-$set.txt"; echo "set $set failed its own checks"; exit 1; }
done

python3 - "$out/aa-A.json" "$out/aa-B.json" <<'PY'
import json, sys

a, b = (json.load(open(path))["workloads"] for path in sys.argv[1:3])
# set-up is 0.4-150 ms: below 10 ms of change a relative bound only
# measures the scheduler.
ABSOLUTE_FLOOR = {"setup_s": 0.010}
failures = []
for workload in a:
    print(f"\n{workload}")
    print(f"  {'metric':<18}{'unit':<7}{'A':>14}{'B':>14}{'B worse by':>12}{'bound':>8}")
    for name, ma in a[workload]["end_to_end"].items():
        va, vb = ma["value"], b[workload]["end_to_end"][name]["value"]
        worse = (vb - va) / va if ma["better"] == "lower" else (va - vb) / va
        outside = worse > ma["bound"] and abs(vb - va) > ABSOLUTE_FLOOR.get(name, 0.0)
        print(f"  {name:<18}{ma['unit']:<7}{va:>14.6f}{vb:>14.6f}{worse:>+12.2%}{ma['bound']:>8.0%}"
              + ("  OUTSIDE" if outside else ""))
        if outside:
            failures.append(f"{workload}: {name} {va} -> {vb}")
    for name, va in a[workload]["exact"].items():
        vb = b[workload]["exact"][name]
        print(f"  {name:<25}{va!r:>21}{vb!r:>21}" + ("" if va == vb else "  DIFFERS"))
        if va != vb:
            failures.append(f"{workload}: {name} {va!r} != {vb!r}")

print()
for failure in failures:
    print("A/A FAILED:", failure)
if failures:
    sys.exit(1)
print("A/A passed: every end-to-end metric within its bound, every exact quantity identical")
PY
