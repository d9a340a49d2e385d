#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 build+tests, the stand-alone
# benchmark package, and the perf-regression gates. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> benchmark/ builds and passes its tests offline against the workspace crates, tree untouched"
# The benchmark package is outside the workspace, so nothing above
# compiles it: a removed or renamed pub item it calls, or a dependency
# change that makes cargo rewrite benchmark/Cargo.lock, only shows here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Its unit tests too: one asserts BENCHMARK.json equals `vod-benchmark manifest`.
(cd benchmark && cargo test --release --offline -q)
# And actually run three workloads, both trace modes (a few seconds;
# output lands in the git-ignored benchmark/out/): the step tracer
# matches on `Event` variants, which only a run exercises.
# steady_traced as well: the only workload that carries JsonlWriter +
# TimeSeriesSink and the obs.series_record_ns layer driver. And
# grnet_diurnal: 1.9 M polls and refreshes, the workload the periodic
# path is measured on.
for workload in backbone_contended steady_traced grnet_diurnal; do
  for trace in 0 1; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed 42 --seconds 1 --trace "$trace" > /dev/null
  done
done
git diff --quiet -- benchmark BENCHMARK.json || { echo "the build, tests or smoke run modified tracked files under benchmark/" >&2; exit 1; }

echo "==> benches compile (cargo bench --no-run)"
cargo bench --no-run

echo "==> trace determinism (golden JSONL test)"
cargo test -q -p vod-integration-tests --test observability

echo "==> series determinism (golden --series test)"
cargo test -q -p vod-integration-tests --test series

echo "==> vod-check lint (zero findings, zero stale allowlist entries)"
cargo run -q --release -p vod-check -- lint

echo "==> vod-check analyze (panic-reachability, determinism)"
cargo run -q --release -p vod-check -- analyze

echo "==> vod-check audit (GRNET case-study trace replays clean)"
cargo run -q --release -p vod-check -- audit --grnet

echo "==> E13/E15 chaos smoke (fault plan + retry sweep; trace and series audit clean)"
chaos_trace="$(mktemp -t chaos-XXXXXX.jsonl)"
chaos_series="$(mktemp -t chaos-XXXXXX.series.json)"
scale_trace="$(mktemp -t scale-XXXXXX.jsonl)"
scale_json="$(mktemp -t scale-XXXXXX.json)"
analyze_json="$(mktemp -t analyze-XXXXXX.json)"
routing_json="$(mktemp -t routing-XXXXXX.json)"
proxy_json="$(mktemp -t proxy-XXXXXX.json)"
kernel_json="$(mktemp -t kernel-XXXXXX.json)"
trap 'rm -f "$chaos_trace" "$chaos_series" "$scale_trace" "$scale_json" "$analyze_json" "$routing_json" "$proxy_json" "$kernel_json"' EXIT
cargo run -q --release -p vod-bench --bin ext_chaos -- \
  --trace "$chaos_trace" --series "$chaos_series" > /dev/null
cargo run -q --release -p vod-check -- audit --series "$chaos_series" "$chaos_trace"

echo "==> E14 scale smoke (10^5 concurrent sessions, trace audits clean)"
cargo run -q --release -p vod-bench --bin scale -- \
  --gate --json "$scale_json" --trace "$scale_trace"
cargo run -q --release -p vod-check -- audit "$scale_trace"

echo "==> perf-regression gate (fresh scale run vs committed BENCH_sim.json)"
cargo run -q --release -p vod-bench -- compare --json BENCH_sim.json "$scale_json"

echo "==> analyzer wall-time gate (full analyze pass under 2 s, no regression vs BENCH_obs.json)"
cargo run -q --release -p vod-bench --bin check_analyze -- \
  --json "$analyze_json" --gate 2
cargo run -q --release -p vod-bench -- compare --only check/ BENCH_obs.json "$analyze_json"

echo "==> E17 proxy-tier gate (flash-crowd offload + startup vs committed BENCH_proxy.json)"
cargo run -q --release -p vod-bench --bin ext_proxy -- --json "$proxy_json" > /dev/null
cargo run -q --release -p vod-bench -- compare --only proxy/ BENCH_proxy.json "$proxy_json"

echo "==> routing-engine perf gate (fresh bench vs committed BENCH_routing.json)"
# Every row keeps the noise-tolerant 1.75x default. The 500 ns floor
# mutes the ns-scale GRNET rows, which swing 2-3x from cache pressure
# right after the E14 scale run; the row this gate exists for — a poll's
# worth of re-selection on gnp200, milliseconds — is well above it.
CRITERION_JSON="$routing_json" cargo bench -q --bench routing_engine > /dev/null
cargo run -q --release -p vod-bench -- compare --only engine/ --floor-ns 500 \
  BENCH_routing.json "$routing_json"

echo "==> flow-kernel perf gate (contended reallocation, cluster boundary, idle-day ticks and event queues vs committed BENCH_kernel.json)"
# reallocate/*: one backbone arrival + departure at a standing
# population, two settles with a fill each: a thousand flows on GRNET's
# routes (far more flows than route classes) and seven hundred flows on
# as many gnp200 routes (a class per flow, dozens of fill rounds). The
# flow-by-flow kernel these rows replaced measured 915 us and 1 018 us
# against 12 us and 62 us, so the cliff this gate guards is 70x and 16x
# away. boundary/*: a transfer replaced at one instant among those
# seven hundred gnp200 flows, one settle: along its route (no fill,
# 6 us) or along another (one fill, 32 us) - a kernel that refilled per
# mutation again would pay two fills, some 60 us, for either. The 3x
# limit is that wide because the microsecond rows are 40 ms measurements
# that a busy host has been seen to inflate 2.3x right after the routing
# bench. tick/*: one simulated day of refreshes and polls over an idle
# GRNET backbone, 2 160 ticks in some 220 us (440 us before a poll
# became one walk and an idle refresh stopped refilling); per-tick
# work that grew with the horizon or the history again - a front
# removal from a longer history, an allocation per poll - is what 3x
# would catch. queue/*: the hold model (pop the head, reschedule it
# under a second ahead) on the scheduler at the depth of a quiet day
# (150, one plain heap: 53 ns) and of 400 000 live sessions (the
# bucketed regime: 93 ns, against 315-510 ns for the binary heap it
# replaced on the same host, which is why that row is held to 2.5x and
# not 3x), and on the kernel's local completions at 400 000 transfers
# (0.7 us, most of it the kernel's own cache misses on the flows;
# 1.4 us with the heap). hold_150 is there for the shallow regime: a
# queue that paid for its buckets at depth 150 read 8-10 % slower on
# the 3 M-event workloads long before it would trip 3x here, so that
# row only catches a blunder, as the others catch a cliff.
CRITERION_JSON="$kernel_json" cargo bench -q --bench sim_kernel > /dev/null
cargo run -q --release -p vod-bench -- compare --only sim_kernel/reallocate \
  --threshold sim_kernel/reallocate/grnet_shared_1k=3.0 \
  --threshold sim_kernel/reallocate/gnp200_distinct_700=3.0 \
  BENCH_kernel.json "$kernel_json"
cargo run -q --release -p vod-bench -- compare --only sim_kernel/boundary \
  --threshold sim_kernel/boundary/gnp200_distinct_700=3.0 \
  --threshold sim_kernel/boundary/gnp200_switch_700=3.0 \
  BENCH_kernel.json "$kernel_json"
cargo run -q --release -p vod-bench -- compare --only sim_kernel/tick \
  --threshold sim_kernel/tick/grnet_idle_day=3.0 \
  BENCH_kernel.json "$kernel_json"
cargo run -q --release -p vod-bench -- compare --only sim_kernel/queue \
  --threshold sim_kernel/queue/hold_150=3.0 \
  --threshold sim_kernel/queue/hold_400k=2.5 \
  --threshold sim_kernel/queue/completions_400k=3.0 \
  BENCH_kernel.json "$kernel_json"

echo "==> rustdoc (no broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "CI OK"
