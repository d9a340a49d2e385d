#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 build+tests, the stand-alone
# benchmark package, and the perf gate. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, -D warnings; carries the determinism and panic-hygiene rules, see clippy.toml)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> vod-obs in release: the JSONL number writer against Display on ~20 M inputs (~200 k in the debug run above)"
cargo test --release -q -p vod-obs

echo "==> benchmark/ builds and passes its tests offline against the workspace crates, tree untouched"
# The benchmark package is outside the workspace, so nothing above
# compiles it: a removed or renamed pub item it calls, or a dependency
# change that makes cargo rewrite benchmark/Cargo.lock, only shows here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Its unit tests too: one asserts BENCHMARK.json equals `vod-benchmark manifest`.
(cd benchmark && cargo test --release --offline -q)
# And actually run four workloads, both trace modes (a few seconds;
# output lands in the git-ignored benchmark/out/): the step tracer
# matches on `Event` variants, which only a run exercises.
# steady_traced as well: the only workload that carries JsonlWriter +
# TimeSeriesSink and the obs.series_record_ns layer driver. And
# grnet_diurnal: 1.9 M polls and refreshes, the workload the periodic
# path is measured on. And gnp200_remote: 200 servers, the widest
# replica catalog, and the only multi-hop routing workload.
for workload in backbone_contended steady_traced grnet_diurnal gnp200_remote; do
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

echo "==> vod-check audit --grnet (GRNET case study replays clean in-process through AuditSink; the file audits below cover the JSONL reader)"
cargo run -q --release -p vod-check -- audit --grnet

echo "==> rustdoc (no broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "==> E13/E15 chaos smoke (fault plan + retry sweep; trace and series audit clean)"
tmp="$(mktemp -d -t vod-ci-XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release -p vod-bench --bin ext_chaos -- \
  --trace "$tmp/chaos.jsonl" --series "$tmp/chaos.series.json" > /dev/null
cargo run -q --release -p vod-check -- audit --series "$tmp/chaos.series.json" "$tmp/chaos.jsonl"

echo "==> E11 observability flags (experiments: trace and series audit clean, --metrics report written)"
cargo run -q --release -p vod-bench --bin experiments -- --trace "$tmp/cs.jsonl" \
  --metrics "$tmp/cs.json" --series "$tmp/cs.series.json" --stats > /dev/null
cargo run -q --release -p vod-check -- audit --series "$tmp/cs.series.json" "$tmp/cs.jsonl"
test -s "$tmp/cs.json"

echo "==> E14 scale smoke (10^5 concurrent sessions, trace audits clean)"
cargo run -q --release -p vod-bench --bin scale -- \
  --json "$tmp/sim.json" --trace "$tmp/scale.jsonl"
cargo run -q --release -p vod-check -- audit "$tmp/scale.jsonl"

echo "==> fresh bench rows (E17 proxy pair; paper-mode work counters; routing engine, flow kernel and obs benches)"
cargo run -q --release -p vod-bench --bin ext_proxy -- --json "$tmp/proxy.json" > /dev/null
cargo run -q --release -p vod-bench --bin paper_counters -- --json "$tmp/paper.json" > /dev/null
CRITERION_JSON="$tmp/routing.json" cargo bench -q --bench routing_engine > /dev/null
CRITERION_JSON="$tmp/kernel.json" cargo bench -q --bench sim_kernel > /dev/null
CRITERION_JSON="$tmp/obs.json" cargo bench -q --bench obs > /dev/null

echo "==> perf gate (every fresh row vs its committed BENCH_*.json row)"
# The one gate. A baseline row is {id, value, direction, limit, why}:
# the fresh value may be `limit` times worse than `value` and no more;
# a baseline row missing from its fresh file, a fresh row with no
# baseline row and a timing of 0 ns fail too, so "measured" and
# "gated" are the same set. The limits come in three sizes, and `why`
# names what the row guards and any reason to depart from them:
#   1.0   exact for seed 42 (session and event counts, the E17 pair,
#         the paper-mode work counters): fails on any host, however
#         noisy.
#   1.75  an iteration takes milliseconds (the scale run, a poll's
#         worth of gnp200 re-selection): identical runs on this shared
#         host differ by up to 1.7x.
#   3.0   a ns-to-us loop, measured as the median of twenty 2 ms
#         samples: one stalled sample no longer shows, but a burst from
#         a neighbouring container covers all 40 ms, and whole rows have
#         read 2.0-2.7x high for minutes. It catches a cliff, not a
#         drift. 4.0 for the three rows under 100 ns that
#         a floor used to mute, 2.5 for queue/hold_400k.
# Timing baselines are the median of nine runs of the producers above
# (seven for BENCH_paper.json), with the extremes kept as min/max. To
# re-record a row, copy its fresh value in and leave the limit alone.
cargo run -q --release -p vod-bench -- compare \
  BENCH_sim.json "$tmp/sim.json" \
  BENCH_proxy.json "$tmp/proxy.json" \
  BENCH_paper.json "$tmp/paper.json" \
  BENCH_routing.json "$tmp/routing.json" \
  BENCH_kernel.json "$tmp/kernel.json" \
  BENCH_obs.json "$tmp/obs.json"

echo "CI OK"
