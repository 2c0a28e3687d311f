#!/usr/bin/env bash
# The full local gate: formatting, clippy and rustdoc (warnings are
# errors), the project's own static-analysis pass, and the test suite. Run
# before pushing; CI runs the same steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Intra-doc links must resolve: a doc that names a deleted or private item
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> ch-lint (text + JSON artifact + explain smoke)"
cargo run -q -p ch-analysis --bin ch-lint
# The machine-readable run doubles as the CI artifact. On a clean tree the
# findings array must be empty — pin that, not just the exit code.
lint_dir="target/ci-lint"
mkdir -p "$lint_dir"
cargo run -q -p ch-analysis --bin ch-lint -- --format json \
  > "$lint_dir/findings.json"
grep -q '"findings":\[\]' "$lint_dir/findings.json"
# --explain must know every advertised rule.
cargo run -q -p ch-analysis --bin ch-lint -- --explain hot-path-alloc \
  | grep -q 'Escape:'

echo "==> cargo test"
# Invariant checks (ch_invariant!) are active in debug builds, which is
# what `cargo test` uses, so the whole suite runs with them on.
cargo test -q --workspace

echo "==> cargo test --release (ch_invariant! checks opted back in)"
# Release codegen, as every benchmark and artifact run builds it, with the
# documented `debug-invariants` opt-in so the invariant corruption tests
# still fire. Index arithmetic can behave differently under optimization.
cargo test --release -q --workspace --features ch-sim/debug-invariants

echo "==> benchmark package (build + tests)"
# The benchmark is a cargo workspace of its own that calls ch-attack and
# ch-arc APIs directly: an API change that breaks it fails here, not in
# the next benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked \
  --manifest-path benchmark/Cargo.toml

# The middle of three numbers: each scaling gate reads the median of its
# three alternating serial/parallel pairs, so one pair timed on a slow
# stretch of a shared host cannot fail it alone.
median3() {
  printf '%s\n' "$@" | sort -g | sed -n 2p
}

echo "==> fleet smoke (full fig5 campaign: serial, 2 jobs, cached rerun; committed manifests)"
# End-to-end check of the campaign engine through a real binary: the
# 48-job Fig. 5 campaign runs serial (the speedup reference), fresh at 2
# jobs (must print identical bytes), then again against the same
# manifest — the third run must resume fully from cache and print the
# same figure. The full campaign (about 1 s serial) keeps the scaling
# gate below a measurement of scaling: on a tiny one, starting the
# worker threads costs as much as the work.
smoke_dir="target/ci-fleet-smoke"
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
smoke_args=(fig5 1 --minutes 60)
cargo run -q --release -p ch-bench --bin experiment -- "${smoke_args[@]}" --jobs 1 \
  --manifest "$smoke_dir/fleet_fig5_serial.jsonl" \
  > "$smoke_dir/run0.txt" 2> "$smoke_dir/run0.log"
grep -q '48 executed, 0 cached, 0 failed' "$smoke_dir/run0.log"
cargo run -q --release -p ch-bench --bin experiment -- "${smoke_args[@]}" --jobs 2 \
  --manifest "$smoke_dir/fleet_fig5.jsonl" \
  > "$smoke_dir/run1.txt" 2> "$smoke_dir/run1.log"
grep -q '48 executed, 0 cached, 0 failed' "$smoke_dir/run1.log"
cmp "$smoke_dir/run0.txt" "$smoke_dir/run1.txt"
cargo run -q --release -p ch-bench --bin experiment -- "${smoke_args[@]}" --jobs 2 \
  --manifest "$smoke_dir/fleet_fig5.jsonl" \
  > "$smoke_dir/run2.txt" 2> "$smoke_dir/run2.log"
grep -q '0 executed, 48 cached, 0 failed' "$smoke_dir/run2.log"
cmp "$smoke_dir/run1.txt" "$smoke_dir/run2.txt"
# Pairs 2 and 3 of the scaling gate (run0/run1 are pair 1): pair 2 runs
# its parallel leg first, pair 3 its serial leg, each on a fresh
# manifest so neither comes from cache.
for pair in 2 3; do
  if [ "$pair" = 2 ]; then order="2 1"; else order="1 2"; fi
  for j in $order; do
    leg="pair${pair}_j$j"
    cargo run -q --release -p ch-bench --bin experiment -- "${smoke_args[@]}" --jobs "$j" \
      --manifest "$smoke_dir/fleet_fig5_$leg.jsonl" \
      > "$smoke_dir/$leg.txt" 2> "$smoke_dir/$leg.log"
    grep -q '48 executed, 0 cached, 0 failed' "$smoke_dir/$leg.log"
  done
done
# Scaling gate: with the build-once campaign context and worker-local
# scratch, the parallel leg must never be slower than serial (hard
# floor 1.0x on the median of the three pairs' ratios; the ≥0.7×N
# target stays report-only). Every fresh leg's stderr status line ends
# `… on N thread(s) in M ms`. The engine clamps
# spawned workers at the machine's parallelism, so on a single-core
# host the --jobs 2 leg runs one worker and there is no scaling to
# gate — assert the clamp itself instead.
fleet_status='s/^fleet: campaign .* on \([0-9]*\) thread(s) in \([0-9]*\) ms$/\1 \2/p'
read -r _ serial_ms <<< "$(sed -n "$fleet_status" "$smoke_dir/run0.log")"
read -r threads par_ms <<< "$(sed -n "$fleet_status" "$smoke_dir/run1.log")"
test -n "$serial_ms" && test -n "$threads" && test -n "$par_ms"
test "$threads" -le "$(nproc)"
ratios=("$(awk -v a="$serial_ms" -v b="$par_ms" 'BEGIN { print a / (b > 0 ? b : 1) }')")
for pair in 2 3; do
  read -r _ serial_ms <<< "$(sed -n "$fleet_status" "$smoke_dir/pair${pair}_j1.log")"
  read -r _ par_ms <<< "$(sed -n "$fleet_status" "$smoke_dir/pair${pair}_j2.log")"
  test -n "$serial_ms" && test -n "$par_ms"
  ratios+=("$(awk -v a="$serial_ms" -v b="$par_ms" 'BEGIN { print a / (b > 0 ? b : 1) }')")
done
speedup=$(median3 "${ratios[@]}")
echo "scaling: fig5 pair ratios ${ratios[*]}; median ${speedup}x"
if [ "$threads" -ge 2 ]; then
  echo "scaling: fig5 --jobs 2 ran ${speedup}x vs serial ($threads workers; gate: >= 1.0)"
  awk -v s="$speedup" 'BEGIN { exit !(s >= 1.0) }'
  awk -v s="$speedup" -v n="$threads" 'BEGIN { exit !(s >= 0.7 * n) }' \
    || echo "scaling: below the 0.7xN target (report-only)"
else
  echo "scaling: single-core host, --jobs 2 clamped to 1 worker (${speedup}x vs serial, report-only)"
fi
# The committed manifests must still decode: each campaign, resumed from a
# copy of its manifest, runs nothing, prints the committed artifact, and
# leaves the copy as it was. (The drift leg below regenerates with --fresh,
# so it cannot notice a record format that stopped reading these files.)
for committed in fig5:48 ablation:14 warm_start:4; do
  id=${committed%%:*}
  jobs=${committed##*:}
  cp "results/fleet_$id.jsonl" "$smoke_dir/committed_$id.jsonl"
  cargo run -q --release -p ch-bench --bin experiment -- "$id" 1 \
    --manifest "$smoke_dir/committed_$id.jsonl" \
    > "$smoke_dir/committed_$id.txt" 2> "$smoke_dir/committed_$id.log"
  grep -q "0 executed, $jobs cached, 0 failed" "$smoke_dir/committed_$id.log"
  cmp "$smoke_dir/committed_$id.txt" "results/$id.txt"
  cmp "$smoke_dir/committed_$id.jsonl" "results/fleet_$id.jsonl"
done
# A fig5 run the committed manifest does not hold (another seed, hour and
# length) without --manifest must run in memory and leave that file as it
# was, not rewrite it under its own fingerprint.
cp results/fleet_fig5.jsonl "$smoke_dir/committed_fig5_before.jsonl"
cargo run -q --release -p ch-bench --bin experiment -- fig5 2 --hours 8 --minutes 5 \
  > "$smoke_dir/other_fig5.txt" 2> "$smoke_dir/other_fig5.log"
grep -q '4 executed, 0 cached, 0 failed' "$smoke_dir/other_fig5.log"
cmp "$smoke_dir/committed_fig5_before.jsonl" results/fleet_fig5.jsonl

echo "==> registry smoke (experiment --list, torn-manifest resume)"
# The unified driver must list every artifact, and a table-class campaign
# must survive a torn manifest: run table1 fresh, chop the final manifest
# line mid-record (a killed run's torn write), re-run — the engine must
# redo exactly the torn job, reuse the intact one, and print identical
# bytes.
cargo run -q --release -p ch-bench --bin experiment -- --list \
  > "$smoke_dir/list.txt"
for id in table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6 arms_race \
  defense defense_live; do
  grep -q "^  $id " "$smoke_dir/list.txt"
done
t1_args=(table1 1 --manifest "$smoke_dir/fleet_table1.jsonl")
cargo run -q --release -p ch-bench --bin experiment -- "${t1_args[@]}" \
  > "$smoke_dir/t1_run1.txt" 2> "$smoke_dir/t1_run1.log"
grep -q '2 executed, 0 cached, 0 failed' "$smoke_dir/t1_run1.log"
manifest="$smoke_dir/fleet_table1.jsonl"
truncate -s $(( $(stat -c%s "$manifest") - 20 )) "$manifest"
cargo run -q --release -p ch-bench --bin experiment -- "${t1_args[@]}" \
  > "$smoke_dir/t1_run2.txt" 2> "$smoke_dir/t1_run2.log"
grep -q '1 executed, 1 cached, 0 failed' "$smoke_dir/t1_run2.log"
cmp "$smoke_dir/t1_run1.txt" "$smoke_dir/t1_run2.txt"

echo "==> perfbench smoke (quick mode, run twice, byte-identical JSON)"
# The hot-path perf gate: alloc medians must be zero (perfbench asserts
# this itself) and the JSON must be bit-identical across two runs — the
# determinism property that lets results/BENCH_hotpath.json live in git.
perf_dir="target/ci-perfbench"
rm -rf "$perf_dir"
mkdir -p "$perf_dir"
cargo run -q --release -p ch-bench --bin perfbench -- --quick \
  --out "$perf_dir/run1.json" > /dev/null
cargo run -q --release -p ch-bench --bin perfbench -- --quick \
  --out "$perf_dir/run2.json" > /dev/null
cmp "$perf_dir/run1.json" "$perf_dir/run2.json"

echo "==> committed-artifact drift (regenerate results/, byte-compare)"
# The committed artifacts must be exactly what the code prints today: every
# results/*.txt is regenerated from a fresh manifest and compared byte for
# byte, and so is the full-mode hot-path JSON. The fleet smoke's serial run
# is the fig5 campaign at its defaults, so it stands in for fig5.
drift_dir="target/ci-drift"
rm -rf "$drift_dir"
mkdir -p "$drift_dir"
cmp "$smoke_dir/run0.txt" results/fig5.txt
for artifact in results/*.txt; do
  id=$(basename "$artifact" .txt)
  test "$id" = fig5 && continue
  cargo run -q --release -p ch-bench --bin experiment -- "$id" \
    --manifest "$drift_dir/$id.jsonl" --fresh \
    > "$drift_dir/$id.txt" 2> "$drift_dir/$id.log"
  cmp "$drift_dir/$id.txt" "$artifact"
done
cargo run -q --release -p ch-bench --bin perfbench -- \
  --out "$drift_dir/BENCH_hotpath.json" > /dev/null
cmp "$drift_dir/BENCH_hotpath.json" results/BENCH_hotpath.json

echo "==> city smoke (sharded day: shard-count byte-identity, events/sec, scaling)"
# The city-scale gate: the quick city must render byte-identically at
# shard counts 1, 4 and 16 and across worker widths (shards are an
# execution arrangement, never a semantic one), and report wall-clock
# events/sec on stderr.
city_dir="target/ci-city-smoke"
rm -rf "$city_dir"
mkdir -p "$city_dir"
cargo run -q --release -p ch-bench --bin experiment -- city 1 --quick --shards 1 --jobs 1 \
  > "$city_dir/s1.txt" 2> "$city_dir/s1.log"
for s in 4 16; do
  cargo run -q --release -p ch-bench --bin experiment -- city 1 --quick --shards "$s" \
    > "$city_dir/s$s.txt" 2> "$city_dir/s$s.log"
  cmp "$city_dir/s1.txt" "$city_dir/s$s.txt"
done
cargo run -q --release -p ch-bench --bin experiment -- city 1 --quick --shards 4 --jobs 4 \
  > "$city_dir/j4.txt" 2> "$city_dir/j4.log"
cmp "$city_dir/s1.txt" "$city_dir/j4.txt"
grep -q 'events/sec (wall-clock)' "$city_dir/s1.log"
# City scaling gate: the 16-district hour (every venue meets every
# attacker; about 0.5 s serial, long enough that thread start-up cannot
# decide the ratio) runs at --jobs 1 and --jobs 2, must render the same
# bytes, and the 2-worker leg must never be slower than serial (hard
# floor 1.0x on the median of three alternating pairs' ratios; the
# >=0.7xN target stays report-only). Each leg's stderr status line
# carries `… M ms wall (S shards, W jobs)`. On a single-core
# host the --jobs 2 leg is clamped to one worker: assert the clamp
# instead, as the fleet smoke does.
city_gate=(city 1 --districts 16 --minutes 60)
for j in 1 2; do
  cargo run -q --release -p ch-bench --bin experiment -- "${city_gate[@]}" --jobs "$j" \
    > "$city_dir/gate_j$j.txt" 2> "$city_dir/gate_j$j.log"
done
cmp "$city_dir/gate_j1.txt" "$city_dir/gate_j2.txt"
# Pairs 2 and 3, alternating which leg runs first, as in the fleet smoke.
for pair in 2 3; do
  if [ "$pair" = 2 ]; then order="2 1"; else order="1 2"; fi
  for j in $order; do
    leg="pair${pair}_j$j"
    cargo run -q --release -p ch-bench --bin experiment -- "${city_gate[@]}" --jobs "$j" \
      > "$city_dir/$leg.txt" 2> "$city_dir/$leg.log"
  done
done
city_status='s/^city: .* | \([0-9]*\) ms wall ([0-9]* shards, \([0-9]*\) jobs).*/\1 \2/p'
read -r serial_ms _ <<< "$(sed -n "$city_status" "$city_dir/gate_j1.log")"
read -r par_ms city_threads <<< "$(sed -n "$city_status" "$city_dir/gate_j2.log")"
test -n "$serial_ms" && test -n "$par_ms" && test -n "$city_threads"
test "$city_threads" -le "$(nproc)"
city_ratios=("$(awk -v a="$serial_ms" -v b="$par_ms" 'BEGIN { printf "%.2f", a / (b > 0 ? b : 1) }')")
for pair in 2 3; do
  read -r serial_ms _ <<< "$(sed -n "$city_status" "$city_dir/pair${pair}_j1.log")"
  read -r par_ms _ <<< "$(sed -n "$city_status" "$city_dir/pair${pair}_j2.log")"
  test -n "$serial_ms" && test -n "$par_ms"
  city_ratios+=("$(awk -v a="$serial_ms" -v b="$par_ms" 'BEGIN { printf "%.2f", a / (b > 0 ? b : 1) }')")
done
city_speedup=$(median3 "${city_ratios[@]}")
echo "scaling: city pair ratios ${city_ratios[*]}; median ${city_speedup}x"
if [ "$city_threads" -ge 2 ]; then
  echo "scaling: city --jobs 2 ran ${city_speedup}x vs serial ($city_threads workers; gate: >= 1.0)"
  awk -v s="$city_speedup" 'BEGIN { exit !(s >= 1.0) }'
  awk -v s="$city_speedup" -v n="$city_threads" 'BEGIN { exit !(s >= 0.7 * n) }' \
    || echo "scaling: below the 0.7xN target (report-only)"
else
  echo "scaling: single-core host, city --jobs 2 clamped to 1 worker (${city_speedup}x vs serial, report-only)"
fi

echo "==> chaos smoke (faults study, serial vs parallel, byte-identical)"
# The fault-injection gate: every attacker under burst loss, corruption,
# churn and scheduled crashes, with the injected transient panic
# exercising the fleet retry policy. The faulted campaign must stay
# bit-identical at any worker width.
chaos_dir="target/ci-chaos-smoke"
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
cargo run -q --release -p ch-bench --bin experiment -- faults 1 --quick --jobs 1 \
  > "$chaos_dir/serial.txt" 2> "$chaos_dir/serial.log"
grep -q '15 executed, 0 cached, 0 failed, 3 retried' "$chaos_dir/serial.log"
cargo run -q --release -p ch-bench --bin experiment -- faults 1 --quick --jobs 4 \
  > "$chaos_dir/parallel.txt" 2> "$chaos_dir/parallel.log"
grep -q '15 executed, 0 cached, 0 failed, 3 retried' "$chaos_dir/parallel.log"
cmp "$chaos_dir/serial.txt" "$chaos_dir/parallel.txt"
grep -q 'graceful degradation' "$chaos_dir/serial.txt"

echo "==> arms-race smoke (detector study, serial vs parallel, byte-identical)"
# The detection gate: every attacker under every evasion posture against
# the ch-detect monitor at three strictness levels. Like the chaos smoke,
# the campaign must stay bit-identical at any worker width — the detector
# observes the frame stream without consuming randomness.
arms_dir="target/ci-arms-smoke"
rm -rf "$arms_dir"
mkdir -p "$arms_dir"
cargo run -q --release -p ch-bench --bin experiment -- arms_race 1 --quick --jobs 1 \
  > "$arms_dir/serial.txt" 2> "$arms_dir/serial.log"
grep -q '36 executed, 0 cached, 0 failed' "$arms_dir/serial.log"
cargo run -q --release -p ch-bench --bin experiment -- arms_race 1 --quick --jobs 4 \
  > "$arms_dir/parallel.txt" 2> "$arms_dir/parallel.log"
grep -q '36 executed, 0 cached, 0 failed' "$arms_dir/parallel.log"
cmp "$arms_dir/serial.txt" "$arms_dir/parallel.txt"
grep -q 'stealth cost' "$arms_dir/serial.txt"

echo "==> defense smoke (countermeasure study, serial vs parallel, byte-identical)"
# The §VI countermeasure study is an ordinary ch-scenarios fleet campaign:
# frames to the first ch-detect verdict per attacker generation must print
# the same bytes at any worker width.
defense_dir="target/ci-defense-smoke"
rm -rf "$defense_dir"
mkdir -p "$defense_dir"
cargo run -q --release -p ch-bench --bin experiment -- defense 1 --jobs 1 \
  > "$defense_dir/serial.txt" 2> "$defense_dir/serial.log"
grep -q '4 executed, 0 cached, 0 failed' "$defense_dir/serial.log"
cargo run -q --release -p ch-bench --bin experiment -- defense 1 --jobs 2 \
  > "$defense_dir/parallel.txt" 2> "$defense_dir/parallel.log"
grep -q '4 executed, 0 cached, 0 failed' "$defense_dir/parallel.log"
cmp "$defense_dir/serial.txt" "$defense_dir/parallel.txt"

echo "==> serve chaos smoke (kill -9 mid-stream, recover, byte-identical)"
# The crash-safety gate for the ch-serve streaming service: an
# uninterrupted checkpointed run is the ground truth; a throttled twin is
# kill -9'ed mid-stream, restarted with the identical command, and must
# recover warm from its checkpoint, replay the remainder, and produce a
# byte-identical output stream, final report and last checkpoint.
# Shedding stays an explicit counted stat (pinned in the report), and the
# recovery path is announced on stderr, never silently taken.
serve_dir="target/ci-serve-smoke"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
# Run the binary directly (not through `cargo run`) so kill -9 hits the
# service process itself rather than a cargo wrapper.
cargo build -q --release -p ch-serve
serve_bin="target/release/ch-serve"
# serve_kill_recover DIR ATTACKER: the ground-truth run, the kill -9, the
# warm recovery and the three cmps, for one attacker generation.
serve_kill_recover() {
  local dir="$1"
  local serve_args=(--attacker "$2" --evasive --seed 11 --duration-mins 10
    --checkpoint-every 64 --stats-every 128)
  "$serve_bin" "${serve_args[@]}" \
    --out "$dir/base.ndjson" --report "$dir/base.json" \
    --checkpoint "$dir/base.ckpt" 2> "$dir/base.log"
  local chaos_cmd=("$serve_bin" "${serve_args[@]}"
    --out "$dir/chaos.ndjson" --report "$dir/chaos.json"
    --checkpoint "$dir/chaos.ckpt")
  "${chaos_cmd[@]}" --throttle-ms 2 2> "$dir/kill.log" &
  local serve_pid=$!
  sleep 1.5
  kill -9 "$serve_pid" 2> /dev/null || true
  wait "$serve_pid" 2> /dev/null || true
  test -s "$dir/chaos.ckpt"   # the kill must land after a checkpoint
  "${chaos_cmd[@]}" 2> "$dir/recover.log"
  grep -q 'recovered warm from checkpoint' "$dir/recover.log"
  cmp "$dir/base.ndjson" "$dir/chaos.ndjson"
  cmp "$dir/base.json" "$dir/chaos.json"
  # The recovered run's last checkpoint equals the uninterrupted run's:
  # attacker state survives save -> JSON -> load -> save after a real kill.
  cmp "$dir/base.ckpt" "$dir/chaos.ckpt"
}
serve_kill_recover "$serve_dir" cityhunter
grep -q '"shed":' "$serve_dir/base.json"
# MANA keeps a different state (the harvest and its replay order), so
# its checkpoint gets the same real kill.
mkdir -p "$serve_dir/mana"
serve_kill_recover "$serve_dir/mana" mana

echo "ci.sh: all gates passed"
