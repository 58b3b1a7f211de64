#!/usr/bin/env bash
# Full verification pipeline: configure with warnings-as-errors
# (-Wall -Wextra -Werror via PERA_WERROR), build, run every test, run the
# policy verifier over the paper fixtures, smoke-run every benchmark and
# every example, check the observability JSON export end-to-end, then the
# instrumented passes (clang-tidy if available, ASan+UBSan, TSan).
#
# One command verifies the tree:   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DPERA_WERROR=ON -DPERA_FUZZ=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build
ctest --test-dir build --output-on-failure

# The suite must pass identically with the SHA-256 engine pinned to the
# portable scalar backend — auto dispatch (above) exercises SHA-NI/AVX2
# where the host has them, this run proves the fallback.
echo "== full suite, forced-scalar SHA-256 backend =="
PERA_SHA256_BACKEND=scalar ctest --test-dir build --output-on-failure

echo "== policy verifier fixtures =="
scripts/run_verify_fixtures.sh build

# Fuzz smoke over the attacker-facing input surfaces: under clang these
# are libFuzzer+ASan binaries, under gcc the standalone replay/mutation
# driver — either way the same invocation, bounded to ~30s total.
echo "== fuzz smoke (policy parser + wire decoders + packet parser) =="
build/fuzz/fuzz_copland_parser -max_total_time=15 -runs=200000 \
  tests/fixtures/verify
build/fuzz/fuzz_evidence_decoder -max_total_time=15 -runs=200000 \
  -max_len=1048581 tests/fixtures/fuzz
build/fuzz/fuzz_frame_codec -max_total_time=15 -runs=200000 \
  -max_len=1048581 tests/fixtures/fuzz
build/fuzz/fuzz_evidence_payload -max_total_time=15 -runs=200000 \
  -max_len=1048581 tests/fixtures/fuzz
build/fuzz/fuzz_packet_parser -max_total_time=15 -runs=200000 \
  -max_len=1048581 tests/fixtures/fuzz

for b in build/bench/bench_*; do
  # The six binaries with a committed BENCH_*.json record write it to the
  # cwd by default; each gets a dedicated smoke below with --json pointed
  # into build/, so the baselines aren't clobbered.
  [ "$(basename "$b")" = "bench_throughput" ] && continue
  [ "$(basename "$b")" = "bench_crypto" ] && continue
  [ "$(basename "$b")" = "bench_ctrl" ] && continue
  [ "$(basename "$b")" = "bench_state" ] && continue
  [ "$(basename "$b")" = "bench_net" ] && continue
  [ "$(basename "$b")" = "bench_fleet" ] && continue
  echo "== $b (smoke) =="
  "$b" --benchmark_min_time=0.01 > /dev/null
done

# Crypto engine smoke: once with auto dispatch, once forced-scalar, so
# both the SIMD and fallback code paths execute end to end.
echo "== crypto backend bench (smoke, auto) =="
build/bench/bench_crypto --smoke --json=build/BENCH_crypto.smoke.json \
  > /dev/null
grep -q '"wots_signverify_ops"' build/BENCH_crypto.smoke.json
echo "== crypto backend bench (smoke, forced-scalar) =="
PERA_SHA256_BACKEND=scalar build/bench/bench_crypto --smoke \
  --json=build/BENCH_crypto.smoke-scalar.json > /dev/null
grep -q '"auto_backend": "scalar"' build/BENCH_crypto.smoke-scalar.json

# Reduced-config sweep (1 and 4 shards) with the stage profiler on: the
# bit-identity gate runs inside the bench (nonzero exit on violation),
# and the profile JSON must attribute time to every pipeline stage.
echo "== sharded pipeline bench (smoke) =="
build/bench/bench_throughput --shards=1,4 --packets=512 \
  --json=build/BENCH_throughput.smoke.json \
  --profile-json=build/throughput.profile.json \
  --metrics-json=build/throughput.metrics.json \
  --benchmark_min_time=0.01 > /dev/null
grep -q '"pipeline.shard.packets.0"' build/throughput.metrics.json
grep -q '"sim_packets_per_sec"' build/BENCH_throughput.smoke.json
grep -q '"appraised_flows"' build/BENCH_throughput.smoke.json
for stage in dispatch ring_transit shard_work reassembly wots_verify \
             merge idle; do
  grep -q "\"$stage\"" build/throughput.profile.json
done
grep -q '"accounted_share"' build/throughput.profile.json

# The repo benchmark (perfbench/, declared by BENCHMARK.json): every
# workload at a tiny size, untraced and traced, with its correctness
# checks and metric names asserted by the smoke test itself.
echo "== end-to-end benchmark (smoke) =="
python3 perfbench/smoke_test.py

echo "== control plane bench (smoke) =="
build/bench/bench_ctrl --smoke --json=build/BENCH_ctrl.smoke.json \
  --metrics-json=build/ctrl.metrics.json > /dev/null
grep -q '"detect_ms_mean"' build/BENCH_ctrl.smoke.json
grep -q '"ctrl.quarantine.active"' build/ctrl.metrics.json
grep -q '"ctrl.switches.monitored"' build/ctrl.metrics.json
grep -q '"ctrl.trust.to.Quarantined"' build/ctrl.metrics.json

# Incremental-vs-full digest gates run inside the bench (roots must be
# bit-identical, nonzero exit on mismatch); the greps prove the dirty-leaf
# and dirty-chunk counters actually moved.
echo "== state attestation bench (smoke) =="
build/bench/bench_state --smoke --json=build/BENCH_state.smoke.json \
  --metrics-json=build/state.metrics.json > /dev/null
grep -q '"speedup"' build/BENCH_state.smoke.json
grep -q '"root_match": true' build/BENCH_state.smoke.json
grep -q '"lookup_match": true' build/BENCH_state.smoke.json
grep -q '"dataplane.digest.table.dirty_leaves"' build/state.metrics.json
grep -q '"dataplane.digest.reg.dirty_chunks"' build/state.metrics.json

# Socket-transport gates run inside the bench (≥ all sessions established,
# reactor-shard no-collapse, tampered quote refused); the grep proves the
# committed record has the gate field.
echo "== socket transport bench (smoke) =="
build/bench/bench_net --smoke --json=build/BENCH_net.smoke.json \
  --metrics-json=build/net.metrics.json > /dev/null
grep -q '"bad_quote_rejected": true' build/BENCH_net.smoke.json
grep -q '"net.session.accepted"' build/net.metrics.json

# Real two-process loopback: the appraiser server and a switch attester
# exchange the RA handshake and evidence rounds over TCP; the metrics
# dump must show admitted sessions and appraised rounds.
echo "== socket transport e2e (two processes) =="
rm -f build/pera_net.port
build/tools/pera_net --serve --port-file=build/pera_net.port \
  --exit-after-rounds=3 --duration-ms=30000 \
  --metrics-json=build/pera_net.metrics.json > /dev/null &
NET_SERVE_PID=$!
for _ in $(seq 50); do [ -s build/pera_net.port ] && break; sleep 0.1; done
build/tools/pera_net --switch --port="$(cat build/pera_net.port)" \
  --rounds=3 --mutual > /dev/null
wait "$NET_SERVE_PID"
grep -q '"net.session.accepted":1' build/pera_net.metrics.json
grep -q '"net.server.rounds":3' build/pera_net.metrics.json
build/tools/pera_net --selftest > /dev/null

# Hierarchical appraisal gates run inside the bench (scale, load bound,
# flat-appraisal parity; nonzero exit on violation).
echo "== fleet appraisal bench (smoke) =="
build/bench/bench_fleet --smoke --json=build/BENCH_fleet.smoke.json \
  --metrics-json=build/fleet.metrics.json > /dev/null
grep -q '"gates": "pass"' build/BENCH_fleet.smoke.json
grep -q '"load_ok": true' build/BENCH_fleet.smoke.json
grep -q '"fleet.aggregate.received"' build/fleet.metrics.json

echo "== pera_ctl closed-loop scenario (smoke) =="
build/tools/pera_ctl --seed=42 --loss=0.05 --interval-ms=50 \
  --swap-at-ms=200 --restore-at-ms=1200 --duration-ms=2500 > /dev/null

echo "== pera_fleet hierarchical scenario (smoke) =="
build/tools/pera_fleet --seed=42 --loss=0.01 --switches=24 --fanout=8 \
  --duration-ms=1200 > /dev/null

echo "== tools reject unknown flags =="
for tool in pera_ctl pera_fleet pera_net; do
  rc=0
  "build/tools/$tool" --no-such-flag > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "$tool --no-such-flag exited $rc, want 2"; exit 1; }
done

# The Fig. 4 design-space bench must export a usable metrics dump
# (see docs/OBSERVABILITY.md).
echo "== observability export (smoke) =="
build/bench/bench_fig4_design_space --benchmark_min_time=0.01 \
  --metrics-json=build/fig4.metrics.json > /dev/null
grep -q '"pera.cache.hit"' build/fig4.metrics.json
grep -q '"pera.sign.sim_ns"' build/fig4.metrics.json
grep -q '"pera.wire.bytes.Program"' build/fig4.metrics.json

for ex in build/examples/*; do
  [ -x "$ex" ] && [ -f "$ex" ] || continue
  echo "== $ex =="
  "$ex" > /dev/null
done

# clang-tidy over the library and tool sources (config in .clang-tidy).
# Gated on availability: the local toolchain may be gcc-only, and CI runs
# this stage unconditionally (.github/workflows/ci.yml).
if command -v run-clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy =="
  run-clang-tidy -p build -quiet \
    "$(pwd)/src/.*" "$(pwd)/tools/.*" "$(pwd)/fuzz/.*"
elif command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy =="
  find src tools fuzz -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build --quiet
else
  echo "== clang-tidy: not installed, skipping (CI runs it) =="
fi

# AddressSanitizer + UBSan over the full test suite. Every target is
# built, as in CI's sanitize job: some ctest cases run the bench binaries.
echo "== ASan+UBSan (full suite) =="
cmake -B build-asan -G Ninja -DPERA_WERROR=ON \
  -DPERA_SANITIZE=address,undefined
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure

# ThreadSanitizer pass over the concurrent code: the SPSC rings, the
# seqlock epoch block and the dispatcher/worker threads, the control-plane
# suites (whose obs publishing rides the same atomic registry), and the
# socket transport — epoll reactors, appraiser hand-off, fleet and
# relying-party backend threads.
echo "== ThreadSanitizer (pipeline + control plane) =="
cmake -B build-tsan -G Ninja -DPERA_WERROR=ON -DPERA_SANITIZE=thread
cmake --build build-tsan --target pera_tests bench_throughput
./build-tsan/tests/pera_tests \
  --gtest_filter='SpscQueue*:FlowHash*:EpochBlock*:Pipeline*:Ctrl*:Trust*:StateAttest*:IncMerkle*:Net*:Fleet*'
# The TSan bench pass covers the full threaded topology: dispatcher +
# shard workers + parallel appraiser workers + profiler slots.
./build-tsan/bench/bench_throughput --shards=1,4 --packets=256 \
  --json=build-tsan/BENCH_throughput.smoke.json \
  --profile-json=build-tsan/throughput.profile.json \
  --metrics-json=build-tsan/throughput.metrics.json \
  --benchmark_min_time=0.01 > /dev/null

echo "ALL CHECKS PASSED"
