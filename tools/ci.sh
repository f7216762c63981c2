#!/usr/bin/env bash
# CI entry point: tier-1 verify, a -march=native build of the suites that
# pin numbers bit for bit, plus sanitizer checks of the concurrent and
# fault-handling components — a ThreadSanitizer race pass (epserve
# broker, epcommon thread pool, epstats memo, epobs metrics/tracing) and an
# AddressSanitizer+UBSan pass over the noise, fault-injection and serve
# paths (the code that indexes stack blocks, deliberately corrupts
# traces and parses hostile frames).  The meter-fault and serving-chaos
# campaigns are tier-1 cases (ctest -R 'FaultCampaign|ChaosCampaign'),
# so they run in every stage that runs their suites.
#
#   tools/ci.sh          # full: tier-1 build + ctest, native, TSan, ASan+UBSan
#   tools/ci.sh --fast   # skip the sanitizer configurations
#
# The primary build already compiles everything with -Wall -Wextra via
# the epsim_warnings interface target; the Release -march=native build
# and the sanitizer configurations add -Werror on top so new warnings
# fail CI without polluting the cached options of the default build
# directory.  The Release build compiles every target: some warnings
# (GCC's -Wrestrict on inlined string concatenation) appear only at -O3,
# which the -O1 sanitizer builds never see.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Start "./<build dir>/tools/epserved --port 0 <flags...>", wait until it
# listens, and set SERVED_PID and PORT; the EXIT trap kills it if the
# script stops early.  stop_daemon kills and reaps it.
start_daemon() {
  local BUILD_DIR="$1"
  shift
  DAEMON_LOG="$(mktemp)"
  "./${BUILD_DIR}/tools/epserved" --port 0 "$@" >"${DAEMON_LOG}" 2>&1 &
  SERVED_PID=$!
  trap 'kill "${SERVED_PID}" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    grep -q "listening on" "${DAEMON_LOG}" && break
    sleep 0.1
  done
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${DAEMON_LOG}")"
  [[ -n "${PORT}" ]] || { echo "epserved $* did not start"; cat "${DAEMON_LOG}"; exit 1; }
}

stop_daemon() {
  kill "${SERVED_PID}" 2>/dev/null || true
  wait "${SERVED_PID}" 2>/dev/null || true
  trap - EXIT
  rm -f "${DAEMON_LOG}"
}

# Net smoke loads, parameterised on the build flavour: a line-JSON load
# and a pipelined EPB1 load, each over four connections, against a
# daemon started with --threads 2 -- so both event loops carry traffic
# (the acceptor deals connections 2:2), run model-direct studies
# inline, and answer coalesced followers whose connection another loop
# owns.  Both must complete with zero errors.
net_loads() {
  local BUILD_DIR="$1"
  "./${BUILD_DIR}/tools/epctl" load --port "${PORT}" --requests 64 --n 256 \
    --connections 4 >/dev/null
  "./${BUILD_DIR}/tools/epctl" load --port "${PORT}" --requests 512 \
    --n 256 --binary --pipeline 32 --connections 4
}

# Profiler smoke drill, parameterised on the build flavour.  Arms the
# always-on profiler over the wire on a *metered* daemon, pushes a
# cold tune spread (every request executes a metered study sweep — the
# repetition loop under the kernel frame is the dominant CPU cost),
# and requires that (a) the CPU profile finds the dgemm kernel frame
# dominant, (b) so does the energy flamegraph, and (c) the energy
# profile's total weight reconciles with the request ledger's summed
# attributed joules within 5%.  Running it against the sanitizer builds
# puts the SIGPROF handler, the per-thread sample rings, and the
# energy-sample fold under TSan and ASan+UBSan on a live daemon.
profiler_drill() {
  local BUILD_DIR="$1"
  echo "== epctl prof drill (${BUILD_DIR}): kernel-dominant profile vs ledger =="
  start_daemon "${BUILD_DIR}" --threads 2 --meter
  # 1 kHz so even a fast metered sweep yields a solid CPU sample set.
  "./${BUILD_DIR}/tools/epctl" prof --port "${PORT}" --start --period-us 1000
  REPORT="$("./${BUILD_DIR}/tools/epctl" load --port "${PORT}" \
    --requests 4 --device k40c --n 256,320,384,448 --report)"
  echo "${REPORT}" | grep "attributed energy"
  JOULES="$(echo "${REPORT}" \
    | sed -n 's/^attributed energy: \([0-9.eE+-]*\) J over.*/\1/p')"
  [[ -n "${JOULES}" ]] || { echo "no attributed-energy line in client report"; exit 1; }
  "./${BUILD_DIR}/tools/epctl" prof --port "${PORT}" --kind cpu \
    --check kernel/dgemm --min-share 0.5
  "./${BUILD_DIR}/tools/epctl" prof --port "${PORT}" --kind energy \
    --check kernel/dgemm --min-share 0.9
  "./${BUILD_DIR}/tools/epctl" prof --port "${PORT}" --kind energy \
    --check-total "${JOULES}" --tol 0.05
  "./${BUILD_DIR}/tools/epctl" prof --port "${PORT}" --stop
  stop_daemon
}

echo "== tier-1: configure + build (-Wall -Wextra) + ctest =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
# ctest runs every gtest case as its own process, in parallel: three
# passes make a race between cases on a shared file or port fail CI
# instead of passing by luck.
(cd build && ctest --output-on-failure -j "${JOBS}" --repeat until-fail:3)

echo "== bench smoke: codec, cold-study, cold-tune, instrumentation and sweep benches =="
# One short pass, so the benches that reproduce the serving path's
# codec, cold-study (model grid, fronts, whole study) and cold-tune
# figures, and the per-operation span, counter and profiler-frame
# costs, keep building and running; their timings are not checked here.
./build/bench/bench_micro_algorithms \
  --benchmark_filter='^(BM_DecodeTuneLine|BM_EncodeTuneResponse|BM_BrokerColdTune|BM_ModelDirectGrid|BM_FinalizeWorkload|BM_ColdModelDirectEvaluate)' \
  --benchmark_min_time=0.01
./build/bench/bench_obs_overhead --benchmark_min_time=0.01
# The metered study_metered request (one pass against its sizes one by
# one) on a 3-worker pool, ~60-80 ms per sweep; it exits 1 when a
# parallel or one-pass result is not bitwise the reference.  It writes
# BENCH_study.json (git-ignored) here.
./build/bench/bench_study_scaling 4

echo "== epctl watch smoke: watchdog catches an injected 58 W offset =="
# Anomalous server: a constant +58 W meter offset (the Fig 6 signature)
# that sample sanitization cannot see.  One metered request later the
# watchdog must hold an active constant_component alert, which epctl
# watch --check reports as exit 2.
start_daemon build --threads 2 --watchdog --fault-offset 58
./build/tools/epctl load --port "${PORT}" --requests 1 --n 256 \
  --trace-id cafe01 --report
set +e
./build/tools/epctl watch --port "${PORT}" --check
WATCH_RC=$?
set -e
[[ "${WATCH_RC}" == "2" ]] || { echo "epctl watch --check: expected exit 2 (active alert), got ${WATCH_RC}"; exit 1; }
stop_daemon

# Healthy server: the same metered pipeline without the fault, no
# alerts, exit 0.  --meter gives the watchdog real windows to judge at
# the same N, so a false constant_component fails here too.
start_daemon build --threads 2 --watchdog --meter
./build/tools/epctl load --port "${PORT}" --requests 1 --n 256 >/dev/null
./build/tools/epctl watch --port "${PORT}" --check
stop_daemon

echo "== net smoke: two event loops serve line-JSON and EPB1 binary =="
# The same daemon, two wire protocols negotiated per connection by the
# first byte: a plain line-JSON client (the pre-event-loop wire format,
# unchanged) and an EPB1 binary client with batched pipelining.
start_daemon build --threads 2
net_loads build
# --device reaches the engine it names over EPB1 too: a binary K40c load
# must move the K40c energy ledger, not P100's.
./build/tools/epctl load --port "${PORT}" --requests 1 --n 512 \
  --binary --device K40c >/dev/null
./build/tools/epctl send --port "${PORT}" \
  '{"op":"metrics","format":"prometheus"}' \
  | grep -qE 'ep_request_windows_total\{device=\\"K40c\\"\} [1-9]' \
  || { echo "binary --device K40c load did not reach the K40c engine"; exit 1; }
stop_daemon

echo "== fleet smoke: shard kill -> stale serve -> clean recovery =="
# Three in-process shards behind the energy-aware router (epserved
# --shards 3, two event threads running every shard's studies inline).
# Warm a key spread, kill one shard, and require at least one wire
# response served from the replica (flagged "stale":true); after
# revival the {"op":"fleet"} snapshot must show every shard alive and
# the cluster fronts consistent.  (The same story in-process, against
# every router invariant, is tier-1: test_fleet's Router and Hetero
# cases.)  --health-probe-ms arms the background health monitor; the
# manual kill below must stay killed (the monitor never resurrects an
# operator decision) until the explicit revive.
start_daemon build --shards 3 --threads 2 --health-probe-ms 25
FLEET_NS="256 320 384 448 512 576 640 704"
for N in ${FLEET_NS}; do
  ./build/tools/epctl send --port "${PORT}" \
    "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
./build/tools/epctl send --port "${PORT}" \
  '{"op":"fleet","action":"kill","shard":"s1"}' >/dev/null
STALE=0
for N in ${FLEET_NS}; do
  ./build/tools/epctl send --port "${PORT}" \
    "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    | grep -q '"stale":true' && STALE=$((STALE + 1))
done
[[ "${STALE}" -ge 1 ]] || { echo "expected stale-served responses after shard kill, got ${STALE}"; exit 1; }
echo "stale-served responses after kill: ${STALE}"
./build/tools/epctl send --port "${PORT}" \
  '{"op":"fleet","action":"revive","shard":"s1"}' >/dev/null
# Binary pipelined traffic through the router: the EPB1 path must route
# and batch across shards without breaking the line-JSON fleet checks.
./build/tools/epctl load --port "${PORT}" --requests 256 --n 256 \
  --binary --pipeline 16 >/dev/null
FLEET="$(./build/tools/epctl send --port "${PORT}" '{"op":"fleet"}')"
SHARDS="$(sed -n 's/.*"shards":\([0-9]*\).*/\1/p' <<<"${FLEET}")"
ALIVE="$(sed -n 's/.*"aliveShards":\([0-9]*\).*/\1/p' <<<"${FLEET}")"
[[ "${FLEET}" == *'"status":"ok"'* && "${SHARDS:-0}" -gt 0 \
   && "${ALIVE}" == "${SHARDS}" && "${FLEET}" == *'"frontsConsistent":true'* ]] \
  || { echo "fleet not clean after recovery (want status ok, aliveShards == shards, frontsConsistent true): ${FLEET}"; exit 1; }
echo "fleet clean after recovery: ${ALIVE} of ${SHARDS} shards alive, fronts consistent"
stop_daemon

echo "== epctl top drill: healthy fleet -> shard kill -> latency SLO burn =="
# Fleet with the observability plane armed: 100 ms scrapes and a
# latency SLO (90% of requests within 2 ms, second-scale burn windows
# so the drill converges fast).  Single tunes — cold or cached — stay
# well under 2 ms, so after the warm-up ages out of the 3 s window
# epctl top --check must report no burning SLO (exit 0).  Killing a shard
# and pushing uncached 249-workload study sweeps makes every in-window
# request blow the threshold, so the burn rate crosses 2x in both
# windows and epctl top --check must exit 2, with the slow requests' trace
# ids attached as exemplars to the burning cluster buckets.  A
# model-direct sweep costs ~40 us per workload, so the sweeps take
# ~10 ms, well past the 2 ms threshold.  Every sweep stays within the
# sizes a P100 can hold (three N x N doubles in 12 GB: N <= 23170; a
# sweep past it fails) and every size is new, so each round adds slow
# in-window requests.
start_daemon build --shards 3 --threads 2 --watchdog --scrape-ms 100 \
  --slo latency:2:0.9 --slo-window 3000:1000:2
for N in ${FLEET_NS}; do
  ./build/tools/epctl send --port "${PORT}" \
    "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
sleep 4  # age the cold-study warm-up out of the 3 s long window
for N in 256 320; do
  ./build/tools/epctl send --port "${PORT}" \
    "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
./build/tools/epctl top --port "${PORT}" --once --check >/dev/null \
  || { echo "epctl top --check: healthy fleet should exit 0"; exit 1; }

./build/tools/epctl send --port "${PORT}" \
  '{"op":"fleet","action":"kill","shard":"s1"}' >/dev/null
BURN_RC=0
COLD_N=1024
for ROUND in $(seq 1 10); do
  for _ in 1 2 3 4; do
    # Sweeps routed to the killed shard are rejected -- that is the
    # point of the drill; the survivors still carry the burn load.
    ./build/tools/epctl send --port "${PORT}" \
      "{\"op\":\"study\",\"device\":\"p100\",\"nBegin\":${COLD_N},\"nEnd\":$((COLD_N + 7936)),\"nStep\":32,\"trace_id\":\"b0b${ROUND}\"}" \
      >/dev/null 2>&1 || true
    COLD_N=$((COLD_N + 8192))
    if (( COLD_N + 7936 > 23170 )); then
      COLD_N=$((COLD_N % 8192 + 1))  # back to the bottom, one size up
    fi
  done
  set +e
  ./build/tools/epctl top --port "${PORT}" --once --check >/dev/null
  BURN_RC=$?
  set -e
  [[ "${BURN_RC}" == "2" ]] && break
  sleep 0.2
done
[[ "${BURN_RC}" == "2" ]] || { echo "epctl top --check: expected exit 2 (burning latency SLO), got ${BURN_RC}"; exit 1; }
echo "latency SLO burn caught by epctl top --check (round ${ROUND})"
# The burning cluster histogram must link back to a request: an
# exemplar trace id on a latency bucket of the OpenMetrics exposition.
./build/tools/epctl send --port "${PORT}" \
  '{"op":"metrics","scope":"cluster","format":"openmetrics"}' \
  | grep -qE 'ep_serve_request_latency_ms_bucket\{[^}]*\} [0-9]+ # \{trace_id=' \
  || { echo "no exemplar trace id on the cluster latency buckets"; exit 1; }
echo "exemplar trace id present on cluster latency buckets"
stop_daemon

profiler_drill build

# The noise path, the meter and the models are pinned bit for bit; a
# host with FMA lets -march=native fuse a*b + c, which the build's
# -ffp-contract=off must keep out.
echo "== Release -march=native -Werror: every target =="
cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release -DEPSIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-march=native"
cmake --build build-native -j "${JOBS}"
if grep -qw fma /proc/cpuinfo; then
  echo "== -march=native: bit-for-bit suites with FMA available =="
  ./build-native/tests/test_common
  ./build-native/tests/test_power
  ./build-native/tests/test_apps
  ./build-native/tests/test_hw_gpu
  ./build-native/tests/test_reproduction
else
  echo "== skipping -march=native stage: this CPU lists no fma =="
fi

if [[ "${FAST}" == "1" ]]; then
  echo "== skipping sanitizer configurations (--fast) =="
  exit 0
fi

echo "== ThreadSanitizer: broker + thread pool + obs race check =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEPSIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "${JOBS}" --target test_serve test_common test_obs \
  test_stats test_apps test_fleet test_net test_chaos epserved epctl
# halt_on_error: any reported race fails the run, not just the exit
# status of the last test.  test_apps covers the parallel study engine
# (pool-backed runWorkload, and the one-pass runWorkloads/runSweep over
# every configuration of a list of workloads); test_serve covers study
# jobs that re-enter the broker's own pool; test_fleet the router's
# lock-free scoring path under concurrent admin churn.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_common
# test_stats races eight threads on a cold slot of the Student-t memo,
# which every metered configuration reads from the pool.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_stats
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_apps
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_fleet
# test_net runs the epoll event loop end to end: event threads racing
# the broker pool on respond(), eviction racing writes, stop() racing
# in-flight and dealt-but-unadopted connections.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_net
# test_chaos hammers the retry budget from coalesced callers, runs the
# faulty transport against a live server (reconnects racing the event
# loop's eviction path), and runs the chaos campaign over a live
# 3-shard fleet (ChaosCampaign.*).
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_chaos
# Live daemon without --meter under TSan: model-direct studies run
# inline on two event threads, coalesced completions cross loops, and
# loop 1 adopts the connections the acceptor deals it.  A race kills
# the daemon (halt_on_error), which fails the loads.
export TSAN_OPTIONS="halt_on_error=1"
echo "== net smoke under TSan: two event loops, inline studies =="
start_daemon build-tsan --threads 2
net_loads build-tsan
stop_daemon
# Live-daemon profiler drill under TSan: the SIGPROF handler racing the
# aggregator thread and the broker pool is exactly what TSan is for.
profiler_drill build-tsan
unset TSAN_OPTIONS

echo "== ASan+UBSan: fault injection + robust measurement + wire parser =="
# GCC's "undefined" group leaves out float-cast-overflow, under which an
# out-of-range double-to-int cast (a wire number such as "n":1e300) is
# reported instead of silently producing INT_MIN.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEPSIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build build-asan -j "${JOBS}" --target test_common test_stats test_fault \
  test_power test_apps test_hw_gpu test_serve test_core test_obs test_fleet \
  test_net test_chaos epserved epctl
# detect_leaks flushes out meter/journal ownership bugs; test_common,
# test_power and test_apps run the staged polar normals' stack-chunk
# indexing and the meter's block sampler at every chunk and block edge,
# the fault tests exercise every injected-corruption branch, the serve
# tests the malformed-frame corpus, test_core the checkpoint journal
# I/O, test_obs the byte-copied flight-recorder ring and the
# trace/metrics encoders, test_fleet the ring copy-on-write swaps and
# stale-replica ownership; test_serve's Wire cases send numbers no int
# or count can hold.
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_common
# test_stats indexes the Student-t memo at its edges (dof 1, 1023, 1024).
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_stats
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_fault
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_power
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_apps
# test_hw_gpu indexes the GPU model's per-BS and per-G rows at every
# table edge (BS 1-33, G past the per-G rows).
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_hw_gpu
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_serve
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_core
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_obs
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_fleet
# test_net feeds the frame decoder truncated varints, oversize lengths,
# and mid-frame closes -- the hostile-input half of the wire parser.
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_net
# test_chaos injects the corruption the parser must survive on purpose:
# flipped varint bytes, truncated frames, and mid-stream disconnects,
# in the chaos campaign over a live 3-shard fleet (ChaosCampaign.*).
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_chaos
# Live-daemon profiler drill under ASan+UBSan: sample-ring indexing,
# stack-copy bounds, and the export encoders on a real serve workload.
export ASAN_OPTIONS="detect_leaks=1"
profiler_drill build-asan
unset ASAN_OPTIONS

echo "== ci.sh: all green =="
