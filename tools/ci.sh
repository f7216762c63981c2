#!/usr/bin/env bash
# CI entry point: tier-1 verify plus sanitizer checks of the concurrent
# and fault-handling components — a ThreadSanitizer race pass (epserve
# broker, epcommon thread pool, epobs metrics/tracing) and an
# AddressSanitizer+UBSan pass over the fault-injection and serve paths
# (the code that deliberately corrupts traces and parses hostile
# frames).
#
#   tools/ci.sh          # full: tier-1 build + ctest, TSan, ASan+UBSan
#   tools/ci.sh --fast   # skip the sanitizer configurations
#
# The primary build already compiles everything with -Wall -Wextra via
# the epsim_warnings interface target; the sanitizer configurations add
# -Werror on top so new warnings fail CI without polluting the cached
# options of the default build directory.
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
  echo "== epprof drill (${BUILD_DIR}): kernel-dominant profile vs ledger =="
  start_daemon "${BUILD_DIR}" --threads 2 --meter
  # 1 kHz so even a fast metered sweep yields a solid CPU sample set.
  "./${BUILD_DIR}/tools/epprof" --port "${PORT}" --start --period-us 1000
  REPORT="$("./${BUILD_DIR}/tools/epserve_client" --port "${PORT}" \
    --requests 4 --device k40c --n 256,320,384,448 --report)"
  echo "${REPORT}" | grep "attributed energy"
  JOULES="$(echo "${REPORT}" \
    | sed -n 's/^attributed energy: \([0-9.eE+-]*\) J over.*/\1/p')"
  [[ -n "${JOULES}" ]] || { echo "no attributed-energy line in client report"; exit 1; }
  "./${BUILD_DIR}/tools/epprof" --port "${PORT}" --kind cpu \
    --check kernel/dgemm --min-share 0.5
  "./${BUILD_DIR}/tools/epprof" --port "${PORT}" --kind energy \
    --check kernel/dgemm --min-share 0.9
  "./${BUILD_DIR}/tools/epprof" --port "${PORT}" --kind energy \
    --check-total "${JOULES}" --tol 0.05
  "./${BUILD_DIR}/tools/epprof" --port "${PORT}" --stop
  stop_daemon
}

echo "== tier-1: configure + build (-Wall -Wextra) + ctest =="
cmake -B build -S .
cmake --build build -j "${JOBS}"
# ctest runs every gtest case as its own process, in parallel: three
# passes make a race between cases on a shared file or port fail CI
# instead of passing by luck.
(cd build && ctest --output-on-failure -j "${JOBS}" --repeat until-fail:3)

echo "== epwatch smoke: watchdog catches an injected 58 W offset =="
# Anomalous server: a constant +58 W meter offset (the Fig 6 signature)
# that sample sanitization cannot see.  One metered request later the
# watchdog must hold an active constant_component alert, which epwatch
# --check reports as exit 2.
start_daemon build --threads 2 --watchdog --fault-offset 58
./build/tools/epserve_client --port "${PORT}" --requests 1 --n 256 \
  --trace-id cafe01 --report
set +e
./build/tools/epwatch --port "${PORT}" --check
WATCH_RC=$?
set -e
[[ "${WATCH_RC}" == "2" ]] || { echo "epwatch --check: expected exit 2 (active alert), got ${WATCH_RC}"; exit 1; }
stop_daemon

# Healthy server: same pipeline without the fault, no alerts, exit 0.
start_daemon build --threads 2 --watchdog
./build/tools/epserve_client --port "${PORT}" --requests 1 --n 256 >/dev/null
./build/tools/epwatch --port "${PORT}" --check
stop_daemon

echo "== net smoke: epoll event loop serves line-JSON and EPB1 binary =="
# The same daemon, two wire protocols negotiated per connection by the
# first byte: a plain line-JSON client (the pre-event-loop wire format,
# unchanged) and an EPB1 binary client with batched pipelining.  Both
# must complete with zero errors against a multi-threaded event loop.
start_daemon build --threads 2 --event-threads 2
./build/tools/epserve_client --port "${PORT}" --requests 64 --n 256 \
  --connections 2 >/dev/null
./build/tools/epserve_client --port "${PORT}" --requests 512 --n 256 \
  --binary --pipeline 32 --connections 2
stop_daemon

echo "== fleet smoke: shard kill -> stale serve -> clean recovery =="
# Three in-process shards behind the energy-aware router (epserved
# --shards 3, two broker workers per shard).  Warm a key spread, kill
# one shard, and require at least one wire response served from the
# replica (flagged "stale":true); after revival fleetcheck --check must
# see every shard alive and the cluster fronts consistent.
./build/tools/fleetcheck
# --health-probe-ms arms the background health monitor; the manual
# kill below must stay killed (the monitor never resurrects an
# operator decision) and the final fleetcheck --check must still see
# every shard alive after the explicit revive.
start_daemon build --shards 3 --threads 2 --health-probe-ms 25
FLEET_NS="256 320 384 448 512 576 640 704"
for N in ${FLEET_NS}; do
  ./build/tools/epserve_client --port "${PORT}" \
    --raw "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
./build/tools/epserve_client --port "${PORT}" \
  --raw '{"op":"fleet","action":"kill","shard":"s1"}' >/dev/null
STALE=0
for N in ${FLEET_NS}; do
  ./build/tools/epserve_client --port "${PORT}" \
    --raw "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    | grep -q '"stale":true' && STALE=$((STALE + 1))
done
[[ "${STALE}" -ge 1 ]] || { echo "expected stale-served responses after shard kill, got ${STALE}"; exit 1; }
echo "stale-served responses after kill: ${STALE}"
./build/tools/epserve_client --port "${PORT}" \
  --raw '{"op":"fleet","action":"revive","shard":"s1"}' >/dev/null
# Binary pipelined traffic through the router: the EPB1 path must route
# and batch across shards without breaking the line-JSON fleet checks.
./build/tools/epserve_client --port "${PORT}" --requests 256 --n 256 \
  --binary --pipeline 16 >/dev/null
./build/tools/fleetcheck --port "${PORT}" --check
stop_daemon

echo "== chaoscheck drill: fault campaign -> self-heal -> overload =="
# The epchaos end-to-end drill: a seeded 5% transport-fault campaign
# (resets, torn frames, corrupt varints, stalls) against a live fleet,
# server-side accept/inbound chaos, whole-shard crash with auto-eject
# and auto-reinstate, a 2x overload burst shed by adaptive admission,
# an SLO burn raised and cleared, and the energy-aware-beats-round-
# robin routing check.  Every phase is bitwise-reproducible from the
# seed; any assertion failure exits non-zero.
./build/tools/chaoscheck

echo "== eptop drill: healthy fleet -> shard kill -> latency SLO burn =="
# Fleet with the observability plane armed: 100 ms scrapes and a
# latency SLO (90% of requests within 2 ms, second-scale burn windows
# so the drill converges fast).  Single tunes — cold or cached — stay
# well under 2 ms, so after the warm-up ages out of the 3 s window
# eptop --check must report no burning SLO (exit 0).  Killing a shard
# and pushing uncached 32-workload study sweeps makes every in-window
# request blow the threshold, so the burn rate crosses 2x in both
# windows and eptop --check must exit 2, with the slow requests' trace
# ids attached as exemplars to the burning cluster buckets.
start_daemon build --shards 3 --threads 2 --watchdog --scrape-ms 100 \
  --slo latency:2:0.9 --slo-window 3000:1000:2
for N in ${FLEET_NS}; do
  ./build/tools/epserve_client --port "${PORT}" \
    --raw "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
sleep 4  # age the cold-study warm-up out of the 3 s long window
for N in 256 320; do
  ./build/tools/epserve_client --port "${PORT}" \
    --raw "{\"op\":\"tune\",\"device\":\"p100\",\"n\":${N},\"maxDegradation\":0.11}" \
    >/dev/null
done
./build/tools/eptop --port "${PORT}" --once --check >/dev/null \
  || { echo "eptop --check: healthy fleet should exit 0"; exit 1; }

./build/tools/epserve_client --port "${PORT}" \
  --raw '{"op":"fleet","action":"kill","shard":"s1"}' >/dev/null
BURN_RC=0
COLD_N=1024
for ROUND in $(seq 1 10); do
  for _ in 1 2 3 4; do
    # Sweeps routed to the killed shard are rejected -- that is the
    # point of the drill; the survivors still carry the burn load.
    ./build/tools/epserve_client --port "${PORT}" \
      --raw "{\"op\":\"study\",\"device\":\"p100\",\"nBegin\":${COLD_N},\"nEnd\":$((COLD_N + 7936)),\"nStep\":256,\"trace_id\":\"b0b${ROUND}\"}" \
      >/dev/null 2>&1 || true
    COLD_N=$((COLD_N + 8192))
  done
  set +e
  ./build/tools/eptop --port "${PORT}" --once --check >/dev/null
  BURN_RC=$?
  set -e
  [[ "${BURN_RC}" == "2" ]] && break
  sleep 0.2
done
[[ "${BURN_RC}" == "2" ]] || { echo "eptop --check: expected exit 2 (burning latency SLO), got ${BURN_RC}"; exit 1; }
echo "latency SLO burn caught by eptop --check (round ${ROUND})"
# The burning cluster histogram must link back to a request: an
# exemplar trace id on a latency bucket of the OpenMetrics exposition.
./build/tools/epserve_client --port "${PORT}" \
  --raw '{"op":"metrics","scope":"cluster","format":"openmetrics"}' \
  | grep -qE 'ep_serve_request_latency_ms_bucket\{[^}]*\} [0-9]+ # \{trace_id=' \
  || { echo "no exemplar trace id on the cluster latency buckets"; exit 1; }
echo "exemplar trace id present on cluster latency buckets"
stop_daemon

profiler_drill build

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
  test_apps test_fleet test_net test_chaos epserved epserve_client epprof
# halt_on_error: any reported race fails the run, not just the exit
# status of the last test.  test_apps covers the parallel study engine
# (pool-backed runWorkload/runSweep, nested parallelFor); test_serve
# covers study jobs that re-enter the broker's own pool; test_fleet the
# router's lock-free scoring path under concurrent admin churn.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_common
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_obs
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_apps
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_fleet
# test_net runs the epoll event loop end to end: event threads racing
# the broker pool on respond(), eviction racing writes, stop() racing
# in-flight connections.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_net
# test_chaos hammers the retry budget from coalesced callers and runs
# the faulty transport against a live server (reconnects racing the
# event loop's eviction path).
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_chaos
# Live-daemon profiler drill under TSan: the SIGPROF handler racing the
# aggregator thread and the broker pool is exactly what TSan is for.
export TSAN_OPTIONS="halt_on_error=1"
profiler_drill build-tsan
unset TSAN_OPTIONS

echo "== ASan+UBSan: fault injection + robust measurement + wire parser =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DEPSIM_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j "${JOBS}" --target test_fault test_power \
  test_serve test_core test_obs test_fleet test_net test_chaos \
  epserved epserve_client epprof
# detect_leaks flushes out meter/journal ownership bugs; the fault tests
# exercise every injected-corruption branch, the serve tests the
# malformed-frame corpus, test_core the checkpoint journal I/O, test_obs
# the byte-copied flight-recorder ring and the trace/metrics encoders,
# test_fleet the ring copy-on-write swaps and stale-replica ownership.
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_fault
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_power
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_serve
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_core
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_obs
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_fleet
# test_net feeds the frame decoder truncated varints, oversize lengths,
# and mid-frame closes -- the hostile-input half of the wire parser.
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_net
# test_chaos injects the corruption the parser must survive on purpose:
# flipped varint bytes, truncated frames, and mid-stream disconnects.
ASAN_OPTIONS="detect_leaks=1" ./build-asan/tests/test_chaos
# Live-daemon profiler drill under ASan+UBSan: sample-ring indexing,
# stack-copy bounds, and the export encoders on a real serve workload.
export ASAN_OPTIONS="detect_leaks=1"
profiler_drill build-asan
unset ASAN_OPTIONS

echo "== ci.sh: all green =="
