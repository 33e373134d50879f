#!/usr/bin/env sh
# Tier-1 verification: full build + test suite, the CP search's popcounts
# compiled to the instruction (no libgcc call), a bench smoke run against a
# known optimum, perf smokes (devex pivot count, serving cache speedup), an
# observability smoke run (trace/metrics formats validated by obs_check,
# the search-event instants present in the trace), a serving replay
# (persistent cache across a daemon restart), a live-service smoke (socket
# daemon + serve_throughput client load + mlsi_top + a clockwise split
# request + SIGTERM drain, all obs artifacts validated), a bench wall-time
# regression guard against the committed summary, the LP/MILP tests, the
# obs flight recorder, the input boundaries (case JSON, serve request
# lines, the persistent store; hostile cases and the mutation fuzz) and the
# cp search's per-depth buffers and path vertex masks again under
# AddressSanitizer + UBSan (the sparse LU and eta-file code is
# pointer-heavy; the recorder's dump path formats into fixed buffers; the
# parsers take hostile bytes; the node loop indexes flat arrays),
# and the concurrency tests (thread pool, stop tokens, the cp engine's
# split of both free policies over their root units, the shared
# switch-model map, serve
# cache/coalescing, obs emission, metrics snapshots under mutation) again
# under ThreadSanitizer.
#
#   scripts/check.sh            # from the repo root
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# The CP node loop prices every candidate with popcounts. Where the
# compiler accepts -mpopcnt (x86-64) the library builds with it, and
# std::popcount must be the instruction, not a call into libgcc's
# __popcountdi2. In an object file a call's target is a relocation, so
# the disassembly needs -r to name it.
if grep -q '^MLSI_CXX_HAS_MPOPCNT:INTERNAL=1$' build/CMakeCache.txt; then
    cp_obj=build/src/synth/CMakeFiles/mlsi_synth.dir/cp_search.cpp.o
    if objdump -dr "$cp_obj" | grep -q '__popcountdi2'; then
        echo "check.sh: $cp_obj calls __popcountdi2" >&2
        exit 1
    fi
fi

# Bench smoke: chip_sw1/clockwise must still hit its proven optimum (1012.0)
# and pass the contamination-free flow simulation.
build/bench/table_4_1 --smoke

# Perf smoke: on the 400-column suite the devex simplex must take exactly
# its pinned pivot total (14,676) and match the dense oracle's status and
# objective on every instance, and the parallel branch & bound must prove
# the identical optimum at jobs 1/2/8.
cmake --build build -j "$(nproc)" --target micro_opt
build/bench/micro_opt --smoke

# Serving smoke: the cached configuration must sustain >= 10x the no-cache
# baseline's req/s at jobs=4 under the zipf workload.
cmake --build build -j "$(nproc)" --target serve_throughput
build/bench/serve_throughput --smoke

# CP symmetry-breaking smoke: on the pinned hardest unfixed case the
# default search (first binding restricted to one pin per symmetry orbit,
# interchangeable modules bound in increasing pin order) must prove the
# same optimum as the search over the full binding space within 50% of its
# nodes, exploring exactly the pinned node count.
cmake --build build -j "$(nproc)" --target cp_unfixed
build/bench/cp_unfixed --smoke

# Observability smoke: a clockwise run large enough to split its first-pin
# loop over 4 workers, with both obs output flags, then the format
# validator (trace = Chrome trace JSON array whose instants carry object
# "args", metrics keys declared in scripts/metrics_schema.json). The CP
# search events are trace instants: this run emits one cp.incumbent, one
# cp.split (the handoff of root units 1.. to the pool) and one cp.done.
# (The MILP's milp.* instants are asserted by opt_milp_test's
# MilpTest.SearchEventsAreTraceInstants: an IQP run long enough to emit
# them takes too long for a smoke.)
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
build/tools/mlsi_synth tests/data/chip_sw2_clockwise.json \
    --jobs 4 --quiet \
    --trace-out "$obs_dir/trace.json" \
    --metrics-out "$obs_dir/metrics.json"
build/tools/obs_check \
    --trace "$obs_dir/trace.json" \
    --metrics "$obs_dir/metrics.json" \
    --schema scripts/metrics_schema.json
for ev in cp.incumbent cp.split cp.done; do
    grep -q "\"name\":\"$ev\",\"cat\":\"mlsi\",\"ph\":\"i\"" \
        "$obs_dir/trace.json" || {
        echo "check.sh: trace has no $ev instant" >&2; exit 1; }
done

# Serving replay smoke: the daemon answers the canned request stream twice
# against the same persistent store. The second run starts from the
# replayed cache, so >= 90% of its responses must be cache hits; its
# metrics snapshot (serve.* counters/histograms) must validate against the
# checked-in schema.
serve_store="$obs_dir/serve_cache.jsonl"
build/tools/mlsi_serve --jobs=2 --persist="$serve_store" --quiet \
    < tests/data/serve_requests.jsonl > "$obs_dir/serve_pass1.jsonl"
build/tools/mlsi_serve --jobs=2 --persist="$serve_store" --quiet \
    --metrics-out "$obs_dir/serve_metrics.json" \
    < tests/data/serve_requests.jsonl > "$obs_dir/serve_pass2.jsonl"
total=$(grep -c '"id"' "$obs_dir/serve_pass2.jsonl")
cached=$(grep -c '"cached":true' "$obs_dir/serve_pass2.jsonl" || true)
if [ "$cached" -lt $(( total * 9 / 10 )) ]; then
    echo "check.sh: serve replay pass 2: only $cached/$total cached (< 90%)" >&2
    exit 1
fi
echo "check.sh: serve replay pass 2: $cached/$total cached"
build/tools/obs_check \
    --metrics "$obs_dir/serve_metrics.json" \
    --schema scripts/metrics_schema.json

# Live service smoke: a real daemon on a Unix socket, loaded through
# serve_throughput's client mode (asserts every request ok + >= 50% hit
# rate from the responses' "cached" flags), monitored by mlsi_top (the
# live metrics snapshot it saves must validate and must carry populated
# serve.stage.* histograms), sent one ChIP sw.2 clockwise request whose
# solve splits its first-pin loop over worker threads, then drained with
# SIGTERM — exit 0 and every flushed obs artifact (metrics, trace, flight
# recorder) must validate, the recorder holding the split's cp.subtree
# spans under their name.
cmake --build build -j "$(nproc)" --target mlsi_serve_cli mlsi_top obs_check
live_sock="$obs_dir/live.sock"
build/tools/mlsi_serve --socket "$live_sock" --jobs 4 --quiet \
    --metrics-out "$obs_dir/live_metrics_exit.json" \
    --trace-out "$obs_dir/live_trace.json" \
    --flight-rec "$obs_dir/live_flight.jsonl" &
live_pid=$!
trap 'kill -9 "$live_pid" 2>/dev/null || true; rm -rf "$obs_dir"' EXIT
i=0
while [ ! -S "$live_sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "check.sh: mlsi_serve never opened $live_sock" >&2
        exit 1
    fi
    sleep 0.1
done
build/bench/serve_throughput --smoke --socket "$live_sock"
build/tools/mlsi_top --socket "$live_sock" --once --json \
    --metrics-out "$obs_dir/live_metrics.json" > "$obs_dir/live_top.json"
grep -q '"solve_us":{"count":' "$obs_dir/live_top.json" || {
    echo "check.sh: mlsi_top reported no solve-stage percentiles" >&2; exit 1; }
build/tools/obs_check \
    --metrics "$obs_dir/live_metrics.json" --schema scripts/metrics_schema.json
build/tools/mlsi_top --socket "$live_sock" \
    --send tests/data/chip_sw2_clockwise_request.jsonl \
    > "$obs_dir/live_split.jsonl"
grep -q '"status":"ok"' "$obs_dir/live_split.jsonl" || {
    echo "check.sh: the clockwise split request was not answered ok" >&2
    exit 1; }
kill -TERM "$live_pid"
live_rc=0
wait "$live_pid" || live_rc=$?
if [ "$live_rc" -ne 0 ]; then
    echo "check.sh: mlsi_serve exited $live_rc after SIGTERM (want 0)" >&2
    exit 1
fi
build/tools/obs_check \
    --metrics "$obs_dir/live_metrics_exit.json" \
    --schema scripts/metrics_schema.json \
    --trace "$obs_dir/live_trace.json" \
    --flight-rec "$obs_dir/live_flight.jsonl"
grep -q '"name":"cp.subtree","ph":"E"' "$obs_dir/live_flight.jsonl" || {
    echo "check.sh: the flight recorder holds no cp.subtree span" >&2
    exit 1; }

# Bench wall-time regression guard: compare fresh bench_out telemetry
# against the committed summary from the previous SHA (exit 3 past +50%;
# benches with differing record counts are skipped).
if [ -f BENCH_summary.json ] && [ -d bench_out ]; then
    build/tools/bench_summary --dir bench_out \
        --out "$obs_dir/bench_summary_check.json" \
        --baseline BENCH_summary.json --max-regression 0.5
fi

cmake -B build-asan -S . -DMLSI_SANITIZE=address
cmake --build build-asan -j "$(nproc)" \
    --target opt_simplex_test opt_cuts_test opt_milp_test obs_test io_test \
    serve_test fuzz_boundaries_test cp_search_test arch_paths_test
build-asan/tests/opt_simplex_test
build-asan/tests/opt_cuts_test
build-asan/tests/opt_milp_test
# Flight recorder under ASan: ring wraparound, name sanitization, and the
# crash-handler dump (the death test's signal path) with full heap checking.
build-asan/tests/obs_test
# Input boundaries under ASan/UBSan: hostile case documents, serve request
# lines and persistent-store entries must be rejected (or, for a store
# entry that does not fit its request, re-solved), not abort; the mutation
# fuzz drives all three from the checked-in seeds. The socket transport
# runs here too: 300 connections, each thread joined when it ends.
build-asan/tests/io_test
build-asan/tests/serve_test \
    --gtest_filter='PersistentStoreTest.*:ServerTest.Hostile*:ServerTest.Stream*:ServerTest.Socket*'
build-asan/tests/fuzz_boundaries_test
# The cp node loop under ASan/UBSan: per-depth candidate, claimed-vertex,
# conflict-mask and segment-union buffers, and vertex and segment masks of
# one word (crossbars) and of two (the 69-vertex GRU chain), over the
# 200-instance parity fuzz, the 12- and 16-pin unfixed parity fuzz (module
# precedence chains), the exhaustive oracle and the unfixed split's suites
# (worker states reset between root units) and the handoff's (the calling
# thread's state reused for handed-off units after unit 0).
build-asan/tests/arch_paths_test
build-asan/tests/cp_search_test \
    --gtest_filter='SymmetryTest.*:LearningParityTest.TwoHundred*:UnfixedParityTest.*:ExhaustiveOracleTest.*:LearningDeterminismTest.*:WideMaskTest.*:*UnfixedSplit*:SplitHandoffTest.*'

cmake -B build-tsan -S . -DMLSI_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" \
    --target exec_test obs_test opt_milp_test synth_parallel_test \
    serve_test cp_search_test arch_paths_test mlsi_synth_cli
build-tsan/tests/exec_test
build-tsan/tests/obs_test
# The process-wide switch-model map: racing first callers share one build.
build-tsan/tests/arch_paths_test --gtest_filter='SwitchModelTest.*'
# Serving layer under TSan: sharded LRU, coalesced flights (followers
# bounded by their own budgets), admission queue, persistence and socket
# connection threads, all driven by genuinely concurrent clients.
build-tsan/tests/serve_test
# Parallel branch & bound: shared incumbent, node counter and frontier under
# real contention (determinism + stop-token unwind tests included).
build-tsan/tests/opt_milp_test --gtest_filter='MilpTest.Parallel*'
build-tsan/tests/synth_parallel_test
# The split of both free policies over their root units (clockwise first
# pins, unfixed first-flow pin pairs): the same answer at jobs 1/2/4 with
# real worker threads (the paper cases above the split threshold
# included), a caller's stop reaching the workers, and the handoff
# (SplitHandoffTest: the pool starting inside unit 0, while the calling
# thread finishes it and then takes units from the workers' counter).
build-tsan/tests/cp_search_test --gtest_filter='*Split*'
# Obs enabled under TSan: per-thread trace buffers (spans and the search
# instants, recorded from the split's worker threads) and metrics atomics
# all get exercised by a real clockwise split.
build-tsan/tools/mlsi_synth tests/data/chip_sw2_clockwise.json \
    --jobs 4 --quiet \
    --trace-out "$obs_dir/tsan_trace.json" \
    --metrics-out "$obs_dir/tsan_metrics.json"

echo "check.sh: all green (tier-1 + bench smoke + obs + ASan + TSan)"
