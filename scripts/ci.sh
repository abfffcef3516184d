#!/usr/bin/env bash
# Tier-1 verify plus a determinism/threading smoke, suitable for CI.
#
#   scripts/ci.sh [build_dir]
#
# 1. configure + build (Release)
# 2. ctest with BSG_NUM_THREADS=1 and BSG_NUM_THREADS=4 — the suite asserts
#    bit-identical results, so a green run at both settings catches both
#    build and determinism regressions
# 3. ThreadSanitizer build of every suite, run through ctest
#    (halt_on_error, BSG_NUM_THREADS=4), so a data race anywhere — the
#    thread pool, the training prefetcher, the pooled-slab handoff, the
#    serving cache's single flight, the concurrent front-end, the fault
#    injector, the metrics instruments, the tracer or the governor — fails
#    CI; followed by a timeout-wrapped chaos soak (fault injection armed at
#    every serving site; the timeout is part of the assertion — a lost
#    wakeup or an unresolved future under faults hangs)
# 4. smoke runs of bench_parallel_scaling and bench_async_pipeline at small
#    sizes, and the benchmark's self-check (perfbench/run.py --self-check:
#    every workload at toy size, untraced and traced, with its output
#    checks)
# 5. serve smoke: train a tiny model, save a checkpoint, load it in a fresh
#    process, score the test split through the DetectionEngine and diff the
#    JSON-lines output (logits at %.17g) against the in-memory model's —
#    the bit-identity contract of the serving subsystem, end to end; then
#    re-serve through the concurrent front-end at --workers=1 and
#    --workers=4 and diff those too (worker count must not perturb logits),
#    and run the --swap-demo hot-swap path (SIGHUP -> SwapGraph -> stale
#    purge -> post-swap bit-identity, verified in-process); an f32 serve
#    smoke: the checkpoint served with --precision=f32, direct and at
#    --workers=4, each line checked against the f64 scores (same id order,
#    same label, both logits within 5e-3*(1+|f64|)); plus a multi-chunk
#    smoke: a 1000-user model whose 202-account test split is
#    two 128-wide chunks, re-served on the direct engine path at
#    BSG_NUM_THREADS=1 and 4 and diffed against the trained scores
# 6. BSG_MARCH_NATIVE=ON build running the f32 suites: the mixed-precision
#    parity tolerance must hold under full-width SIMD codegen too, not just
#    the portable baseline; and, where -march=native changes the generated
#    code of the f64 GEMM kernels, the kernels (every tile variant the host
#    supports) must stay bit-identical to the naive triple loop
#    (test_matmul_transpose), the f64 inference and training forwards to
#    their all-rows oracles, k-means to its scalar copy (test_features) and
#    the activation and dropout kernels to their scalar loops
#    (test_ops_properties); the stage logs which GEMM tile the dispatcher
#    picked, so a host that falls back to SSE2 shows in the log
# 7. ASan+UBSan build of every suite, run through ctest: injected faults
#    drive the error/unwind paths that production traffic rarely takes,
#    exactly where use-after-free and UB hide
# 8. metrics smoke: serve with --metrics-out and --trace-sample=1, then
#    parse the exported Prometheus text and JSON and re-derive the request
#    and target conservation invariants exactly from the exported series
#    (submitted == served + shed + closed + timed_out + failed + degraded)
# 9. memory-governance smoke: read the unbudgeted run's governor-accounted
#    peak from the exported metrics, re-serve with --mem-budget-mb at 50%
#    of it (cache budgeted + cost-priced admission) under an address-space
#    ceiling, and re-derive conservation — now including shed_resource —
#    from the budgeted export; an OOM-kill or a lost request fails the
#    stage
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
JOBS="$(nproc)"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "=== ctest (BSG_NUM_THREADS=1) ==="
(cd "$BUILD_DIR" && BSG_NUM_THREADS=1 ctest --output-on-failure -j "$JOBS")

echo "=== ctest (BSG_NUM_THREADS=4) ==="
(cd "$BUILD_DIR" && BSG_NUM_THREADS=4 ctest --output-on-failure -j "$JOBS")

echo "=== ThreadSanitizer: every suite ==="
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DBSG_BUILD_BENCHES=OFF
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"
# halt_on_error: the first race aborts the test binary, so CI goes red.
(cd "$TSAN_BUILD_DIR" && TSAN_OPTIONS="halt_on_error=1" BSG_NUM_THREADS=4 \
  ctest --output-on-failure -j "$JOBS")

echo "=== chaos soak (faults armed at every serving site, timeout-wrapped) ==="
timeout 300 "$BUILD_DIR/test_fault"
timeout 300 env BSG_NUM_THREADS=4 "$BUILD_DIR/test_frontend" \
  --gtest_filter='ServingFrontendFaults.*'

echo "=== bench_parallel_scaling smoke (--threads=2) ==="
"$BUILD_DIR/bench/bench_parallel_scaling" --threads=2 --matmul_n=192 \
  --spmm_nodes=4000 --users=300 --kmeans_points=4000 --reps=1

echo "=== bench_async_pipeline smoke (--threads=2) ==="
"$BUILD_DIR/bench/bench_async_pipeline" --threads=2 --users=300 --epochs=3

echo "=== benchmark self-check (every workload, untraced and traced) ==="
python3 perfbench/run.py --self-check

echo "=== serve smoke (train -> checkpoint -> serve -> diff logits) ==="
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
"$BUILD_DIR/examples/serve_cli" --train --ckpt="$SERVE_TMP/model.ckpt" \
  --users=300 --epochs=4 --score-out="$SERVE_TMP/train_scores.jsonl"
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_scores.jsonl" --stats
diff "$SERVE_TMP/train_scores.jsonl" "$SERVE_TMP/serve_scores.jsonl"
echo "serve smoke: checkpointed engine logits bit-identical to the trained model"

echo "=== f32 serve smoke (direct and --workers=4, against the f64 scores) ==="
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --precision=f32 --score-out="$SERVE_TMP/serve_f32.jsonl"
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --precision=f32 --score-out="$SERVE_TMP/serve_f32_w4.jsonl" --workers=4
python3 - "$SERVE_TMP/serve_scores.jsonl" "$SERVE_TMP/serve_f32.jsonl" \
  "$SERVE_TMP/serve_f32_w4.jsonl" <<'PYEOF'
import json, sys

# The documented f32 parity bound (README "Mixed-precision serving").
TOL = 5e-3
ref = [json.loads(line) for line in open(sys.argv[1])]
assert ref, "empty f64 score file"
for path in sys.argv[2:]:
    got = [json.loads(line) for line in open(path)]
    assert [g["id"] for g in got] == [r["id"] for r in ref], (
        f"{path}: id order differs from the f64 scores")
    for r, g in zip(ref, got):
        assert g["precision"] == "f32", f"{path}: id {g['id']} not served f32"
        assert g["label"] == r["label"], f"{path}: id {g['id']} label flipped"
        for a, b in zip(r["logits"], g["logits"]):
            assert abs(b - a) <= TOL * (1 + abs(a)), (
                f"{path}: id {g['id']} logit {b} vs f64 {a}")
    print(f"f32 serve smoke: {path}: {len(got)} accounts, same ids and "
          f"labels, logits within {TOL}*(1+|f64|)")
PYEOF

echo "=== multi-chunk serve smoke (2 chunks, direct path, 1 and 4 threads) ==="
"$BUILD_DIR/examples/serve_cli" --train --ckpt="$SERVE_TMP/model_mc.ckpt" \
  --users=1000 --epochs=4 --score-out="$SERVE_TMP/train_mc.jsonl"
for threads in 1 4; do
  BSG_NUM_THREADS=$threads "$BUILD_DIR/examples/serve_cli" \
    --ckpt="$SERVE_TMP/model_mc.ckpt" \
    --score-out="$SERVE_TMP/serve_mc_t$threads.jsonl"
  diff "$SERVE_TMP/train_mc.jsonl" "$SERVE_TMP/serve_mc_t$threads.jsonl"
done
echo "multi-chunk serve smoke: $(wc -l < "$SERVE_TMP/train_mc.jsonl") accounts, logits bit-identical at 1 and 4 threads"

echo "=== concurrent serve smoke (--workers=4 vs --workers=1 logit diff) ==="
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_w1.jsonl" --workers=1
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_w4.jsonl" --workers=4 --stats
diff "$SERVE_TMP/serve_w1.jsonl" "$SERVE_TMP/serve_w4.jsonl"
diff "$SERVE_TMP/train_scores.jsonl" "$SERVE_TMP/serve_w4.jsonl"
echo "concurrent serve smoke: 4-worker front-end logits bit-identical to 1-worker and to the trained model"

echo "=== hot-swap smoke (SIGHUP -> SwapGraph -> purge -> bit-identity) ==="
# serve_cli exits non-zero if stale-version entries survive the swap or the
# post-swap logits drift, so this line alone is the assertion.
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_swap.jsonl" --workers=2 --swap-demo
diff "$SERVE_TMP/train_scores.jsonl" "$SERVE_TMP/serve_swap.jsonl"
echo "hot-swap smoke: stale versions purged, post-swap logits bit-identical"

echo "=== fault-injected serve smoke (retries absorb transient faults) ==="
# Two deterministic transient forward faults, three retries: every request
# must still resolve kOk with bit-identical logits, through the CLI flags.
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_fault.jsonl" --workers=2 --max-retries=3 \
  --fault-spec="engine.forward:first=2" --fault-seed=7 --stats
diff "$SERVE_TMP/train_scores.jsonl" "$SERVE_TMP/serve_fault.jsonl"
echo "fault-injected serve smoke: transient faults retried, logits bit-identical"

echo "=== metrics smoke (export -> parse -> re-derive conservation) ==="
"$BUILD_DIR/examples/serve_cli" --ckpt="$SERVE_TMP/model.ckpt" \
  --score-out="$SERVE_TMP/serve_metrics.jsonl" --workers=2 \
  --metrics-out="$SERVE_TMP/metrics.prom" --trace-sample=1 --stats
diff "$SERVE_TMP/train_scores.jsonl" "$SERVE_TMP/serve_metrics.jsonl"
python3 - "$SERVE_TMP/metrics.prom" <<'PYEOF'
import json, re, sys

prom_path = sys.argv[1]
prom = open(prom_path).read()
series = {}
for line in prom.splitlines():
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    series[name] = float(value)

def prom_gauge(name):
    key = "bsg_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)
    assert key in series, f"missing series {key} in {prom_path}"
    return series[key]

resolved = ["served", "shed", "closed", "timed_out", "failed", "degraded"]
for unit, submitted in (("requests", "serve.frontend.submitted_requests"),
                        ("targets", "serve.frontend.targets_submitted")):
    if unit == "requests":
        outs = [f"serve.frontend.{s}_requests" for s in resolved]
    else:
        outs = [f"serve.frontend.targets_{s}" for s in resolved]
    total_in = prom_gauge(submitted)
    total_out = sum(prom_gauge(o) for o in outs)
    assert total_in == total_out and total_in > 0, (
        f"{unit} conservation violated in export: "
        f"{total_in} submitted vs {total_out} resolved")
    print(f"exported {unit} conservation exact: "
          f"{int(total_in)} submitted == {int(total_out)} resolved")

# The always-on latency histogram must be present, internally consistent
# (cumulative buckets ending at the count), and have seen every request.
hist = "bsg_serve_frontend_request_latency_ms"
bucket_vals = []
for line in prom.splitlines():
    m = re.match(rf'{hist}_bucket\{{le="([^"]+)"\}} ([0-9.e+-]+)$', line)
    if m:
        bucket_vals.append(float(m.group(2)))
assert bucket_vals, f"no {hist}_bucket series exported"
assert bucket_vals == sorted(bucket_vals), "histogram buckets not cumulative"
count = series.get(hist + "_count")
assert count is not None and count == bucket_vals[-1], (
    "histogram +Inf bucket disagrees with _count")
assert count == prom_gauge("serve.frontend.submitted_requests"), (
    "request_latency_ms count != submitted requests")

# The JSON twin must parse and carry the sampled traces (trace-sample=1).
doc = json.load(open(prom_path + ".json"))
assert doc["counters"] is not None and doc["gauges"] and doc["histograms"]
traces = doc.get("traces", [])
assert traces, "trace-sample=1 exported no traces"
for t in traces:
    assert t["status"] == "ok" and t["spans"], "unexpected trace shape"
    span_total = sum(s["dur_ns"] for s in t["spans"])
    stages = {s["stage"] for s in t["spans"]}
    assert "queue_wait" in stages and "forward" in stages, (
        f"trace missing pipeline stages: {sorted(stages)}")
    assert span_total <= t["elapsed_ns"], (
        "trace spans exceed the request's end-to-end latency")
print(f"exported traces: {len(traces)} sampled, every span set within e2e")
PYEOF
echo "metrics smoke: exported series parse, conservation re-derived exactly"

echo "=== memory-governance smoke (budget at 50% of peak, RSS-ceilinged) ==="
# The metrics smoke above ran unbudgeted; its export carries the
# governor-accounted peak. Budget the re-serve at half of it.
BUDGET_MB="$(python3 - "$SERVE_TMP/metrics.prom.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
peak = doc["gauges"]["governor.peak_total_bytes"]
assert peak > 0, "governor accounted nothing in the unbudgeted run"
print(max(1, int(peak / 2 / (1 << 20))))
PYEOF
)"
CACHE_MB=$(( BUDGET_MB / 4 > 0 ? BUDGET_MB / 4 : 1 ))
echo "unbudgeted peak halved: --mem-budget-mb=$BUDGET_MB (cache $CACHE_MB)"
# The address-space ceiling turns a leak/runaway under pressure into a
# visible OOM kill (non-zero exit) instead of a slow host.
bash -c "ulimit -v 4194304 && exec '$BUILD_DIR/examples/serve_cli' \
  --ckpt='$SERVE_TMP/model.ckpt' \
  --score-out='$SERVE_TMP/serve_budget.jsonl' --workers=2 \
  --mem-budget-mb=$BUDGET_MB --cache-budget-mb=$CACHE_MB \
  --cache-admit-cost-us=25 \
  --metrics-out='$SERVE_TMP/metrics_budget.prom' --stats"
python3 - "$SERVE_TMP/metrics_budget.prom.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
g = doc["gauges"]
assert g["governor.budget_bytes"] > 0, "budget flag did not arm the governor"
assert 0 < g["governor.hard_bytes"] <= g["governor.budget_bytes"]
resolved = ["served", "shed", "closed", "timed_out", "failed", "degraded"]
req_in = g["serve.frontend.submitted_requests"]
req_out = sum(g[f"serve.frontend.{s}_requests"] for s in resolved)
tgt_in = g["serve.frontend.targets_submitted"]
tgt_out = sum(g[f"serve.frontend.targets_{s}"] for s in resolved)
assert req_in == req_out and req_in > 0, (
    f"request conservation violated under budget: {req_in} vs {req_out}")
assert tgt_in == tgt_out, (
    f"target conservation violated under budget: {tgt_in} vs {tgt_out}")
shed = g["serve.frontend.shed_requests"]
buckets = (g["serve.frontend.shed_queue_full"] +
           g["serve.frontend.shed_latency"] +
           g["serve.frontend.shed_resource"])
assert shed == buckets, f"shed buckets drifted: {shed} vs {buckets}"
# Every payload charge admitted at the front door was released again.
assert g["governor.account.serve.queue.resident_bytes"] == 0
print(f"budgeted serve conserved exactly: {int(req_in)} requests "
      f"({int(g['serve.frontend.served_requests'])} served, {int(shed)} "
      f"shed of which {int(g['serve.frontend.shed_resource'])} resource), "
      f"budget {g['governor.budget_bytes'] / 2**20:.1f} MiB, "
      f"pressure {int(g['governor.pressure'])}")
PYEOF
echo "memory-governance smoke: budgeted serve conserved, no OOM"

echo "=== BSG_MARCH_NATIVE=ON: f32 parity and f64 oracles under native SIMD ==="
NATIVE_BUILD_DIR="${BUILD_DIR}-native"
cmake -B "$NATIVE_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DBSG_MARCH_NATIVE=ON -DBSG_BUILD_BENCHES=OFF
cmake --build "$NATIVE_BUILD_DIR" -j "$JOBS" \
  --target test_matrix_f test_f32_parity test_batch_stacker \
  test_inference_forward test_matmul_transpose test_training_forward \
  test_features test_ops_properties
"$NATIVE_BUILD_DIR/test_matmul_transpose" \
  --gtest_filter=MatMulOracle.DispatchesTheWidestSupportedTile |
  grep "dispatched GEMM tile"
"$NATIVE_BUILD_DIR/test_matrix_f"
"$NATIVE_BUILD_DIR/test_f32_parity"
"$NATIVE_BUILD_DIR/test_batch_stacker"
"$NATIVE_BUILD_DIR/test_inference_forward"
"$NATIVE_BUILD_DIR/test_matmul_transpose"
"$NATIVE_BUILD_DIR/test_training_forward"
"$NATIVE_BUILD_DIR/test_features"
"$NATIVE_BUILD_DIR/test_ops_properties"
echo "native-SIMD f32 suites, the GEMM, forward, k-means and activation oracles green"

echo "=== ASan+UBSan: every suite ==="
ASAN_BUILD_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -O1 -g -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  -DBSG_BUILD_BENCHES=OFF
cmake --build "$ASAN_BUILD_DIR" -j "$JOBS"
(cd "$ASAN_BUILD_DIR" && BSG_NUM_THREADS=4 ctest --output-on-failure -j "$JOBS")
echo "ASan+UBSan: every suite green"
