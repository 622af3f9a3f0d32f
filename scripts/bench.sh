#!/bin/sh
# bench.sh — run the simulator benchmarks and emit the committed artifacts
# BENCH_hotpath.json and BENCH_parallel.json.
#
# BenchmarkHotPath drives a saturated 64-node fat-tree (uniform traffic,
# minimal-adaptive routing) and reports engineering metrics for the
# simulator core: ns per event, allocations per event, simulated packets
# per wall-clock second. The JSON keeps the pre-refactor baseline (the
# closure-dispatch engine, measured on the same machine class before the
# typed-event rework) next to the current numbers so the speedup is
# auditable from the committed artifact alone.
#
# BenchmarkParallelShards runs the same scenario through the conservative
# parallel engine at 1/2/4/8 shards; the emitted curve records events/sec
# and pkts/sec per shard count plus the speedup over the serial reference,
# computed from pkts/sec: the serial and sharded engines execute different
# numbers of events for the same delivered packets. The
# shard goroutines only run concurrently when the host grants more than
# one CPU, so host_cpus is recorded alongside the curve — on a 1-CPU host
# the curve isolates the windowed-wheel scheduler gain with zero
# parallel contribution.
#
# Both benchmarks run COUNT times and the artifact keeps the best rep per
# configuration (max pkts/sec) — best-of damps scheduler/neighbour noise
# the same way the CI regression gate does.
#
# Usage: scripts/bench.sh [benchtime, default 5s] [count, default 3]
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-5s}"
COUNT="${2:-3}"
OUT=BENCH_hotpath.json
PAROUT=BENCH_parallel.json

HOST_CPUS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

echo "==> go test -bench BenchmarkHotPath -benchtime $BENCHTIME -count $COUNT"
RAW=$(go test -run '^$' -bench BenchmarkHotPath -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee /dev/stderr)

echo "$RAW" | awk -v benchtime="$BENCHTIME" -v cpus="$HOST_CPUS" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkHotPath/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "events/op")   r_events_op  = $(i-1)
        if ($i == "events/sec")  r_events_sec = $(i-1)
        if ($i == "ns/event")    r_ns_event   = $(i-1)
        if ($i == "pkts/op")     r_pkts_op    = $(i-1)
        if ($i == "pkts/sec")    r_pkts_sec   = $(i-1)
        if ($i == "allocs/op")   r_allocs_op  = $(i-1)
        if ($i == "gomaxprocs")  r_gmp        = $(i-1)
    }
    # Best-of across -count reps: keep the fastest rep.
    if (r_pkts_sec + 0 > pkts_sec + 0) {
        events_op = r_events_op; events_sec = r_events_sec; ns_event = r_ns_event
        pkts_op = r_pkts_op; pkts_sec = r_pkts_sec; allocs_op = r_allocs_op
        gmp = r_gmp
    }
}
END {
    if (events_sec == "") { print "bench.sh: no BenchmarkHotPath line found" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkHotPath\",\n"
    printf "  \"scenario\": \"fat-tree 4-ary 3-tree (64 nodes), adaptive policy, uniform 800 Mbps, 1 ms injection + drain\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"baseline\": {\n"
    printf "    \"description\": \"closure-heap engine before the typed-event refactor (same machine class, go1.24 linux/amd64)\",\n"
    printf "    \"ns_per_event\": 499.7,\n"
    printf "    \"events_per_sec\": 2001164,\n"
    printf "    \"allocs_per_event\": 2.48,\n"
    printf "    \"pkts_per_sec\": 168753\n"
    printf "  },\n"
    printf "  \"current\": {\n"
    printf "    \"ns_per_event\": %s,\n", ns_event
    printf "    \"events_per_sec\": %.0f,\n", events_sec
    printf "    \"allocs_per_event\": %.4f,\n", allocs_op / events_op
    printf "    \"allocs_per_pkt\": %.4f,\n", allocs_op / pkts_op
    printf "    \"allocs_per_op\": %s,\n", allocs_op
    printf "    \"events_per_op\": %.0f,\n", events_op
    printf "    \"pkts_per_op\": %.0f,\n", pkts_op
    printf "    \"pkts_per_sec\": %.0f\n", pkts_sec
    printf "  },\n"
    printf "  \"speedup_events_per_sec\": %.2f\n", events_sec / 2001164
    printf "}\n"
}' > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"

echo "==> go test -bench BenchmarkParallelShards -benchtime $BENCHTIME -count $COUNT"
PARRAW=$(go test -run '^$' -bench BenchmarkParallelShards -benchtime "$BENCHTIME" -count "$COUNT" . | tee /dev/stderr)

echo "$PARRAW" | awk -v benchtime="$BENCHTIME" -v cpus="$HOST_CPUS" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkParallelShards\// {
    split($1, parts, "=")
    split(parts[2], tail, "-")
    shards = tail[1]
    for (k in r_idle) delete r_idle[k]
    r_nid = 0
    for (i = 1; i <= NF; i++) {
        if ($i == "events/sec") r_es = $(i-1)
        if ($i == "ns/event")   r_ne = $(i-1)
        if ($i == "events/op")  r_eo = $(i-1)
        if ($i == "pkts/sec")   r_ps = $(i-1)
        if ($i == "gomaxprocs") r_gmp = $(i-1)
        if ($i ~ /^idle_s[0-9]+_pct$/) {
            k = substr($i, 7, length($i) - 10)
            r_idle[k] = $(i-1)
            if (k + 1 > r_nid) r_nid = k + 1
        }
    }
    # Best-of across -count reps, per shard count; the idle fractions
    # travel with their rep so the row stays internally consistent.
    if (r_ps + 0 > ps[shards] + 0) {
        es[shards] = r_es; ne[shards] = r_ne; eo[shards] = r_eo; ps[shards] = r_ps
        gmp = r_gmp
        nid[shards] = r_nid
        for (k = 0; k < r_nid; k++) idle[shards, k] = r_idle[k]
    }
    if (!(shards in seen)) { order[++n] = shards; seen[shards] = 1 }
}
END {
    if (n == 0) { print "bench.sh: no BenchmarkParallelShards lines found" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkParallelShards\",\n"
    printf "  \"scenario\": \"fat-tree 4-ary 3-tree (64 nodes), adaptive policy, uniform 800 Mbps, 1 ms injection + drain\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"note\": \"shards=1 is the serial reference engine (binary heap); shards>=2 run the conservative parallel engine (windowed wheel, one goroutine per shard when GOMAXPROCS>1). With host_cpus=1 the shard goroutines are time-sliced on one core, so the curve shows only the scheduler-algorithm difference; parallel wall-clock scaling requires host_cpus >= shards. speedup_vs_serial is the pkts_per_sec ratio to shards=1 (the engines execute different event counts for the same packets). idle_pct is each shard'\''s barrier-wait share of window wall time from the engine profiler (non-deterministic).\",\n"
    printf "  \"curve\": [\n"
    for (i = 1; i <= n; i++) {
        s = order[i]
        printf "    {\"shards\": %s, \"events_per_sec\": %.0f, \"ns_per_event\": %s, \"events_per_op\": %.0f, \"pkts_per_sec\": %.0f, \"speedup_vs_serial\": %.3f, \"idle_pct\": [", \
            s, es[s], ne[s], eo[s], ps[s], ps[s] / ps[order[1]]
        for (k = 0; k < nid[s]; k++) printf "%s%.1f", (k ? ", " : ""), idle[s, k]
        printf "]}%s\n", (i < n) ? "," : ""
    }
    printf "  ],\n"
    printf "  \"speedup_4x\": %.3f\n", ps[4] / ps[order[1]]
    printf "}\n"
}' > "$PAROUT"

echo "==> wrote $PAROUT"
cat "$PAROUT"

echo "==> go test -bench BenchmarkScale4096 -benchtime 1x -count $COUNT"
SCALEOUT=BENCH_scale.json
SCALERAW=$(go test -run '^$' -bench BenchmarkScale4096 -benchtime 1x -count "$COUNT" -benchmem . | tee /dev/stderr)

echo "$SCALERAW" | awk -v cpus="$HOST_CPUS" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkScale4096/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "events/sec")      r_es = $(i-1)
        if ($i == "heap_bytes/node") r_hb = $(i-1)
        if ($i == "pkts/op")         r_po = $(i-1)
        if ($i == "B/op")            r_bo = $(i-1)
        if ($i == "allocs/op")       r_ao = $(i-1)
        if ($i == "gomaxprocs")      gmp  = $(i-1)
    }
    # Best-of across reps for throughput; minimum across reps for the
    # memory figures (the workload is seeded per rep, so lower = less GC
    # noise, not less work).
    if (r_es + 0 > es + 0) { es = r_es; po = r_po }
    if (hb == "" || r_hb + 0 < hb + 0) hb = r_hb
    if (bo == "" || r_bo + 0 < bo + 0) bo = r_bo
    if (ao == "" || r_ao + 0 < ao + 0) ao = r_ao
}
END {
    if (es == "") { print "bench.sh: no BenchmarkScale4096 line found" > "/dev/stderr"; exit 1 }
    nodes = 4096
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkScale4096\",\n"
    printf "  \"scenario\": \"dragonfly df-16-32-8-8 (4096 nodes, 512 routers), pr-drb, cache-CDF grouplocal heavy-tail @ 100 Mbps/node, 50 us window, 4 shards\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"nodes\": %d,\n", nodes
    printf "  \"heap_bytes_per_node\": %.0f,\n", hb
    printf "  \"alloc_bytes_per_node\": %.1f,\n", bo / nodes
    printf "  \"allocs_per_node\": %.2f,\n", ao / nodes
    printf "  \"events_per_sec\": %.0f,\n", es
    printf "  \"pkts_per_op\": %.0f\n", po
    printf "}\n"
}' > "$SCALEOUT"

echo "==> wrote $SCALEOUT"
cat "$SCALEOUT"

echo "==> go test -bench BenchmarkCheckpoint -benchtime 1x -count $COUNT"
CKPTOUT=BENCH_checkpoint.json
CKPTRAW=$(go test -run '^$' -bench BenchmarkCheckpoint -benchtime 1x -count "$COUNT" . | tee /dev/stderr)

echo "$CKPTRAW" | awk -v cpus="$HOST_CPUS" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkCheckpoint/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "ckpt_bytes")  r_cb = $(i-1)
        if ($i == "write_ns")    r_wn = $(i-1)
        if ($i == "restore_ns")  r_rn = $(i-1)
        if ($i == "gomaxprocs")  gmp  = $(i-1)
    }
    # Best-of across reps: minimum write/restore time (noise only ever
    # adds), the size is deterministic and identical every rep.
    cb = r_cb
    if (wn == "" || r_wn + 0 < wn + 0) wn = r_wn
    if (rn == "" || r_rn + 0 < rn + 0) rn = r_rn
}
END {
    if (cb == "") { print "bench.sh: no BenchmarkCheckpoint line found" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkCheckpoint\",\n"
    printf "  \"scenario\": \"dragonfly df-16-32-8-8 (4096 nodes, 512 routers), pr-drb, cache-CDF grouplocal heavy-tail @ 100 Mbps/node, checkpoint at the 25 us barrier, 4 shards\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"gomaxprocs\": %d,\n", gmp
    printf "  \"ckpt_bytes\": %.0f,\n", cb
    printf "  \"write_ms\": %.2f,\n", wn / 1e6
    printf "  \"restore_ms\": %.2f,\n", rn / 1e6
    printf "  \"note\": \"write_ms covers capture + atomic file write; restore_ms covers deterministic replay to the checkpoint time plus section-by-section byte verification against the file.\"\n"
    printf "}\n"
}' > "$CKPTOUT"

echo "==> wrote $CKPTOUT"
cat "$CKPTOUT"
