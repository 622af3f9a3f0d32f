#!/bin/sh
# bench_gate.sh — the CI benchmark-regression gates.
#
# Hot-path gate: runs BenchmarkHotPath for REPS repetitions at a short
# benchtime, takes the best rep (max pkts/sec — best-of damps scheduler
# and neighbour noise on shared runners), and compares it against the
# committed baseline artifact BENCH_hotpath.json:
#
#   - pkts/sec may not regress more than MAX_REGRESS_PCT (default 20%)
#   - allocs/pkt may not increase at all (beyond a 0.002 absolute
#     epsilon that absorbs amortised slice-growth jitter); the baseline
#     is the artifact's allocs_per_op / pkts_per_op
#
# Both are per delivered packet, not per event: the event count is an
# engine detail (a port schedules its link-release event only when a
# packet waits for the link), so a change that sheds events raises
# events/sec and allocs/event without the simulator doing more or less
# work per packet.
#
# Scale gate: BenchmarkScale4096 per-node heap/alloc ceilings against
# BENCH_scale.json (see the section comment below).
#
# Curve gate: BenchmarkParallelShards speedup-vs-serial per shard count
# against the committed BENCH_parallel.json curve. A point is ENFORCED
# only when this host has at least that many CPUs (otherwise the shard
# goroutines are time-sliced and the "speedup" measures the scheduler,
# not parallelism) and the baseline was recorded on a host with the same
# CPU count; every other point is reported warn-only.
#
# Wall-clock benchmarks are only comparable between machines of the same
# shape, so every gate first checks the baseline's recorded host_cpus
# against this host and REFUSES the comparison (warn, not fail) on a
# mismatch. Regenerate the artifacts with scripts/bench.sh on the CI
# machine class to re-arm a skipped gate.
#
# The raw `go test -bench` outputs go to $BENCH_OUT / $SCALE_OUT /
# $PAR_OUT so CI can upload them as artifacts.
#
# Usage: scripts/bench_gate.sh [benchtime, default 1s] [reps, default 3]
# Env:   CURVE_ONLY=1   run only the scaling-curve gate
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1s}"
REPS="${2:-3}"
MAX_REGRESS_PCT="${MAX_REGRESS_PCT:-20}"
CURVE_REGRESS_PCT="${CURVE_REGRESS_PCT:-25}"
BENCH_OUT="${BENCH_OUT:-bench_raw.txt}"
SCALE_OUT="${SCALE_OUT:-bench_scale_raw.txt}"
PAR_OUT="${PAR_OUT:-bench_parallel_raw.txt}"

HOST_CPUS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# baseline_cpus FILE — the host_cpus the artifact was recorded on.
baseline_cpus() {
    sed -n 's/.*"host_cpus": \([0-9]*\),*.*/\1/p' "$1" | sed -n 1p
}

if [ "${CURVE_ONLY:-0}" != "1" ]; then

# --- hot-path gate ----------------------------------------------------
BASELINE=BENCH_hotpath.json
[ -f "$BASELINE" ] || { echo "bench_gate: missing $BASELINE" >&2; exit 1; }

# Pull the committed numbers out of the baseline artifact (POSIX tools
# only — the gate must run anywhere the tests run).
# pkts_per_sec appears twice (the historical baseline block, then the
# current block); the gate compares against the current one.
base_pkts=$(sed -n 's/.*"pkts_per_sec": \([0-9.]*\),*/\1/p' "$BASELINE" | sed -n 2p)
base_allocs_op=$(sed -n 's/.*"allocs_per_op": \([0-9.]*\),*/\1/p' "$BASELINE")
base_pkts_op=$(sed -n 's/.*"pkts_per_op": \([0-9.]*\),*/\1/p' "$BASELINE")
base_cpus=$(baseline_cpus "$BASELINE")
[ -n "$base_pkts" ] && [ -n "$base_allocs_op" ] && [ -n "$base_pkts_op" ] || {
    echo "bench_gate: could not parse baseline from $BASELINE" >&2; exit 1
}
base_allocs=$(awk -v a="$base_allocs_op" -v p="$base_pkts_op" 'BEGIN { printf "%.4f", a / p }')

echo "==> baseline: $base_pkts pkts/sec, $base_allocs allocs/pkt (host_cpus=${base_cpus:-?})"
echo "==> go test -bench BenchmarkHotPath -benchtime $BENCHTIME -count $REPS"
go test -run '^$' -bench BenchmarkHotPath -benchtime "$BENCHTIME" -count "$REPS" \
    -benchmem . | tee "$BENCH_OUT"

if [ "${base_cpus:-}" != "$HOST_CPUS" ]; then
    echo "bench_gate: SKIP hot-path comparison — baseline host_cpus=${base_cpus:-unset}, this host has $HOST_CPUS (regenerate $BASELINE on this machine class to re-arm)"
else
awk -v base_pkts="$base_pkts" -v base_allocs="$base_allocs" \
    -v max_regress="$MAX_REGRESS_PCT" '
/^BenchmarkHotPath/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "pkts/op")   r_po = $(i-1)
        if ($i == "pkts/sec")  r_ps = $(i-1)
        if ($i == "allocs/op") r_ao = $(i-1)
    }
    if (r_ps + 0 > ps + 0) { ps = r_ps; po = r_po; ao = r_ao }
}
END {
    if (ps == "") { print "bench_gate: no BenchmarkHotPath line found" > "/dev/stderr"; exit 1 }
    allocs = ao / po
    floor = base_pkts * (1 - max_regress / 100)
    printf "==> best of reps: %.0f pkts/sec (floor %.0f), %.4f allocs/pkt (baseline %s)\n", \
        ps, floor, allocs, base_allocs
    fail = 0
    if (ps + 0 < floor) {
        printf "bench_gate: FAIL — pkts/sec regressed >%s%% (%.0f < %.0f)\n", max_regress, ps, floor
        fail = 1
    }
    if (allocs > base_allocs + 0.002) {
        printf "bench_gate: FAIL — allocs/pkt increased (%.4f > %s)\n", allocs, base_allocs
        fail = 1
    }
    if (fail) exit 1
    print "==> bench gate OK"
}' "$BENCH_OUT"
fi

# --- datacenter-scale memory gate -------------------------------------
# BenchmarkScale4096 assembles the 4096-node dragonfly under heavy-tail
# load; the committed BENCH_scale.json pins its per-node heap footprint
# and allocation count. Heap may not grow more than 15% and allocs/node
# more than 10% + 0.5 absolute — an accidental O(nodes^2) table blows
# both by orders of magnitude, while GC jitter stays inside the margin.
# (Per-node memory is machine-shape independent, so this gate does not
# need the host_cpus guard the wall-clock gates use.)
SCALE_BASELINE=BENCH_scale.json

[ -f "$SCALE_BASELINE" ] || { echo "bench_gate: missing $SCALE_BASELINE" >&2; exit 1; }

base_heap=$(sed -n 's/.*"heap_bytes_per_node": \([0-9.]*\),*/\1/p' "$SCALE_BASELINE")
base_nallocs=$(sed -n 's/.*"allocs_per_node": \([0-9.]*\),*/\1/p' "$SCALE_BASELINE")
scale_nodes=$(sed -n 's/.*"nodes": \([0-9]*\),*/\1/p' "$SCALE_BASELINE")
[ -n "$base_heap" ] && [ -n "$base_nallocs" ] && [ -n "$scale_nodes" ] || {
    echo "bench_gate: could not parse scale baseline from $SCALE_BASELINE" >&2; exit 1
}

echo "==> scale baseline: $base_heap heap bytes/node, $base_nallocs allocs/node ($scale_nodes nodes)"
echo "==> go test -bench BenchmarkScale4096 -benchtime 1x -count $REPS"
go test -run '^$' -bench BenchmarkScale4096 -benchtime 1x -count "$REPS" \
    -benchmem . | tee "$SCALE_OUT"

awk -v base_heap="$base_heap" -v base_nallocs="$base_nallocs" -v nodes="$scale_nodes" '
/^BenchmarkScale4096/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "heap_bytes/node") r_hb = $(i-1)
        if ($i == "allocs/op")       r_ao = $(i-1)
    }
    # Best (minimum) across reps: memory is deterministic per seed, so the
    # lowest rep has the least GC/measurement noise.
    if (hb == "" || r_hb + 0 < hb + 0) hb = r_hb
    if (ao == "" || r_ao + 0 < ao + 0) ao = r_ao
}
END {
    if (hb == "") { print "bench_gate: no BenchmarkScale4096 line found" > "/dev/stderr"; exit 1 }
    nallocs = ao / nodes
    heap_ceil = base_heap * 1.15
    allocs_ceil = base_nallocs * 1.10 + 0.5
    printf "==> best of reps: %.0f heap bytes/node (ceiling %.0f), %.2f allocs/node (ceiling %.2f)\n", \
        hb, heap_ceil, nallocs, allocs_ceil
    fail = 0
    if (hb + 0 > heap_ceil) {
        printf "bench_gate: FAIL — per-node heap grew (%.0f > %.0f bytes/node)\n", hb, heap_ceil
        fail = 1
    }
    if (nallocs > allocs_ceil) {
        printf "bench_gate: FAIL — per-node allocations grew (%.2f > %.2f)\n", nallocs, allocs_ceil
        fail = 1
    }
    if (fail) exit 1
    print "==> scale gate OK"
}' "$SCALE_OUT"

fi # CURVE_ONLY

# --- parallel scaling-curve gate --------------------------------------
# The 1/2/4/8-shard speedup curve from BenchmarkParallelShards against
# the committed BENCH_parallel.json. speedup_vs_serial is the pkts/sec
# ratio to the shards=1 serial engine (the serial and sharded engines
# execute different numbers of events for the same packets, so an
# events/sec ratio would not compare like with like). It is measured
# inside one run, so it survives machine-speed differences but NOT
# machine-shape differences: a point is enforced only when
# host_cpus >= shards here AND the baseline's host_cpus matches.
PAR_BASELINE=BENCH_parallel.json
[ -f "$PAR_BASELINE" ] || { echo "bench_gate: missing $PAR_BASELINE" >&2; exit 1; }

par_base_cpus=$(baseline_cpus "$PAR_BASELINE")
base_curve=$(sed -n 's/.*{"shards": \([0-9]*\),.*"speedup_vs_serial": \([0-9.]*\).*/\1 \2/p' "$PAR_BASELINE")
[ -n "$base_curve" ] || {
    echo "bench_gate: could not parse curve from $PAR_BASELINE" >&2; exit 1
}

echo "==> curve baseline (host_cpus=${par_base_cpus:-?}):"
echo "$base_curve" | while read -r s sp; do echo "      shards=$s speedup_vs_serial=$sp"; done
echo "==> go test -bench BenchmarkParallelShards -benchtime $BENCHTIME -count $REPS"
go test -run '^$' -bench BenchmarkParallelShards -benchtime "$BENCHTIME" -count "$REPS" \
    . | tee "$PAR_OUT"

echo "$base_curve" | awk -v host_cpus="$HOST_CPUS" -v base_cpus="${par_base_cpus:-0}" \
    -v max_regress="$CURVE_REGRESS_PCT" -v raw="$PAR_OUT" '
{ base[$1] = $2; if (!($1 in bseen)) { border[++bn] = $1; bseen[$1] = 1 } }
END {
    while ((getline line < raw) > 0) {
        if (line !~ /^BenchmarkParallelShards\//) continue
        nf = split(line, f, /[ \t]+/)
        split(f[1], parts, "=")
        split(parts[2], tail, "-")
        shards = tail[1]
        r_ps = 0
        for (i = 1; i <= nf; i++) {
            if (f[i] == "pkts/sec")   r_ps = f[i-1]
            if (f[i] == "gomaxprocs") gmp = f[i-1]
        }
        if (r_ps + 0 > ps[shards] + 0) ps[shards] = r_ps
    }
    close(raw)
    if (!(1 in ps)) { print "bench_gate: no shards=1 reference in " raw > "/dev/stderr"; exit 1 }
    comparable = (base_cpus + 0 == host_cpus + 0)
    if (!comparable)
        printf "bench_gate: curve baseline host_cpus=%d, this host has %d — all points warn-only (regenerate %s on this machine class to re-arm)\n", \
            base_cpus, host_cpus, "BENCH_parallel.json"
    if (gmp + 0 > 0 && gmp + 0 != host_cpus + 0)
        printf "bench_gate: note — GOMAXPROCS=%d differs from host_cpus=%d\n", gmp, host_cpus
    fail = 0
    for (i = 1; i <= bn; i++) {
        s = border[i]
        if (!(s in ps)) { printf "bench_gate: curve point shards=%s missing from this run\n", s; fail = 1; continue }
        sp = ps[s] / ps[1]
        floor = base[s] * (1 - max_regress / 100)
        enforced = comparable && (host_cpus + 0 >= s + 0)
        status = enforced ? "ENFORCED" : "warn-only"
        verdict = (sp >= floor) ? "ok" : "BELOW FLOOR"
        printf "==> shards=%s: speedup %.3f (baseline %.3f, floor %.3f) [%s] %s\n", \
            s, sp, base[s], floor, status, verdict
        if (enforced && sp < floor) {
            printf "bench_gate: FAIL — shards=%s speedup regressed >%s%% (%.3f < %.3f)\n", \
                s, max_regress, sp, floor
            fail = 1
        }
    }
    if (fail) exit 1
    print "==> curve gate OK"
}'
