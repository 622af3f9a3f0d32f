package main

import (
	"runtime"
	"testing"
)

// TestShardProbeBusyPlusIdle runs the sharded workload, shortened, under
// the probe with the shards in line (GOMAXPROCS=1) and as goroutines
// (GOMAXPROCS=2). In both, every shard's busy plus idle time must add up to
// shards × the windows' execution wall, and the events the probe saw must
// be the events the engines ran. In line, the shards' busy times must not
// overlap: their sum stays within the execution wall, which fails if a
// shard is timed from the shared window start.
func TestShardProbeBusyPlusIdle(t *testing.T) {
	w, err := workloadByName("df4096-prdrb-heavytail")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		p := newShardProbe(w.shards)
		r := runRep(w, testSeed, repOpts{short: true, probe: p})
		runtime.GOMAXPROCS(prev)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if p.windows == 0 {
			t.Fatalf("GOMAXPROCS=%d: probe saw no windows", procs)
		}
		if p.inline != (procs == 1) {
			t.Fatalf("GOMAXPROCS=%d: inline=%v", procs, p.inline)
		}
		var busy, total int64
		for i := range p.busy {
			if p.busy[i] < 0 || p.idle[i] < 0 {
				t.Fatalf("GOMAXPROCS=%d shard %d: busy %d idle %d", procs, i, p.busy[i], p.idle[i])
			}
			busy += p.busy[i]
			total += p.busy[i] + p.idle[i]
		}
		if want := int64(w.shards) * p.execNs; total != want {
			t.Fatalf("GOMAXPROCS=%d: busy+idle = %d ns, shards × exec wall = %d ns", procs, total, want)
		}
		if got := r.s.Processed(); p.events != got {
			t.Fatalf("GOMAXPROCS=%d: probe counted %d events, engines ran %d", procs, p.events, got)
		}
		if procs == 1 && busy > p.execNs {
			t.Fatalf("in line, shards were busy %d ns in %d ns of execution", busy, p.execNs)
		}
		want := "sequential"
		if procs >= w.shards && runtime.NumCPU() >= w.shards {
			want = "parallel"
		}
		if p.concurrency() != want {
			t.Fatalf("GOMAXPROCS=%d: concurrency %s, want %s", procs, p.concurrency(), want)
		}
	}
}
