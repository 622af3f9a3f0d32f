package prdrb

import (
	"fmt"
	"runtime"
	"testing"

	"prdrb/internal/perf"
)

// benchShardedOnce drives the BenchmarkHotPath scenario (saturated 64-node
// fat-tree, uniform traffic, minimal-adaptive routing) at the given shard
// count and returns events processed and packets delivered. A non-nil
// profiler is attached to measure where the wall time went.
func benchShardedOnce(b *testing.B, shards int, seed uint64, p *perf.Profiler) (events, pkts uint64) {
	s := MustNewSim(Experiment{Topology: FatTree(4, 3), Policy: PolicyAdaptive, Seed: seed, Shards: shards})
	if p != nil {
		s.AttachPerf(p)
	}
	if err := s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 800, Start: 0, End: Millisecond}); err != nil {
		b.Fatal(err)
	}
	s.Execute(2 * Second)
	for _, sh := range s.Net.Shards {
		events += sh.Eng.Processed
	}
	return events, uint64(s.Collector.Throughput.AcceptedPkts)
}

// BenchmarkParallelShards measures the conservative-parallel engine on the
// BenchmarkHotPath scenario across shard counts. scripts/bench.sh turns its
// output into BENCH_parallel.json (the 1/2/4/8-shard scaling curve);
// shards=1 is the serial reference engine, so the ratio of any sharded
// pkts/sec to the shards=1 pkts/sec is the parallel speedup (events/sec
// would not compare like with like: the sharded engine adds mailbox and
// boundary-credit events and skips a different set of link releases). The
// gomaxprocs and per-shard idle_s<i>_pct metrics (barrier-wait share of
// each shard's window wall time, from the engine profiler) ride along so
// the artifact records whether the curve had real cores to scale onto and
// how much of the residual gap is load imbalance.
func BenchmarkParallelShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := perf.New(perf.Options{})
			var events, pkts uint64
			for i := 0; i < b.N; i++ {
				e, pk := benchShardedOnce(b, shards, uint64(i+1), p)
				events += e
				pkts += pk
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(pkts)/b.Elapsed().Seconds(), "pkts/sec")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			for _, sr := range p.Report().PerShard {
				b.ReportMetric(sr.IdleFraction*100, fmt.Sprintf("idle_s%d_pct", sr.Shard))
			}
		})
	}
}
