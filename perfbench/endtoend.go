package main

import (
	"fmt"
	"io"
	"math"
)

// minReps is the fewest measured repetitions a run reports medians over,
// whatever --seconds says.
const minReps = 5

// checker counts repetitions and failures, and holds every repetition of a
// seed to the digest of the first: the simulated output must not depend on
// the repetition, the tracing or the slicing of Execute.
type checker struct {
	out               io.Writer
	ref               string
	attempted, failed int
}

func (c *checker) check(r rep) rep {
	c.attempted++
	if c.ref == "" {
		c.ref = r.digest
	}
	if r.err == nil && r.digest != c.ref {
		r.err = fmt.Errorf("check digest: %s, the first run of this seed gave %s", r.digest, c.ref)
	}
	if r.err != nil {
		c.failed++
		fmt.Fprintf(c.out, "run %d FAILED: %v\n", c.attempted, r.err)
	}
	return r
}

// endToEnd measures the untraced workload: one warm-up repetition, then
// repetitions until --seconds have passed, and reports medians.
func endToEnd(stdout io.Writer, w *workload, seed uint64, seconds float64) outcome {
	c := &checker{out: stdout}
	opts := repOpts{heap: true}
	c.check(runRep(w, seed, opts)) // warm-up: heap growth, lazy runtime set-up
	deadline := nanotime() + int64(seconds*1e9)
	var reps []rep
	for len(reps) < minReps || nanotime() < deadline {
		r := c.check(runRep(w, seed, opts))
		r.s = nil // let the simulation go before the next one is timed
		reps = append(reps, r)
	}
	fmt.Fprintf(stdout, "digest %s\n", c.ref)
	each := func(f func(r rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	const mib = 1 << 20
	ms := []metric{
		summarize(stdout, "setup_s", "s", each(func(r rep) float64 { return float64(r.newNs+r.installNs) / 1e9 })),
		summarize(stdout, "total_s", "s", each(func(r rep) float64 { return float64(r.totalNs) / 1e9 })),
		summarize(stdout, "pkts_per_s", "pkt/s", each(func(r rep) float64 { return float64(r.res.DeliveredPkts) / (float64(r.execNs) / 1e9) })),
		summarize(stdout, "peak_heap_mb", "MiB", each(func(r rep) float64 { return float64(r.peakHeap) / mib })),
		summarize(stdout, "alloc_mb", "MiB", each(func(r rep) float64 { return float64(r.rt.allocBytes) / mib })),
		summarize(stdout, "sim_latency_us", "us", each(func(r rep) float64 { return r.res.GlobalLatencyUs })),
		summarize(stdout, "sim_p99_us", "us", each(func(r rep) float64 { return r.res.P99Us })),
	}
	return outcome{attempted: c.attempted, failed: c.failed, metrics: ms}
}

// summarize prints a series' median, quartiles and, once at least ten
// samples lie beyond it, its highest such percentile; it returns the
// median.
func summarize(out io.Writer, name, unit string, xs []float64) metric {
	m := median(xs)
	fmt.Fprintf(out, "%-22s %14.6g %-6s p25=%.6g p75=%.6g", name, m, unit, quantile(xs, 0.25), quantile(xs, 0.75))
	if n := len(xs); n >= 20 {
		q := math.Floor(100*(1-10/float64(n))) / 100
		fmt.Fprintf(out, " p%.0f=%.6g", 100*q, quantile(xs, q))
	}
	fmt.Fprintf(out, " n=%d\n", len(xs))
	return metric{name, m, unit}
}
