package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"prdrb/internal/sim"
)

// spanCost is the calibrated cost of an empty span. inner is the part
// between its two clock reads, which a span's own duration contains; full
// is the whole begin/end pair, which the caller pays.
type spanCost struct{ inner, full float64 }

// calibrateSpan times empty spans in a tight loop: the median of seven
// trials of 200k spans each.
func calibrateSpan() spanCost {
	const n = 200000
	var inners, fulls []float64
	for trial := 0; trial < 7; trial++ {
		t := newTracer(0)
		t0 := nanotime()
		for i := 0; i < n; i++ {
			t.begin(layerRouting)
			t.end()
		}
		fulls = append(fulls, float64(nanotime()-t0)/n)
		inners = append(inners, float64(t.selfNs[layerRouting])/n)
	}
	return spanCost{inner: median(inners), full: median(fulls)}
}

// ledger measures the workload layer by layer. Its phases share the
// --seconds budget:
//
//   - baseline: untraced, the injection window timed in slices; gives the
//     runner, runtime and slice figures and the reference wall time;
//   - traced: the same with routing, topology and core wrapped in spans;
//     gives the self-time ledger and, against the baseline, the tracing
//     overhead;
//   - profile: untraced under the CPU profiler; gives the package shares
//     the ledger is reconciled with;
//   - probe (sharded workloads): untraced with the shard probe, at the
//     host's GOMAXPROCS; gives the window and barrier figures.
//
// A sharded workload runs its first three phases with its shards in line
// (the caller sets GOMAXPROCS=1), so the spans nest on one stack; its
// ledger then attributes the CPU time of all shards, and adds up to the
// wall time. The probe phase runs at hostProcs. The ledger file written to
// outDir starts with the host shape.
func ledger(stdout io.Writer, w *workload, seed uint64, seconds float64, hostProcs int, host, outDir string) (outcome, error) {
	cost := calibrateSpan()
	fracs := []float64{0.3, 0.35, 0.35, 0}
	if w.shards > 1 {
		fracs = []float64{0.3, 0.3, 0.25, 0.15}
	}
	c := &checker{out: stdout}
	slice := w.slice
	phase := func(frac float64, min int, opts repOpts) []rep {
		deadline := nanotime() + int64(frac*seconds*1e9)
		var reps []rep
		for len(reps) < min || nanotime() < deadline {
			if len(reps) > 0 {
				reps[len(reps)-1].s = nil // keep only the last simulation
			}
			reps = append(reps, c.check(runRep(w, seed, opts)))
		}
		return reps
	}
	c.check(runRep(w, seed, repOpts{slice: slice})) // warm-up
	base := phase(fracs[0], 2, repOpts{slice: slice})
	tr := newTracer(4096)
	traced := phase(fracs[1], 1, repOpts{slice: slice, tracer: tr})
	prof := &profileShares{}
	phase(fracs[2], 1, repOpts{slice: slice, profile: prof})
	var probe *shardProbe
	var probed []rep
	if w.shards > 1 {
		inLine := runtime.GOMAXPROCS(hostProcs)
		probe = newShardProbe(w.shards)
		probed = phase(fracs[3], 1, repOpts{slice: slice, probe: probe})
		runtime.GOMAXPROCS(inLine)
	}
	fmt.Fprintf(stdout, "digest %s\n", c.ref)

	var text strings.Builder
	ms := ledgerMetrics(&text, w, base, traced, prof, probe, probed, cost)
	fmt.Fprint(stdout, text.String())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return outcome{}, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(stem+".ledger.txt", []byte("host "+host+"\n"+text.String()), 0o644); err != nil {
		return outcome{}, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", prof.last, 0o644); err != nil {
		return outcome{}, err
	}
	if err := writeSpans(stem+".spans.jsonl", tr.sample); err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(stdout, "wrote %s.{ledger.txt,cpu.pprof,spans.jsonl}\n", stem)
	return outcome{attempted: c.attempted, failed: c.failed, metrics: ms}, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerMetrics turns the phases into the per-layer metrics, writing the
// human-readable ledger to out.
func ledgerMetrics(out io.Writer, w *workload, base, traced []rep, prof *profileShares, probe *shardProbe, probed []rep, cost spanCost) []metric {
	var ms []metric
	put := func(name string, v float64, unit string) {
		ms = append(ms, metric{name, v, unit})
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, v, unit)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	each := func(reps []rep, f func(r rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	var slices []float64
	for _, r := range base {
		slices = append(slices, r.sliceMs...)
	}
	put("runner.new_s", median(each(base, func(r rep) float64 { return float64(r.newNs) / 1e9 })), "s")
	put("runner.install_s", median(each(base, func(r rep) float64 { return float64(r.installNs) / 1e9 })), "s")
	put("runner.slice_p50_ms", quantile(slices, 0.5), "ms")
	put("runner.slice_p99_ms", quantile(slices, 0.99), "ms")

	// Simulated counters repeat exactly for a seed; read them off the last
	// baseline simulation.
	last := base[len(base)-1]
	s, res := last.s, last.res
	var peakQueue int
	var farOverflows uint64
	for _, sh := range s.Net.Shards {
		st := sh.Eng.Stats()
		peakQueue += st.PeakQueue
		farOverflows += st.FarOverflows
	}
	events := float64(s.Processed())
	put("sim.events", events, "count")
	put("sim.events_per_pkt", ratio(events, float64(res.DeliveredPkts)), "ratio")
	put("sim.peak_queue", float64(peakQueue), "count")
	put("sim.far_overflows", float64(farOverflows), "count")

	// The span ledger over the traced Execute calls, per repetition.
	var d spanDelta
	var wall int64
	for _, r := range traced {
		d.add(r.spans)
		wall += r.execNs
	}
	n := float64(len(traced))
	self := func(l layer) float64 {
		return float64(d.selfNs[l]) - float64(d.calls[l])*cost.inner - float64(d.children[l])*(cost.full-cost.inner)
	}
	var spans int64
	for l := range d.calls {
		spans += d.calls[l]
	}
	routingS, topoS := self(layerRouting)/n/1e9, self(layerTopology)/n/1e9
	coreS := (self(layerCorePrepare) + self(layerCoreAck) + self(layerCoreLoss)) / n / 1e9
	// The tracing's own cost: every span's begin/end pair.
	overheadS := float64(spans) * cost.full / n / 1e9
	wallS := float64(wall) / n / 1e9
	remainderS := wallS - routingS - topoS - coreS - overheadS

	put("simnet.self_s", remainderS, "s")
	put("simnet.ns_per_event", ratio(remainderS*1e9, events), "ns")
	issued, freePeak := s.Net.PacketPoolStats()
	put("network.pkts_issued", float64(issued), "count")
	put("network.pkt_free_peak", float64(freePeak), "count")
	put("network.credit_stalls", float64(s.Net.CreditsStalled()), "count")
	sent, dropped := float64(s.Net.PredictiveAcksSent()), float64(s.Net.PredictiveAcksDropped())
	put("network.pred_acks_sent", sent, "count")
	put("network.pred_ack_drop_ratio", ratio(dropped, sent+dropped), "ratio")
	put("network.link_busy_frac", linkBusyFrac(last), "ratio")

	put("routing.calls", float64(d.calls[layerRouting])/n, "count")
	put("routing.self_s", routingS, "s")
	put("routing.ns_per_call", ratio(routingS*1e9*n, float64(d.calls[layerRouting])), "ns")
	put("topology.calls", float64(d.calls[layerTopology])/n, "count")
	put("topology.self_s", topoS, "s")
	put("topology.ns_per_call", ratio(topoS*1e9*n, float64(d.calls[layerTopology])), "ns")
	st := res.Stats
	put("core.prepare_calls", float64(d.calls[layerCorePrepare])/n, "count")
	put("core.ack_calls", float64(d.calls[layerCoreAck])/n, "count")
	put("core.self_s", coreS, "s")
	put("core.ns_per_ack", ratio(self(layerCoreAck), float64(d.calls[layerCoreAck])), "ns")
	put("core.paths_opened", float64(st.PathsOpened), "count")
	put("core.patterns_saved", float64(st.PatternsSaved), "count")
	put("core.reuse_applications", float64(st.ReuseApplications), "count")
	put("core.reuse_per_save", ratio(float64(st.ReuseApplications), float64(st.PatternsSaved)), "ratio")
	put("core.predictive_acks", float64(st.PredictiveAcks), "count")
	put("core.watchdog_firings", float64(st.WatchdogFirings), "count")

	gcCPU := median(each(base, func(r rep) float64 { return r.rt.gcCPU }))
	put("gc.cpu_s", gcCPU, "s")
	put("gc.cycles", median(each(base, func(r rep) float64 { return float64(r.rt.gcCycles) })), "count")
	put("gc.alloc_objects", median(each(base, func(r rep) float64 { return float64(r.rt.allocObjects) })), "count")

	baseExec := median(each(base, func(r rep) float64 { return float64(r.execNs) }))
	tracedExec := median(each(traced, func(r rep) float64 { return float64(r.execNs) }))
	put("trace.overhead_frac", ratio(tracedExec, baseExec)-1, "ratio")
	put("trace.span_ns", cost.full, "ns")

	for _, g := range []string{"routing", "topology", "core", "sim", "network", "gc"} {
		put("pprof."+g+"_share", prof.share(g), "ratio")
	}

	// The reconciliation table: span self time as a share of the traced
	// wall time, beside the CPU profile's package shares.
	fmt.Fprintf(out, "\nledger over %d traced run(s), %.6g s wall per run; pprof over %d samples\n", len(traced), wallS, prof.samples)
	fmt.Fprintf(out, "%-22s %12s %8s %8s\n", "layer", "self_s", "share", "pprof")
	row := func(name string, sec float64, pp float64) {
		fmt.Fprintf(out, "%-22s %12.6g %7.1f%% %7.1f%%\n", name, sec, 100*ratio(sec, wallS), 100*pp)
	}
	row("routing", routingS, prof.share("routing"))
	row("topology", topoS, prof.share("topology"))
	row("core", coreS, prof.share("core"))
	row("sim+network+rest", remainderS, 1-prof.share("routing")-prof.share("topology")-prof.share("core")-prof.share("gc"))
	row("span overhead", overheadS, 0)
	fmt.Fprintf(out, "%-22s %12.6g %7.1f%% %7.1f%%\n", "total", routingS+topoS+coreS+remainderS+overheadS,
		100*ratio(routingS+topoS+coreS+remainderS+overheadS, wallS), 100*(1-prof.share("gc")))
	fmt.Fprintf(out, "%-22s %12.6g %8s %7.1f%%  (gc.cpu_s of the baseline; CPU on any core)\n", "gc", gcCPU, "", 100*prof.share("gc"))
	fmt.Fprintf(out, "span overhead: %d spans × %.4g ns calibrated; traced minus untraced wall measured %.6g s\n",
		spans/int64(len(traced)), cost.full, (tracedExec-baseExec)/1e9)
	fmt.Fprintf(out, "pprof by package:")
	for _, g := range []string{"sim", "network", "routing", "topology", "core", "runner", "traffic", "metrics", "gc", "other"} {
		fmt.Fprintf(out, " %s=%.1f%%", g, 100*prof.share(g))
	}
	fmt.Fprintln(out)

	if probe != nil {
		// Per run, like the span ledger.
		pn := float64(len(probed))
		fmt.Fprintf(out, "\nshard probe over %d run(s): shards=%d concurrency=%s GOMAXPROCS=%d nproc=%d\n",
			len(probed), w.shards, probe.concurrency(), probe.procs, runtime.NumCPU())
		fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.windows", float64(probe.windows)/pn, "count")
		fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.events_per_window", ratio(float64(probe.events), float64(probe.windows)), "ratio")
		fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.exec_s", float64(probe.execNs)/pn/1e9, "s")
		if probe.concurrency() == "parallel" {
			fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.barrier_wait_s", float64(probe.idleTotal())/pn/1e9, "s")
			fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.imbalance", probe.imbalance(), "ratio")
			// Both phases slice alike; the baseline runs the shards in line.
			parallel := median(each(probed, func(r rep) float64 { return float64(r.execNs) }))
			fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.parallel_speedup", ratio(baseExec, parallel), "ratio")
		} else {
			fmt.Fprintf(out, "sim.barrier_wait_s, sim.imbalance, sim.parallel_speedup: not measurable, the shards share cores\n")
		}
		fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.flush_s", float64(probe.flushNs)/pn/1e9, "s")
		fmt.Fprintf(out, "%-28s %14.6g %s\n", "sim.remote_records", float64(probe.remote)/pn, "count")
	}
	return ms
}

// linkBusyFrac is the mean busy fraction of the router-to-router links
// over the injection window.
func linkBusyFrac(r rep) float64 {
	var busy sim.Time
	links := 0
	for _, ls := range r.s.Net.LinkStats() {
		if ls.Router < 0 || !ls.Wired {
			continue
		}
		if peer := r.s.Net.Topo.PortPeer(ls.Router, ls.Port); !peer.IsRouter() {
			continue
		}
		busy += ls.BusyNs
		links++
	}
	if links == 0 || r.injectEnd == 0 {
		return 0
	}
	return float64(busy) / (float64(links) * float64(r.injectEnd))
}
