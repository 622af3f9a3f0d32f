package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// repOpts selects what one repetition of a workload measures besides its
// host time.
type repOpts struct {
	tracer  *tracer        // wrap routing, topology and core in timing spans
	probe   *shardProbe    // attach to the shard group
	profile *profileShares // CPU-profile Execute
	slice   sim.Time       // >0: time the injection window in slices of this simulated length
	heap    bool           // sample the peak heap
	short   bool           // the shortened variant of the workload (tests)
}

// rep is one simulation of a workload, assembled, run to drain and checked.
type rep struct {
	newNs, installNs, execNs, totalNs int64
	sliceMs                           []float64
	peakHeap                          uint64
	rt                                runtimeDelta
	spans                             spanDelta
	res                               runner.Results
	digest                            string
	err                               error
	s                                 *runner.Sim
	injectEnd                         sim.Time
}

// runRep builds, installs, executes and checks one simulation.
func runRep(w *workload, seed uint64, o repOpts) rep {
	var r rep
	runtime.GC()
	before := readRuntime()
	var sampler *heapSampler
	if o.heap {
		sampler = startHeapSampler(time.Millisecond)
	}
	var topo topology.Topology
	if o.tracer != nil {
		topo = tracedTopology{inner: w.topo(), t: o.tracer}
	}
	t0 := nanotime()
	s, err := runner.New(w.experiment(seed, topo))
	if err != nil {
		r.err = fmt.Errorf("runner.New: %w", err)
		sampler.stop()
		return r
	}
	t1 := nanotime()
	end, err := w.install(s, o.short)
	if err != nil {
		r.err = fmt.Errorf("install: %w", err)
		sampler.stop()
		return r
	}
	horizon := end + drainAllowance
	t2 := nanotime()
	if o.tracer != nil {
		s.Net.Policy = tracedPolicy{inner: s.Net.Policy, t: o.tracer}
		wrapSources(s.Net, o.tracer)
	}
	if o.probe != nil {
		s.Net.Group().SetProbe(o.probe)
	}
	var prof bytes.Buffer
	if o.profile != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.err = fmt.Errorf("cpu profile: %w", err)
			sampler.stop()
			return r
		}
	}
	spansBefore := o.tracer.snapshot()
	t3 := nanotime()
	if o.slice > 0 {
		r.res = executeSliced(s, end, horizon, o.slice, func(ns int64) { r.sliceMs = append(r.sliceMs, float64(ns)/1e6) })
	} else {
		r.res = s.Execute(horizon)
	}
	t4 := nanotime()
	r.spans = o.tracer.snapshot().sub(spansBefore)
	if o.profile != nil {
		pprof.StopCPUProfile()
		if err := o.profile.add(prof.Bytes()); err != nil {
			r.err = err
		}
	}
	if o.probe != nil {
		s.Net.Group().SetProbe(nil)
	}
	if sampler != nil {
		r.peakHeap = sampler.stop()
	}
	r.rt = readRuntime().sub(before)
	r.newNs, r.installNs, r.execNs, r.totalNs = t1-t0, t2-t1, t4-t3, t4-t0
	r.s, r.injectEnd = s, end
	if r.err == nil {
		r.err = checkDrain(s, r.res)
	}
	r.digest = digest(s, r.res)
	return r
}

// executeSliced times the engines over the injection window in fixed
// simulated slices, then runs Execute to horizon as an unsliced run does,
// so both end at the same simulated time with the same summary. The slices
// call Net.Drain, the engine part of Execute, so they do not pay for a
// Results summary each. slice is rounded to a multiple of the shard window
// so sliced and unsliced runs execute the same windows.
func executeSliced(s *runner.Sim, injectEnd, horizon, slice sim.Time, onSlice func(ns int64)) runner.Results {
	if g := s.Net.Group(); g != nil {
		slice = (slice + g.Window - 1) / g.Window * g.Window
	}
	for h := slice; h <= injectEnd; h += slice {
		t0 := nanotime()
		s.Net.Drain(h)
		onSlice(nanotime() - t0)
	}
	return s.Execute(horizon)
}

// runtimeDelta is the Go runtime's work over one repetition.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return runtimeDelta{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcCPU:        samples[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// heapSampler polls the bytes held by heap objects and keeps the maximum.
type heapSampler struct {
	quit, done chan struct{}
	peak       atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// read is called by the sampler goroutine and, before it starts and after
// it stops, by the owner; never concurrently.
func (h *heapSampler) read() {
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// stop ends the sampler, waits for it and returns the peak. Nil-safe.
func (h *heapSampler) stop() uint64 {
	if h == nil {
		return 0
	}
	close(h.quit)
	<-h.done
	h.read()
	return h.peak.Load()
}
