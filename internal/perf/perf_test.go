package perf

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// bounce ping-pongs events between two shards so every window has work
// and remote records.
type bounce struct {
	g     *sim.ShardGroup
	shard int
	peer  *bounce
	hops  int
}

func (b *bounce) HandleEvent(e *sim.Engine, kind uint8, arg uint64) {
	if int(arg) >= b.hops {
		return
	}
	b.g.Send(b.shard, b.peer.shard, sim.RemoteEvent{
		At:     e.Now() + 100,
		Target: b.peer,
		Arg:    arg + 1,
	})
}

func runProfiled(t *testing.T, opts Options) (*Profiler, *sim.ShardGroup) {
	t.Helper()
	g := sim.NewShardGroup(2, 100)
	a := &bounce{g: g, shard: 0, hops: 40}
	b := &bounce{g: g, shard: 1, hops: 40}
	a.peer, b.peer = b, a
	g.Engines[0].ScheduleEvent(0, a, 0, 0)
	p := New(opts)
	p.BindGroup(g)
	p.RunStart()
	g.RunAll()
	p.RunEnd()
	return p, g
}

func TestProfilerShardedAggregation(t *testing.T) {
	p, g := runProfiled(t, Options{Trace: true})
	r := p.Report()
	if !r.Sharded || r.Shards != 2 {
		t.Fatalf("mode wrong: %+v", r)
	}
	if r.Windows == 0 {
		t.Fatal("no windows profiled")
	}
	if r.TotalEvents != g.Processed() {
		t.Fatalf("profiled %d events, group processed %d", r.TotalEvents, g.Processed())
	}
	if r.RemoteRecords != 40 {
		t.Fatalf("remote records %d, want 40", r.RemoteRecords)
	}
	if r.WallNs <= 0 || r.BusyNs < 0 || r.IdleNs < 0 {
		t.Fatalf("wall accounting wrong: %+v", r)
	}
	if r.Concurrency == ConcurrencyParallel && r.ImbalanceRatio < 1 {
		t.Fatalf("imbalance %v < 1", r.ImbalanceRatio)
	}
	if r.TraceSpans != int(r.Windows) {
		t.Fatalf("retained %d spans for %d windows", r.TraceSpans, r.Windows)
	}
	var evs uint64
	for _, s := range r.PerShard {
		evs += s.Events
	}
	if evs != r.TotalEvents {
		t.Fatalf("per-shard events sum %d != total %d", evs, r.TotalEvents)
	}
}

// Every shard is timed from its own start, so a shard's busy plus idle
// time is the window's execution wall whether the shards run in line
// (GOMAXPROCS=1) or as goroutines: over the run, busy + idle summed over
// shards is shards × exec wall. In line, each shard starts where the
// previous one finished, and the report carries no imbalance or speedup.
func TestProfilerBusyIdleSumToExecWall(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		p, _ := runProfiled(t, Options{Trace: true})
		runtime.GOMAXPROCS(prev)
		r := p.Report()
		if r.DroppedSpans != 0 || r.TraceSpans != int(r.Windows) {
			t.Fatalf("procs=%d: %d spans for %d windows", procs, r.TraceSpans, r.Windows)
		}
		var execWall int64
		for _, sp := range p.spans {
			execWall += sp.BarrierNs - sp.ExecNs
			for i, ss := range sp.Shards {
				if ss.BusyNs < 0 || ss.IdleNs < 0 || ss.StartNs < 0 || ss.BusyNs+ss.IdleNs != sp.BarrierNs-sp.ExecNs {
					t.Fatalf("procs=%d shard %d: span %+v in a %d ns window", procs, i, ss, sp.BarrierNs-sp.ExecNs)
				}
			}
			if procs == 1 {
				a, b := sp.Shards[0], sp.Shards[1]
				if b.StartNs < a.StartNs+a.BusyNs {
					t.Fatalf("in line, shard 1 starts at %d ns, before shard 0 ends at %d ns", b.StartNs, a.StartNs+a.BusyNs)
				}
			}
		}
		if got, want := r.BusyNs+r.IdleNs, int64(r.Shards)*execWall; got != want {
			t.Fatalf("procs=%d: busy+idle = %d ns, want shards × exec wall = %d ns", procs, got, want)
		}
		for _, s := range r.PerShard {
			if s.BusyNs+s.IdleNs != execWall {
				t.Fatalf("procs=%d shard %d: busy+idle = %d ns, exec wall %d ns", procs, s.Shard, s.BusyNs+s.IdleNs, execWall)
			}
		}
		var text bytes.Buffer
		r.WriteText(&text, false)
		if procs == 1 || runtime.NumCPU() < r.Shards {
			if r.Concurrency != ConcurrencySequential || r.ImbalanceRatio != 0 || r.EffectiveSpeedup != 0 {
				t.Fatalf("procs=%d: sequential run reports %s imbalance=%v speedup=%v",
					procs, r.Concurrency, r.ImbalanceRatio, r.EffectiveSpeedup)
			}
			if out := text.String(); !strings.Contains(out, "concurrency=sequential") || strings.Contains(out, "imbalance=") {
				t.Fatalf("procs=%d: sequential rendering:\n%s", procs, out)
			}
			if snap := p.Snapshot(); snap.Concurrency != ConcurrencySequential || snap.ImbalanceRatio != 0 || snap.EffectiveSpeedup != 0 {
				t.Fatalf("procs=%d: sequential snapshot %+v", procs, snap)
			}
		} else if r.Concurrency != ConcurrencyParallel || r.ImbalanceRatio < 1 ||
			!strings.Contains(text.String(), "imbalance=") {
			t.Fatalf("procs=%d: parallel run reports %s imbalance=%v", procs, r.Concurrency, r.ImbalanceRatio)
		}
	}
}

func TestProfilerReportJSONRoundTrip(t *testing.T) {
	p, _ := runProfiled(t, Options{})
	r := p.Report()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	var w1, w2 bytes.Buffer
	r.WriteText(&w1, true)
	back.WriteText(&w2, true)
	if w1.String() != w2.String() {
		t.Fatalf("deterministic rendering changed across JSON round trip:\n%s\nvs\n%s", w1.String(), w2.String())
	}
}

func TestProfilerTraceIsValidChromeJSON(t *testing.T) {
	p, _ := runProfiled(t, Options{Trace: true})
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var winSlices, waitSlices, barrierSlices, metas int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
			metas++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "win@"):
			winSlices++
		case ev.Ph == "X" && ev.Name == "barrier-wait":
			waitSlices++
		case ev.Ph == "X" && ev.Tid == barrierTid:
			barrierSlices++
		}
	}
	if metas < 3 { // process + barrier track + >=1 shard track
		t.Fatalf("missing track metadata: %d", metas)
	}
	if winSlices == 0 {
		t.Fatal("no per-shard window slices")
	}
	if waitSlices == 0 {
		t.Fatal("no barrier-wait slices — idle time is invisible")
	}
	if barrierSlices == 0 {
		t.Fatal("no coordinator barrier slices")
	}
}

func TestProfilerSerialBind(t *testing.T) {
	e := sim.NewEngine()
	fired := 0
	for i := 0; i < 100; i++ {
		e.Schedule(sim.Time(i*10), func(*sim.Engine) { fired++ })
	}
	p := New(Options{})
	p.BindSerial(func() []sim.EngineStats { return []sim.EngineStats{e.Stats()} })
	p.RunStart()
	e.RunAll()
	p.RunEnd()
	r := p.Report()
	if r.Sharded || r.Shards != 1 {
		t.Fatalf("mode wrong: %+v", r)
	}
	if r.TotalEvents != 100 {
		t.Fatalf("events %d, want 100", r.TotalEvents)
	}
	if r.Windows != 0 {
		t.Fatalf("serial run reported %d windows", r.Windows)
	}
	if r.WallNs <= 0 || r.BusyNs != r.WallNs {
		t.Fatalf("serial busy should equal wall: %+v", r)
	}
	// A second Execute segment folds deltas, not absolutes.
	for i := 0; i < 50; i++ {
		e.Schedule(e.Now()+sim.Time(i*10), func(*sim.Engine) { fired++ })
	}
	p.RunStart()
	e.RunAll()
	p.RunEnd()
	if r := p.Report(); r.TotalEvents != 150 {
		t.Fatalf("after second segment events %d, want 150", r.TotalEvents)
	}
}

func TestProfilerMetricsRegistration(t *testing.T) {
	p, _ := runProfiled(t, Options{})
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg)
	scalars := reg.Snapshot()
	if scalars["perf.windows"] == 0 {
		t.Fatalf("perf.windows gauge empty: %v", scalars)
	}
	for _, name := range []string{"perf.shard0.busy_ns", "perf.shard1.busy_ns", "perf.wall_ns"} {
		if _, ok := scalars[name]; !ok {
			t.Fatalf("missing gauge %s", name)
		}
	}
	hists := reg.SnapshotHistograms()
	h, ok := hists["perf.window_exec_ns.shard0"]
	if !ok {
		t.Fatalf("missing per-shard window histogram: %v", hists)
	}
	if h.Count == 0 {
		t.Fatal("window histogram has no samples")
	}
	// The exposition must accept the perf metric names.
	var buf bytes.Buffer
	if err := telemetry.WriteExposition(&buf, scalars, hists); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(&buf); err != nil {
		t.Fatalf("perf metrics break the exposition: %v", err)
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	p.RunStart()
	p.RunEnd()
	p.BindGroup(nil)
	p.BindSerial(nil)
	p.RegisterMetrics(nil)
	if p.Snapshot() != nil {
		t.Fatal("nil profiler produced a snapshot")
	}
	if p.Bound() || p.Sharded() {
		t.Fatal("nil profiler claims state")
	}
	r := p.Report()
	var buf bytes.Buffer
	r.WriteText(&buf, false)
	if !strings.Contains(buf.String(), "mode=serial") {
		t.Fatalf("empty report rendering broken:\n%s", buf.String())
	}
}
