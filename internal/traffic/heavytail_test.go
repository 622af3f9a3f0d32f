package traffic

import (
	"math"
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestFlowSizeCDFValidation(t *testing.T) {
	mustPanic(t, "mismatched lengths", func() {
		NewFlowSizeCDF("x", []float64{1, 2}, []float64{1})
	})
	mustPanic(t, "empty", func() {
		NewFlowSizeCDF("x", nil, nil)
	})
	mustPanic(t, "non-ascending bytes", func() {
		NewFlowSizeCDF("x", []float64{10, 10}, []float64{0.5, 1})
	})
	mustPanic(t, "non-ascending cum", func() {
		NewFlowSizeCDF("x", []float64{10, 20}, []float64{0.8, 0.8})
	})
	mustPanic(t, "not ending at 1", func() {
		NewFlowSizeCDF("x", []float64{10, 20}, []float64{0.5, 0.9})
	})
	mustPanic(t, "zero byte size", func() {
		NewFlowSizeCDF("x", []float64{0, 20}, []float64{0.5, 1})
	})
}

// Every builtin distribution samples within its own support, and the draw
// stream is a pure function of the RNG seed.
func TestFlowSizeCDFSampleBoundsAndDeterminism(t *testing.T) {
	for _, name := range []string{"websearch", "datamining", "cache"} {
		c, err := CDFByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int(c.Bytes[0]), int(c.Bytes[len(c.Bytes)-1])
		a, b := sim.NewRNG(99), sim.NewRNG(99)
		seenAboveMin := false
		for i := 0; i < 10000; i++ {
			s := c.Sample(a)
			if s < lo || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", name, s, lo, hi)
			}
			if s > lo {
				seenAboveMin = true
			}
			if s2 := c.Sample(b); s2 != s {
				t.Fatalf("%s: same-seed draw %d diverged (%d vs %d)", name, i, s, s2)
			}
		}
		if !seenAboveMin {
			t.Errorf("%s: all 10k samples at the minimum — interpolation dead", name)
		}
	}
}

func TestCDFByNameUnknown(t *testing.T) {
	if _, err := CDFByName("pareto"); err == nil {
		t.Error("unknown CDF name accepted")
	}
}

func TestTruncate(t *testing.T) {
	c := WebSearchCDF()
	capBytes := 100e3
	tr := c.Truncate(capBytes)
	if got := tr.Bytes[len(tr.Bytes)-1]; got != capBytes {
		t.Fatalf("truncated support ends at %g, want %g", got, capBytes)
	}
	if tr.Cum[len(tr.Cum)-1] != 1 {
		t.Fatal("truncated CDF does not end at probability 1")
	}
	if !strings.Contains(tr.Label, c.Label) {
		t.Errorf("truncated label %q lost the base name", tr.Label)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 5000; i++ {
		if s := tr.Sample(rng); float64(s) > capBytes {
			t.Fatalf("truncated sample %d above cap %g", s, capBytes)
		}
	}
	if tr.Mean() >= c.Mean() {
		t.Errorf("truncation did not reduce the mean: %g >= %g", tr.Mean(), c.Mean())
	}
	// A cap at or above the support is a no-op.
	if c.Truncate(1e9) != c {
		t.Error("no-op truncation copied the distribution")
	}
}

// The numeric mean must sit inside the support and agree with the
// empirical sample mean (they share the interpolation).
func TestMeanMatchesSampling(t *testing.T) {
	c := CacheCDF()
	mean := c.Mean()
	if mean <= c.Bytes[0] || mean >= c.Bytes[len(c.Bytes)-1] {
		t.Fatalf("mean %g outside support", mean)
	}
	rng := sim.NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(c.Sample(rng))
	}
	emp := sum / n
	if math.Abs(emp-mean)/mean > 0.03 {
		t.Errorf("numeric mean %g vs empirical %g: drift > 3%%", mean, emp)
	}
}

func TestNewGroupLocalRejectsBadShape(t *testing.T) {
	for _, c := range []struct {
		name          string
		nodes, groups int
		pLocal        float64
	}{
		{"group too small", 16, 1, 0.5},
		{"single group", 8, 8, 0.5},
		{"pLocal above 1", 16, 4, 1.5},
		{"negative pLocal", 16, 4, -0.1},
		{"NaN pLocal", 16, 4, math.NaN()},
	} {
		if _, err := NewGroupLocal(c.nodes, c.groups, c.pLocal); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Bad heavy-tail specs come back as errors, and nothing is scheduled.
func TestInstallHeavyTailRejectsBadSpec(t *testing.T) {
	net := buildNet(t)
	ok := HeavyTail{Pattern: Uniform{Nodes: 16}, Sizes: CacheCDF(), FlowRate: 1e5,
		OnMean: 10 * sim.Microsecond, End: 100 * sim.Microsecond}
	for _, c := range []struct {
		name string
		edit func(*HeavyTail)
	}{
		{"zero flow rate", func(h *HeavyTail) { h.FlowRate = 0 }},
		{"negative flow rate", func(h *HeavyTail) { h.FlowRate = -5 }},
		{"NaN flow rate", func(h *HeavyTail) { h.FlowRate = math.NaN() }},
		{"no CDF", func(h *HeavyTail) { h.Sizes = nil }},
		{"zero ON duration", func(h *HeavyTail) { h.OnMean = 0 }},
		{"negative OFF duration", func(h *HeavyTail) { h.OffMean = -1 }},
		{"empty window", func(h *HeavyTail) { h.Start = h.End }},
	} {
		spec := ok
		c.edit(&spec)
		if src, err := InstallHeavyTail(net, spec, sim.NewRNG(1)); err == nil || src != nil {
			t.Errorf("%s: got sources %v, err %v", c.name, src, err)
		}
	}
	if net.Eng.Len() != 0 {
		t.Fatalf("rejected specs scheduled %d events", net.Eng.Len())
	}
	if _, err := InstallHeavyTail(net, ok, sim.NewRNG(1)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// Locality skew: the realized local fraction tracks PLocal, destinations
// never equal the source, and both branches cover their whole range.
func TestGroupLocalDestination(t *testing.T) {
	const nodes, group = 40, 8
	for _, pLocal := range []float64{0, 0.5, 0.9} {
		p, err := NewGroupLocal(nodes, group, pLocal)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(7)
		const draws = 40000
		local := 0
		hit := make([]bool, nodes)
		src := topology.NodeID(11) // group 1 = nodes 8..15
		for i := 0; i < draws; i++ {
			d := p.Destination(src, rng)
			if d < 0 || int(d) >= nodes {
				t.Fatalf("pLocal=%g: destination %d out of range", pLocal, d)
			}
			if d == src {
				t.Fatalf("pLocal=%g: destination equals source", pLocal)
			}
			hit[d] = true
			if int(d)/group == int(src)/group {
				local++
			}
		}
		frac := float64(local) / draws
		if math.Abs(frac-pLocal) > 0.02 {
			t.Errorf("pLocal=%g: realized local fraction %.3f", pLocal, frac)
		}
		for d := 0; d < nodes; d++ {
			if d == int(src) {
				continue
			}
			isLocal := d/group == int(src)/group
			if pLocal > 0 && pLocal < 1 && !hit[d] {
				t.Errorf("pLocal=%g: node %d (local=%v) never drawn", pLocal, d, isLocal)
			}
		}
	}
}

// Pattern interface conformance and naming.
func TestGroupLocalIsPattern(t *testing.T) {
	g, err := NewGroupLocal(16, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var p Pattern = g
	if p.Name() != "grouplocal" {
		t.Errorf("Name() = %q", p.Name())
	}
}
