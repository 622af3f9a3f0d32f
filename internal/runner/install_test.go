package runner

import (
	"strings"
	"testing"

	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

// Bad user input to the installers and the experiment comes back as an
// error naming the field, never as a panic or a silent accept.
func TestInstallersRejectBadInput(t *testing.T) {
	ht := func(edit func(*HeavyTailSpec)) func(*Sim) error {
		return func(s *Sim) error {
			spec := HeavyTailSpec{CDF: "cache", PLocal: 0.5, LoadMbps: 100,
				OnMean: 50 * sim.Microsecond, End: 100 * sim.Microsecond}
			edit(&spec)
			return s.InstallHeavyTail(spec)
		}
	}
	pattern := func(rate float64) func(*Sim) error {
		return func(s *Sim) error {
			return s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: rate, End: 100 * sim.Microsecond})
		}
	}
	for _, c := range []struct {
		name    string
		install func(*Sim) error
		want    string
	}{
		{"pattern rate 0", pattern(0), "rate"},
		{"pattern rate -5", pattern(-5), "rate"},
		{"pattern empty window", func(s *Sim) error {
			return s.InstallPattern(PatternSpec{Pattern: "uniform", RateMbps: 100})
		}, "window"},
		{"bursts rate 0", func(s *Sim) error {
			_, err := s.InstallBursts(BurstSpec{Pattern: "uniform", Len: 10, Gap: 10, Count: 2})
			return err
		}, "rate"},
		{"variable bursts rate -5", func(s *Sim) error {
			_, err := s.InstallVariableBursts([]BurstSpec{{Pattern: "uniform", RateMbps: -5, Len: 10}}, 2)
			return err
		}, "rate"},
		{"hotspot rate 0", func(s *Sim) error {
			return s.InstallHotSpot(map[topology.NodeID]topology.NodeID{0: 15}, 0, 0, 100*sim.Microsecond)
		}, "rate"},
		{"heavytail load 0", ht(func(h *HeavyTailSpec) { h.LoadMbps = 0 }), "load"},
		{"heavytail ON 0", ht(func(h *HeavyTailSpec) { h.OnMean = 0 }), "ON duration"},
		{"heavytail negative OFF", ht(func(h *HeavyTailSpec) { h.OffMean = -1 }), "OFF duration"},
		{"heavytail plocal 7 uniform", ht(func(h *HeavyTailSpec) { h.PLocal = 7 }), "PLocal"},
		{"heavytail plocal -1 grouplocal", ht(func(h *HeavyTailSpec) {
			h.PLocal, h.Pattern = -1, "grouplocal"
		}), "PLocal"},
		{"heavytail group 1", ht(func(h *HeavyTailSpec) {
			h.Pattern, h.GroupSize = "grouplocal", 1
		}), "groupSize"},
		{"heavytail empty window", ht(func(h *HeavyTailSpec) { h.End = 0 }), "window"},
	} {
		s, err := New(Experiment{Topology: topology.NewMesh(4, 4), Policy: PolicyPRDRB, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = c.install(s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
		if n := s.Eng.Len(); n != 0 {
			t.Errorf("%s: rejected input scheduled %d events", c.name, n)
		}
	}
}

func TestNewRejectsNegativeShards(t *testing.T) {
	_, err := New(Experiment{Topology: topology.NewMesh(4, 4), Shards: -3})
	if err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("shards=-3: err = %v", err)
	}
	for _, shards := range []int{0, 1, 2} {
		if _, err := New(Experiment{Topology: topology.NewMesh(4, 4), Shards: shards}); err != nil {
			t.Fatalf("shards=%d rejected: %v", shards, err)
		}
	}
}
