package main

import (
	"testing"
)

func TestGroupOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess1_fast64", "prdrb/internal/core.(*Controller).metapathFor", "prdrb/internal/network.(*NIC).Send"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc1", "runtime.mallocgc", "prdrb/internal/sim.(*Engine).alloc"}, "gc"},
		{[]string{"prdrb/internal/sim.(*Engine).heapPop", "prdrb/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := groupOf(c.frames); got != c.want {
			t.Errorf("groupOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestProfileSharesOfARun profiles one full repetition of the hot-path
// workload: the decoder must find samples, and most of them must land in
// the simulator's own packages.
func TestProfileSharesOfARun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime takes the samples")
	}
	w, err := workloadByName("ft64-adaptive-uniform")
	if err != nil {
		t.Fatal(err)
	}
	p := &profileShares{}
	if r := runRep(w, testSeed, repOpts{profile: p}); r.err != nil {
		t.Fatal(r.err)
	}
	if p.samples == 0 {
		t.Fatal("profile decoded no samples")
	}
	sim := p.share("sim") + p.share("network") + p.share("routing") + p.share("topology") + p.share("traffic") + p.share("metrics")
	if sim < 0.5 {
		t.Fatalf("simulator packages hold %.0f%% of %d samples: %v", 100*sim, p.samples, p.byGroup)
	}
	if p.share("core") != 0 {
		t.Fatalf("adaptive routing has no controllers, yet core holds %.1f%%", 100*p.share("core"))
	}
}
