package main

import (
	"runtime"
	"strings"
	"testing"

	"prdrb/internal/runner"
	"prdrb/internal/sim"
	"prdrb/internal/topology"
)

const testSeed = 3

// inLine runs the test body with GOMAXPROCS=1 when the workload is
// sharded, as the traced run does.
func inLine(t *testing.T, w *workload) {
	if w.shards > 1 {
		prev := runtime.GOMAXPROCS(1)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestWrappersKeepTheSimulation runs each workload, shortened, with the
// timing wrappers off and on: the digests must match, so the traced ledger
// describes the same simulation as the untraced metrics. Slicing Execute,
// as the ledger's phases do, must not change it either.
func TestWrappersKeepTheSimulation(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			inLine(t, w)
			plain := runRep(w, testSeed, repOpts{short: true})
			if plain.err != nil {
				t.Fatal(plain.err)
			}
			tr := newTracer(16)
			traced := runRep(w, testSeed, repOpts{short: true, tracer: tr, slice: w.slice / 4})
			if traced.err != nil {
				t.Fatal(traced.err)
			}
			if traced.digest != plain.digest {
				t.Fatalf("traced digest %s, untraced %s\ntraced:   %+v\nuntraced: %+v", traced.digest, plain.digest, traced.res, plain.res)
			}
			if len(traced.sliceMs) < 2 {
				t.Fatalf("sliced run timed %d slices", len(traced.sliceMs))
			}
			if traced.spans.calls[layerRouting] == 0 || traced.spans.calls[layerTopology] == 0 {
				t.Fatalf("traced run recorded no routing or topology spans: %+v", traced.spans.calls)
			}
			drb := w.policy.IsDRBFamily()
			if got := traced.spans.calls[layerCorePrepare] > 0; got != drb {
				t.Fatalf("core spans recorded=%v for policy %s", got, w.policy)
			}
		})
	}
}

// TestHeavyTailGroupSizeIsTheRunnersDefault pins the df4096 workload's
// spelled-out group width to the one the runner derives from an unwrapped
// dragonfly, and shows why it is spelled out: with the topology wrapped,
// the runner's *topology.Dragonfly assertion fails and the derived width
// silently shrinks to one router's nodes.
func TestHeavyTailGroupSizeIsTheRunnersDefault(t *testing.T) {
	w, err := workloadByName("df4096-prdrb-heavytail")
	if err != nil {
		t.Fatal(err)
	}
	inLine(t, w)
	const end = 10 * sim.Microsecond
	run := func(topo topology.Topology, spec runner.HeavyTailSpec) string {
		s, err := runner.New(w.experiment(testSeed, topo))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallHeavyTail(spec); err != nil {
			t.Fatal(err)
		}
		res := s.Execute(end + drainAllowance)
		if err := checkDrain(s, res); err != nil {
			t.Fatal(err)
		}
		return digest(s, res)
	}
	derived := heavyTailSpec(end)
	derived.GroupSize = 0
	want := run(nil, derived)
	if got := run(nil, heavyTailSpec(end)); got != want {
		t.Fatalf("spelled-out group size gives digest %s, the runner's default %s", got, want)
	}
	if got := run(tracedTopology{inner: w.topo(), t: newTracer(0)}, heavyTailSpec(end)); got != want {
		t.Fatalf("wrapped topology with the spelled-out group size gives digest %s, want %s", got, want)
	}
	if got := run(tracedTopology{inner: w.topo(), t: newTracer(0)}, derived); got == want {
		t.Fatal("a wrapped topology no longer changes the derived group size; the spelled-out width may be dropped")
	}
}

// TestCheckDrainNamesTheFailedCheck stops a run before it drains: the
// check must fail and say which check.
func TestCheckDrainNamesTheFailedCheck(t *testing.T) {
	w, err := workloadByName("ft64-adaptive-uniform")
	if err != nil {
		t.Fatal(err)
	}
	s, err := runner.New(w.experiment(testSeed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.install(s, true); err != nil {
		t.Fatal(err)
	}
	res := s.Execute(100 * sim.Microsecond)
	err = checkDrain(s, res)
	if err == nil || !strings.HasPrefix(err.Error(), "check ") {
		t.Fatalf("undrained run passed the check or gave an unnamed error: %v", err)
	}
	if res = s.Execute(100 * sim.Millisecond); checkDrain(s, res) != nil {
		t.Fatalf("drained run fails: %v", checkDrain(s, res))
	}
}

// TestCheckerCountsDigestMismatch feeds the checker a repetition whose
// digest differs from the first.
func TestCheckerCountsDigestMismatch(t *testing.T) {
	var out strings.Builder
	c := &checker{out: &out}
	c.check(rep{digest: "a"})
	c.check(rep{digest: "a"})
	r := c.check(rep{digest: "b"})
	if c.attempted != 3 || c.failed != 1 || r.err == nil || !strings.Contains(out.String(), "check digest") {
		t.Fatalf("attempted=%d failed=%d err=%v out=%q", c.attempted, c.failed, r.err, out.String())
	}
}
