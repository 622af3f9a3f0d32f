package runner

import (
	"testing"

	"prdrb/internal/network"
	"prdrb/internal/sim"
	"prdrb/internal/telemetry"
)

// TestSamplersTickThroughReservedReleases: one 1 KiB message crosses the
// default fat-tree, and the run's last work is a link release held as an
// engine reservation, not a queued event. The status and congestion
// samplers re-arm while work remains, so they must publish exactly the
// ticks, up to the same last tick time, that they published when every
// release was a queued event, and every run must end at the same simulated
// time. The figures were recorded with eager release events. Each sampler
// runs alone: two samplers keep each other armed until the horizon.
func TestSamplersTickThroughReservedReleases(t *testing.T) {
	const horizon = 10 * sim.Millisecond
	run := func(congestion bool, board *telemetry.Board) (*Sim, Results) {
		s := MustNew(Experiment{Policy: PolicyPRDRB, Seed: 3, Congestion: congestion, CongestionWindow: 500})
		if board != nil {
			s.AttachStatus(board, 500)
		}
		s.Eng.Schedule(0, func(e *sim.Engine) { s.Net.NICs[0].Send(e, 63, 1024, network.MPISend, 0) })
		return s, s.Execute(horizon)
	}

	// Without samplers the run ends at its last link release.
	if _, res := run(false, nil); res.Elapsed != 5_676 {
		t.Fatalf("plain run elapsed %v, want 5676 ns", res.Elapsed)
	}

	board := telemetry.NewBoard()
	_, res := run(false, board)
	st, ok := board.Latest()
	if !ok {
		t.Fatal("no status published")
	}
	if st.Seq != 12 || st.VirtualNs != 6_000 || res.Elapsed != 6_000 {
		t.Fatalf("status: %d ticks, last at %d, elapsed %v; want 12 ticks, last at 6000, elapsed 6000",
			st.Seq, st.VirtualNs, res.Elapsed)
	}

	s, res := run(true, nil)
	a, err := s.CongestionArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.Windows); n != 12 || a.Windows[n-1].EndNs != 6_000 || res.Elapsed != 6_000 {
		t.Fatalf("congestion: %d windows, elapsed %v; want 12 windows ending at 6000, elapsed 6000",
			n, res.Elapsed)
	}
}
