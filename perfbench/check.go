package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"prdrb/internal/runner"
)

// checkDrain returns an error naming the first drain check the finished run
// fails: every workload must deliver everything it offered, losing nothing.
func checkDrain(s *runner.Sim, res runner.Results) error {
	offered, delivered, _ := s.Net.ThroughputTotals()
	switch {
	case delivered == 0:
		return fmt.Errorf("check delivered>0: nothing was delivered")
	case res.AcceptedRatio != 1:
		return fmt.Errorf("check accepted_ratio: %v, want 1", res.AcceptedRatio)
	case delivered != offered:
		return fmt.Errorf("check delivered==offered: delivered %d, offered %d", delivered, offered)
	case res.DroppedPkts != 0:
		return fmt.Errorf("check dropped_pkts: %d, want 0", res.DroppedPkts)
	case res.UnreachableMsgs != 0:
		return fmt.Errorf("check unreachable_msgs: %d, want 0", res.UnreachableMsgs)
	}
	return nil
}

// digest fingerprints everything a run simulated: the Results (which carry
// the aggregated core.Stats) plus the engine and network counters. Runs of
// one seed must agree on it whatever the host, the tracing or the way
// Execute was sliced.
func digest(s *runner.Sim, res runner.Results) string {
	issued, freePeak := s.Net.PacketPoolStats()
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v|events=%d|issued=%d|freepeak=%d|predacks=%d/%d|stalls=%d",
		res, s.Processed(), issued, freePeak,
		s.Net.PredictiveAcksSent(), s.Net.PredictiveAcksDropped(), s.Net.CreditsStalled())))
	return hex.EncodeToString(h[:8])
}
